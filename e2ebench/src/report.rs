//! The metric catalogue and the output every run prints.

use std::fmt::Write;

/// Whether a metric comes from the untraced run or the traced one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the system sees; measured with tracing off.
    EndToEnd,
    /// One layer's share of the work; measured in the traced run.
    PerLayer,
}

/// Every metric the benchmark can print, with its unit. `BENCHMARK.json` lists the same
/// names and units; the benchmark's tests keep the two in step.
pub const CATALOGUE: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::EndToEnd),
    ("rounds_per_s", "1/s", Kind::EndToEnd),
    ("round_ms_p50", "ms", Kind::EndToEnd),
    ("round_ms_p90", "ms", Kind::EndToEnd),
    ("peak_rss_mb", "MiB", Kind::EndToEnd),
    ("engine.collect_bids_ms", "ms", Kind::PerLayer),
    ("engine.auction_ms", "ms", Kind::PerLayer),
    ("engine.train_ms", "ms", Kind::PerLayer),
    ("engine.train_busy_share", "ratio", Kind::PerLayer),
    ("engine.train_speedup", "x", Kind::PerLayer),
    ("ml.train_samples", "count", Kind::PerLayer),
    ("ml.train_samples_per_s", "1/s", Kind::PerLayer),
    ("ml.eval_ms", "ms", Kind::PerLayer),
    ("aggregator.aggregate_ms", "ms", Kind::PerLayer),
    ("trainer.other_ms", "ms", Kind::PerLayer),
    ("engine.select_ms", "ms", Kind::PerLayer),
    ("population.fill_ms", "ms", Kind::PerLayer),
    ("population.fill_calls", "count", Kind::PerLayer),
    ("store.score_ms", "ms", Kind::PerLayer),
    ("store.shard_select_ms", "ms", Kind::PerLayer),
    ("store.merge_ms", "ms", Kind::PerLayer),
    ("engine.select_busy_share", "ratio", Kind::PerLayer),
    ("store.peak_bid_bytes", "bytes", Kind::PerLayer),
    ("executor.fanout_us", "us", Kind::PerLayer),
    ("service.run_round_us", "us", Kind::PerLayer),
    ("service.fill_us", "us", Kind::PerLayer),
    ("service.work_us", "us", Kind::PerLayer),
    ("service.self_us", "us", Kind::PerLayer),
    ("service.psi_refine_share", "ratio", Kind::PerLayer),
    ("service.attempts_per_round", "count", Kind::PerLayer),
    ("aggregator.quarantined_per_round", "count", Kind::PerLayer),
    ("executor.stall_wakeups", "count", Kind::PerLayer),
    ("setup.trainer_ms", "ms", Kind::PerLayer),
    ("setup.solver_ms", "ms", Kind::PerLayer),
    ("setup.service_ms", "ms", Kind::PerLayer),
    ("trace.overhead", "x", Kind::PerLayer),
];

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Looks `name` up in the catalogue and pairs it with `value`.
///
/// # Panics
///
/// On a name missing from the catalogue or a non-finite value: both are bugs in the
/// benchmark, never a property of the measured program.
pub fn metric(name: &str, value: f64) -> Metric {
    let &(name, unit, _) = CATALOGUE
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
    assert!(value.is_finite(), "metric {name} measured {value}");
    Metric { name, unit, value }
}

/// One correctness check, made outside the timed region.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was compared.
    pub name: &'static str,
    /// Whether it matched.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

impl Check {
    /// A check that passes when `ok`.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Self { name, ok, detail }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Rounds run in the measured pass.
    pub rounds: usize,
    /// Rounds attempted across the measured pass.
    pub attempted: usize,
    /// Rounds that returned an error.
    pub failed: usize,
    /// Live threads after the measured round loop, while the pool still runs.
    pub live_threads: Option<usize>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Metrics: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed and no round failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Names of the metrics, in output order.
    pub fn metric_names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.name).collect()
    }
}

/// The result object: the last line of every run's standard output.
pub fn result_json(outcome: &Outcome) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that reads back to the same f64,
        // always with a decimal point or exponent, which JSON accepts.
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    json
}
