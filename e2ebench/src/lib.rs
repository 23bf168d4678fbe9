//! End-to-end benchmark of the FMore workspace.
//!
//! One command runs a named workload from a seed, checks its outputs outside the timed
//! region, and prints every metric by name and unit. An untraced run measures what a user
//! sees; a separate traced run times the benchmark's own calls into each layer's public
//! functions and prints the per-layer split. See `README.md` for the workloads and the
//! rules that keep the figures steady.

pub mod fl_cifar10;
pub mod report;
pub mod select_1m;
pub mod service_fleet;
pub mod stats;
pub mod sys;
pub mod trace;

use report::{Kind, Outcome, CATALOGUE};
use std::error::Error;
use std::sync::Arc;
use sys::Budget;
use trace::{Span, Tracer};

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &[fl_cifar10::NAME, select_1m::NAME, service_fleet::NAME];

/// The fixed round count for a nominal run of `seconds` at `nominal_rate` rounds per
/// second: a function of the command line only, never of the machine's speed, and never
/// below 100 so that at least ten rounds lie beyond p90.
pub fn fixed_rounds(seconds: u64, nominal_rate: f64) -> usize {
    ((seconds as f64 * nominal_rate).ceil() as usize).max(100)
}

/// Times of a workload's repeated set-ups.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Whole set-ups, in seconds.
    pub total_s: Vec<f64>,
    /// Equilibrium-solver builds within them, in milliseconds.
    pub solver_ms: Vec<f64>,
    /// Service builds and admissions within them, in milliseconds.
    pub service_ms: Vec<f64>,
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small sizes with the same code paths, for tests.
    Smoke,
}

/// The metrics a run prints: every end-to-end metric untraced, every per-layer metric
/// traced, whatever the workload.
pub fn expected_metrics(traced: bool) -> Vec<&'static str> {
    let kind = if traced {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    CATALOGUE
        .iter()
        .filter(|(_, _, k)| *k == kind)
        .map(|(name, _, _)| *name)
        .collect()
}

/// Runs one workload; a traced run also returns its spans.
///
/// An untraced run measures the named workload alone. A traced run profiles every layer,
/// each on the workload that exercises it: it traces the named workload first and then
/// the others, so every per-layer metric has a value. Metrics two workloads share
/// (`setup.solver_ms`, `trace.overhead`) come from the named one.
///
/// # Errors
///
/// An unknown workload, or a set-up the library refused.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    scale: Scale,
    budget: &Budget,
) -> Result<(Outcome, Vec<Span>), Box<dyn Error>> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}").into());
    }
    let tracer = Arc::new(Tracer::default());
    if !traced {
        let outcome = run_one(workload, seed, seconds, false, scale, budget, &tracer)?;
        return Ok((outcome, tracer.spans()));
    }
    let order =
        std::iter::once(workload).chain(WORKLOADS.iter().copied().filter(|w| *w != workload));
    let mut merged = Outcome::default();
    for (i, name) in order.enumerate() {
        let part = run_one(name, seed, seconds, true, scale, budget, &tracer)?;
        if i == 0 {
            merged.rounds = part.rounds;
        }
        merged.attempted += part.attempted;
        merged.failed += part.failed;
        merged.live_threads = merged.live_threads.max(part.live_threads);
        merged.checks.extend(part.checks.into_iter().map(|mut c| {
            c.detail = format!("{name}: {}", c.detail);
            c
        }));
        merged
            .notes
            .extend(part.notes.into_iter().map(|n| format!("{name}: {n}")));
        for m in part.metrics {
            if !merged.metric_names().contains(&m.name) {
                merged.metrics.push(m);
            }
        }
    }
    let order = expected_metrics(true);
    merged
        .metrics
        .sort_by_key(|m| order.iter().position(|n| *n == m.name));
    Ok((merged, tracer.spans()))
}

fn run_one(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    scale: Scale,
    budget: &Budget,
    tracer: &Arc<Tracer>,
) -> Result<Outcome, Box<dyn Error>> {
    let smoke = scale == Scale::Smoke;
    Ok(match workload {
        fl_cifar10::NAME => {
            let plan = if smoke {
                fl_cifar10::Plan::smoke()
            } else {
                fl_cifar10::Plan::full()
            };
            if traced {
                fl_cifar10::trace(&plan, budget, tracer)?
            } else {
                fl_cifar10::measure(&plan, budget)?
            }
        }
        select_1m::NAME => {
            let plan = if smoke {
                select_1m::Plan::smoke()
            } else {
                select_1m::Plan::full(seconds)
            };
            if traced {
                select_1m::trace(&plan, budget, seed, tracer)?
            } else {
                select_1m::measure(&plan, budget, seed)?
            }
        }
        _ => {
            let plan = if smoke {
                service_fleet::Plan::smoke()
            } else {
                service_fleet::Plan::full(seconds)
            };
            if traced {
                service_fleet::trace(&plan, budget, seed, tracer)?
            } else {
                service_fleet::measure(&plan, budget, seed)?
            }
        }
    })
}
