//! `service-fleet`: a closed loop of eight tenants on one `AuctionService`. Tenants mix
//! FMore and ψ-FMore over v1 and v2 populations of 2,048 bidders, with synthetic winner
//! work and synthetic updates screened by the default median-norm rule. Each tenant asks
//! for its next round only after its previous one completed, as an FL job must (its next
//! round needs the last aggregate); one driver thread serves the tenants in turn.
//!
//! Shards are tiny, so per-round fixed costs dominate: service bookkeeping, the ψ
//! histogram and the executor's fan-out latency. It is also the only workload that runs
//! ψ admission (histogram, rank plan, refinement pass) and the v1 bid derivation.

use crate::report::{metric, Check, Outcome};
use crate::stats::{median, percentile};
use crate::sys::{peak_rss_mb, Budget};
use crate::trace::{covered_ns, Tracer};
use crate::SetupTimes;
use fmore_auction::{
    Additive, Auction, EquilibriumSolver, LinearCost, PricingRule, ScoringRule, SelectionRule,
};
use fmore_fl::engine::RoundEngine;
use fmore_fl::service::{
    AuctionService, BidSource, DeadlineSpec, JobId, JobSpec, ServiceConfig, WinnerWork,
};
use fmore_mec::population::{NodePopulation, PopulationSpec, SpecVersion};
use fmore_numerics::rng::derive_seed;
use fmore_numerics::UniformDist;
use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "service-fleet";
/// Tenants sharing the service.
pub const TENANTS: usize = 8;
/// Bidders per tenant.
pub const POPULATION: usize = 2_048;
/// Bids per shard.
pub const SHARD: usize = 512;
/// Winners per round.
pub const K: usize = 16;
/// Dimension of the synthetic per-winner updates.
pub const UPDATE_DIM: usize = 8;
/// ψ of the ψ-FMore tenants.
pub const PSI: f64 = 0.7;
/// Fleet rounds per second of `--seconds` on a 2-thread x86-64 VM; sets the fixed round
/// count.
const NOMINAL_ROUNDS_PER_S: f64 = 4_000.0;
/// Fleets run one after another in an untraced run; see [`measure`].
const PASSES: usize = 5;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rounds per tenant in each pass of the untraced run.
    pub rounds: usize,
    /// Fresh fleets run one after another in the untraced run.
    pub passes: usize,
    /// Rounds per tenant in each pass of the traced run.
    pub traced_rounds: usize,
    /// Set-ups timed before each pass; `setup_s` is the median of all of them.
    pub setup_reps: usize,
}

impl Plan {
    /// The benchmark's plan for a nominal run length.
    pub fn full(seconds: u64) -> Self {
        Self {
            rounds: crate::fixed_rounds(seconds, NOMINAL_ROUNDS_PER_S / PASSES as f64)
                .div_ceil(TENANTS),
            passes: PASSES,
            traced_rounds: 250,
            setup_reps: 9,
        }
    }

    /// A few rounds, for tests.
    pub fn smoke() -> Self {
        Self {
            rounds: 4,
            passes: 2,
            traced_rounds: 3,
            setup_reps: 2,
        }
    }
}

fn selection_for(tenant: usize) -> SelectionRule {
    if tenant.is_multiple_of(2) {
        SelectionRule::TopK
    } else {
        SelectionRule::PsiFMore { psi: PSI }
    }
}

/// Three of the eight tenants (0, 3 and 6) derive v1 bids, which cost about twice what v2
/// bids do. An even split would put p50 on the boundary between the two modes of the
/// round-time distribution, where it jumps from one mode to the other between runs.
fn version_for(tenant: usize) -> SpecVersion {
    if tenant.is_multiple_of(3) {
        SpecVersion::V1
    } else {
        SpecVersion::V2
    }
}

/// The tenants' specs, from the benchmark seed; with a tracer, the bid and work closures
/// record `service.fill` and `service.work` spans under the tracer's round context. Also
/// returns the milliseconds spent building the eight solvers.
pub(crate) fn specs(
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Vec<JobSpec>, f64), Box<dyn Error>> {
    let mut solver_ms = 0.0;
    let mut specs = Vec::with_capacity(TENANTS);
    for tenant in 0..TENANTS {
        let seed = derive_seed(seed, tenant as u64 + 1);
        let selection = selection_for(tenant);
        let pop_spec =
            PopulationSpec::scale_default(POPULATION, seed).with_version(version_for(tenant));
        let population = NodePopulation::new(pop_spec)?;
        let scoring = Additive::new(vec![0.4, 0.3, 0.3])?;
        let t0 = Instant::now();
        let solver = Arc::new(
            EquilibriumSolver::builder()
                .scoring(scoring.clone())
                .cost(LinearCost::new(vec![0.3, 0.3, 0.4])?)
                .theta(UniformDist::new(
                    pop_spec.theta_range.0,
                    pop_spec.theta_range.1,
                )?)
                .bounds(vec![(0.0, 1.0); 3])
                .population(POPULATION)
                .winners(K)
                .grid_size(64)
                .build()?,
        );
        solver_ms += t0.elapsed().as_secs_f64() * 1e3;
        let work = |round: u64, slot: usize, w: &fmore_fl::WinnerInfo| {
            (w.score + w.payment) * (1.0 + (round as f64 + slot as f64).sqrt())
        };
        let (source, work): (Arc<BidSource>, Arc<WinnerWork>) = match tracer {
            None => (
                Arc::new(move |range, round, store| {
                    population.bid_range_into_store(range, round, &solver, store)
                }),
                Arc::new(work),
            ),
            Some(tracer) => {
                let (t_fill, t_work) = (Arc::clone(tracer), Arc::clone(tracer));
                (
                    Arc::new(move |range, round, store| {
                        let (parent, r) = t_fill.context();
                        t_fill.span("service.fill", parent, r, || {
                            population.bid_range_into_store(range, round, &solver, store)
                        })
                    }),
                    Arc::new(move |round, slot, w| {
                        let (parent, r) = t_work.context();
                        t_work.span("service.work", parent, r, || work(round, slot, w))
                    }),
                )
            }
        };
        let scheme = match selection {
            SelectionRule::TopK => "fmore",
            SelectionRule::PsiFMore { .. } => "psi",
        };
        let version = match version_for(tenant) {
            SpecVersion::V1 => "v1",
            SpecVersion::V2 => "v2",
        };
        specs.push(JobSpec {
            name: format!("tenant{tenant}-{scheme}-{version}"),
            population: POPULATION,
            shard_size: SHARD,
            reserve: K,
            auction: Auction::new(
                ScoringRule::new(scoring),
                K,
                selection,
                PricingRule::FirstPrice,
            ),
            seed,
            deadline: (tenant % 2 == 1).then(DeadlineSpec::lenient),
            max_pending: 4,
            update_dim: UPDATE_DIM,
            watchdog: None,
            faults: None,
            fan_out: Default::default(),
            adversaries: None,
            reputation: None,
            aggregation: JobSpec::default_aggregation(),
            source,
            work: Some(work),
        });
    }
    Ok((specs, solver_ms))
}

/// A service on `engine` with every spec admitted; also returns the milliseconds spent
/// building the service and admitting the tenants.
fn admit(
    specs: &[JobSpec],
    engine: &RoundEngine,
) -> Result<(AuctionService, Vec<JobId>, f64), Box<dyn Error>> {
    let t0 = Instant::now();
    let service = AuctionService::with_engine(
        ServiceConfig {
            max_jobs: TENANTS,
            max_pending: 4,
        },
        engine.clone(),
    );
    let ids = specs
        .iter()
        .map(|spec| service.admit(spec.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((service, ids, t0.elapsed().as_secs_f64() * 1e3))
}

/// One timed set-up: engine, specs, service and admissions.
struct Setup {
    engine: RoundEngine,
    specs: Vec<JobSpec>,
    service: AuctionService,
    ids: Vec<JobId>,
}

/// Sets up `reps` times, keeping the last; returns it with the set-ups' times.
fn timed_setups(
    plan: &Plan,
    budget: &Budget,
    seed: u64,
) -> Result<(Setup, SetupTimes), Box<dyn Error>> {
    let mut kept = None;
    let mut times = SetupTimes::default();
    for _ in 0..plan.setup_reps.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let engine = budget.engine();
        let (specs, solver) = specs(seed, None)?;
        let (service, ids, service_ms) = admit(&specs, &engine)?;
        times.total_s.push(t0.elapsed().as_secs_f64());
        times.solver_ms.push(solver);
        times.service_ms.push(service_ms);
        kept = Some(Setup {
            engine,
            specs,
            service,
            ids,
        });
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// The closed loop: `rounds` rounds per tenant, tenants served in turn. Returns
/// per-round milliseconds and the failures.
fn closed_loop(service: &AuctionService, ids: &[JobId], rounds: usize) -> (Vec<f64>, usize) {
    let mut ms = Vec::with_capacity(rounds * ids.len());
    let mut failed = 0;
    for _ in 0..rounds {
        for &id in ids {
            let t0 = Instant::now();
            let ok = service.run_round(id).is_ok();
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            failed += usize::from(!ok);
        }
    }
    (ms, failed)
}

/// Each tenant's history fingerprint and failed-round count.
fn fingerprints(
    service: &AuctionService,
    ids: &[JobId],
) -> Result<Vec<(u64, usize)>, Box<dyn Error>> {
    ids.iter()
        .map(|&id| {
            let history = service.history(id)?;
            Ok((history.fingerprint(), history.failed()))
        })
        .collect()
}

/// The untraced run: `passes` times a fresh set-up and the closed loop, then each
/// tenant's solo replay. Every pass replays the same fleet from the same seed and must
/// leave the same histories. Spreading the set-ups over the run makes `setup_s` a median
/// over the machine's states during the whole run, not over the moment it started.
pub fn measure(plan: &Plan, budget: &Budget, seed: u64) -> Result<Outcome, Box<dyn Error>> {
    let mut setup_secs = Vec::new();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut fleets = Vec::new();
    let (mut failed, mut loop_secs) = (0, 0.0);
    let mut live_threads = None;
    let mut kept: Option<Setup> = None;
    for _ in 0..plan.passes.max(1) {
        drop(kept.take());
        let (setup, times) = timed_setups(plan, budget, seed)?;
        setup_secs.extend(times.total_s);
        let loop_start = Instant::now();
        let (ms, f) = closed_loop(&setup.service, &setup.ids, plan.rounds);
        loop_secs += loop_start.elapsed().as_secs_f64();
        live_threads = crate::sys::live_threads();
        passes.push(ms);
        failed += f;
        fleets.push(fingerprints(&setup.service, &setup.ids)?);
        kept = Some(setup);
    }
    let rss = peak_rss_mb();
    let setup = kept.expect("at least one pass ran");
    drop(setup.service);
    let mut ms = crate::stats::mean_per_round(&passes);

    let fleet = &fleets[0];
    let mut mismatched = Vec::new();
    for (spec, (fingerprint, _)) in setup.specs.iter().zip(fleet) {
        let (solo, ids, _) = admit(std::slice::from_ref(spec), &setup.engine)?;
        closed_loop(&solo, &ids, plan.rounds);
        let (solo_fingerprint, _) = fingerprints(&solo, &ids)?[0];
        if solo_fingerprint != *fingerprint {
            mismatched.push(spec.name.clone());
        }
    }
    let total = plan.rounds * TENANTS * passes.len();
    let mut outcome = Outcome {
        rounds: total,
        attempted: total,
        failed,
        live_threads,
        ..Outcome::default()
    };
    outcome.checks.push(Check::new(
        "passes agree",
        fleets.iter().all(|f| f == fleet),
        format!(
            "{} fleets of {TENANTS} tenants x {} rounds",
            fleets.len(),
            plan.rounds
        ),
    ));
    outcome.checks.push(Check::new(
        "tenant fingerprints vs solo replay",
        mismatched.is_empty() && fleet.iter().all(|&(_, f)| f == 0),
        format!(
            "{TENANTS} tenants x {} rounds; mismatched: {mismatched:?}",
            plan.rounds
        ),
    ));
    outcome
        .metrics
        .push(metric("setup_s", median(&mut setup_secs)));
    outcome
        .metrics
        .push(metric("rounds_per_s", total as f64 / loop_secs));
    outcome
        .metrics
        .push(metric("round_ms_p50", percentile(&mut ms, 0.5)));
    outcome
        .metrics
        .push(metric("round_ms_p90", percentile(&mut ms, 0.9)));
    if let Some(rss) = rss {
        outcome.metrics.push(metric("peak_rss_mb", rss));
    }
    outcome.notes.push(format!(
        "samples round_ms={} (each the mean of {} passes) setup={}",
        ms.len(),
        passes.len(),
        setup_secs.len()
    ));
    Ok(outcome)
}

/// The traced run: an untraced and a traced fleet on one engine, stepped in lockstep so
/// both see the same machine state; per-layer metrics from the spans and the traced
/// fleet's histories.
pub fn trace(
    plan: &Plan,
    budget: &Budget,
    seed: u64,
    tracer: &Arc<Tracer>,
) -> Result<Outcome, Box<dyn Error>> {
    let (setup, mut times) = timed_setups(plan, budget, seed)?;
    let (traced_specs, _) = specs(seed, Some(tracer))?;
    let (service, ids, _) = admit(&traced_specs, &setup.engine)?;
    let psi_tenant: Vec<bool> = (0..TENANTS)
        .map(|t| matches!(selection_for(t), SelectionRule::PsiFMore { .. }))
        .collect();
    let stall_wakeups = |engine: &RoundEngine| engine.pool().map(|pool| pool.stall_wakeups());
    let stalls_before = stall_wakeups(&setup.engine);
    let mut untraced_ms = Vec::with_capacity(plan.traced_rounds * TENANTS);
    let mut failed = 0;
    let mut fleet_round = 0u32;
    for _ in 0..plan.traced_rounds {
        for (&plain, &traced) in setup.ids.iter().zip(&ids) {
            fleet_round += 1;
            let t0 = Instant::now();
            failed += usize::from(setup.service.run_round(plain).is_err());
            untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let (id, start) = tracer.open();
            tracer.set_context(id, fleet_round);
            failed += usize::from(service.run_round(traced).is_err());
            tracer.close(id, start, 0, fleet_round, "service.run_round");
        }
    }
    let stalls = stall_wakeups(&setup.engine)
        .zip(stalls_before)
        .map(|(after, before)| after - before);
    let untraced = fingerprints(&setup.service, &setup.ids)?;
    let traced = fingerprints(&service, &ids)?;

    let (mut attempts, mut records, mut quarantined, mut summaries) =
        (0u64, 0usize, 0usize, 0usize);
    for &id in &ids {
        let history = service.history(id)?;
        records += history.rounds.len();
        for record in &history.rounds {
            attempts += u64::from(record.attempts);
            if let Ok(summary) = &record.outcome {
                quarantined += summary.quarantined;
                summaries += 1;
            }
        }
    }

    let spans = tracer.spans();
    let shards = POPULATION.div_ceil(SHARD);
    let mut children: std::collections::HashMap<u32, Vec<&crate::trace::Span>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let (mut round_ns, mut fill_ns, mut work_ns) = (0u64, 0u64, 0u64);
    let (mut psi_rounds, mut refined) = (0usize, 0usize);
    let mut traced_ms = Vec::new();
    for round in spans.iter().filter(|s| s.name == "service.run_round") {
        let kids = children.get(&round.id).map(Vec::as_slice).unwrap_or(&[]);
        let of = |name: &str| -> Vec<(u64, u64)> {
            kids.iter()
                .filter(|s| s.name == name)
                .map(|s| (s.start_ns, s.end_ns))
                .collect()
        };
        let (mut fills, mut works) = (of("service.fill"), of("service.work"));
        let fill_calls = fills.len();
        fill_ns += covered_ns(&mut fills, round.start_ns, round.end_ns);
        work_ns += covered_ns(&mut works, round.start_ns, round.end_ns);
        round_ns += round.duration_ns();
        traced_ms.push(round.duration_ns() as f64 / 1e6);
        let tenant = (round.round as usize - 1) % TENANTS;
        if psi_tenant[tenant] {
            psi_rounds += 1;
            refined += usize::from(fill_calls > shards);
        }
    }
    let n = traced_ms.len().max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / n;

    let total = plan.traced_rounds * TENANTS;
    let mut outcome = Outcome {
        rounds: total,
        attempted: 2 * total,
        failed,
        live_threads: crate::sys::live_threads(),
        ..Outcome::default()
    };
    outcome.checks.push(Check::new(
        "traced tenant fingerprints vs untraced",
        traced == untraced,
        format!("{TENANTS} tenants x {} rounds", plan.traced_rounds),
    ));
    // The bid fills finish before the winner work starts, so the two never overlap and
    // the service's own time is what they leave of the round.
    let self_us = us(round_ns) - us(fill_ns) - us(work_ns);
    outcome.checks.push(Check::new(
        "stage split residual",
        self_us >= 0.0,
        format!("run_round - fill - work = {self_us:.3} us"),
    ));
    let m = &mut outcome.metrics;
    m.push(metric("service.run_round_us", us(round_ns)));
    m.push(metric("service.fill_us", us(fill_ns)));
    m.push(metric("service.work_us", us(work_ns)));
    m.push(metric("service.self_us", self_us));
    m.push(metric(
        "service.psi_refine_share",
        refined as f64 / psi_rounds.max(1) as f64,
    ));
    m.push(metric(
        "service.attempts_per_round",
        attempts as f64 / records.max(1) as f64,
    ));
    m.push(metric(
        "aggregator.quarantined_per_round",
        quarantined as f64 / summaries.max(1) as f64,
    ));
    if let Some(stalls) = stalls {
        m.push(metric("executor.stall_wakeups", stalls as f64));
    }
    m.push(metric("setup.solver_ms", median(&mut times.solver_ms)));
    m.push(metric("setup.service_ms", median(&mut times.service_ms)));
    let traced_p50 = median(&mut traced_ms);
    let untraced_p50 = median(&mut untraced_ms);
    m.push(metric("trace.overhead", traced_p50 / untraced_p50));
    outcome.notes.push(format!(
        "split {NAME} per round over {total} rounds: run_round {:.3} us = fill {:.3} + work {:.3} + self {:.3}; \
         psi rounds refined {refined}/{psi_rounds}",
        us(round_ns),
        us(fill_ns),
        us(work_ns),
        self_us
    ));
    outcome.notes.push(format!(
        "trace overhead: traced p50 {:.4} ms / untraced p50 {:.4} ms over the same {total} rounds",
        traced_p50, untraced_p50
    ));
    Ok(outcome)
}
