//! `fl-cifar10`: the paper's simulator setup (`N = 100`, `K = 20`, CIFAR-10 stand-in,
//! paper CNN) with FMore top-K selection. Every round does real local training, FedAvg
//! and evaluation, so the `ml` layer dominates it.
//!
//! The untraced run drives [`FederatedTrainer::run_round`], the path users call. The
//! traced run drives the same round stage by stage through the public `engine` calls
//! (`collect_bids`, `auction_select`, `local_training_with`, `aggregate_with_rule`) and
//! the global model's evaluation, so each call can be timed; both runs must reproduce
//! the committed accuracy trajectory bit for bit.
//!
//! The workload trains one fixed instance (trainer seed [`TRAINER_SEED`]) whatever the
//! benchmark seed: its correctness check compares against a committed reference, and
//! rounds-to-target differs by up to a fifth between instances. With the instance fixed,
//! rounds-to-target is part of the checked trajectory, and the time to reach it is the
//! wall time of a fixed prefix of the timed rounds: the run prints it as a note, not as a
//! metric of its own.

use crate::report::{metric, Check, Outcome};
use crate::stats::{median, percentile};
use crate::sys::{peak_rss_mb, process_cpu_ns, Budget};
use crate::trace::Tracer;
use fmore_auction::{Auction, CobbDouglas, EquilibriumSolver, LinearCost, NodeId, ScoringRule};
use fmore_fl::aggregator::{AggregationScratch, FedAvg};
use fmore_fl::client::EdgeClient;
use fmore_fl::config::FlConfig;
use fmore_fl::engine::{self, FanOutGranularity, LocalUpdate, RoundEngine, SlotState, TrainingJob};
use fmore_fl::metrics::{RoundMetrics, RoundOutcome, WinnerInfo};
use fmore_fl::selection::{AuctionSelectionConfig, SelectionStrategy};
use fmore_fl::trainer::FederatedTrainer;
use fmore_ml::arena::ScratchArena;
use fmore_ml::dataset::{image_spec_for, Dataset, TaskKind};
use fmore_ml::model::{Model, Sequential};
use fmore_ml::models;
use fmore_ml::partition::partition_non_iid;
use fmore_numerics::rng::derive_seed;
use fmore_numerics::{seeded_rng, Distribution1D, UniformDist};
use rand::rngs::StdRng;
use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "fl-cifar10";
/// Test accuracy the trajectory must reach within the run.
pub const TARGET_ACCURACY: f64 = 0.5;
/// Seed of the one trained instance.
pub const TRAINER_SEED: u64 = 1;
/// Per-round test accuracies of the instance, as `round bits decimal` lines.
const REFERENCE: &str = include_str!("../reference/fl-cifar10.txt");

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rounds of the untraced run (at least 100, so ten lie beyond p90).
    pub rounds: usize,
    /// Set-ups timed; `setup_s` is their median.
    pub setup_reps: usize,
    /// Rounds the traced run steps the untraced trainer and the traced replica through.
    pub traced_rounds: usize,
    /// Extra rounds whose training also runs inline, for `engine.train_speedup`.
    pub speedup_rounds: usize,
}

impl Plan {
    /// The benchmark's plan.
    pub fn full() -> Self {
        Self {
            rounds: 100,
            setup_reps: 9,
            traced_rounds: 50,
            speedup_rounds: 6,
        }
    }

    /// Just enough rounds to reach the target, for tests.
    pub fn smoke() -> Self {
        Self {
            rounds: rounds_to_target(&reference()).unwrap_or(1),
            setup_reps: 1,
            traced_rounds: 2,
            speedup_rounds: 1,
        }
    }
}

/// The paper's simulator configuration on the CIFAR-10 stand-in.
pub fn config() -> FlConfig {
    FlConfig::paper_simulation(TaskKind::Cifar10)
}

/// The committed per-round accuracies.
pub fn reference() -> Vec<f64> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let bits = l
                .split_whitespace()
                .nth(1)
                .expect("reference line has bits");
            f64::from_bits(u64::from_str_radix(bits, 16).expect("reference bits are hex"))
        })
        .collect()
}

/// The reference file's text for an accuracy trajectory.
pub fn reference_text(accuracies: &[f64]) -> String {
    let mut text = format!(
        "# Per-round test accuracy of {NAME}: FlConfig::paper_simulation(Cifar10), FMore \
         top-K, trainer seed {TRAINER_SEED}.\n# round accuracy_bits accuracy\n"
    );
    for (i, a) in accuracies.iter().enumerate() {
        text.push_str(&format!("{} {:016x} {a}\n", i + 1, a.to_bits()));
    }
    text
}

/// 1-based round at which `accuracies` first reach the target.
pub fn rounds_to_target(accuracies: &[f64]) -> Option<usize> {
    accuracies
        .iter()
        .position(|&a| a >= TARGET_ACCURACY)
        .map(|i| i + 1)
}

fn trajectory_hash(accuracies: &[f64]) -> u64 {
    let mut digest = crate::stats::Digest::default();
    for a in accuracies {
        digest.eat(a.to_bits());
    }
    digest.0
}

/// Checks a trajectory against the same-length prefix of the reference.
fn trajectory_check(name: &'static str, accuracies: &[f64]) -> Check {
    let reference = reference();
    let expected = &reference[..accuracies.len().min(reference.len())];
    let ok = expected.len() == accuracies.len()
        && expected
            .iter()
            .zip(accuracies)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    Check::new(
        name,
        ok,
        format!(
            "rounds={} rounds_to_target={:?} (reference {:?}) trajectory_hash={:016x} (reference {:016x})",
            accuracies.len(),
            rounds_to_target(accuracies),
            rounds_to_target(expected),
            trajectory_hash(accuracies),
            trajectory_hash(expected),
        ),
    )
}

fn build_trainer(budget: &Budget) -> Result<FederatedTrainer, Box<dyn Error>> {
    Ok(FederatedTrainer::with_engine(
        config(),
        SelectionStrategy::fmore(),
        TRAINER_SEED,
        budget.engine(),
    )?)
}

/// Builds the trainer `reps` times and keeps the last; returns it with each build's time.
fn timed_setups(
    budget: &Budget,
    reps: usize,
) -> Result<(FederatedTrainer, Vec<f64>), Box<dyn Error>> {
    let mut trainer = None;
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(trainer.take());
        let t0 = Instant::now();
        trainer = Some(build_trainer(budget)?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((trainer.expect("at least one set-up ran"), secs))
}

/// Runs `rounds` trainer rounds; returns per-round milliseconds, accuracies and failures.
fn trainer_rounds(trainer: &mut FederatedTrainer, rounds: usize) -> (Vec<f64>, Vec<f64>, usize) {
    let mut ms = Vec::with_capacity(rounds);
    let mut accuracies = Vec::with_capacity(rounds);
    let mut failed = 0;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let result = trainer.run_round();
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(m) => accuracies.push(m.accuracy),
            Err(_) => {
                failed += 1;
                accuracies.push(f64::NAN);
            }
        }
    }
    (ms, accuracies, failed)
}

/// The untraced run: set-up, then the fixed round loop, then the reference check.
pub fn measure(plan: &Plan, budget: &Budget) -> Result<Outcome, Box<dyn Error>> {
    let (mut trainer, mut setup) = timed_setups(budget, plan.setup_reps)?;
    let loop_start = Instant::now();
    let (ms, accuracies, failed) = trainer_rounds(&mut trainer, plan.rounds);
    let loop_secs = loop_start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let live_threads = crate::sys::live_threads();
    drop(trainer);

    let mut outcome = Outcome {
        rounds: plan.rounds,
        attempted: plan.rounds,
        failed,
        live_threads,
        checks: vec![trajectory_check("accuracy trajectory", &accuracies)],
        ..Outcome::default()
    };
    outcome.metrics.push(metric("setup_s", median(&mut setup)));
    outcome
        .metrics
        .push(metric("rounds_per_s", plan.rounds as f64 / loop_secs));
    let mut sorted = ms.clone();
    outcome
        .metrics
        .push(metric("round_ms_p50", percentile(&mut sorted, 0.5)));
    outcome
        .metrics
        .push(metric("round_ms_p90", percentile(&mut sorted, 0.9)));
    if let Some(rss) = rss {
        outcome.metrics.push(metric("peak_rss_mb", rss));
    }
    match rounds_to_target(&accuracies) {
        Some(hit) => outcome.notes.push(format!(
            "target accuracy {TARGET_ACCURACY} reached in round {hit}, {:.3} s into the round loop",
            ms[..hit].iter().sum::<f64>() / 1e3
        )),
        None => outcome.checks.push(Check::new(
            "target reached",
            false,
            format!(
                "accuracy never reached {TARGET_ACCURACY} in {} rounds",
                plan.rounds
            ),
        )),
    }
    outcome.notes.push(format!(
        "samples round_ms={} setup={} target_accuracy={TARGET_ACCURACY}",
        ms.len(),
        setup.len()
    ));
    Ok(outcome)
}

/// The trainer's round, rebuilt from the public stage calls so each can be timed. Built
/// and stepped exactly as [`FederatedTrainer`] does, so its history is bit-identical.
pub(crate) struct StagedTrainer {
    config: FlConfig,
    train: Arc<Dataset>,
    test: Dataset,
    test_indices: Vec<usize>,
    clients: Vec<EdgeClient>,
    global: Sequential,
    solver: EquilibriumSolver,
    auction: Auction,
    engine: RoundEngine,
    rng: StdRng,
    seed: u64,
    round: usize,
    slots: Vec<Option<SlotState>>,
    global_params: Arc<Vec<f64>>,
    eval_arena: ScratchArena,
    avg_buf: Vec<f64>,
    agg_scratch: AggregationScratch,
}

/// What one staged round measured beside its spans.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageCounts {
    /// Samples trained (winner subset sizes times local epochs).
    pub samples: usize,
    /// Process CPU time spent during the training call, when the platform reports it.
    pub train_cpu_ns: Option<u64>,
    /// Training time of the same jobs on the inline engine, when asked for.
    pub inline_train_ns: Option<u64>,
    /// Whether the inline training produced the same updates, when asked for.
    pub inline_matches: Option<bool>,
}

impl StagedTrainer {
    /// Builds the trainer's state from `config` and `seed`; also returns the time spent
    /// building the equilibrium solver.
    pub fn new(
        config: FlConfig,
        seed: u64,
        engine: RoundEngine,
    ) -> Result<(Self, f64), Box<dyn Error>> {
        config.validate()?;
        let cfg = AuctionSelectionConfig::default();
        let mut rng = seeded_rng(seed);
        let spec = image_spec_for(config.task);
        let train = spec.generate(config.train_samples, &mut rng);
        let test = spec.generate(config.test_samples, &mut rng);
        let shards = partition_non_iid(&train, &config.partition, &mut rng);
        let theta = UniformDist::new(config.theta_range.0, config.theta_range.1)?;
        let clients = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let t = theta.sample(&mut rng);
                EdgeClient::new(NodeId(i as u64), shard, t, derive_seed(seed, i as u64 + 1))
            })
            .collect();
        let global = models::model_for_task(config.task, &mut rng);

        let t0 = Instant::now();
        let scoring = CobbDouglas::with_scale(cfg.scoring_scale, cfg.scoring_exponents.clone())?;
        let solver = EquilibriumSolver::builder()
            .scoring(scoring.clone())
            .cost(LinearCost::new(cfg.cost_coefficients.clone())?)
            .theta(theta)
            .bounds(vec![(0.0, 1.0); cfg.dims()])
            .population(config.clients)
            .winners(config.winners_per_round)
            .grid_size(128)
            .build()?;
        let solver_ms = t0.elapsed().as_secs_f64() * 1e3;
        let auction = Auction::new(
            ScoringRule::new(scoring),
            config.winners_per_round,
            cfg.selection,
            cfg.pricing,
        );
        let test_indices = (0..test.len()).collect();
        Ok((
            Self {
                config,
                train: Arc::new(train),
                test,
                test_indices,
                clients,
                global,
                solver,
                auction,
                engine,
                rng,
                seed,
                round: 0,
                slots: Vec::new(),
                global_params: Arc::new(Vec::new()),
                eval_arena: ScratchArena::new(),
                avg_buf: Vec::new(),
                agg_scratch: AggregationScratch::new(),
            },
            solver_ms,
        ))
    }

    /// Runs one round, recording a `trainer.round` span with one child per stage. With
    /// `replay_inline`, the round's training jobs are also run on the inline engine (after
    /// the pooled call, inside the round) and compared.
    pub fn round(
        &mut self,
        tracer: &Tracer,
        replay_inline: bool,
    ) -> Result<(RoundMetrics, StageCounts), Box<dyn Error>> {
        let r = (self.round + 1) as u32;
        let (round_id, round_start) = tracer.open();
        for client in &mut self.clients {
            client.refresh_availability(self.config.availability, &self.train);
        }
        let max_data = self.config.partition.size_range.1 as f64;
        let num_classes = self.train.num_classes();
        let bids = tracer.span("engine.collect_bids", round_id, r, || {
            engine::collect_bids(&self.clients, &self.solver, max_data, num_classes)
        })?;
        let clients = &self.clients;
        let (winners, all_scores) = tracer.span("engine.auction_select", round_id, r, || {
            engine::auction_select(&self.auction, bids, &mut self.rng, |award| {
                let client = &clients[award.node.0 as usize];
                let declared = (award.quality.get(0).unwrap_or(0.0) * max_data).round() as usize;
                WinnerInfo {
                    client: award.node.0 as usize,
                    node: award.node,
                    data_size: declared.clamp(1, client.data_size().max(1)),
                    categories: client.categories(),
                    score: award.score,
                    payment: award.payment,
                }
            })
        })?;

        self.round += 1;
        let jobs = self.training_jobs(&winners);
        let mut counts = StageCounts {
            samples: jobs.iter().map(|j| j.state.indices.len() * j.epochs).sum(),
            ..StageCounts::default()
        };
        let replay = replay_inline.then(|| jobs.clone());
        let cpu_before = process_cpu_ns();
        let results = tracer.span("engine.local_training", round_id, r, || {
            engine::local_training_with(&self.engine, jobs, FanOutGranularity::PerWinner)
        })?;
        counts.train_cpu_ns = process_cpu_ns()
            .zip(cpu_before)
            .map(|(after, before)| after - before);
        if let Some(jobs) = replay {
            let t0 = Instant::now();
            let inline = engine::local_training_with(
                &RoundEngine::inline(),
                jobs,
                FanOutGranularity::PerWinner,
            )?;
            counts.inline_train_ns = Some(t0.elapsed().as_nanos() as u64);
            let same = |a: &LocalUpdate, b: &LocalUpdate| {
                a.slot == b.slot
                    && a.weight.to_bits() == b.weight.to_bits()
                    && a.parameters.len() == b.parameters.len()
                    && a.parameters
                        .iter()
                        .zip(&b.parameters)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            };
            counts.inline_matches = Some(
                inline.len() == results.len()
                    && inline
                        .iter()
                        .zip(&results)
                        .all(|((a, _), (b, _))| same(a, b)),
            );
        }

        let mut updates = Vec::with_capacity(results.len());
        for (update, state) in results {
            self.slots[update.slot] = Some(state);
            updates.push(update);
        }
        tracer.span("aggregator.aggregate", round_id, r, || {
            engine::aggregate_with_rule(&FedAvg, &updates, &mut self.agg_scratch, &mut self.avg_buf)
        })?;
        if !self.avg_buf.is_empty() {
            self.global.set_parameters(&self.avg_buf);
        }
        for update in updates {
            if let Some(state) = self.slots[update.slot].as_mut() {
                state.params = update.parameters;
            }
        }
        let eval = tracer.span("ml.evaluate", round_id, r, || {
            self.global
                .evaluate_in(&mut self.eval_arena, &self.test, &self.test_indices)
        });
        tracer.close(round_id, round_start, 0, r, "trainer.round");
        let outcome = RoundOutcome::all_completed(winners.len());
        Ok((
            RoundMetrics {
                round: self.round,
                accuracy: eval.accuracy,
                loss: eval.loss,
                winners,
                all_scores,
                outcome,
            },
            counts,
        ))
    }

    /// The trainer's serial job preparation: each winner's training subset drawn through
    /// its client's RNG in slot order, one shared parameter snapshot.
    fn training_jobs(&mut self, winners: &[WinnerInfo]) -> Vec<TrainingJob> {
        match Arc::get_mut(&mut self.global_params) {
            Some(buf) => self.global.parameters_into(buf),
            None => self.global_params = Arc::new(self.global.parameters()),
        }
        if self.slots.len() < winners.len() {
            self.slots.resize_with(winners.len(), || None);
        }
        winners
            .iter()
            .enumerate()
            .map(|(slot, winner)| {
                let mut state = self.slots[slot]
                    .take()
                    .unwrap_or_else(|| SlotState::new(self.global.clone()));
                self.clients[winner.client]
                    .draw_training_subset_into(winner.data_size, &mut state.indices);
                TrainingJob {
                    slot,
                    client: winner.client,
                    state,
                    global_params: Arc::clone(&self.global_params),
                    data: Arc::clone(&self.train),
                    epochs: self.config.local_epochs,
                    learning_rate: self.config.learning_rate,
                    batch_size: self.config.batch_size,
                    seed: derive_seed(self.seed, (self.round as u64) << 32 | winner.client as u64),
                }
            })
            .collect()
    }
}

/// Mean per round, in milliseconds, of the spans named `name` in rounds `1..=rounds`.
fn stage_ms(spans: &[crate::trace::Span], name: &str, rounds: usize) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == name && (s.round as usize) <= rounds)
        .map(|s| s.duration_ns())
        .sum();
    total as f64 / 1e6 / rounds as f64
}

/// The traced run: the trainer (untraced) and the staged replica (traced) step through
/// the same rounds in lockstep, so both see the same machine state; then the replica runs
/// a few more rounds whose training is replayed inline for the speed-up. Per-layer
/// metrics come from the spans.
pub fn trace(plan: &Plan, budget: &Budget, tracer: &Tracer) -> Result<Outcome, Box<dyn Error>> {
    let (mut trainer, mut trainer_setup) = timed_setups(budget, plan.setup_reps)?;
    let mut solver_setup = Vec::new();
    let mut staged = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(staged.take());
        let (built, solver_ms) =
            StagedTrainer::new(config(), TRAINER_SEED, trainer.engine().clone())?;
        solver_setup.push(solver_ms);
        staged = Some(built);
    }
    let mut staged = staged.expect("at least one set-up ran");

    let rounds = plan.traced_rounds;
    let mut untraced_ms = Vec::with_capacity(rounds);
    let mut untraced_acc = Vec::with_capacity(rounds);
    let mut accuracies = Vec::new();
    let mut samples = 0usize;
    let mut train_cpu_ns = Some(0u64);
    let mut inline_ns = 0u64;
    let mut inline_matches = true;
    let mut failed = 0;
    for i in 0..rounds + plan.speedup_rounds {
        if i < rounds {
            let (ms, acc, f) = trainer_rounds(&mut trainer, 1);
            untraced_ms.extend(ms);
            untraced_acc.extend(acc);
            failed += f;
        }
        match staged.round(tracer, i >= rounds) {
            Ok((m, counts)) => {
                accuracies.push(m.accuracy);
                if i < rounds {
                    samples += counts.samples;
                    train_cpu_ns = train_cpu_ns.zip(counts.train_cpu_ns).map(|(a, b)| a + b);
                } else {
                    inline_ns += counts.inline_train_ns.unwrap_or(0);
                    inline_matches &= counts.inline_matches == Some(true);
                }
            }
            Err(_) => {
                failed += 1;
                accuracies.push(f64::NAN);
            }
        }
    }
    drop(trainer);
    let spans = tracer.spans();

    let mut traced_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "trainer.round" && (s.round as usize) <= rounds)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let round_ms = traced_ms.iter().sum::<f64>() / rounds as f64;
    let collect = stage_ms(&spans, "engine.collect_bids", rounds);
    let auction = stage_ms(&spans, "engine.auction_select", rounds);
    let train = stage_ms(&spans, "engine.local_training", rounds);
    let aggregate = stage_ms(&spans, "aggregator.aggregate", rounds);
    let eval = stage_ms(&spans, "ml.evaluate", rounds);
    let other = round_ms - (collect + auction + train + aggregate + eval);
    let pooled_speedup_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.local_training" && (s.round as usize) > rounds)
        .map(|s| s.duration_ns())
        .sum();

    let mut outcome = Outcome {
        rounds: rounds + plan.speedup_rounds,
        attempted: 2 * rounds + plan.speedup_rounds,
        failed,
        live_threads: crate::sys::live_threads(),
        ..Outcome::default()
    };
    outcome.checks.push(trajectory_check(
        "untraced accuracy trajectory",
        &untraced_acc,
    ));
    outcome
        .checks
        .push(trajectory_check("staged accuracy trajectory", &accuracies));
    outcome.checks.push(Check::new(
        "inline training replay",
        inline_matches,
        format!("{} rounds trained on both engines", plan.speedup_rounds),
    ));
    outcome.checks.push(Check::new(
        "stage split residual",
        other >= 0.0,
        format!("trainer.other_ms={other:.4}"),
    ));
    let m = &mut outcome.metrics;
    m.push(metric("engine.collect_bids_ms", collect));
    m.push(metric("engine.auction_ms", auction));
    m.push(metric("engine.train_ms", train));
    if let Some(cpu) = train_cpu_ns {
        let wall_ns = train * 1e6 * rounds as f64;
        m.push(metric(
            "engine.train_busy_share",
            cpu as f64 / (wall_ns * budget.runnable() as f64),
        ));
    }
    m.push(metric(
        "engine.train_speedup",
        inline_ns as f64 / pooled_speedup_ns.max(1) as f64,
    ));
    m.push(metric("ml.train_samples", samples as f64 / rounds as f64));
    m.push(metric(
        "ml.train_samples_per_s",
        samples as f64 / (train * rounds as f64 / 1e3),
    ));
    m.push(metric("ml.eval_ms", eval));
    m.push(metric("aggregator.aggregate_ms", aggregate));
    m.push(metric("trainer.other_ms", other));
    m.push(metric("setup.trainer_ms", median(&mut trainer_setup) * 1e3));
    m.push(metric("setup.solver_ms", median(&mut solver_setup)));
    let traced_p50 = median(&mut traced_ms);
    let untraced_p50 = median(&mut untraced_ms.clone());
    m.push(metric("trace.overhead", traced_p50 / untraced_p50));
    outcome.notes.push(format!(
        "split {NAME} per round over {rounds} rounds: round {round_ms:.3} ms = collect_bids {collect:.3} \
         + auction {auction:.3} + train {train:.3} + aggregate {aggregate:.3} + eval {eval:.3} \
         + other {other:.3}"
    ));
    outcome.notes.push(format!(
        "trace overhead: traced p50 {traced_p50:.3} ms / untraced p50 {untraced_p50:.3} ms over the same {rounds} rounds"
    ));
    Ok(outcome)
}
