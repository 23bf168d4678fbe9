//! `select-1m`: one job runs a streamed FMore top-K selection (`K = 64`) over a million
//! lazily derived v2 bidders every round, through `engine::auction_select_streamed`, with
//! no training. The round is `mec::population` bid derivation, `auction::store` scoring
//! and selection, and the executor's shard waves; `ml` is absent.
//!
//! Each round re-derives every bidder's per-round resources, so no two rounds see the
//! same bids. The round's RNG is a pure function of the seed and the round number, which
//! lets the correctness check replay every round on the inline engine.

use crate::report::{metric, Check, Outcome};
use crate::stats::{median, percentile, Digest};
use crate::sys::{empty_fanout_us, peak_rss_mb, process_cpu_ns, Budget};
use crate::trace::{covered_ns, Span, Tracer};
use crate::SetupTimes;
use fmore_auction::{
    Additive, Auction, AuctionError, BidStore, EquilibriumSolver, LinearCost, PricingRule,
    ScoringRule, SelectionRule, ShardSelection,
};
use fmore_fl::engine::{auction_select_streamed, RoundEngine, StreamedAuction};
use fmore_fl::metrics::WinnerInfo;
use fmore_fl::FlError;
use fmore_mec::population::{NodePopulation, PopulationSpec, SpecVersion};
use fmore_numerics::rng::derive_seed;
use fmore_numerics::{seeded_rng, UniformDist};
use rand::rngs::StdRng;
use std::error::Error;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "select-1m";
/// Winners per round.
pub const K: usize = 64;
/// Bids per shard.
pub const SHARD: usize = 8_192;
/// Standing candidates kept beyond `K`.
pub const RESERVE: usize = 64;
/// Rounds per second of `--seconds` on a 2-thread x86-64 VM; sets the fixed round count.
const NOMINAL_ROUNDS_PER_S: f64 = 25.0;
/// Passes over the rounds in an untraced run; see [`measure`].
const PASSES: usize = 5;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Bidders per round.
    pub population: usize,
    /// Rounds per pass.
    pub rounds: usize,
    /// Passes over the rounds in an untraced run.
    pub passes: usize,
    /// Set-ups timed before each pass; `setup_s` is the median of all of them.
    pub setup_reps: usize,
    /// Empty fan-outs timed for `executor.fanout_us`.
    pub fanout_reps: usize,
}

impl Plan {
    /// The benchmark's plan for a nominal run length.
    pub fn full(seconds: u64) -> Self {
        Self {
            population: 1_000_000,
            rounds: crate::fixed_rounds(seconds, NOMINAL_ROUNDS_PER_S / PASSES as f64),
            passes: PASSES,
            setup_reps: 9,
            fanout_reps: 2_001,
        }
    }

    /// A small population and a few rounds, for tests.
    pub fn smoke() -> Self {
        Self {
            population: 20_000,
            rounds: 3,
            passes: 2,
            setup_reps: 2,
            fanout_reps: 11,
        }
    }
}

/// One job's selection game: the lazily derived population, its tabulated equilibrium
/// solver, and the auction.
pub(crate) struct Game {
    population: NodePopulation,
    solver: Arc<EquilibriumSolver>,
    auction: Auction,
    selection_seed: u64,
}

impl Game {
    /// Builds the game of `n` bidders from the benchmark seed; also returns the time spent
    /// building the solver, in milliseconds.
    pub fn new(n: usize, seed: u64) -> Result<(Self, f64), Box<dyn Error>> {
        let spec =
            PopulationSpec::scale_default(n, derive_seed(seed, 1)).with_version(SpecVersion::V2);
        let population = NodePopulation::new(spec)?;
        let scoring = Additive::new(vec![0.4, 0.3, 0.3])?;
        let t0 = Instant::now();
        let solver = EquilibriumSolver::builder()
            .scoring(scoring.clone())
            .cost(LinearCost::new(vec![0.3, 0.3, 0.4])?)
            .theta(UniformDist::new(spec.theta_range.0, spec.theta_range.1)?)
            .bounds(vec![(0.0, 1.0); 3])
            .population(n)
            .winners(K)
            .grid_size(128)
            .build()?;
        let solver_ms = t0.elapsed().as_secs_f64() * 1e3;
        let auction = Auction::new(
            ScoringRule::new(scoring),
            K,
            SelectionRule::TopK,
            PricingRule::FirstPrice,
        );
        Ok((
            Self {
                population,
                solver: Arc::new(solver),
                auction,
                selection_seed: derive_seed(seed, 2),
            },
            solver_ms,
        ))
    }

    fn round_rng(&self, round: u64) -> StdRng {
        seeded_rng(derive_seed(self.selection_seed, round))
    }

    /// Derives the bids of `range` for `round` into `store`.
    fn fill(
        &self,
        range: Range<usize>,
        round: u64,
        store: &mut BidStore,
    ) -> Result<(), AuctionError> {
        self.population
            .bid_range_into_store(range, round, &self.solver, store)
    }

    /// One streamed selection round with the given shard fill.
    pub fn round<G>(
        &self,
        engine: &RoundEngine,
        round: u64,
        fill: Arc<G>,
    ) -> Result<StreamedAuction, FlError>
    where
        G: Fn(Range<usize>, &mut BidStore) -> Result<(), AuctionError> + Send + Sync + 'static,
    {
        let mut rng = self.round_rng(round);
        auction_select_streamed(
            &self.auction,
            self.population.len(),
            SHARD,
            RESERVE,
            engine,
            fill,
            &mut rng,
            |award| WinnerInfo {
                client: award.node.0 as usize,
                node: award.node,
                data_size: 1,
                categories: 1,
                score: award.score,
                payment: award.payment,
            },
        )
    }

    /// The untraced shard fill of `round`.
    fn plain_fill(
        &self,
        round: u64,
    ) -> Arc<impl Fn(Range<usize>, &mut BidStore) -> Result<(), AuctionError> + Send + Sync + 'static>
    {
        let population = self.population;
        let solver = Arc::clone(&self.solver);
        Arc::new(move |range: Range<usize>, store: &mut BidStore| {
            population.bid_range_into_store(range, round, &solver, store)
        })
    }
}

/// Folds one round's winner set into the run digest; returns whether the round has the
/// expected shape (`K` winners out of the whole population).
fn fold_round(digest: &mut Digest, round: u64, stage: &StreamedAuction, n: usize) -> bool {
    digest.eat(round);
    for w in &stage.winners {
        digest.eat(w.node.0);
        digest.eat(w.score.to_bits());
        digest.eat(w.payment.to_bits());
    }
    stage.winners.len() == K && stage.offered == n
}

/// Builds engine and game `reps` times, keeping the last; returns them with the set-ups'
/// times.
fn timed_setups(
    plan: &Plan,
    budget: &Budget,
    seed: u64,
) -> Result<(Game, RoundEngine, SetupTimes), Box<dyn Error>> {
    let mut kept = None;
    let mut times = SetupTimes::default();
    for _ in 0..plan.setup_reps.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let engine = budget.engine();
        let (game, solver) = Game::new(plan.population, seed)?;
        times.total_s.push(t0.elapsed().as_secs_f64());
        times.solver_ms.push(solver);
        kept = Some((game, engine));
    }
    let (game, engine) = kept.expect("at least one set-up ran");
    Ok((game, engine, times))
}

/// Runs rounds `1..=rounds` untraced; returns per-round milliseconds, the winner digest,
/// whether every round had the expected shape, and the failures.
fn plain_rounds(game: &Game, engine: &RoundEngine, plan: &Plan) -> (Vec<f64>, Digest, bool, usize) {
    let mut ms = Vec::with_capacity(plan.rounds);
    let mut digest = Digest::default();
    let mut shaped = true;
    let mut failed = 0;
    for round in 1..=plan.rounds as u64 {
        let t0 = Instant::now();
        let result = game.round(engine, round, game.plain_fill(round));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(stage) => shaped &= fold_round(&mut digest, round, &stage, plan.population),
            Err(_) => failed += 1,
        }
    }
    (ms, digest, shaped, failed)
}

/// The untraced run: `passes` times a fresh set-up and the fixed round loop, then the
/// inline replay check. Rounds are pure functions of the seed and the round number, so
/// every pass repeats the same rounds and must pick the same winners. Spreading the
/// set-ups over the run makes `setup_s` a median over the machine's states during the
/// whole run, not over the moment it started.
pub fn measure(plan: &Plan, budget: &Budget, seed: u64) -> Result<Outcome, Box<dyn Error>> {
    let mut setup = Vec::new();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut digests = Vec::new();
    let (mut shaped, mut failed, mut loop_secs) = (true, 0, 0.0);
    let mut live_threads = None;
    let mut kept: Option<Game> = None;
    for _ in 0..plan.passes.max(1) {
        drop(kept.take());
        let (game, engine, times) = timed_setups(plan, budget, seed)?;
        setup.extend(times.total_s);
        let loop_start = Instant::now();
        let (ms, digest, ok, f) = plain_rounds(&game, &engine, plan);
        loop_secs += loop_start.elapsed().as_secs_f64();
        live_threads = crate::sys::live_threads();
        passes.push(ms);
        digests.push(digest);
        shaped &= ok;
        failed += f;
        kept = Some(game);
    }
    let rss = peak_rss_mb();
    let game = kept.expect("at least one pass ran");
    let mut ms = crate::stats::mean_per_round(&passes);

    let (_, replay, replay_shaped, replay_failed) =
        plain_rounds(&game, &RoundEngine::inline(), plan);
    let digest = digests[0];
    let executed = plan.rounds * passes.len();
    let mut outcome = Outcome {
        rounds: executed,
        attempted: executed,
        failed,
        live_threads,
        ..Outcome::default()
    };
    outcome.checks.push(Check::new(
        "winner-set digest vs width-1 replay",
        digests.iter().all(|d| *d == replay) && replay_failed == 0,
        format!(
            "{} passes of {} rounds: digest={:016x} replay={:016x}",
            passes.len(),
            plan.rounds,
            digest.0,
            replay.0
        ),
    ));
    outcome.checks.push(Check::new(
        "round shape",
        shaped && replay_shaped,
        format!("{K} winners of {} bidders every round", plan.population),
    ));
    outcome.metrics.push(metric("setup_s", median(&mut setup)));
    outcome
        .metrics
        .push(metric("rounds_per_s", executed as f64 / loop_secs));
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
        setup.len()
    ));
    Ok(outcome)
}

/// Serial timings of one round's shards replayed through the store's public calls.
#[derive(Debug, Clone, Copy, Default)]
struct ShardReplay {
    score_ns: u64,
    shard_select_ns: u64,
    merge_ns: u64,
    head_matches: bool,
}

/// Replays `round`'s shards on the driver thread: fill (untimed), `BidStore::score_with`,
/// `ShardSelection::select`, then `BidSelector::absorb` and `finish`. The replayed
/// standing pool must lead with the round's winners.
fn replay_shards(
    game: &Game,
    plan: &Plan,
    round: u64,
    winners: &[WinnerInfo],
) -> Result<ShardReplay, Box<dyn Error>> {
    let mut out = ShardReplay::default();
    let mut rng = game.round_rng(round);
    let mut selector = game.auction.selector(RESERVE);
    let capacity = selector.capacity();
    let salt = selector.force_salt(&mut rng);
    let mut store = BidStore::with_capacity(3, SHARD);
    let mut base = 0;
    for lo in (0..plan.population).step_by(SHARD) {
        store.clear();
        game.fill(lo..(lo + SHARD).min(plan.population), round, &mut store)?;
        let t0 = Instant::now();
        store.score_with(game.auction.scoring_rule())?;
        let t1 = Instant::now();
        let selection = ShardSelection::select(&store, salt, base, capacity);
        let t2 = Instant::now();
        selector.absorb(selection);
        let t3 = Instant::now();
        base += store.len();
        out.score_ns += (t1 - t0).as_nanos() as u64;
        out.shard_select_ns += (t2 - t1).as_nanos() as u64;
        out.merge_ns += (t3 - t2).as_nanos() as u64;
    }
    let t0 = Instant::now();
    let standing = selector.finish(&mut rng);
    out.merge_ns += t0.elapsed().as_nanos() as u64;
    out.head_matches = standing.len() >= winners.len()
        && standing
            .candidates()
            .iter()
            .zip(winners)
            .all(|(c, w)| c.node == w.node && c.score.to_bits() == w.score.to_bits());
    Ok(out)
}

/// The traced run: every round runs untraced, then traced, then has its shards replayed
/// serially, so the untraced and traced timings see the same machine state; per-layer
/// metrics from the spans.
pub fn trace(
    plan: &Plan,
    budget: &Budget,
    seed: u64,
    tracer: &Arc<Tracer>,
) -> Result<Outcome, Box<dyn Error>> {
    let (game, engine, mut times) = timed_setups(plan, budget, seed)?;
    let mut untraced_ms = Vec::with_capacity(plan.rounds);
    let mut untraced_digest = Digest::default();
    let mut failed = 0;
    let mut digest = Digest::default();
    let mut shaped = true;
    let mut replayed = ShardReplay {
        head_matches: true,
        ..ShardReplay::default()
    };
    let mut cpu_ns = Some(0u64);
    let mut peak_bid_bytes = 0usize;
    for round in 1..=plan.rounds as u64 {
        let t0 = Instant::now();
        let plain = game.round(&engine, round, game.plain_fill(round));
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match plain {
            Ok(stage) => shaped &= fold_round(&mut untraced_digest, round, &stage, plan.population),
            Err(_) => failed += 1,
        }

        let (id, start) = tracer.open();
        tracer.set_context(id, round as u32);
        let population = game.population;
        let solver = Arc::clone(&game.solver);
        let t = Arc::clone(tracer);
        let fill = Arc::new(move |range: Range<usize>, store: &mut BidStore| {
            let (parent, r) = t.context();
            t.span("population.fill", parent, r, || {
                population.bid_range_into_store(range, round, &solver, store)
            })
        });
        let cpu_before = process_cpu_ns();
        let result = game.round(&engine, round, fill);
        let cpu_after = process_cpu_ns();
        tracer.close(id, start, 0, round as u32, "engine.select");
        cpu_ns = cpu_ns
            .zip(cpu_after.zip(cpu_before))
            .map(|(sum, (after, before))| sum + (after - before));
        match result {
            Ok(stage) => {
                shaped &= fold_round(&mut digest, round, &stage, plan.population);
                peak_bid_bytes = peak_bid_bytes.max(stage.peak_bid_bytes);
                let replay = replay_shards(&game, plan, round, &stage.winners)?;
                replayed.score_ns += replay.score_ns;
                replayed.shard_select_ns += replay.shard_select_ns;
                replayed.merge_ns += replay.merge_ns;
                replayed.head_matches &= replay.head_matches;
            }
            Err(_) => failed += 1,
        }
    }
    let fanout_us = empty_fanout_us(&engine, plan.fanout_reps);
    let spans = tracer.spans();

    let rounds = plan.rounds as f64;
    let selects: Vec<&Span> = spans.iter().filter(|s| s.name == "engine.select").collect();
    let select_ns: u64 = selects.iter().map(|s| s.duration_ns()).sum();
    let mut fill_covered_ns = 0u64;
    let mut fill_calls = 0usize;
    for select in &selects {
        let mut fills: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.name == "population.fill" && s.parent == select.id)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        fill_calls += fills.len();
        fill_covered_ns += covered_ns(&mut fills, select.start_ns, select.end_ns);
    }
    let select_ms = select_ns as f64 / 1e6 / rounds;
    let fill_ms = fill_covered_ns as f64 / 1e6 / rounds;
    let rest_ms = select_ms - fill_ms;
    let per_round = |ns: u64| ns as f64 / 1e6 / rounds;
    let (score, shard_select, merge) = (
        per_round(replayed.score_ns),
        per_round(replayed.shard_select_ns),
        per_round(replayed.merge_ns),
    );

    let mut outcome = Outcome {
        rounds: plan.rounds,
        attempted: 2 * plan.rounds,
        failed,
        live_threads: crate::sys::live_threads(),
        ..Outcome::default()
    };
    outcome.checks.push(Check::new(
        "traced winner-set digest vs untraced",
        digest == untraced_digest && shaped,
        format!(
            "traced={:016x} untraced={:016x}",
            digest.0, untraced_digest.0
        ),
    ));
    outcome.checks.push(Check::new(
        "shard replay reproduces the winners",
        replayed.head_matches,
        format!("{} rounds replayed serially", plan.rounds),
    ));
    outcome.checks.push(Check::new(
        "stage split residual",
        rest_ms >= 0.0,
        format!("select minus fill = {rest_ms:.4} ms"),
    ));
    let m = &mut outcome.metrics;
    m.push(metric("engine.select_ms", select_ms));
    m.push(metric("population.fill_ms", fill_ms));
    m.push(metric("population.fill_calls", fill_calls as f64 / rounds));
    m.push(metric("store.score_ms", score));
    m.push(metric("store.shard_select_ms", shard_select));
    m.push(metric("store.merge_ms", merge));
    if let Some(cpu) = cpu_ns {
        m.push(metric(
            "engine.select_busy_share",
            cpu as f64 / (select_ns as f64 * budget.runnable() as f64),
        ));
    }
    m.push(metric("store.peak_bid_bytes", peak_bid_bytes as f64));
    if let Some(us) = fanout_us {
        m.push(metric("executor.fanout_us", us));
    }
    m.push(metric("setup.solver_ms", median(&mut times.solver_ms)));
    let mut traced_ms: Vec<f64> = selects
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let traced_p50 = median(&mut traced_ms);
    let untraced_p50 = median(&mut untraced_ms);
    m.push(metric("trace.overhead", traced_p50 / untraced_p50));
    outcome.notes.push(format!(
        "split {NAME} per round over {} rounds: select {select_ms:.3} ms = fill {fill_ms:.3} + rest {rest_ms:.3}; \
         rest replayed serially: score {score:.3} + shard_select {shard_select:.3} + merge {merge:.3}",
        plan.rounds
    ));
    outcome.notes.push(format!(
        "trace overhead: traced p50 {traced_p50:.3} ms / untraced p50 {untraced_p50:.3} ms over the same {} rounds",
        plan.rounds
    ));
    Ok(outcome)
}
