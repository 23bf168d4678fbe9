//! Benchmark harness for the FMore reproduction.
//!
//! The Criterion benches regenerate the data behind one or more paper figures, or compare
//! round substrates, before timing the underlying computation:
//!
//! * `mechanism` — micro-benchmarks and ablations of the auction core (equilibrium solving
//!   via quadrature vs the paper's Euler route vs Che's closed form, first- vs second-price
//!   payment, top-K vs ψ-FMore selection, scoring-function families),
//! * `figures_accuracy` — Figs. 4–8 (accuracy/loss curves per scheme, winner-score
//!   distribution),
//! * `figures_parameters` — Figs. 9–11 (impact of `N`, `K`, and ψ),
//! * `figures_cluster` — Figs. 12–13 and the headline table (the simulated MEC cluster),
//! * `round_engine` — the pooled round pipeline vs the inline engine, plus the churn round.
//!
//! Run them with `cargo bench --workspace`; append `-- --test` (or set
//! `FMORE_BENCH_QUICK=1`) for a one-sample smoke run. The report examples time the
//! remaining suites with the shared min-of-N scaffolding in [`timing`], assert their gates,
//! and emit the committed `BENCH_*.json` perf-trajectory records — regenerate after any
//! substrate change:
//!
//! ```bash
//! # in-place kernels, and the arena train_epoch against the seed replica in `baseline`
//! cargo run --release -p fmore-bench --example bench_report -- BENCH_hot_path.json
//! # streamed vs dense selection rounds up to 1e7 bidders, and the ψ sweep to 1e8
//! cargo run --release -p fmore-bench --example auction_scale_report -- BENCH_auction_scale.json
//! # the pooled round and the 1e6-bidder streamed round at widths 1/2/4/8
//! cargo run --release -p fmore-bench --example round_throughput_report -- BENCH_round_throughput.json
//! # the multi-tenant service fleet
//! cargo run --release -p fmore-bench --example service_report -- BENCH_service.json
//! ```
//!
//! The end-to-end benchmark of the whole system is a separate package:
//! `cargo run --release --manifest-path e2ebench/Cargo.toml -- --workload <name>`.

pub mod baseline;
pub mod timing;

/// Marker constant so the crate root has at least one documented item.
pub const BENCH_CRATE: &str = "fmore-bench";

/// The "pooled round" workload of `round_throughput_report`: one full FMore federated round
/// (24 clients, 12 winners, 1,200 training samples on the quick-fidelity MNIST-O task,
/// seed 54) on a pool of `threads` workers. Its only timing is the `pooled_round_ns` row of
/// `BENCH_round_throughput.json`.
pub fn pooled_round_trainer(threads: usize) -> fmore_fl::trainer::FederatedTrainer {
    let mut config = fmore_fl::config::FlConfig::fast_test(fmore_ml::TaskKind::MnistO);
    config.clients = 24;
    config.winners_per_round = 12;
    config.partition.clients = 24;
    config.train_samples = 1_200;
    fmore_fl::trainer::FederatedTrainer::with_engine(
        config,
        fmore_fl::selection::SelectionStrategy::fmore(),
        54,
        fmore_fl::engine::RoundEngine::pooled(threads),
    )
    .expect("bench config is valid")
}

/// The straggler-heavy local-training fan-out workload of `round_throughput_report`: seven
/// uniform winners plus one straggler holding `straggler / small`× their data, submitted
/// **last** — the worst case for per-winner dispatch (the monolithic straggler task starts
/// only after earlier tasks drain) and the case the chain scheduler's
/// longest-remaining-first policy exists for. Rebuilt per timed run: jobs are consumed by
/// [`fmore_fl::engine::local_training_with`].
pub fn straggler_fanout_jobs(small: usize, straggler: usize) -> Vec<fmore_fl::engine::TrainingJob> {
    use fmore_ml::dataset::SyntheticImageSpec;
    use fmore_ml::layers::{Dense, Layer};
    use fmore_ml::{Model, Sequential};
    use std::sync::Arc;

    let mut rng = fmore_numerics::seeded_rng(77);
    let data = Arc::new(SyntheticImageSpec::mnist_like().generate(512, &mut rng));
    let model = Sequential::new(vec![
        Box::new(Dense::new(data.feature_dim(), 16, &mut rng)) as Box<dyn Layer>,
        Box::new(Dense::new(16, data.num_classes(), &mut rng)),
    ]);
    let global_params = Arc::new(model.parameters());
    let sizes = [small, small, small, small, small, small, small, straggler];
    sizes
        .iter()
        .enumerate()
        .map(|(slot, &size)| {
            let mut state = fmore_fl::engine::SlotState::new(model.clone());
            state.indices = (0..size).map(|i| (slot * 31 + i) % data.len()).collect();
            fmore_fl::engine::TrainingJob {
                slot,
                client: slot,
                state,
                global_params: Arc::clone(&global_params),
                data: Arc::clone(&data),
                epochs: 2,
                learning_rate: 0.05,
                batch_size: 16,
                seed: fmore_numerics::rng::derive_seed(78, slot as u64),
            }
        })
        .collect()
}
