//! Emits `BENCH_hot_path.json` — the committed perf-trajectory record of the training hot
//! path. Times the in-place matmul family against the allocating composition it replaced,
//! and the arena-backed `train_epoch` against the [`NaiveMlp`] replica of the seed path,
//! with plain `Instant` loops (min-of-N, which is far more stable across CI machines than
//! means), and writes one JSON document. The pooled round is timed once, in
//! `round_throughput_report`.
//!
//! ```bash
//! cargo run --release -p fmore-bench --example bench_report -- BENCH_hot_path.json
//! ```
//!
//! Regenerate (and re-commit) after any change to the matrix kernels or the arena path, so
//! the repository tracks how each change moved the hot path.

use fmore_bench::baseline::NaiveMlp;
use fmore_bench::timing::{hardware_threads, min_time_ns as time_ns, schema_string, write_report};
use fmore_ml::arena::ScratchArena;
use fmore_ml::dataset::SyntheticImageSpec;
use fmore_ml::layers::{Activation, Dense, Layer};
use fmore_ml::model::Model;
use fmore_ml::{Matrix, Sequential};
use fmore_numerics::seeded_rng;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hot_path.json".to_string());

    // --- Kernels: layer-sized operands (32-sample batch, 64x64 weight block). ---
    let mut rng = seeded_rng(51);
    let a = Matrix::random_uniform(32, 64, 1.0, &mut rng);
    let w = Matrix::random_uniform(64, 64, 1.0, &mut rng);
    let g = Matrix::random_uniform(32, 64, 1.0, &mut rng);
    let mut out = Matrix::default();
    let kernels = [
        (
            "matmul_alloc",
            time_ns(50, 400, || {
                std::hint::black_box(a.matmul(&w));
            }),
        ),
        (
            "matmul_into",
            time_ns(50, 400, || a.matmul_into(&w, &mut out)),
        ),
        (
            "transpose_a_alloc",
            time_ns(50, 400, || {
                std::hint::black_box(a.transpose().matmul(&g));
            }),
        ),
        (
            "transpose_a_into",
            time_ns(50, 400, || a.matmul_transpose_a_into(&g, &mut out)),
        ),
        (
            "transpose_b_alloc",
            time_ns(50, 400, || {
                std::hint::black_box(g.matmul(&w.transpose()));
            }),
        ),
        (
            "transpose_b_into",
            time_ns(50, 400, || g.matmul_transpose_b_into(&w, &mut out)),
        ),
    ];

    // --- train_epoch on the quick-fidelity MLP: arena path vs the seed replica. ---
    let mut data_rng = seeded_rng(52);
    let data = SyntheticImageSpec::mnist_like().generate(400, &mut data_rng);
    let all: Vec<usize> = (0..data.len()).collect();
    let mut build_rng = seeded_rng(50);
    let mut model = Sequential::new(vec![
        Box::new(Dense::new(data.feature_dim(), 32, &mut build_rng)) as Box<dyn Layer>,
        Box::new(Activation::relu()),
        Box::new(Dense::new(32, data.num_classes(), &mut build_rng)),
    ]);
    let mut naive = NaiveMlp::from_params(
        data.feature_dim(),
        32,
        data.num_classes(),
        &model.parameters(),
    );
    let mut arena = ScratchArena::new();
    let mut epoch_rng = seeded_rng(53);
    let arena_ns = time_ns(5, 40, || {
        std::hint::black_box(model.train_epoch_in(
            &mut arena,
            &data,
            &all,
            0.1,
            16,
            &mut epoch_rng,
        ));
    });
    let mut naive_rng = seeded_rng(53);
    let naive_ns = time_ns(5, 40, || {
        std::hint::black_box(naive.train_epoch(&data, &all, 0.1, 16, &mut naive_rng));
    });
    let speedup = naive_ns as f64 / arena_ns as f64;

    // --- Emit the JSON document (no serde in the offline workspace; hand-formatted). ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"{}\",\n",
        schema_string("hot-path", 2)
    ));
    json.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        hardware_threads()
    ));
    json.push_str(
        "  \"note\": \"min-of-N wall-clock; regenerate with `cargo run --release -p fmore-bench --example bench_report`\",\n",
    );
    json.push_str("  \"kernels_ns\": {\n");
    for (i, (name, ns)) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str("  \"train_epoch\": {\n");
    json.push_str(&format!("    \"arena_ns\": {arena_ns},\n"));
    json.push_str(&format!("    \"seed_baseline_ns\": {naive_ns},\n"));
    json.push_str(&format!("    \"speedup\": {speedup:.2}\n"));
    json.push_str("  }\n");
    json.push_str("}\n");

    write_report(&out_path, &json);
    eprintln!("wrote {out_path} (train_epoch speedup over seed baseline: {speedup:.2}x)");
    // Loose gate: this runs on shared CI machines where wall-clock is noisy, so only a
    // drastic regression (arena path at half the seed baseline) should fail the step.
    assert!(
        speedup >= 0.5,
        "arena path drastically regressed below the seed baseline ({speedup:.2}x)"
    );
}
