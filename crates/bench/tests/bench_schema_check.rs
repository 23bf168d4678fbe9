//! Pins every committed `BENCH_*.json` to the schema version its generator example
//! currently emits. Bumping a report's `schema_string` without regenerating (and
//! re-committing) the JSON — or regenerating under a new layout without bumping the
//! version — fails here instead of silently shipping a document whose fields no longer
//! mean what the schema says.

use fmore_bench::timing::schema_string;
use std::path::Path;

/// Reads the `schema` field of a committed report at the repository root. The offline
/// workspace has no serde; the reports are hand-formatted with `schema` as the first
/// field, so a line scan is exact.
fn committed_schema(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file} must be committed at the repo root: {e}"));
    json.lines()
        .find_map(|line| {
            line.trim()
                .strip_prefix("\"schema\": \"")
                .and_then(|rest| rest.strip_suffix("\","))
                .map(str::to_string)
        })
        .unwrap_or_else(|| panic!("{file} carries no schema field"))
}

#[test]
fn every_committed_bench_report_carries_its_generators_schema() {
    for (file, name, version) in [
        ("BENCH_hot_path.json", "hot-path", 2),
        ("BENCH_auction_scale.json", "auction-scale", 3),
        ("BENCH_round_throughput.json", "round-throughput", 3),
        ("BENCH_service.json", "service", 3),
    ] {
        assert_eq!(
            committed_schema(file),
            schema_string(name, version),
            "{file}: the committed report's schema does not match its generator — \
             regenerate the report (see the example's doc header) and re-commit it"
        );
    }
}
