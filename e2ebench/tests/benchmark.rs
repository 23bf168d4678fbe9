//! The benchmark's own contract: its metric catalogue matches `BENCHMARK.json`, every run
//! prints every metric of its kind, and a small-size run of every workload passes its
//! correctness checks.

use fmore_e2ebench::report::{Kind, Outcome, CATALOGUE};
use fmore_e2ebench::sys::Budget;
use fmore_e2ebench::{expected_metrics, run, Scale, WORKLOADS};
use std::collections::BTreeMap;

/// Just enough JSON for `BENCHMARK.json`: objects, arrays, strings without escapes,
/// numbers.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
}

fn parse(text: &str) -> Json {
    fn skip(b: &[u8], i: &mut usize) {
        while b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        skip(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut map = BTreeMap::new();
                loop {
                    skip(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Object(map);
                    }
                    let Json::Str(key) = value(b, i) else {
                        panic!("object key must be a string")
                    };
                    skip(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    assert!(map.insert(key, value(b, i)).is_none(), "duplicate key");
                    skip(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    skip(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::Array(items);
                    }
                    items.push(value(b, i));
                    skip(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                let start = *i + 1;
                *i = start
                    + b[start..]
                        .iter()
                        .position(|&c| c == b'"')
                        .expect("string ends");
                let s = std::str::from_utf8(&b[start..*i])
                    .expect("utf-8")
                    .to_string();
                assert!(!s.contains('\\'), "escapes are not expected");
                *i += 1;
                Json::Str(s)
            }
            _ => {
                let start = *i;
                while *i < b.len() && (b[*i].is_ascii_digit() || b"+-.eE".contains(&b[*i])) {
                    *i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&b[start..*i])
                        .unwrap()
                        .parse()
                        .expect("number"),
                )
            }
        }
    }
    let mut i = 0;
    value(text.as_bytes(), &mut i)
}

fn benchmark_json() -> BTreeMap<String, Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the package");
    match parse(&text) {
        Json::Object(map) => map,
        other => panic!("BENCHMARK.json is not an object: {other:?}"),
    }
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    match entry {
        Json::Object(map) => match map.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("{key} is {other:?}"),
        },
        other => panic!("entry is {other:?}"),
    }
}

fn section(json: &BTreeMap<String, Json>, key: &str) -> Vec<(String, String)> {
    match &json[key] {
        Json::Array(items) => items
            .iter()
            .map(|e| (field(e, "name").to_string(), field(e, "unit").to_string()))
            .collect(),
        other => panic!("{key} is {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn every_metric_is_named_well_and_listed_in_benchmark_json_with_its_unit() {
    let json = benchmark_json();
    for (key, kind) in [
        ("end_to_end", Kind::EndToEnd),
        ("per_layer", Kind::PerLayer),
    ] {
        let listed = section(&json, key);
        let catalogued: Vec<(String, String)> = CATALOGUE
            .iter()
            .filter(|(_, _, k)| *k == kind)
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, catalogued, "{key} differs from the catalogue");
    }
    let mut seen = std::collections::BTreeSet::new();
    for (name, _, _) in CATALOGUE {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(name), "metric {name} listed twice");
    }
    let workloads: Vec<String> = match &json["workloads"] {
        Json::Array(items) => items.iter().map(|w| field(w, "name").to_string()).collect(),
        other => panic!("workloads is {other:?}"),
    };
    assert_eq!(workloads, WORKLOADS);
}

fn smoke(workload: &str, traced: bool) -> Outcome {
    let (outcome, spans) =
        run(workload, 7, 1, traced, Scale::Smoke, &Budget::detect()).expect("smoke run sets up");
    for check in &outcome.checks {
        assert!(
            check.ok,
            "{workload}: check {} failed: {}",
            check.name, check.detail
        );
    }
    assert!(outcome.correct() && outcome.failed == 0 && outcome.attempted > 0);
    assert_eq!(outcome.metric_names(), expected_metrics(traced));
    assert_eq!(
        spans.is_empty(),
        !traced,
        "{workload}: spans only when traced"
    );
    outcome
}

#[test]
fn smoke_runs_pass_their_checks_and_print_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let outcome = smoke(workload, false);
        assert!(
            outcome.metrics.iter().all(|m| m.value > 0.0),
            "{workload}: {:?}",
            outcome.metrics
        );
    }
}

#[test]
fn traced_smoke_runs_print_every_per_layer_metric_and_never_zero_fill() {
    for workload in WORKLOADS {
        let outcome = smoke(workload, true);
        for m in &outcome.metrics {
            // Layer timings are never zero; counts and shares may be.
            if matches!(m.unit, "ms" | "us" | "x") && m.name != "trainer.other_ms" {
                assert!(m.value > 0.0, "{workload}: {} printed {}", m.name, m.value);
            }
        }
    }
}
