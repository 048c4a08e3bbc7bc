//! `BENCHMARK.json` and the benchmark's own catalogue agree.

use e2ebench::metrics::{END_TO_END, PER_LAYER};
use e2ebench::workloads::{repo_root, Workload};
use serde::Deserialize;

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Benchmark {
    paths: Vec<String>,
    workloads: Vec<Named>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

fn load() -> Benchmark {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    serde_json::from_str(&text).unwrap()
}

#[test]
fn metric_names_and_units_match_the_catalogue() {
    let bench = load();
    let listed: Vec<(&str, &str)> = bench
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(listed, END_TO_END);
    let listed: Vec<(&str, &str)> = bench
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(listed, PER_LAYER);
    for m in &bench.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
    }
    for m in &bench.per_layer {
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
    }
    let setup = bench
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .unwrap();
    assert!(bench.end_to_end.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn workloads_match_the_command() {
    let bench = load();
    let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, known);
    assert_eq!(bench.paths, vec!["e2ebench".to_string()]);
}
