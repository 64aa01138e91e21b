//! Every workload at `--quick` sizes, in both trace modes: the harness
//! emits exactly what `BENCHMARK.json` declares, every built-in check
//! passes, the layers sum to the whole, and each workload bypasses the
//! layers its README row says it bypasses. Numbers at these sizes mean
//! nothing; only their presence, units and coarse shares are asserted.

use perfbench::alloc::CountingAlloc;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::stamp::manifest_section;
use perfbench::workloads::{self, Args, NAMES};
use serde_json::Value;
use std::path::PathBuf;

// As in the benchmark binary: without it `peak_heap_bytes` reads 0.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn spec() -> Value {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_harness_emits() {
    let spec = spec();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);
    assert_eq!(declared(&spec, "end_to_end"), emitted(END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), emitted(PER_LAYER));
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name}"
        );
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

#[test]
fn profiles_mirror_the_root_manifest() {
    let root = include_str!("../../Cargo.toml");
    let own = include_str!("../Cargo.toml");
    for section in ["profile.release", "profile.dev"] {
        let shipped = manifest_section(root, section);
        assert!(!shipped.is_empty(), "root manifest has no [{section}]");
        assert_eq!(
            manifest_section(own, section),
            shipped,
            "[{section}] drifted: the benchmark would not measure the code users ship"
        );
    }
}

fn run(workload: &str, trace: bool) -> Vec<(&'static str, f64)> {
    let args = Args {
        workload: workload.into(),
        seed: 2026,
        seconds: 0.2,
        trace,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload),
    };
    let outcome = workloads::run(&args).expect("a declared workload");
    assert_eq!(
        outcome.checks.failures,
        Vec::<String>::new(),
        "{workload} trace {trace}"
    );
    assert!(outcome.checks.attempted >= 1);
    assert_eq!(outcome.trace.is_some(), trace);
    let table = if trace { PER_LAYER } else { END_TO_END };
    let rows: Vec<_> = outcome.metrics.rows().collect();
    assert_eq!(rows.len(), table.len());
    for ((name, unit, value), declared) in rows.iter().zip(table) {
        assert_eq!((*name, *unit), *declared);
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    rows.into_iter().map(|(n, _, v)| (n, v)).collect()
}

// One test, so the workloads run one after another: the shares asserted
// below are ratios of wall times.
#[test]
fn every_workload_emits_every_metric_and_bypasses_what_it_should() {
    for workload in NAMES {
        for (name, value) in run(workload, false) {
            assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
        }

        let layers = run(workload, true);
        let get = |name: &str| {
            layers
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} not emitted"))
                .1
        };
        let sum = get("layers.sum_share");
        assert!(
            (0.95..=1.05).contains(&sum),
            "{workload}: layers sum to {sum}"
        );
        match workload {
            "metro_heuristic" => assert!(get("policy.share") < 0.05),
            "metro_drl" => assert!(get("policy.share") > 0.4),
            _ => {}
        }
        // A layer that does no work on a workload reads 0 there.
        let idle = |prefix: &str| {
            for (name, value) in layers.iter().filter(|(n, _)| n.starts_with(prefix)) {
                assert_eq!(*value, 0.0, "{workload}: {name} should read 0");
            }
        };
        if workload != "serve_fleet" {
            idle("serve.");
        } else {
            assert!(get("serve.waves") > 0.0 && get("serve.forward_s") > 0.0);
        }
        if workload != "grid_sweep" {
            idle("exper.");
            idle("sweep.");
            idle("report.");
        } else {
            assert!(get("exper.cells") > 0.0 && get("sweep.fragment_bytes") > 0.0);
        }
        if matches!(workload, "metro_heuristic" | "grid_sweep") {
            idle("rl.");
            idle("nn.");
        } else {
            assert!(get("rl.act_greedy_ns") > 0.0 && get("nn.forward1_ns") > 0.0);
        }
    }
}
