//! JSON emitter schema test: a `BENCH_*.json` written by the report
//! layer must round-trip through the vendored serde_json stand-in with
//! every schema field present and stable.

use mano::prelude::*;

fn sample_report() -> BenchReport {
    let scenario = Scenario::small_test();
    let mut cells = Vec::new();
    for (pi, policy) in ["first-fit", "greedy-latency"].iter().enumerate() {
        for seed in [100u64, 101, 102] {
            let mut p: Box<dyn PlacementPolicy> = if pi == 0 {
                Box::new(FirstFitPolicy)
            } else {
                Box::new(GreedyLatencyPolicy)
            };
            let result = evaluate_policy(&scenario, RewardConfig::default(), p.as_mut(), seed);
            cells.push(BenchCell {
                scenario: "small".into(),
                policy: policy.to_string(),
                x: 2.0,
                seed,
                summary: result.summary,
            });
        }
    }
    let aggregates = group_aggregates(&cells);
    let slots: u64 = cells.iter().map(|c| c.summary.slots).sum();
    BenchReport {
        name: "schema_test".into(),
        threads: 2,
        wall_clock_secs: 0.5,
        slots_simulated: slots,
        throughput_slots_per_sec: slots as f64 / 0.5,
        fingerprint: String::new(),
        cells,
        aggregates,
    }
}

#[test]
fn bench_json_schema_fields_present_and_stable() {
    let dir = std::env::temp_dir().join("bench_json_schema_test");
    let _ = std::fs::remove_dir_all(&dir);
    let report = sample_report();
    let path = report.write_to(&dir).expect("write BENCH json");
    assert_eq!(path.file_name().unwrap(), "BENCH_schema_test.json");

    let text = std::fs::read_to_string(&path).expect("read back");
    let doc = serde_json::from_str(&text).expect("well-formed JSON");

    // Top-level schema.
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(BENCH_SCHEMA_VERSION)
    );
    assert_eq!(
        doc.get("name").and_then(|v| v.as_str()),
        Some("schema_test")
    );
    assert_eq!(doc.get("threads").and_then(|v| v.as_u64()), Some(2));
    assert!(doc
        .get("wall_clock_secs")
        .and_then(|v| v.as_f64())
        .is_some());
    assert!(doc.get("slots_simulated").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(
        doc.get("throughput_slots_per_sec")
            .and_then(|v| v.as_f64())
            .unwrap()
            > 0.0
    );

    // Cell schema: every cell has coordinates + the full summary.
    let cells = doc.get("cells").and_then(|v| v.as_array()).expect("cells");
    assert_eq!(cells.len(), 6);
    for cell in cells {
        for key in ["scenario", "policy", "x", "seed", "summary"] {
            assert!(cell.get(key).is_some(), "cell missing `{key}`");
        }
        let summary = cell.get("summary").unwrap();
        for key in [
            "slots",
            "total_arrivals",
            "acceptance_ratio",
            "mean_admission_latency_ms",
            "p95_admission_latency_ms",
            "total_cost_usd",
            "mean_utilization",
        ] {
            assert!(summary.get(key).is_some(), "summary missing `{key}`");
        }
    }

    // Aggregate schema: per-group seeds count and mean/std/ci95 bands for
    // every tracked metric.
    let aggregates = doc
        .get("aggregates")
        .and_then(|v| v.as_array())
        .expect("aggregates");
    assert_eq!(aggregates.len(), 2);
    for agg in aggregates {
        let inner = agg.get("aggregate").expect("aggregate body");
        assert_eq!(inner.get("seeds").and_then(|v| v.as_u64()), Some(3));
        let metrics = inner.get("metrics").expect("metrics map");
        for (name, _) in SUMMARY_METRICS {
            let stats = metrics
                .get(name)
                .unwrap_or_else(|| panic!("band for `{name}`"));
            for key in ["mean", "std", "ci95"] {
                assert!(stats.get(key).and_then(|v| v.as_f64()).is_some());
            }
        }
    }

    // Parse-back: the typed report survives the file round-trip.
    let parsed = BenchReport::from_json(&doc).expect("typed parse");
    assert_eq!(parsed, report);

    // Stability: re-serializing the parsed report reproduces the document
    // byte for byte (CI diffs these files across commits).
    assert_eq!(
        serde_json::to_string_pretty(&parsed.to_json()),
        serde_json::to_string_pretty(&report.to_json())
    );

    let _ = std::fs::remove_dir_all(&dir);
}
