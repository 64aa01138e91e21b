//! Figure 13 — metro-scale streaming: requests/sec throughput and peak
//! heap while driving the event engine from a lazily generated
//! [`MetroProfile`] stream at growing trace lengths (1x → 100x).
//!
//! The claim under test is the telemetry/streaming subsystem's memory
//! contract: with [`RunInput::Stream`] input, streaming metrics retention
//! and a bounded [`TelemetrySink`], both throughput and peak heap stay
//! flat as the trace grows — the full trace is never materialized and
//! per-slot records are folded, not retained.
//!
//! Outputs `fig13_metro.csv` (one row per scale) and `BENCH_metro.json`
//! (top-level `requests_per_sec` is the rate at the largest scale — the
//! tracked series for it is `requests_per_s` on `perf/`'s
//! `metro_heuristic` workload; `peak_mem_ratio` / `throughput_ratio`
//! compare the largest scale against the smallest).
//!
//! `FAST=1` sweeps 1x/4x/10x on a short base horizon for CI smoke runs;
//! the full sweep is 1x/10x/100x.

use super::Outcome;
use crate::{emit_csv, fast_mode, out_path};
use drl_vnf_edge::prelude::*;
use serde_json::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Live heap bytes. The `bench` binary's global allocator keeps this and
/// [`PEAK_BYTES`] so the figure can report peak heap per scale without an
/// external profiler. They count allocation requests, not allocator
/// slack: the flat-line comparison only needs relative growth. Both stay
/// 0 in a process without that allocator.
pub static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// High-water mark of [`LIVE_BYTES`] since the last reset.
pub static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A JSON object with `fields` in order.
fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Resets the peak-heap watermark to the current live size.
fn reset_peak() -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

struct ScaleResult {
    scale: u64,
    slots: u64,
    requests: u64,
    accepted: u64,
    wall_secs: f64,
    requests_per_sec: f64,
    peak_mem_bytes: u64,
}

/// Writes `fig13_metro.csv` and `BENCH_metro.json`.
pub fn run() -> Outcome {
    let started = Instant::now();
    let (base_slots, scales): (u64, &[u64]) = if fast_mode() {
        (288, &[1, 4, 10])
    } else {
        (1152, &[1, 10, 100])
    };

    let scenario = Scenario::default_metro();
    let slot_ms = (scenario.slot_seconds * 1000.0).round() as u64;
    let sites: Vec<NodeId> = (0..scenario.topology.site_count()).map(NodeId).collect();
    let mut profile = MetroProfile::default_city(2026);
    // ~3 requests/slot mean with flows a handful of slots long keeps the
    // engine busy without swamping the small default capacities.
    profile.base_rate = 3.0;
    profile.mean_duration_ms = 6.0 * slot_ms as f64;

    let mut results: Vec<ScaleResult> = Vec::new();
    for &scale in scales {
        let horizon = base_slots * scale;
        eprintln!(
            "[fig13] scale {scale}x: {horizon} slots (~{:.0} expected requests)…",
            profile.expected_requests(horizon)
        );

        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = baseline("first-fit").ok_or("no first-fit baseline")?;
        let mut sink = TelemetrySink::new();
        let mut stream = profile
            .stream(&sites, horizon, slot_ms)
            .map(TimedArrival::from);

        let live_before = reset_peak();
        let t0 = Instant::now();
        let summary = sim.drive(
            RunInput::Stream(&mut stream),
            policy.as_mut(),
            RunOptions::new()
                .with_streaming_metrics()
                .with_horizon(horizon)
                .with_telemetry(&mut sink),
        );
        let wall_secs = t0.elapsed().as_secs_f64();
        let peak = PEAK_BYTES
            .load(Ordering::Relaxed)
            .saturating_sub(live_before);

        eprintln!(
            "[fig13] scale {scale}x: {} arrivals in {wall_secs:.2}s ({:.0} req/s, peak {:.1} MiB, \
             {} flow records retained / {} dropped)",
            summary.total_arrivals,
            summary.total_arrivals as f64 / wall_secs.max(1e-9),
            peak as f64 / (1024.0 * 1024.0),
            sink.recent_flows().count(),
            sink.dropped_flow_records(),
        );
        results.push(ScaleResult {
            scale,
            slots: summary.slots,
            requests: summary.total_arrivals,
            accepted: summary.total_accepted,
            wall_secs,
            requests_per_sec: summary.total_arrivals as f64 / wall_secs.max(1e-9),
            peak_mem_bytes: peak as u64,
        });
    }

    let mut csv =
        vec!["scale,slots,requests,accepted,wall_secs,requests_per_sec,peak_mem_bytes".to_string()];
    for r in &results {
        csv.push(format!(
            "{},{},{},{},{:.4},{:.1},{}",
            r.scale,
            r.slots,
            r.requests,
            r.accepted,
            r.wall_secs,
            r.requests_per_sec,
            r.peak_mem_bytes
        ));
    }
    emit_csv("fig13_metro.csv", &csv);

    let (Some(first), Some(last)) = (results.first(), results.last()) else {
        return Err("no scale ran".into());
    };
    let throughput_ratio = last.requests_per_sec / first.requests_per_sec.max(1e-9);
    let peak_mem_ratio = last.peak_mem_bytes as f64 / (first.peak_mem_bytes as f64).max(1.0);

    let scales_json: Vec<Value> = results
        .iter()
        .map(|r| {
            object(vec![
                ("scale", r.scale.into()),
                ("slots", r.slots.into()),
                ("requests", r.requests.into()),
                ("accepted", r.accepted.into()),
                ("wall_secs", r.wall_secs.into()),
                ("requests_per_sec", r.requests_per_sec.into()),
                ("peak_mem_bytes", r.peak_mem_bytes.into()),
            ])
        })
        .collect();
    let doc = object(vec![
        ("schema_version", 1u64.into()),
        ("name", "fig13_metro".into()),
        ("fast", fast_mode().into()),
        ("base_slots", base_slots.into()),
        ("scales", scales_json.into()),
        // Headline rate: throughput at the largest scale, where
        // regressions in the streaming path hurt most.
        ("requests_per_sec", last.requests_per_sec.into()),
        ("throughput_ratio", throughput_ratio.into()),
        ("peak_mem_ratio", peak_mem_ratio.into()),
        ("wall_clock_secs", started.elapsed().as_secs_f64().into()),
    ]);
    let report_path = out_path("BENCH_metro.json");
    write_lines(&report_path, &[serde_json::to_string_pretty(&doc)])?;
    eprintln!(
        "[fig13] wrote {} (throughput {throughput_ratio:.2}x, peak mem {peak_mem_ratio:.2}x \
         across a {}x horizon growth; {:.2}s wall)",
        report_path.display(),
        last.scale / first.scale.max(1),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
