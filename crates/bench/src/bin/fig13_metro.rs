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

use bench::{emit_csv, fast_mode, out_path};
use drl_vnf_edge::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// [`System`] wrapped with live/peak byte counters, so the benchmark can
/// report peak heap per scale without an external profiler. Counts
/// allocation requests, not allocator slack — the flat-line comparison
/// only needs relative growth.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Resets the peak-heap watermark to the current live size.
fn reset_peak() -> usize {
    let live = CURRENT.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
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

fn main() {
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
        let mut policy = baseline("first-fit").expect("a registry baseline");
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
        let peak = PEAK.load(Ordering::Relaxed).saturating_sub(live_before);

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

    let first = results.first().expect("at least one scale");
    let last = results.last().expect("at least one scale");
    let throughput_ratio = last.requests_per_sec / first.requests_per_sec.max(1e-9);
    let peak_mem_ratio = last.peak_mem_bytes as f64 / (first.peak_mem_bytes as f64).max(1.0);

    let mut doc = serde_json::Map::new();
    doc.insert("schema_version", serde_json::Value::from(1u64));
    doc.insert("name", serde_json::Value::from("fig13_metro"));
    doc.insert("fast", serde_json::Value::from(fast_mode()));
    doc.insert("base_slots", serde_json::Value::from(base_slots));
    let scales_json: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            let mut m = serde_json::Map::new();
            m.insert("scale", serde_json::Value::from(r.scale));
            m.insert("slots", serde_json::Value::from(r.slots));
            m.insert("requests", serde_json::Value::from(r.requests));
            m.insert("accepted", serde_json::Value::from(r.accepted));
            m.insert("wall_secs", serde_json::Value::from(r.wall_secs));
            m.insert(
                "requests_per_sec",
                serde_json::Value::from(r.requests_per_sec),
            );
            m.insert("peak_mem_bytes", serde_json::Value::from(r.peak_mem_bytes));
            serde_json::Value::Object(m)
        })
        .collect();
    doc.insert("scales", serde_json::Value::Array(scales_json));
    // Headline rate: throughput at the largest scale, where regressions in
    // the streaming path hurt most.
    doc.insert(
        "requests_per_sec",
        serde_json::Value::from(last.requests_per_sec),
    );
    doc.insert(
        "throughput_ratio",
        serde_json::Value::from(throughput_ratio),
    );
    doc.insert("peak_mem_ratio", serde_json::Value::from(peak_mem_ratio));
    doc.insert(
        "wall_clock_secs",
        serde_json::Value::from(started.elapsed().as_secs_f64()),
    );

    let report_path = out_path("BENCH_metro.json");
    write_lines(
        &report_path,
        &[serde_json::to_string_pretty(&serde_json::Value::Object(
            doc,
        ))],
    )
    .expect("write BENCH_metro.json");
    eprintln!(
        "[fig13] wrote {} (throughput {throughput_ratio:.2}x, peak mem {peak_mem_ratio:.2}x \
         across a {}x horizon growth; {:.2}s wall)",
        report_path.display(),
        last.scale / first.scale.max(1),
        started.elapsed().as_secs_f64()
    );
}
