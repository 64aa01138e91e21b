//! Pins what the engine's decision loop allocates, as a count: heap
//! allocations across one `Simulation::drive` of the `metro_heuristic`
//! benchmark world under first-fit, per request. The count is
//! deterministic, so this is an exact test, not a timing.
//!
//! The counting `#[global_allocator]` is the device `fig13_metro` and
//! `perf/src/alloc.rs` use; an integration test file is its own binary, so
//! it touches no other suite. Allocations are counted per thread, so the
//! test harness's own threads cannot disturb the count.

use edgenet::node::{NodeId, Resources};
use mano::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workload::metro::MetroProfile;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; its allocations
        // are not the test's.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was returned by `alloc` above for this `layout`.
        unsafe { System.dealloc(p, layout) };
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ceiling on allocations per request. Measured: 1.24 (30,670 allocations
/// over 24,703 requests and 83,711 decisions; 1.50 = 37,088 while the
/// instance pool, the active flows and the telemetry sink's open records
/// were `BTreeMap`s, and 20.0 = 494,570 while `InstancePool::instances_of`
/// collected a `Vec` per call and the episode cloned its catalog entries).
/// No B-tree node is left, and none of what remains is per decision:
/// 24,703 are the hop list that moves into each admitted flow's
/// record, 5,772 the arrival stream's offset list for each slot that has
/// arrivals, 115 the idle-id list of each retire check that finds one, and
/// the rest reused buffers growing to the run's largest world (debug
/// builds' invariant checker included). One stray `Vec` per request reads
/// 2.2, one per decision 4.6.
const MAX_ALLOCATIONS_PER_REQUEST: f64 = 1.5;

#[test]
fn a_decision_allocates_nothing_and_a_request_a_handful() {
    // `perf/src/workloads/metro.rs`'s world at seed 2026.
    let seed = 2026;
    let mut scenario = Scenario::default_metro();
    scenario.topology_builder.edge_capacity = Resources::new(32.0, 128.0);
    scenario.seed = seed;
    let slot_ms = (scenario.slot_seconds * 1000.0).round() as u64;
    let sites: Vec<NodeId> = (0..scenario.topology.site_count()).map(NodeId).collect();
    let mut profile = MetroProfile::default_city(seed);
    profile.base_rate = 3.0;
    profile.mean_duration_ms = 6.0 * slot_ms as f64;
    let horizon = 3 * 7 * 288;

    let mut sink = TelemetrySink::new();
    let mut stream = profile
        .stream(&sites, horizon, slot_ms)
        .map(TimedArrival::from);
    let mut sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let options = RunOptions::new()
        .with_streaming_metrics()
        .with_horizon(horizon)
        .with_telemetry(&mut sink);

    let before = ALLOCATIONS.with(Cell::get);
    let summary = sim.drive(RunInput::Stream(&mut stream), &mut policy, options);
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    let requests = summary.total_arrivals;
    let decisions = sim.metrics().decision_count();
    // 74,273 = two per request (the arrival and its placement episode)
    // plus 24,867 queue pops (departures and retire checks): what `perf/`
    // reports as `sim.events`.
    assert_eq!(
        (requests, decisions, sim.events_processed()),
        (24_703, 83_711, 74_273),
        "the world moved; re-measure the ceiling"
    );
    let per_request = allocations as f64 / requests as f64;
    println!(
        "{allocations} allocations / {requests} requests ({} admitted) = {per_request:.2} per \
         request, {:.2} per decision",
        summary.total_accepted,
        allocations as f64 / decisions as f64
    );
    assert!(
        per_request <= MAX_ALLOCATIONS_PER_REQUEST,
        "{allocations} allocations over {requests} requests = {per_request:.2} per request \
         (ceiling {MAX_ALLOCATIONS_PER_REQUEST})"
    );
}
