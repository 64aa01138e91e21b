//! Pins what the engine's decision loop allocates, as a count: heap
//! allocations across one `Simulation::drive` of the `metro_heuristic`
//! benchmark world under first-fit, per request. The count is
//! deterministic, so this is an exact test, not a timing.
//!
//! The counting allocator is `counting_alloc`'s, installed for this
//! binary only.

mod counting_alloc;

use counting_alloc::counting;
use edgenet::node::{NodeId, Resources};
use mano::prelude::*;
use workload::metro::MetroProfile;

/// Ceiling on allocations per request. Measured: 0.0095 (234 allocations
/// over 24,703 requests and 83,711 decisions; 244 in debug builds, whose
/// invariant checker grows its own buffers). None of it is per request or
/// per decision: 155 are hop lists, allocated while the number of
/// concurrent flows climbs to its peak (a departed flow's list is
/// recycled) or regrown to the exact length of a longer chain, and the
/// rest reused buffers growing to the run's largest world (the
/// id-keyed stores, the pool's `(node, type)` index, the event queue, the
/// arrival stream's slot buffers). One stray allocation per retire check
/// that retires (115 of them) reads 0.0142, one per slot with arrivals
/// (5,772) 0.24, one per request 1.0.
const MAX_ALLOCATIONS_PER_REQUEST: f64 = 0.012;

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

    let (summary, allocations) =
        counting(|| sim.drive(RunInput::Stream(&mut stream), &mut policy, options));

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
        "{allocations} allocations / {requests} requests ({} admitted) = {per_request:.4} per \
         request, {:.4} per decision",
        summary.total_accepted,
        allocations as f64 / decisions as f64
    );
    assert!(
        per_request <= MAX_ALLOCATIONS_PER_REQUEST,
        "{allocations} allocations over {requests} requests = {per_request:.4} per request \
         (ceiling {MAX_ALLOCATIONS_PER_REQUEST})"
    );
}
