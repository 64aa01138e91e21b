//! Pins what a network event allocates, as a count: fig7 and fig12 run
//! their policies on worlds whose edge nodes fail and recover, and each
//! failure evicts instances, tears flows out and re-places them. The
//! counts are deterministic, so this is an exact test, not a timing.

mod counting_alloc;

use counting_alloc::counting;
use edgenet::node::Resources;
use mano::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::trace::generate_trace;

/// `bench::bench_scenario(8.0)`'s world at full resolution (eight metro
/// sites and the cloud, 32 vCPU / 128 GB per site, λ = 8 for 360 slots),
/// with `fig12_resilience`'s failure process at its training rate: each
/// live edge node fails with probability 0.01 per slot and stays down 20
/// slots on average.
fn scenario(failure_rate: f64) -> Scenario {
    let mut s = Scenario::default_metro().with_arrival_rate(8.0);
    s.topology_builder.edge_capacity = Resources::new(32.0, 128.0);
    s.horizon_slots = 360;
    if failure_rate > 0.0 {
        s = s.with_failures(failure_rate, 20.0);
    }
    s
}

/// Ceiling on a failure run's allocations beyond the same trace's
/// failure-free run, per network event. What an event still allocates is
/// the pool's eviction lists, the network's route rebuild, and the growth
/// its re-placements cause. Measured: 23.6 (1,322 over 56 events, 540
/// flows disrupted). While the event path collected fresh buffers it read
/// 94.1 (5,269): a `ChainAssignment` per active flow per event, the id
/// lists and a `BTreeSet` per event, and a new hop list per re-placed
/// flow.
const MAX_ALLOCATIONS_PER_EVENT: f64 = 30.0;

#[test]
fn a_network_event_allocates_only_to_evict_and_reroute() {
    let failing = scenario(0.01);
    let calm = scenario(0.0);
    let mut sim = Simulation::new(&failing, RewardConfig::default());
    let sites = sim.network.topology().edge_nodes();
    let trace = generate_trace(
        &failing.workload,
        &sites,
        failing.horizon_slots,
        &mut StdRng::seed_from_u64(101),
    );
    let events: usize = failing
        .events
        .materialize(sim.network.topology(), failing.horizon_slots, failing.seed)
        .values()
        .map(Vec::len)
        .sum();

    let mut policy = baseline("first-fit").unwrap_or_else(|| panic!("first-fit is registered"));
    let (summary, with_events) =
        counting(|| sim.drive(RunInput::Trace(&trace), policy.as_mut(), RunOptions::new()));
    let mut policy = baseline("first-fit").unwrap_or_else(|| panic!("first-fit is registered"));
    let mut quiet = Simulation::new(&calm, RewardConfig::default());
    let (_, without) =
        counting(|| quiet.drive(RunInput::Trace(&trace), policy.as_mut(), RunOptions::new()));

    assert!(events >= 20, "{events} network events");
    assert!(
        summary.flows_disrupted >= 20,
        "{} flows disrupted",
        summary.flows_disrupted
    );
    let extra = with_events.saturating_sub(without);
    let per_event = extra as f64 / events as f64;
    println!(
        "{with_events} allocations with {events} network events ({} flows disrupted), \
         {without} without: {per_event:.1} per event",
        summary.flows_disrupted
    );
    assert!(
        per_event <= MAX_ALLOCATIONS_PER_EVENT,
        "{extra} allocations over {events} network events = {per_event:.1} per event \
         (ceiling {MAX_ALLOCATIONS_PER_EVENT})"
    );
}
