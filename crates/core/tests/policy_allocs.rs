//! Pins what each registered baseline allocates per decision, and what
//! trace generation allocates, as counts: the grid figures (`fig2_load`
//! and its neighbours) run every baseline on cells like this one, each
//! generating its own trace. The counts are deterministic, so these are
//! exact tests, not timings.

mod counting_alloc;

use counting_alloc::counting;
use edgenet::node::{NodeId, Resources};
use mano::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::trace::{generate_trace, Trace};

/// `bench::bench_scenario(8.0)`'s world at full resolution: eight metro
/// sites and the cloud, 32 vCPU / 128 GB per site, λ = 8 for 360 slots.
fn scenario() -> Scenario {
    let mut s = Scenario::default_metro().with_arrival_rate(8.0);
    s.topology_builder.edge_capacity = Resources::new(32.0, 128.0);
    s.horizon_slots = 360;
    s
}

fn sites(scenario: &Scenario) -> Vec<NodeId> {
    Simulation::new(scenario, RewardConfig::default())
        .network
        .topology()
        .edge_nodes()
}

fn trace(scenario: &Scenario, sites: &[NodeId]) -> Trace {
    let mut rng = StdRng::seed_from_u64(101);
    generate_trace(&scenario.workload, sites, scenario.horizon_slots, &mut rng)
}

/// Ceiling on one `drive`'s allocations per decision, for every baseline.
/// Measured over 10,050 decisions (2,885 requests): 0.032 (cloud-only,
/// 317 allocations) to 0.040 (random, 407), none of it per decision: hop
/// lists until the spare list covers the peak number of concurrent flows,
/// and the pool's index, the id-keyed stores, the event queue and
/// full-retention metrics growing to the run's largest world. A `Vec` per
/// decision reads ~3 (`random` collecting its feasible nodes), one per
/// admitted flow ~0.3.
const MAX_ALLOCATIONS_PER_DECISION: f64 = 0.05;

#[test]
fn every_baseline_decides_without_allocating() {
    let scenario = scenario();
    let trace = trace(&scenario, &sites(&scenario));
    for &name in roster("standard").unwrap_or_default() {
        let mut policy = baseline(name).unwrap_or_else(|| panic!("{name} is registered"));
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let (summary, allocations) =
            counting(|| sim.drive(RunInput::Trace(&trace), policy.as_mut(), RunOptions::new()));
        let decisions = sim.metrics().decision_count();
        assert!(
            decisions > summary.total_arrivals,
            "{name}: {decisions} decisions"
        );
        let per_decision = allocations as f64 / decisions as f64;
        println!(
            "{name:>15}: {allocations} allocations / {decisions} decisions = {per_decision:.3} \
             ({} requests)",
            summary.total_arrivals
        );
        assert!(
            per_decision <= MAX_ALLOCATIONS_PER_DECISION,
            "{name}: {allocations} allocations over {decisions} decisions = {per_decision:.3} \
             per decision (ceiling {MAX_ALLOCATIONS_PER_DECISION})"
        );
    }
}

#[test]
fn trace_generation_allocates_only_to_grow_its_vec() {
    let scenario = scenario();
    let sites = sites(&scenario);
    let (trace, allocations) = counting(|| trace(&scenario, &sites));
    let requests = trace.requests.len();
    assert!(requests > 2_000, "{requests} requests");
    // The request `Vec` doubles ~log2(n) times; the site weights and a
    // few spare growths fit in the constant. One allocation per request
    // (the weights rebuilt per draw) reads ~2,900.
    let ceiling = requests.ilog2() as u64 + 8;
    println!("{allocations} allocations / {requests} requests (ceiling {ceiling})");
    assert!(
        allocations <= ceiling,
        "{allocations} allocations generating {requests} requests (ceiling {ceiling})"
    );
}
