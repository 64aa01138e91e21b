//! Determinism regression tests: the whole stack — trace synthesis,
//! placement, flow lifecycle, cost accounting — must be a pure function
//! of (scenario, seed). Any hidden global state, HashMap iteration-order
//! dependence, or wall-clock leakage into metrics fails here.
//!
//! Since the event-queue refactor, `Simulation::drive` runs everything
//! through the discrete-event engine, so every test below exercises the
//! event path; the cross-engine and sparse-schedule tests pin it against
//! the slotted oracle and against itself explicitly.

use drl_vnf_edge::prelude::*;

/// Evaluate `policy` on `scenario` and return the whole summary: the
/// engine reads no clock, so no field needs scrubbing.
fn summary_for(scenario: &Scenario, mut policy: Box<dyn PlacementPolicy>, seed: u64) -> RunSummary {
    evaluate_policy(scenario, RewardConfig::default(), policy.as_mut(), seed).summary
}

#[test]
fn same_scenario_same_seed_is_bit_identical() {
    let scenario = Scenario::small_test();
    let policies: [fn() -> Box<dyn PlacementPolicy>; 3] = [
        || Box::new(FirstFitPolicy),
        || Box::new(GreedyLatencyPolicy),
        || Box::new(WeightedGreedyPolicy::default()),
    ];
    for make in policies {
        let a = summary_for(&scenario, make(), 42);
        let b = summary_for(&scenario, make(), 42);
        assert_eq!(a, b, "summaries must be bit-identical for a fixed seed");
    }
}

#[test]
fn same_seed_slot_records_are_bit_identical() {
    // Stronger than the summary check: every per-slot record (arrivals,
    // acceptance, latency, each cost component, utilization) must match
    // exactly, not just the aggregates.
    let scenario = Scenario::small_test();
    let run = || {
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = GreedyCostPolicy;
        let _ = sim.drive(
            RunInput::Generated,
            &mut policy,
            RunOptions::new().with_seed_offset(7),
        );
        sim.metrics().slots().to_vec()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra, rb, "slot {} diverged between identical runs", ra.slot);
    }
}

/// A small scenario with a seeded stochastic failure/repair process that
/// actually fires within the horizon.
fn event_scenario() -> Scenario {
    Scenario::small_test().with_failures(0.02, 8.0)
}

/// A hand-written timeline over `Scenario::small_test()` that exercises
/// every kind of network event: a node goes down and comes back, one link
/// stretches 8x and later shrinks to 0.5x, and one node loses half its
/// capacity.
fn timeline_scenario() -> Scenario {
    let at = |slot: u64, event: NetworkEvent| TimedEvent { slot, event };
    let mut scenario = Scenario::small_test();
    scenario.events = EventSchedule::Timeline(vec![
        at(10, NetworkEvent::NodeDown { node: NodeId(1) }),
        at(
            15,
            NetworkEvent::LinkLatencyShift {
                a: NodeId(0),
                b: NodeId(2),
                factor: 8.0,
            },
        ),
        at(
            20,
            NetworkEvent::CapacityDegrade {
                node: NodeId(3),
                factor: 0.5,
            },
        ),
        at(25, NetworkEvent::NodeUp { node: NodeId(1) }),
        at(
            35,
            NetworkEvent::LinkLatencyShift {
                a: NodeId(0),
                b: NodeId(2),
                factor: 0.5,
            },
        ),
    ]);
    scenario
}

/// What an event-bearing run is pinned by: accepted and disrupted flow
/// counts, then the bits of the mean and p95 admission latency and of the
/// total cost.
fn pinned_figures(scenario: &Scenario, policy: Box<dyn PlacementPolicy>) -> [u64; 5] {
    let s = summary_for(scenario, policy, 42);
    [
        s.total_accepted,
        s.flows_disrupted,
        s.mean_admission_latency_ms.to_bits(),
        s.p95_admission_latency_ms.to_bits(),
        s.total_cost_usd.to_bits(),
    ]
}

#[test]
fn event_bearing_runs_match_their_pinned_figures() {
    // Literals, not a rerun: routes rebuilt after each network event must
    // give the numbers the earlier route maintenance gave. Greedy-latency
    // reads routed latency in every choice; first-fit only through the
    // flows it strands and the latencies it reports.
    let (stochastic, timeline) = (event_scenario(), timeline_scenario());
    assert_eq!(
        pinned_figures(&stochastic, Box::new(GreedyLatencyPolicy)),
        [
            94,
            10,
            4620862518414773104,
            4624091611855587602,
            4611734260404099471
        ],
        "stochastic/greedy-latency"
    );
    assert_eq!(
        pinned_figures(&stochastic, Box::new(FirstFitPolicy)),
        [
            94,
            10,
            4627343597682724801,
            4631595414668661912,
            4607530527113402298
        ],
        "stochastic/first-fit"
    );
    assert_eq!(
        pinned_figures(&timeline, Box::new(GreedyLatencyPolicy)),
        [
            101,
            2,
            4620920729615923270,
            4624091611855587602,
            4611885172430987955
        ],
        "timeline/greedy-latency"
    );
    assert_eq!(
        pinned_figures(&timeline, Box::new(FirstFitPolicy)),
        [
            101,
            2,
            4627745558274301293,
            4632419140148552374,
            4607411465934815962
        ],
        "timeline/first-fit"
    );
}

#[test]
fn event_scenario_same_seed_is_bit_identical() {
    // Failures, evictions and re-placement episodes must all be pure
    // functions of (scenario, seed), exactly like the static stack.
    let scenario = event_scenario();
    let policies: [fn() -> Box<dyn PlacementPolicy>; 3] = [
        || Box::new(FirstFitPolicy),
        || Box::new(GreedyLatencyPolicy),
        || Box::new(WeightedGreedyPolicy::default()),
    ];
    for make in policies {
        let a = summary_for(&scenario, make(), 42);
        let b = summary_for(&scenario, make(), 42);
        assert_eq!(a, b, "event-bearing summaries must be bit-identical");
        assert!(a.downtime_slots > 0, "the failure process must fire");
    }
}

#[test]
fn event_scenario_engine_output_is_thread_invariant() {
    // Same seed + event schedule through the exper engine: 8 worker
    // threads must produce the byte-identical deterministic payload as a
    // single-threaded run.
    let grid = |threads: usize| {
        ExperimentGrid::new("event_determinism")
            .scenario("fail=0.02", 0.02, event_scenario())
            .policy("first-fit", || Box::new(FirstFitPolicy))
            .policy("weighted-greedy", || {
                Box::new(WeightedGreedyPolicy::default())
            })
            .seeds(&[1, 2, 3, 4])
            .threads(threads)
            .run()
    };
    let (par, seq) = (grid(8), grid(1));
    assert_eq!(
        serde_json::to_string_pretty(&par.payload_json()),
        serde_json::to_string_pretty(&seq.payload_json()),
        "deterministic payload must not depend on thread count"
    );
    // The event schedule is a function of the scenario seed, not the
    // workload seed: every cell of the group saw the same failures.
    for cell in &par.cells {
        assert_eq!(
            cell.summary.downtime_slots, par.cells[0].summary.downtime_slots,
            "same scenario ⇒ same realized failure timeline"
        );
    }
}

#[test]
fn event_engine_matches_the_slotted_oracle() {
    // Root-level pin of the tentpole contract (the full per-scenario
    // matrix lives in crates/core/tests/event_slot_equivalence.rs): on a
    // slot-boundary schedule the event engine is bit-identical to the
    // paper's slotted loop, failures and re-placements included.
    let scenario = event_scenario();
    let run = |slotted: bool| {
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = WeightedGreedyPolicy::default();
        let summary = if slotted {
            sim.drive_slotted(None, &mut policy, 42, None)
        } else {
            let opts = RunOptions::new().with_seed_offset(42);
            sim.drive(RunInput::Generated, &mut policy, opts)
        };
        (summary, sim.metrics().slots().to_vec())
    };
    let (slot_summary, slot_records) = run(true);
    let (event_summary, event_records) = run(false);
    assert_eq!(slot_summary, event_summary, "engines diverged");
    assert_eq!(slot_records, event_records, "slot-record streams diverged");
    assert!(
        slot_summary.downtime_slots > 0,
        "the failure process must fire"
    );
}

#[test]
fn sparse_engine_same_schedule_is_bit_identical() {
    // Sparse schedules (mid-slot arrivals, sub-slot holding times) must
    // be exactly as reproducible as slot-aligned ones.
    let scenario = Scenario::small_test();
    let run = || {
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let slot_ms = sim.slot_ms();
        let arrivals: Vec<TimedArrival> = (0..24u64)
            .map(|i| TimedArrival {
                at: SimTime::from_ms(i * slot_ms / 3 + (i * 131) % slot_ms),
                request: Request::new(
                    RequestId(i),
                    ChainId((i % 4) as usize),
                    NodeId((i % 4) as usize),
                    0, // rewritten from `at` by the engine
                    1 + (i % 4) as u32,
                )
                .with_duration_ms(slot_ms / 2 + i * 200),
            })
            .collect();
        let mut policy = WeightedGreedyPolicy::default();
        let summary = sim.drive(
            RunInput::Events(&arrivals),
            &mut policy,
            RunOptions::new().with_seed_offset(9).with_horizon(30),
        );
        assert!(sim.events_processed() > 0, "the queue must drive the run");
        (summary, sim.metrics().slots().to_vec())
    };
    let (a_summary, a_records) = run();
    let (b_summary, b_records) = run();
    assert_eq!(a_summary, b_summary);
    assert_eq!(a_records, b_records);
}

#[test]
fn different_seeds_produce_different_traces() {
    // Sanity check that the seed actually feeds the workload: two seeds
    // should (overwhelmingly) not produce identical arrival sequences.
    let scenario = Scenario::small_test();
    let arrivals = |seed: u64| {
        let mut policy = FirstFitPolicy;
        evaluate_policy(&scenario, RewardConfig::default(), &mut policy, seed)
            .summary
            .total_arrivals
    };
    let distinct: std::collections::HashSet<u64> = (0..8).map(arrivals).collect();
    assert!(
        distinct.len() > 1,
        "eight different seeds all produced identical arrival counts"
    );
}
