//! Engine determinism: a parallel grid run must be bit-identical to the
//! sequential reference run — same cells, same aggregates, same serialized
//! JSON payload — because reduction is keyed by grid index, never by
//! completion order.

use exper::prelude::*;
use mano::prelude::*;

/// The 2-scenario × 3-policy × 4-seed grid from the engine's acceptance
/// criteria, pinned to an explicit thread count.
fn reference_grid(threads: usize) -> BenchReport {
    let low = Scenario::small_test().with_arrival_rate(2.0);
    let high = Scenario::small_test().with_arrival_rate(6.0);
    ExperimentGrid::new("determinism")
        .scenario("low-load", 2.0, low)
        .scenario("high-load", 6.0, high)
        .policy("first-fit", || Box::new(FirstFitPolicy))
        .policy("greedy-latency", || Box::new(GreedyLatencyPolicy))
        .policy("weighted-greedy", || {
            Box::new(WeightedGreedyPolicy::default())
        })
        .seeds(&[11, 12, 13, 14])
        .threads(threads)
        .run()
}

#[test]
fn parallel_grid_is_bit_identical_to_sequential() {
    let sequential = reference_grid(1);
    let parallel = reference_grid(8);

    assert_eq!(sequential.cells.len(), 2 * 3 * 4);
    // Cell-level: every summary field, every coordinate.
    assert_eq!(sequential.cells, parallel.cells);
    // Aggregate-level: mean/std/ci95 of every metric of every group.
    assert_eq!(sequential.aggregates, parallel.aggregates);
    // Byte-level: the serialized deterministic payload is what CI diffs,
    // so compare the exact strings that would land on disk.
    assert_eq!(
        serde_json::to_string_pretty(&sequential.payload_json()),
        serde_json::to_string_pretty(&parallel.payload_json()),
    );
    // The band CSVs derived from the aggregates must match byte for byte.
    assert_eq!(sweep_csv(&sequential), sweep_csv(&parallel));
    assert_eq!(cells_csv(&sequential), cells_csv(&parallel));
}

#[test]
fn thread_count_is_recorded_but_outside_the_payload() {
    let parallel = reference_grid(8);
    assert_eq!(parallel.threads, 8);
    let payload = serde_json::to_string(&parallel.payload_json());
    assert!(
        !payload.contains("wall_clock"),
        "payload must not leak timing"
    );
}

#[test]
fn parallel_eval_is_thread_count_invariant_with_warm_worker_clones() {
    // parallel_eval clones the frozen policy once per WORKER, so a
    // worker's inference workspaces stay warm across the cells it serves.
    // Warm buffers must be reusable scratch, not behavioral state: any
    // thread count (and any cell-to-worker assignment) has to produce
    // bit-identical cells.
    let scenario = Scenario::small_test();
    let mut agent_rng = rand::SeedableRng::seed_from_u64(17);
    let probe = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = DrlPolicy::new(
        DrlManagerConfig::default(),
        probe.encoder.dim(),
        probe.action_space.len(),
        &mut agent_rng,
    );
    drop(probe);
    policy.set_training(false);

    let mut cells = cells_for_seeds(
        "lambda=2",
        2.0,
        &scenario.with_arrival_rate(2.0),
        &[1, 2, 3],
    );
    cells.extend(cells_for_seeds(
        "lambda=5",
        5.0,
        &scenario.with_arrival_rate(5.0),
        &[1, 2, 3],
    ));

    let sequential = parallel_eval(
        &policy,
        "drl",
        RewardConfig::default(),
        &cells,
        Some(1),
        false,
    );
    let parallel = parallel_eval(
        &policy,
        "drl",
        RewardConfig::default(),
        &cells,
        Some(8),
        false,
    );
    assert_eq!(sequential.len(), 6);
    assert_eq!(sequential, parallel);

    // And the packaged report merges like any grid report.
    let report = BenchReport::from_cells("eval_fanout", "", 8, 1.0, parallel);
    assert_eq!(report.aggregates.len(), 2);
    assert!(report.aggregates.iter().all(|a| a.aggregate.runs == 3));
}

#[test]
fn stateful_policy_cells_stay_independent() {
    // A learning policy cloned per cell must give the same result as the
    // same policy evaluated directly: no cross-cell state bleed.
    let scenario = Scenario::small_test();
    let mut agent_rng = rand::SeedableRng::seed_from_u64(9);
    let probe = Simulation::new(&scenario, RewardConfig::default());
    let trained = DrlPolicy::new(
        DrlManagerConfig::default(),
        probe.encoder.dim(),
        probe.action_space.len(),
        &mut agent_rng,
    );
    drop(probe);

    let factory_policy = trained.clone();
    let report = ExperimentGrid::new("stateful")
        .scenario("small", 1.0, scenario.clone())
        .policy_boxed("drl", Box::new(move || Box::new(factory_policy.clone())))
        .seeds(&[5, 6])
        .threads(4)
        .run();

    for (cell, seed) in report.cells.iter().zip([5u64, 6]) {
        let mut fresh = trained.clone();
        let direct = evaluate_policy(&scenario, RewardConfig::default(), &mut fresh, seed);
        assert_eq!(cell.summary, direct.summary, "seed {seed} diverged");
    }
}

#[test]
fn snapshot_fan_out_times_decisions_only_when_kept() {
    // A frozen DQN under SlotSnapshot answers each wave with one
    // greedy_batch call, which the decision timer must time per row. The
    // engine itself reads no clock, so an untimed cell reads exactly 0.
    let scenario = Scenario::small_test();
    let mut agent_rng = rand::SeedableRng::seed_from_u64(23);
    let probe = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = DrlPolicy::new(
        DrlManagerConfig::default(),
        probe.encoder.dim(),
        probe.action_space.len(),
        &mut agent_rng,
    );
    drop(probe);
    policy.set_training(false);
    assert!(policy.supports_greedy_batch());

    let cells = cells_for_seeds("small", 1.0, &scenario, &[1, 2]);
    let eval = |keep_decision_time| {
        parallel_eval_semantics(
            &policy,
            "drl-snap",
            RewardConfig::default(),
            &cells,
            Some(2),
            keep_decision_time,
            DecisionSemantics::SlotSnapshot,
        )
    };
    let (kept, untimed) = (eval(true), eval(false));
    for (k, u) in kept.iter().zip(&untimed) {
        assert!(k.summary.mean_decision_time_us > 0.0, "seed {}", k.seed);
        assert_eq!(u.summary.mean_decision_time_us, 0.0, "seed {}", u.seed);
        // Timing observes the run; it changes nothing else.
        let k_untimed = RunSummary {
            mean_decision_time_us: 0.0,
            ..k.summary.clone()
        };
        assert_eq!(k_untimed, u.summary, "seed {}", k.seed);
    }
}
