//! The serving layer's determinism contract, end to end: runs whose
//! forwards happen on the shared policy server — fused with whatever
//! other rows happened to be pending — must be bit-identical to the same
//! runs evaluated in-process, for any client count and thread count.

use exper::eval::cells_for_seeds;
use mano::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::dqn::DqnConfig;
use rl::qnet::QNetworkConfig;
use rl::schedule::EpsilonSchedule;
use serve::prelude::*;

/// A multi-arrival scenario so slots routinely carry whole wavefronts.
fn scenario() -> Scenario {
    let mut s = Scenario::small_test();
    s.horizon_slots = 40;
    s
}

/// A frozen, batch-capable DQN policy (untrained weights are fine — the
/// contract is about bits, not quality).
fn frozen_policy(scenario: &Scenario) -> DrlPolicy {
    let probe = Simulation::new(scenario, RewardConfig::default());
    let state_dim = probe.encoder.dim();
    let action_count = probe.action_space.len();
    drop(probe);
    let config = DrlManagerConfig {
        dqn: DqnConfig {
            network: QNetworkConfig::Standard { hidden: vec![16] },
            epsilon: EpsilonSchedule::Constant(0.0),
            ..DqnConfig::default()
        },
        label: "drl".into(),
    };
    let mut rng = StdRng::seed_from_u64(0x5E21);
    let mut policy = DrlPolicy::new(config, state_dim, action_count, &mut rng);
    policy.set_training(false);
    policy
}

fn in_process_summary(scenario: &Scenario, policy: &DrlPolicy, seed: u64) -> RunSummary {
    let mut worker = policy.clone();
    let result = evaluate_policy_with_semantics(
        scenario,
        RewardConfig::default(),
        &mut worker,
        seed,
        DecisionSemantics::SlotSnapshot,
    );
    result.summary
}

#[test]
fn single_simulation_served_run_is_bit_identical_to_in_process() {
    let scenario = scenario();
    let policy = frozen_policy(&scenario);
    let expected = in_process_summary(&scenario, &policy, 3);

    let cells = cells_for_seeds("small", 1.0, &scenario, &[3]);
    let (served, stats) = serve_evaluations(
        policy,
        ServeConfig::default(),
        RewardConfig::default(),
        &cells,
        Some(1),
        DecisionSemantics::SlotSnapshot,
    );
    assert_eq!(served.len(), 1);
    assert_eq!(served[0].summary, expected, "serving changed the run");
    assert!(stats.ticks > 0, "no forwards ran on the server");
    assert!(
        stats.decisions >= stats.ticks,
        "ticks without decisions make no sense"
    );
}

#[test]
fn eight_concurrent_simulations_match_in_process_runs() {
    let scenario = scenario();
    let policy = frozen_policy(&scenario);
    let seeds: Vec<u64> = (0..8).collect();
    let expected: Vec<RunSummary> = seeds
        .iter()
        .map(|&seed| in_process_summary(&scenario, &policy, seed))
        .collect();

    let cells = cells_for_seeds("small", 1.0, &scenario, &seeds);
    let (served, stats) = serve_evaluations(
        policy,
        ServeConfig::default(),
        RewardConfig::default(),
        &cells,
        Some(8),
        DecisionSemantics::SlotSnapshot,
    );
    assert_eq!(served.len(), 8);
    for (cell, expected) in served.iter().zip(expected.iter()) {
        assert_eq!(
            &cell.summary, expected,
            "cross-simulation fusion changed a run (seed {})",
            cell.seed
        );
    }
    let total: u64 = stats.decisions;
    assert!(total > 0);
}

#[test]
fn served_results_are_thread_count_invariant() {
    let scenario = scenario();
    let policy = frozen_policy(&scenario);
    let cells = cells_for_seeds("small", 1.0, &scenario, &[11, 12, 13, 14]);
    let (one, _) = serve_evaluations(
        policy.clone(),
        ServeConfig::default(),
        RewardConfig::default(),
        &cells,
        Some(1),
        DecisionSemantics::SlotSnapshot,
    );
    let (four, _) = serve_evaluations(
        policy,
        ServeConfig::default(),
        RewardConfig::default(),
        &cells,
        Some(4),
        DecisionSemantics::SlotSnapshot,
    );
    for (a, b) in one.iter().zip(four.iter()) {
        assert_eq!(a.summary, b.summary, "thread count changed a served run");
    }
}

#[test]
fn sequential_semantics_also_serve_correctly() {
    // The serving layer is semantics-agnostic: a Sequential run through
    // the server (one round trip per decision) still matches its
    // in-process twin.
    let scenario = scenario();
    let policy = frozen_policy(&scenario);
    let mut worker = policy.clone();
    let expected = evaluate_policy_with_semantics(
        &scenario,
        RewardConfig::default(),
        &mut worker,
        5,
        DecisionSemantics::Sequential,
    );

    let cells = cells_for_seeds("small", 1.0, &scenario, &[5]);
    let (served, _) = serve_evaluations(
        policy,
        ServeConfig::default(),
        RewardConfig::default(),
        &cells,
        Some(1),
        DecisionSemantics::Sequential,
    );
    assert_eq!(served[0].summary, expected.summary);
}
