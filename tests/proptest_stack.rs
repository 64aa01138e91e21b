//! Cross-crate property tests: engine invariants under random scenarios
//! and policies.

use drl_vnf_edge::prelude::*;
use proptest::prelude::*;

fn scenario_from(rate: f64, sites: usize, seed: u64) -> Scenario {
    let mut s = Scenario::small_test()
        .with_arrival_rate(rate)
        .with_seed(seed);
    s.topology = TopologySpec::Metro { sites };
    s.horizon_slots = 30;
    s
}

fn policy_by_index(i: usize) -> Box<dyn PlacementPolicy> {
    match i % 5 {
        0 => Box::new(RandomPolicy),
        1 => Box::new(FirstFitPolicy),
        2 => Box::new(GreedyLatencyPolicy),
        3 => Box::new(GreedyCostPolicy),
        _ => Box::new(WeightedGreedyPolicy::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_policy_any_scenario_invariants_hold(
        rate in 0.5f64..8.0,
        sites in 2usize..6,
        seed in 0u64..5_000,
        policy_index in 0usize..5,
    ) {
        let scenario = scenario_from(rate, sites, seed);
        let mut policy = policy_by_index(policy_index);
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let summary = sim.drive(RunInput::Generated, policy.as_mut(), RunOptions::new().with_seed_offset(seed));

        prop_assert_eq!(summary.total_arrivals, summary.total_accepted + summary.total_rejected);
        prop_assert!((0.0..=1.0).contains(&summary.acceptance_ratio));
        prop_assert!((0.0..=1.0).contains(&summary.sla_violation_ratio));
        prop_assert!(summary.total_cost_usd.is_finite() && summary.total_cost_usd >= 0.0);
        prop_assert!(summary.mean_admission_latency_ms >= 0.0);

        // Per-slot sanity.
        for r in sim.metrics().slots() {
            prop_assert_eq!(r.arrivals, r.accepted + r.rejected);
            prop_assert!(r.mean_utilization <= 1.0 + 1e-9);
            prop_assert!(r.total_cost() >= 0.0);
        }
    }

    #[test]
    fn drain_always_returns_capacity(
        rate in 1.0f64..6.0,
        seed in 0u64..2_000,
        policy_index in 0usize..5,
    ) {
        let scenario = scenario_from(rate, 3, seed);
        let mut policy = policy_by_index(policy_index);
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let _ = sim.drive(RunInput::Generated, policy.as_mut(), RunOptions::new());
        // Drain: what the run queued past its horizon fires here.
        let drain = Trace { requests: Vec::new(), horizon_slots: 300 };
        let _ = sim.drive(RunInput::Trace(&drain), policy.as_mut(), RunOptions::new());
        prop_assert_eq!(sim.active_flow_count(), 0);
        prop_assert_eq!(sim.pool.len(), 0);
        let used_cpu: f64 = (0..sim.topology().node_count())
            .map(|n| sim.pool.used_on(NodeId(n)).cpu)
            .sum();
        prop_assert!(used_cpu.abs() < 1e-6);
    }

    #[test]
    fn utilization_monotone_in_load_for_fixed_policy(seed in 0u64..1_000) {
        // More offered load ⇒ at least as much mean utilization (weak
        // monotonicity with slack for stochastic variation).
        let lo = scenario_from(1.0, 4, seed);
        let hi = scenario_from(6.0, 4, seed);
        let run = |s: &Scenario| {
            let mut p = FirstFitPolicy;
            evaluate_policy(s, RewardConfig::default(), &mut p, 5).summary.mean_utilization
        };
        prop_assert!(run(&hi) + 0.02 >= run(&lo));
    }
}
