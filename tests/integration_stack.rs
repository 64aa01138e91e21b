//! Integration tests spanning the whole stack:
//! workload → mano engine → sfc/edgenet substrates, plus cross-crate
//! invariants no single crate can check alone.

use drl_vnf_edge::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_scenario(rate: f64) -> Scenario {
    let mut s = Scenario::small_test().with_arrival_rate(rate);
    s.horizon_slots = 80;
    s
}

#[test]
fn full_pipeline_workload_to_summary() {
    let scenario = small_scenario(3.0);
    let mut policy = FirstFitPolicy;
    let result = evaluate_policy(&scenario, RewardConfig::default(), &mut policy, 5);
    let s = &result.summary;
    assert_eq!(s.slots, scenario.horizon_slots);
    assert_eq!(s.total_arrivals, s.total_accepted + s.total_rejected);
    assert!(
        s.total_arrivals > 50,
        "Poisson(3) over 80 slots should produce plenty of requests"
    );
    assert!(s.mean_admission_latency_ms > 0.0);
    assert!(s.total_cost_usd > 0.0);
}

/// CPU in use summed over every node: the pool's usage.
fn total_used_cpu(sim: &Simulation) -> f64 {
    (0..sim.topology().node_count())
        .map(|n| sim.pool.used_on(NodeId(n)).cpu)
        .sum()
}

/// Drains `sim`: no arrivals for long enough that all flows depart and
/// every instance passes the idle grace period, then checks nothing is
/// left. Departure and retire-check events the runs before scheduled past
/// their horizon fire here.
fn assert_drains_to_empty(sim: &mut Simulation, policy: &mut dyn PlacementPolicy) {
    let drain = Trace {
        requests: Vec::new(),
        horizon_slots: 400,
    };
    let _ = sim.drive(RunInput::Trace(&drain), policy, RunOptions::new());
    assert_eq!(sim.active_flow_count(), 0);
    assert_eq!(sim.pool.len(), 0, "all instances retired after drain");
    assert_eq!(total_used_cpu(sim), 0.0, "no leaked capacity");
}

#[test]
fn capacity_is_conserved_through_a_full_run() {
    // After every flow departs and idle instances are retired, the usage
    // must return to zero — the engine leaks no capacity.
    let mut scenario = small_scenario(4.0);
    scenario.horizon_slots = 60;
    let mut sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = WeightedGreedyPolicy::default();
    let _ = sim.drive(
        RunInput::Generated,
        &mut policy,
        RunOptions::new().with_seed_offset(1),
    );
    assert_drains_to_empty(&mut sim, &mut policy);
}

#[test]
fn capacity_is_conserved_through_chained_generated_runs() {
    // Four short generated runs on one simulation: each run's first
    // arrivals come while flows of the run before are still live. Were
    // every run's request ids to restart at 0, a new flow would take a
    // live flow's place in the active set and the old flow's shares
    // would stay on its instances forever (20 instances never retired).
    let mut scenario = small_scenario(4.0);
    scenario.horizon_slots = 6;
    let mut sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = WeightedGreedyPolicy::default();
    for seed_offset in 0..4 {
        let _ = sim.drive(
            RunInput::Generated,
            &mut policy,
            RunOptions::new().with_seed_offset(seed_offset),
        );
    }
    assert_drains_to_empty(&mut sim, &mut policy);
}

#[test]
#[should_panic(expected = "already active")]
fn readmitting_a_live_request_id_is_refused() {
    // Ids the caller supplies are the caller's to keep unique: a second
    // arrival under the id of a flow still being served is an error.
    let scenario = small_scenario(4.0);
    let mut sim = Simulation::new(&scenario, RewardConfig::default());
    let arrival = |slot| TimedArrival {
        at: SimTime::from_slot(slot, sim.slot_ms()),
        request: Request::new(RequestId(0), ChainId(1), NodeId(1), slot, 10),
    };
    let arrivals = [arrival(0), arrival(3)];
    let _ = sim.drive(
        RunInput::Events(&arrivals),
        &mut FirstFitPolicy,
        RunOptions::new(),
    );
}

#[test]
fn all_baselines_complete_and_respect_bounds() {
    let scenario = small_scenario(5.0);
    let mut policies = standard_baselines();
    let results = compare_policies(&scenario, RewardConfig::default(), &mut policies, 11);
    assert_eq!(results.len(), policies.len());
    for r in &results {
        let s = &r.summary;
        assert!(
            (0.0..=1.0).contains(&s.acceptance_ratio),
            "{}: acceptance",
            r.policy
        );
        assert!(
            (0.0..=1.0).contains(&s.sla_violation_ratio),
            "{}: sla",
            r.policy
        );
        assert!(
            (0.0..=1.0 + 1e-9).contains(&s.mean_utilization),
            "{}: util",
            r.policy
        );
        assert!(
            s.total_cost_usd.is_finite() && s.total_cost_usd >= 0.0,
            "{}: cost",
            r.policy
        );
    }
}

#[test]
fn drl_end_to_end_training_improves_over_random() {
    // The headline claim in miniature: a briefly-trained DRL manager beats
    // the random policy on the combined objective.
    let mut scenario = small_scenario(4.0);
    scenario.horizon_slots = 60;
    let reward = RewardConfig::default();
    let config = DrlManagerConfig {
        dqn: rl::dqn::DqnConfig {
            network: rl::qnet::QNetworkConfig::Standard { hidden: vec![64] },
            replay_capacity: 10_000,
            batch_size: 32,
            learn_start: 200,
            target_sync_every: 200,
            optimizer: nn::prelude::OptimizerConfig::adam(1e-3),
            epsilon: rl::schedule::EpsilonSchedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: 3_000,
            },
            ..rl::dqn::DqnConfig::default()
        },
        label: "drl".into(),
    };
    let mut trained = train_drl(&scenario, reward, config, 4);
    let drl = evaluate_policy(&scenario, reward, &mut trained.policy, 77);
    let mut random = RandomPolicy;
    let rand_result = evaluate_policy(&scenario, reward, &mut random, 77);
    let drl_obj = drl.summary.combined_objective(1.0, 1.0);
    let rand_obj = rand_result.summary.combined_objective(1.0, 1.0);
    assert!(
        drl_obj < rand_obj,
        "trained DRL ({drl_obj:.2}) must beat random ({rand_obj:.2})"
    );
}

#[test]
fn same_seed_reproduces_identical_runs_across_policies() {
    let scenario = small_scenario(3.0);
    let run = || {
        let mut p = GreedyCostPolicy;
        let r = evaluate_policy(&scenario, RewardConfig::default(), &mut p, 42);
        r.summary
    };
    assert_eq!(run(), run());
}

#[test]
fn overload_forces_rejections_but_never_panics() {
    // Crush a tiny topology: huge rate, tiny capacity.
    let mut scenario = small_scenario(30.0);
    scenario.topology_builder.edge_capacity = Resources::new(6.0, 12.0);
    scenario.topology_builder.with_cloud = false; // no infinite escape hatch
    scenario.horizon_slots = 40;
    let mut policy = FirstFitPolicy;
    let result = evaluate_policy(&scenario, RewardConfig::default(), &mut policy, 9);
    assert!(result.summary.total_rejected > 0, "overload must reject");
    assert!(result.summary.acceptance_ratio < 1.0);
}

#[test]
fn cloud_only_policy_survives_without_cloud() {
    let mut scenario = small_scenario(2.0);
    scenario.topology_builder.with_cloud = false;
    let mut policy = CloudOnlyPolicy;
    let result = evaluate_policy(&scenario, RewardConfig::default(), &mut policy, 1);
    // No cloud in the topology → cloud-only rejects everything.
    assert_eq!(result.summary.total_accepted, 0);
}

#[test]
fn trace_generation_feeds_engine_consistently() {
    // Arrivals counted by the engine must match the trace.
    let scenario = small_scenario(4.0);
    let sim = Simulation::new(&scenario, RewardConfig::default());
    let sites = sim.topology().edge_nodes();
    let mut rng = StdRng::seed_from_u64(123);
    let trace = generate_trace(&scenario.workload, &sites, scenario.horizon_slots, &mut rng);
    let mut sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let summary = sim.drive(RunInput::Trace(&trace), &mut policy, RunOptions::new());
    assert_eq!(summary.total_arrivals as usize, trace.len());
}

#[test]
fn sla_violations_only_on_accepted_requests() {
    let scenario = small_scenario(6.0);
    let mut policy = RandomPolicy;
    let result = evaluate_policy(&scenario, RewardConfig::default(), &mut policy, 3);
    let s = &result.summary;
    // violation ratio is defined over accepted requests; consistency check.
    assert!(s.sla_violation_ratio <= 1.0);
    if s.total_accepted == 0 {
        assert_eq!(s.sla_violation_ratio, 0.0);
    }
}
