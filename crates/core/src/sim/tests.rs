use super::*;
use crate::baselines::{FirstFitPolicy, RandomPolicy};
use sfc::chain::ChainId;

fn sim() -> Simulation {
    Simulation::new(&Scenario::small_test(), RewardConfig::default())
}

fn request(id: u64, chain: usize, source: usize, slot: u64, duration: u32) -> Request {
    Request::new(
        RequestId(id),
        ChainId(chain),
        NodeId(source),
        slot,
        duration,
    )
}

#[test]
fn first_fit_places_simple_request() {
    let mut s = sim();
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(0);
    let req = request(0, 1, 0, 0, 5); // voip: 2 VNFs
    let outcome = s.place_request(&req, &mut policy, &mut rng);
    match outcome {
        PlacementOutcome::Accepted { latency_ms, .. } => {
            assert!(latency_ms.is_finite() && latency_ms > 0.0);
        }
        PlacementOutcome::Rejected => panic!("first-fit should accept on an empty network"),
    }
    assert_eq!(s.active_flow_count(), 1);
    assert_eq!(s.pool.len(), 2);
}

#[test]
fn departure_releases_flows_and_idle_retirement_frees_capacity() {
    let mut s = sim();
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(1);
    let req = request(0, 1, 0, 0, 2);
    s.advance_slot(std::slice::from_ref(&req), &mut policy, &mut rng);
    assert_eq!(s.active_flow_count(), 1);
    let used_before = s.ledger().total_used_cpu();
    assert!(used_before > 0.0);
    // Advance past departure + idle grace.
    for _ in 0..10 {
        s.advance_slot(&[], &mut policy, &mut rng);
    }
    assert_eq!(s.active_flow_count(), 0);
    assert_eq!(s.pool.len(), 0, "idle instances retired");
    assert_eq!(s.ledger().total_used_cpu(), 0.0, "capacity returned");
}

fn drain(slots: u64) -> Trace {
    Trace {
        requests: Vec::new(),
        horizon_slots: slots,
    }
}

#[test]
fn flows_placed_before_a_drive_are_handed_over_to_it() {
    // (a) A directly placed flow departs when its `duration_ms` says,
    // half-way through the first slot `drive` runs, not at a slot
    // boundary: there is one clock and the departure is already on it.
    let mut s = sim();
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(1);
    let req = request(0, 1, 0, 0, 2).with_duration_ms(s.slot_ms() / 2);
    s.place_request(&req, &mut policy, &mut rng);
    assert_eq!(s.active_flow_count(), 1);
    let _ = s.drive(RunInput::Trace(&drain(1)), &mut policy, RunOptions::new());
    assert_eq!(s.active_flow_count(), 0, "gone half-way through slot 0");
    let _ = s.drive(RunInput::Trace(&drain(10)), &mut policy, RunOptions::new());
    assert_eq!(s.pool.len(), 0, "idle instances retired");

    // (b) Instances the slot loop leaves idle retire once `drive` takes
    // over: their release queued a retire check the engine then runs.
    let mut s = sim();
    s.advance_slot(&[request(0, 1, 0, 0, 2)], &mut policy, &mut rng);
    s.advance_slot(&[], &mut policy, &mut rng);
    s.advance_slot(&[], &mut policy, &mut rng);
    assert_eq!(s.active_flow_count(), 0);
    assert_eq!(s.pool.len(), 2, "idle, inside the retirement grace period");
    let _ = s.drive(RunInput::Trace(&drain(20)), &mut policy, RunOptions::new());
    assert_eq!(s.pool.len(), 0, "idle instances retired");
    assert_eq!(s.ledger().total_used_cpu(), 0.0, "capacity returned");
}

#[test]
fn slot_loop_and_event_engine_hand_over_in_any_order() {
    // On slot-aligned input the engine is the slot loop bit for bit, so a
    // run that alternates between them must match the slot loop alone:
    // same records, whichever loop has each third of the trace (random
    // decisions and node failures included).
    let scenario = Scenario::small_test()
        .with_arrival_rate(3.0)
        .with_failures(0.05, 4.0);
    let trace = Simulation::new(&scenario, RewardConfig::default()).generate_run_trace(0);
    let h = trace.horizon_slots;
    let cuts = [0, h / 3, 2 * h / 3, h];
    let part = |i: usize| Trace {
        requests: trace
            .requests
            .iter()
            .filter(|r| (cuts[i]..cuts[i + 1]).contains(&r.arrival_slot))
            .map(|r| Request {
                arrival_slot: r.arrival_slot - cuts[i],
                ..r.clone()
            })
            .collect(),
        horizon_slots: cuts[i + 1] - cuts[i],
    };
    let run = |engine_parts: [bool; 3]| {
        let mut s = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = RandomPolicy;
        for (i, event) in engine_parts.into_iter().enumerate() {
            if event {
                let _ = s.drive(RunInput::Trace(&part(i)), &mut policy, RunOptions::new());
            } else {
                let _ = s.drive_slotted(Some(&part(i)), &mut policy, 0, None);
            }
        }
        let summary = s.metrics().summarize();
        assert!(summary.total_rejected > 0 && summary.flows_disrupted > 0);
        s.metrics().slots().to_vec()
    };
    let reference = run([false; 3]);
    assert_eq!(reference.len() as u64, h);
    assert_eq!(run([true, false, true]), reference);
    assert_eq!(run([false, true, false]), reference);

    // What the slot loop changes without a departure beside it reaches
    // the engine's next billed slot, and what it billed is not billed
    // again.
    let mut s = sim();
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(1);
    let _ = s.drive(RunInput::Trace(&drain(1)), &mut policy, RunOptions::new());
    s.advance_slot(&[request(0, 1, 0, 1, 5)], &mut policy, &mut rng);
    let _ = s.drive(RunInput::Trace(&drain(1)), &mut policy, RunOptions::new());
    let billed = &s.metrics().slots()[2];
    assert_eq!((billed.active_flows, billed.live_instances), (1, 2));
    assert_eq!(billed.deployment_cost, 0.0, "billed in slot 1");

    // Nor is the traffic of a flow the slot loop billed whole and then
    // departed mid-slot (first-fit serves node 1 from node 0).
    let mut s = sim();
    let half_slot = request(0, 1, 1, 0, 1).with_duration_ms(s.slot_ms() / 2);
    s.advance_slot(&[half_slot], &mut policy, &mut rng);
    s.advance_slot(&[], &mut policy, &mut rng);
    let _ = s.drive(RunInput::Trace(&drain(1)), &mut policy, RunOptions::new());
    assert!(s.metrics().slots()[0].traffic_cost > 0.0);
    assert_eq!(s.metrics().slots()[2].traffic_cost, 0.0);
}

#[test]
fn rejection_rolls_back_everything() {
    let mut s = sim();
    // A policy that places the first VNF then rejects.
    struct PlaceThenReject {
        decisions: usize,
    }
    impl PlacementPolicy for PlaceThenReject {
        fn name(&self) -> String {
            "place-then-reject".into()
        }
        fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
            self.decisions += 1;
            if self.decisions == 1 {
                let first = ctx.feasible_candidates().next().expect("feasible");
                PlacementAction::Place(first.node)
            } else {
                PlacementAction::Reject
            }
        }
    }
    let mut policy = PlaceThenReject { decisions: 0 };
    let mut rng = StdRng::seed_from_u64(2);
    let req = request(0, 1, 0, 0, 5);
    let outcome = s.place_request(&req, &mut policy, &mut rng);
    assert_eq!(outcome, PlacementOutcome::Rejected);
    assert_eq!(s.pool.len(), 0, "spawned instance rolled back");
    assert_eq!(s.ledger().total_used_cpu(), 0.0, "capacity rolled back");
    assert_eq!(s.active_flow_count(), 0);
}

#[test]
fn instances_are_reused_under_load() {
    let mut s = sim();
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(3);
    // Two identical requests from the same source: the second should
    // reuse both instances (ample headroom).
    let r1 = request(0, 1, 0, 0, 10);
    let r2 = request(1, 1, 0, 0, 10);
    s.place_request(&r1, &mut policy, &mut rng);
    let instances_after_first = s.pool.len();
    s.place_request(&r2, &mut policy, &mut rng);
    assert_eq!(
        s.pool.len(),
        instances_after_first,
        "no new instances needed"
    );
    // Both flows share instances.
    let max_flows = s.pool.iter().map(|i| i.flows).max().unwrap();
    assert_eq!(max_flows, 2);
}

#[test]
fn full_run_produces_consistent_summary() {
    let mut s = sim();
    let mut policy = RandomPolicy;
    let summary = s.drive(RunInput::Generated, &mut policy, RunOptions::new());
    assert_eq!(summary.slots, s.scenario().horizon_slots);
    assert_eq!(
        summary.total_arrivals,
        summary.total_accepted + summary.total_rejected
    );
    assert!(summary.acceptance_ratio >= 0.0 && summary.acceptance_ratio <= 1.0);
    assert!(summary.total_cost_usd >= 0.0);
}

#[test]
fn determinism_same_seed_same_summary() {
    let scenario = Scenario::small_test();
    let run = |seed_offset: u64| {
        let mut s = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = RandomPolicy;
        let summary = s.drive(
            RunInput::Generated,
            &mut policy,
            RunOptions::new().with_seed_offset(seed_offset),
        );
        summary
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

fn scenario_with_timeline(events: Vec<crate::config::TimedEvent>) -> Scenario {
    let mut s = Scenario::small_test();
    s.events = crate::config::EventSchedule::Timeline(events);
    s
}

fn down_at(slot: u64, node: usize) -> crate::config::TimedEvent {
    crate::config::TimedEvent {
        slot,
        event: NetworkEvent::NodeDown { node: NodeId(node) },
    }
}

#[test]
fn node_failure_evicts_instances_and_replaces_flows() {
    // First-fit lands every instance on node 0 (lowest id) even for a
    // request arriving at node 1; killing node 0 must evict them,
    // disrupt the flow, and re-place it on a surviving node through
    // the same policy path (the ingress at node 1 stays alive).
    let scenario = scenario_with_timeline(vec![down_at(1, 0)]);
    let mut s = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(5);
    let req = request(0, 1, 1, 0, 30);
    let r0 = s.advance_slot(std::slice::from_ref(&req), &mut policy, &mut rng);
    assert_eq!(r0.accepted, 1);
    assert_eq!(r0.nodes_down, 0);
    assert!(s.pool.iter().all(|i| i.node == NodeId(0)));

    let r1 = s.advance_slot(&[], &mut policy, &mut rng);
    assert_eq!(r1.flows_disrupted, 1);
    assert_eq!(r1.flows_replaced, 1, "3 healthy sites + cloud remain");
    assert_eq!(r1.nodes_down, 1);
    assert_eq!(s.active_flow_count(), 1);
    assert!(
        s.pool.iter().all(|i| i.node != NodeId(0)),
        "no instance may survive on the dead node"
    );
    assert!(!s.network.node_alive(NodeId(0)));
    // The re-placed flow still departs on schedule and the world
    // drains clean afterwards.
    for _ in 0..40 {
        s.advance_slot(&[], &mut policy, &mut rng);
    }
    assert_eq!(s.active_flow_count(), 0);
    assert_eq!(s.pool.len(), 0);
    assert!(s.ledger().total_used_cpu().abs() < 1e-9);
}

#[test]
fn dead_source_forces_rejection_until_recovery() {
    // With the request's source down, every candidate is infeasible:
    // arrivals there must be rejected; after recovery they place again.
    let scenario = scenario_with_timeline(vec![
        down_at(0, 0),
        crate::config::TimedEvent {
            slot: 2,
            event: NetworkEvent::NodeUp { node: NodeId(0) },
        },
    ]);
    let mut s = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(6);
    let r0 = s.advance_slot(&[request(0, 1, 0, 0, 5)], &mut policy, &mut rng);
    assert_eq!(r0.rejected, 1, "dead ingress cannot be served");
    let r1 = s.advance_slot(&[request(1, 1, 0, 1, 5)], &mut policy, &mut rng);
    assert_eq!(r1.rejected, 1, "still down");
    let r2 = s.advance_slot(&[request(2, 1, 0, 2, 5)], &mut policy, &mut rng);
    assert_eq!(r2.accepted, 1, "recovered ingress serves again");
    assert_eq!(r2.nodes_down, 0);
}

#[test]
fn replacement_failure_counts_disruption_without_replacement() {
    // Kill every node except the flow's dead host... impossible to
    // re-place: capacity shrinks to nothing. Use a cloudless 3-site
    // ring-free metro and take down two of three sites; the remaining
    // site cannot be reached from the dead source anyway.
    let mut scenario = scenario_with_timeline(vec![down_at(1, 0), down_at(1, 1), down_at(1, 2)]);
    scenario.topology = crate::config::TopologySpec::Metro { sites: 3 };
    scenario.topology_builder.with_cloud = false;
    let mut s = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(7);
    let r0 = s.advance_slot(&[request(0, 1, 0, 0, 20)], &mut policy, &mut rng);
    assert_eq!(r0.accepted, 1);
    let r1 = s.advance_slot(&[], &mut policy, &mut rng);
    assert_eq!(r1.flows_disrupted, 1);
    assert_eq!(r1.flows_replaced, 0, "nowhere left to go");
    assert_eq!(r1.nodes_down, 3);
    assert_eq!(s.active_flow_count(), 0);
    let summary = s.metrics().summarize();
    assert_eq!(summary.flows_disrupted, 1);
    assert_eq!(summary.replacement_success_rate, 0.0);
}

#[test]
fn partition_strands_flows_even_when_their_instances_survive() {
    // Ring of 6, no cloud: first-fit serves a request from node 2 on
    // node 0. Killing nodes 1 and 3 isolates node 2 — the instances
    // on node 0 survive but the flow's path is severed, so it must be
    // disrupted and re-placed (locally, on node 2 itself).
    let mut scenario = scenario_with_timeline(vec![down_at(1, 1), down_at(1, 3)]);
    scenario.topology = crate::config::TopologySpec::Ring { sites: 6 };
    scenario.topology_builder.with_cloud = false;
    let mut s = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let mut rng = StdRng::seed_from_u64(9);
    let r0 = s.advance_slot(&[request(0, 1, 2, 0, 20)], &mut policy, &mut rng);
    assert_eq!(r0.accepted, 1);
    assert!(s.pool.iter().all(|i| i.node == NodeId(0)));

    let r1 = s.advance_slot(&[], &mut policy, &mut rng);
    assert_eq!(r1.flows_disrupted, 1, "severed route strands the flow");
    assert_eq!(r1.flows_replaced, 1, "re-placed on the isolated ingress");
    assert_eq!(s.active_flow_count(), 1);
    let hosts: Vec<NodeId> = s
        .active
        .values()
        .flat_map(|f| f.instances.iter().map(|&i| s.pool.get(i).unwrap().node))
        .collect();
    assert!(
        hosts.iter().all(|&n| n == NodeId(2)),
        "only node 2 is reachable from the isolated ingress, got {hosts:?}"
    );
}

#[test]
fn failed_nodes_draw_no_energy() {
    // Same scenario twice; in one, a node dies with no load anywhere.
    let healthy = {
        let mut s = sim();
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(10);
        s.advance_slot(&[], &mut policy, &mut rng);
        s.advance_slot(&[], &mut policy, &mut rng).energy_cost
    };
    let degraded = {
        let scenario = scenario_with_timeline(vec![down_at(1, 0)]);
        let mut s = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(10);
        s.advance_slot(&[], &mut policy, &mut rng);
        s.advance_slot(&[], &mut policy, &mut rng).energy_cost
    };
    assert!(
        degraded < healthy,
        "a powered-off node must stop billing idle energy ({degraded} vs {healthy})"
    );
}

#[test]
fn event_runs_are_deterministic_and_count_downtime() {
    let scenario = Scenario::small_test().with_failures(0.02, 8.0);
    let run = || {
        let mut s = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = FirstFitPolicy;
        let summary = s.drive(
            RunInput::Generated,
            &mut policy,
            RunOptions::new().with_seed_offset(11),
        );
        summary
    };
    let a = run();
    assert_eq!(a, run(), "event runs must be bit-identical");
    assert!(a.downtime_slots > 0, "2% over 60 slots should fail a node");
}

#[test]
fn mask_forbids_saturated_nodes() {
    let mut scenario = Scenario::small_test();
    // Tiny nodes: a single firewall instance (2 cpu) fills a node.
    scenario.topology_builder.edge_capacity = edgenet::node::Resources::new(2.0, 4.0);
    scenario.topology_builder.with_cloud = false;
    let s = Simulation::new(&scenario, RewardConfig::default());
    let chain = s.chains.get(ChainId(3)).clone(); // 5-VNF chain, includes 4-cpu VNFs
    let ctx = s.decision_context(&request(0, 3, 0, 0, 1), &chain, 4, NodeId(0), 0.0);
    // Position 4 is the IDS (4 cpu) — doesn't fit on any 2-cpu node.
    assert!(!ctx.any_feasible());
    assert!(*ctx.mask.last().unwrap(), "reject stays available");
}

#[test]
#[should_panic(expected = "dead_nodes_host_nothing")]
fn a_dead_node_left_hosting_instances_breaks_the_invariants() {
    // First-fit hosts the chain on node 0; taking node 0 down behind the
    // engine's back leaves its instances in the pool.
    let mut s = sim();
    let mut rng = StdRng::seed_from_u64(12);
    s.place_request(&request(0, 1, 1, 0, 10), &mut FirstFitPolicy, &mut rng);
    assert!(s.check_invariants().is_ok());
    s.network.apply(&NetworkEvent::NodeDown { node: NodeId(0) });
    s.assert_invariants();
}

#[test]
#[should_panic(expected = "flows_routable_on_live_nodes")]
fn a_flow_on_a_retired_instance_breaks_the_invariants() {
    let mut s = sim();
    let mut rng = StdRng::seed_from_u64(13);
    s.place_request(&request(0, 1, 1, 0, 10), &mut FirstFitPolicy, &mut rng);
    let vnf = s.chains.get(ChainId(1)).vnfs[0];
    let retired = s.pool.spawn(vnf, NodeId(2), 0);
    assert!(s.pool.retire(retired).is_ok());
    for flow in s.active.values_mut() {
        flow.instances[0] = retired;
    }
    s.assert_invariants();
}

#[test]
#[should_panic(expected = "instance_loads_match_flows")]
fn a_flow_added_behind_the_engines_back_breaks_the_invariants() {
    let mut s = sim();
    let mut rng = StdRng::seed_from_u64(14);
    s.place_request(&request(0, 1, 1, 0, 10), &mut FirstFitPolicy, &mut rng);
    assert!(s.check_invariants().is_ok());
    assert!(s.pool.add_flow(InstanceId(0), 1.0).is_ok());
    s.assert_invariants();
}

/// Debug builds check the invariants at the close of every slot the
/// slot loop runs: a load added behind the engine's back is caught when
/// the next slot closes.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "instance_loads_match_flows: instance inst0 carries 2 flows")]
fn debug_builds_check_the_invariants_when_advance_slot_closes_a_slot() {
    let mut s = sim();
    let mut rng = StdRng::seed_from_u64(15);
    s.advance_slot(&[request(0, 1, 1, 0, 5)], &mut FirstFitPolicy, &mut rng);
    assert!(s.pool.add_flow(InstanceId(0), 1.0).is_ok());
    s.advance_slot(&[], &mut FirstFitPolicy, &mut rng);
}

/// ... and before every slot `drive` bills.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "(at the close of slot 0)")]
fn debug_builds_check_the_invariants_when_drive_bills_a_slot() {
    let mut s = sim();
    let mut rng = StdRng::seed_from_u64(16);
    s.place_request(&request(0, 1, 1, 0, 5), &mut FirstFitPolicy, &mut rng);
    assert!(s.pool.add_flow(InstanceId(0), 1.0).is_ok());
    let _ = s.drive(
        RunInput::Trace(&drain(1)),
        &mut FirstFitPolicy,
        RunOptions::new(),
    );
}
