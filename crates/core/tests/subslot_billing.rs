//! Regression suite for the slot-quantization bug the event engine
//! exposed: the paper's slotted accounting rounds every holding time up
//! to whole slots, so a flow that really lives for *half* a slot still
//! bills one full slot of traffic. The sparse event engine
//! ([`BillingMode::Sparse`] + [`Request::duration_ms`]) makes sub-slot
//! lifetimes explicit and bills them pro rata; slot-compatibility mode
//! deliberately keeps the old rounding so the figure suite stays
//! bit-identical with the paper's loop.

use mano::prelude::*;
use sfc::chain::ChainId;
use sfc::request::{Request, RequestId};
use workload::trace::Trace;

fn scenario() -> Scenario {
    let mut s = Scenario::small_test();
    s.horizon_slots = 8;
    s
}

/// Four boundary-aligned arrivals, one per edge site, so at least some
/// flows route across nodes and the traffic term cannot be vacuously 0.
fn boundary_requests() -> Vec<Request> {
    (0..4u64)
        .map(|i| {
            Request::new(
                RequestId(i),
                ChainId((i % 4) as usize),
                edgenet::node::NodeId(i as usize),
                0,
                1, // rounded-up lifetime: the slot consumers' view
            )
        })
        .collect()
}

fn zeroed(mut summary: RunSummary) -> RunSummary {
    summary.mean_decision_time_us = 0.0;
    summary
}

#[test]
fn slot_compat_keeps_the_full_slot_rounding() {
    // The pinned legacy behavior: without an explicit `duration_ms`, a
    // one-slot flow bills one whole slot of traffic on BOTH engines —
    // bit-identically. This is the rounding the equivalence suite relies
    // on; the corrected accounting below is opt-in via `BillingMode::Sparse`.
    let scenario = scenario();
    let trace = Trace {
        requests: boundary_requests(),
        horizon_slots: scenario.horizon_slots,
    };

    let mut slot_sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let slot_summary = zeroed(slot_sim.drive_slotted(Some(&trace), &mut policy, 0, None));

    let mut event_sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let event_summary =
        zeroed(event_sim.drive(RunInput::Trace(&trace), &mut policy, RunOptions::new()));

    assert_eq!(slot_summary, event_summary);
    assert_eq!(slot_sim.metrics().slots(), event_sim.metrics().slots());

    let first = &event_sim.metrics().slots()[0];
    assert_eq!(first.accepted, 4, "empty network accepts all four");
    assert!(
        first.traffic_cost > 0.0,
        "at least one flow must route across nodes"
    );
    assert_eq!(
        first.active_flows, 4,
        "slot accounting keeps sub-slot flows alive to the slot's end"
    );
}

#[test]
fn sparse_mode_bills_sub_slot_flows_pro_rata() {
    // The same four flows, now declaring that they really only live for
    // half a slot. The sparse engine departs them mid-slot and bills the
    // occupied fraction: exactly half the compat run's slot-0 traffic.
    let scenario = scenario();
    let slot_ms = Simulation::new(&scenario, RewardConfig::default()).slot_ms();

    let mut compat_sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let trace = Trace {
        requests: boundary_requests(),
        horizon_slots: scenario.horizon_slots,
    };
    let _ = compat_sim.drive(RunInput::Trace(&trace), &mut policy, RunOptions::new());
    let compat_first = compat_sim.metrics().slots()[0].clone();

    let arrivals: Vec<TimedArrival> = boundary_requests()
        .into_iter()
        .map(|r| TimedArrival {
            at: SimTime::ZERO,
            request: r.with_duration_ms(slot_ms / 2),
        })
        .collect();
    let mut sparse_sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let _ = sparse_sim.drive(
        RunInput::Events(&arrivals),
        &mut policy,
        RunOptions::new().sparse(),
    );
    let sparse_first = sparse_sim.metrics().slots()[0].clone();

    assert_eq!(sparse_first.accepted, 4);
    assert!(compat_first.traffic_cost > 0.0);
    assert!(
        (sparse_first.traffic_cost - 0.5 * compat_first.traffic_cost).abs() < 1e-12,
        "half-slot lifetimes must bill exactly half the slot's traffic \
         (sparse {} vs compat {})",
        sparse_first.traffic_cost,
        compat_first.traffic_cost
    );
    assert_eq!(
        sparse_first.active_flows, 0,
        "sub-slot flows are gone before the slot-end snapshot"
    );
    // Total across the run, not just slot 0: the correction must lower
    // the bill, never shift it into later slots.
    let total =
        |sim: &Simulation| -> f64 { sim.metrics().slots().iter().map(|r| r.traffic_cost).sum() };
    assert!(total(&sparse_sim) < total(&compat_sim));
}

#[test]
fn mid_slot_arrival_prorates_its_first_slot() {
    // A flow arriving 2/5 of the way into slot 0 and living exactly to
    // the slot-2 boundary owes 3/5 of a slot of traffic in slot 0 and a
    // full slot in slot 1.
    let scenario = scenario();
    let slot_ms = Simulation::new(&scenario, RewardConfig::default()).slot_ms();

    let request = Request::new(
        RequestId(0),
        ChainId(1),
        edgenet::node::NodeId(1),
        0,
        2, // rounded-up lifetime for slot consumers
    )
    .with_duration_ms(slot_ms * 8 / 5);
    let arrivals = [TimedArrival {
        at: SimTime::from_ms(slot_ms * 2 / 5),
        request,
    }];

    let mut sim = Simulation::new(&scenario, RewardConfig::default());
    let mut policy = FirstFitPolicy;
    let _ = sim.drive(
        RunInput::Events(&arrivals),
        &mut policy,
        RunOptions::new().sparse(),
    );
    let records = sim.metrics().slots();

    assert_eq!(records[0].accepted, 1);
    assert!(
        records[1].traffic_cost > 0.0,
        "the flow must route across nodes for this check to bite"
    );
    assert!(
        (records[0].traffic_cost - 0.6 * records[1].traffic_cost).abs() < 1e-12,
        "slot 0 must bill the occupied fraction (got {} vs full-slot {})",
        records[0].traffic_cost,
        records[1].traffic_cost
    );
    // The boundary-aligned departure itself accrues nothing extra.
    assert_eq!(records[2].traffic_cost, 0.0);
    assert_eq!(records[2].active_flows, 0);
}
