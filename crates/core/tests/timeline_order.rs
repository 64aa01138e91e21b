//! Property tests for the event timeline's determinism guarantees:
//! arbitrary interleavings of `schedule_at`/`schedule_in` with colliding
//! timestamps pop in the documented `(time, kind_rank, sequence_id)`
//! order, a run's summary depends only on its input's content, not on
//! the order the arrivals were handed over in, and an idle tail costs
//! events in proportion to arrivals, not slots.

use edgenet::node::NodeId;
use edgenet::view::NetworkEvent;
use mano::prelude::*;
use proptest::prelude::*;
use sfc::chain::ChainId;
use sfc::request::{Request, RequestId};
use workload::trace::Trace;

/// A schedulable op the property generates: `(use_schedule_in, time, kind)`
/// — `use_schedule_in` as 0/1. Both payload-carrying kinds are
/// exercised; the payload encodes the insertion index so ties can be
/// checked for sequence order. Times come from a tiny range so collisions
/// are the common case.
fn op_strategy() -> impl Strategy<Value = (u8, u64, u8)> {
    (0u8..2, 0u64..6, 0u8..2)
}

fn tagged_event(kind: u8, tag: usize) -> (SimEventKind, SimEvent) {
    match kind {
        0 => (
            SimEventKind::FlowDeparture,
            SimEvent::FlowDeparture {
                request: RequestId(tag as u64),
            },
        ),
        _ => (
            SimEventKind::Network,
            SimEvent::Network(NetworkEvent::NodeDown { node: NodeId(tag) }),
        ),
    }
}

fn tag_of(event: &SimEvent) -> usize {
    match event {
        SimEvent::FlowDeparture { request } => request.0 as usize,
        SimEvent::Network(NetworkEvent::NodeDown { node }) => node.0,
        other => panic!("untagged event popped: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Schedule a batch, pop part of it, schedule more (clamped to the
    /// advanced clock), then drain — the pop sequence must match a model
    /// that repeatedly removes the minimum `(time, kind_rank, seq)`.
    #[test]
    fn pops_follow_time_rank_seq_order(
        first in proptest::collection::vec(op_strategy(), 1..20),
        second in proptest::collection::vec(op_strategy(), 0..20),
        pops_between in 0usize..10,
    ) {
        let mut queue = EventQueue::new();
        // Model: (time, rank, seq) per insertion, keyed by tag.
        let mut model: Vec<(u64, u8, usize)> = Vec::new();

        let mut insert = |queue: &mut EventQueue, use_in: u8, t: u64, kind: u8| {
            let tag = model.len();
            let (expected_kind, event) = tagged_event(kind, tag);
            // Both forms resolve to now + t; offsetting from the clock
            // keeps the past-scheduling panic (its own test below) out.
            let at = queue.now().plus_ms(t);
            if use_in == 1 {
                queue.schedule_in(t, event);
            } else {
                queue.schedule_at(at, event);
            }
            model.push((at.ms(), expected_kind.rank(), tag));
        };

        for &(use_in, t, kind) in &first {
            insert(&mut queue, use_in, t, kind);
        }

        let mut popped: Vec<usize> = Vec::new();
        for _ in 0..pops_between.min(queue.len()) {
            let (_, event) = queue.pop().expect("queue non-empty");
            popped.push(tag_of(&event));
        }
        for &(use_in, t, kind) in &second {
            insert(&mut queue, use_in, t, kind);
        }
        while let Some((_, event)) = queue.pop() {
            popped.push(tag_of(&event));
        }

        // Replay the model: the first batch alone for the interleaved
        // pops, then everything remaining.
        let mut expected: Vec<usize> = Vec::new();
        let mut pending: Vec<(u64, u8, usize)> = model[..first.len()].to_vec();
        for _ in 0..popped.len().min(pops_between.min(first.len())) {
            let min = pending.iter().copied().min().expect("pending non-empty");
            pending.retain(|&e| e != min);
            expected.push(min.2);
        }
        pending.extend_from_slice(&model[first.len()..]);
        while let Some(min) = pending.iter().copied().min() {
            pending.retain(|&e| e != min);
            expected.push(min.2);
        }

        prop_assert_eq!(popped, expected);
    }

    /// Arrivals with pairwise-distinct timestamps produce the same run no
    /// matter what order `RunInput::Events` hands them over in: the engine
    /// takes them in time order, which makes the order given irrelevant
    /// whenever timestamps don't collide. The same holds for a `Trace`
    /// whose requests are out of slot order, which also gives the run of
    /// the slot loop on that trace (it buckets requests by slot itself).
    #[test]
    fn run_summary_invariant_to_insertion_order(rotation in 0usize..17, seed in 0u64..100) {
        let mut scenario = Scenario::small_test();
        scenario.seed = seed;
        scenario.horizon_slots = 20;
        let slot_ms = 5000;

        let arrivals: Vec<TimedArrival> = (0..17u64)
            .map(|i| TimedArrival {
                // Distinct ms offsets scattered across slots 0..17.
                at: SimTime::from_ms(i * slot_ms + (i * 977) % slot_ms),
                request: Request::new(
                    RequestId(i),
                    ChainId((i % 4) as usize),
                    NodeId((i % 4) as usize),
                    i, // rewritten from `at` by the engine, to the same slot
                    1 + (i % 5) as u32,
                ),
            })
            .collect();
        let mut rotated = arrivals.clone();
        rotated.rotate_left(rotation);
        let trace = |arrivals: &[TimedArrival]| Trace {
            requests: arrivals.iter().map(|a| a.request.clone()).collect(),
            horizon_slots: 20,
        };
        let (trace_sorted, trace_rotated) = (trace(&arrivals), trace(&rotated));

        let run = |drive: &dyn Fn(&mut Simulation, &mut FirstFitPolicy) -> RunSummary| {
            let mut sim = Simulation::new(&scenario, RewardConfig::default());
            let summary = drive(&mut sim, &mut FirstFitPolicy);
            (summary, sim.metrics().slots().to_vec())
        };
        let events = |schedule: &[TimedArrival]| run(&|sim, policy| {
            sim.drive(RunInput::Events(schedule), policy, RunOptions::new().with_seed_offset(3))
        });
        let traced = |trace: &Trace| run(&|sim, policy| {
            sim.drive(RunInput::Trace(trace), policy, RunOptions::new().with_seed_offset(3))
        });
        let slot_loop = run(&|sim, policy| sim.drive_slotted(Some(&trace_rotated), policy, 3, None));

        prop_assert_eq!(events(&arrivals), events(&rotated));
        prop_assert_eq!(&traced(&trace_sorted), &traced(&trace_rotated));
        prop_assert_eq!(traced(&trace_sorted), slot_loop);
    }
}

#[test]
#[should_panic(expected = "cannot schedule")]
fn scheduling_behind_the_clock_panics() {
    let mut queue = EventQueue::new();
    queue.schedule_at(SimTime::from_ms(10), SimEvent::RetireCheck);
    let _ = queue.pop();
    queue.schedule_at(SimTime::from_ms(5), SimEvent::RetireCheck);
}

/// The sparse-timeline claim, on event counts: the same 80-request,
/// 20-slot prefix replayed with a 10x-longer all-idle tail drains the
/// flows still alive at slot 20 (departures plus their retire checks) but
/// schedules nothing per slot, so the extra pops stay below one per idle
/// slot while every slot is still billed.
#[test]
fn idle_tail_pops_events_per_arrival_not_per_slot() {
    let active_slots: u64 = 20;
    let idle_factor: u64 = 10;
    let requests: Vec<Request> = (0..active_slots * 4)
        .map(|i| {
            Request::new(
                RequestId(i),
                ChainId((i % 4) as usize),
                NodeId((i % 4) as usize),
                i / 4,
                1 + ((i * 7) % 4) as u32,
            )
        })
        .collect();
    let scenario = Scenario::small_test();

    let run = |horizon_slots: u64| {
        let trace = Trace {
            requests: requests.clone(),
            horizon_slots,
        };
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let _ = sim.drive(
            RunInput::Trace(&trace),
            &mut FirstFitPolicy,
            RunOptions::new(),
        );
        (sim.events_processed(), sim.metrics().slots().len() as u64)
    };

    let (busy_events, busy_slots) = run(active_slots);
    let (idle_events, idle_slots) = run(active_slots * idle_factor);
    assert_eq!(busy_slots, active_slots);
    assert_eq!(idle_slots, active_slots * idle_factor);
    let extra_events = idle_events - busy_events;
    assert!(
        extra_events < (idle_factor - 1) * active_slots,
        "idle tail popped {extra_events} extra events over {busy_events} — \
         that smells like per-slot work"
    );
}
