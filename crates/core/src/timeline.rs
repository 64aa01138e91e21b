//! The discrete-event timeline: a millisecond-resolution clock
//! ([`SimTime`]), the engine's event vocabulary ([`SimEvent`]), and a
//! deterministic priority queue ([`EventQueue`]).
//!
//! # Ordering guarantees
//!
//! Events pop in ascending `(time, kind_rank, sequence_id)` order:
//!
//! 1. **`time`** — the millisecond timestamp the event was scheduled for.
//! 2. **`kind_rank`** — a total order over event kinds at the *same*
//!    timestamp, chosen to mirror the slot engine's phase order so a
//!    slot-boundary schedule reproduces the slot loop exactly:
//!    [`SimEvent::FlowDeparture`] (0) < [`SimEvent::Network`] (1) <
//!    [`SimEvent::RetireCheck`] (2).
//! 3. **`sequence_id`** — a monotone insertion counter breaking every
//!    remaining tie, so events of one kind at one timestamp pop in the
//!    order they were scheduled (a timeline's network events keep their
//!    declared order).
//!
//! The queue holds only what the engine cannot know in advance.
//! Arrivals are *merged input*, not events: the engine already holds them
//! in time order and takes the next one when no queued event is due at
//! or before it, so at one timestamp they follow every queued kind (the
//! slot loop's last phase). A placement decision is a *call* made while
//! its arrival is handled. Billing is deliberately not an event either:
//! the engine bills every completed slot lazily before touching anything
//! at a later timestamp, which is what makes a long idle stretch cost
//! O(slots billed) instead of O(heap traffic) — see `docs/timeline.md`
//! for the engine-side contract and how to add new event kinds.

use edgenet::view::NetworkEvent;
use sfc::request::RequestId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A point on the simulation clock, in integer milliseconds.
///
/// Slots are spans of `slot_ms` milliseconds: slot `s` covers
/// `[s·slot_ms, (s+1)·slot_ms)`. Slot-resolution input only ever produces
/// boundary times; ms-resolution input may schedule anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the clock.
    pub const ZERO: SimTime = SimTime(0);

    /// A time from an absolute millisecond count.
    pub fn from_ms(ms: u64) -> Self {
        SimTime(ms)
    }

    /// The boundary that starts slot `slot` when slots last `slot_ms` ms.
    pub fn from_slot(slot: u64, slot_ms: u64) -> Self {
        SimTime(slot.saturating_mul(slot_ms))
    }

    /// Absolute milliseconds since the origin.
    pub fn ms(self) -> u64 {
        self.0
    }

    /// Index of the slot containing this instant (boundaries belong to
    /// the slot they start).
    pub fn slot(self, slot_ms: u64) -> u64 {
        debug_assert!(slot_ms > 0, "slots must have positive length");
        self.0 / slot_ms.max(1)
    }

    /// This time advanced by `delay_ms`.
    pub fn plus_ms(self, delay_ms: u64) -> Self {
        SimTime(self.0.saturating_add(delay_ms))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// The kind of a [`SimEvent`], in rank order (the same-timestamp
/// tiebreak). The discriminant IS the documented `kind_rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimEventKind {
    /// A flow reaches the end of its holding time.
    FlowDeparture = 0,
    /// A network change (failure, recovery, latency/capacity shift).
    Network = 1,
    /// Re-examine idle instances against the retirement grace period.
    RetireCheck = 2,
}

impl SimEventKind {
    /// The documented same-timestamp rank (lower pops first).
    pub fn rank(self) -> u8 {
        self as u8
    }
}

/// One schedulable occurrence on the timeline.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A flow reaches the end of its holding time and releases its
    /// instances. Stale duplicates (e.g. from a re-placed flow) are
    /// ignored by the engine via the flow's recorded departure time.
    FlowDeparture {
        /// The departing flow's request id.
        request: RequestId,
    },
    /// A network change to apply. Same-timestamp network events are
    /// drained as one batch, exactly like the slot engine's per-slot
    /// event list.
    Network(NetworkEvent),
    /// Re-examine idle instances against the retirement grace period.
    /// Checks are cheap idempotent sweeps; duplicates are harmless.
    RetireCheck,
}

impl SimEvent {
    /// This event's kind (and therefore its same-timestamp rank).
    pub fn kind(&self) -> SimEventKind {
        match self {
            SimEvent::FlowDeparture { .. } => SimEventKind::FlowDeparture,
            SimEvent::Network(_) => SimEventKind::Network,
            SimEvent::RetireCheck => SimEventKind::RetireCheck,
        }
    }
}

/// A queue entry; ordering compares only the `(time, rank, seq)` key —
/// `seq` is unique per queue, so the order is total and deterministic.
#[derive(Debug)]
struct Scheduled {
    time: SimTime,
    rank: u8,
    seq: u64,
    event: SimEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq && self.time == other.time && self.rank == other.rank
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.rank, self.seq).cmp(&(other.time, other.rank, other.seq))
    }
}

/// A binary-heap event queue with the deterministic
/// `(time, kind_rank, sequence_id)` pop order and a clock that advances
/// to each popped event's timestamp.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The queue's current time: the timestamp of the last popped event
    /// (time never moves backwards).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events popped over the queue's lifetime (the engine's
    /// events-processed meter).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the queue's past — scheduling behind the
    /// clock would silently reorder history and break determinism.
    pub fn schedule_at(&mut self, at: SimTime, event: SimEvent) {
        assert!(
            at >= self.now,
            "cannot schedule {:?} at {at} — the clock is already at {}",
            event.kind(),
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled {
            time: at,
            rank: event.kind().rank(),
            seq,
            event,
        }));
    }

    /// Schedules `event` `delay_ms` milliseconds after the queue's
    /// current time — the canonical way to express relative deadlines
    /// (departures, grace periods) without tracking the clock yourself.
    ///
    /// # Examples
    ///
    /// ```
    /// use mano::timeline::{EventQueue, SimEvent, SimTime};
    /// use sfc::request::RequestId;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_at(SimTime::from_ms(5_000), SimEvent::RetireCheck);
    /// // Relative: 2 s after the queue's current time (still 0 ms).
    /// q.schedule_in(2_000, SimEvent::FlowDeparture { request: RequestId(7) });
    ///
    /// // The departure pops first (earlier absolute time) and the clock
    /// // follows it.
    /// let (t, ev) = q.pop().expect("two events queued");
    /// assert_eq!(t, SimTime::from_ms(2_000));
    /// assert!(matches!(ev, SimEvent::FlowDeparture { .. }));
    /// assert_eq!(q.now(), SimTime::from_ms(2_000));
    ///
    /// // Relative scheduling now measures from the advanced clock.
    /// q.schedule_in(500, SimEvent::RetireCheck);
    /// assert_eq!(q.pop().expect("retire check").0, SimTime::from_ms(2_500));
    /// ```
    pub fn schedule_in(&mut self, delay_ms: u64, event: SimEvent) {
        self.schedule_at(self.now.plus_ms(delay_ms), event);
    }

    /// The `(time, kind)` key of the next event, without popping it.
    pub fn peek(&self) -> Option<(SimTime, SimEventKind)> {
        self.heap.peek().map(|Reverse(s)| (s.time, s.event.kind()))
    }

    /// Advances the clock to `to` without popping: how the engine keeps
    /// time when it handles something that was never queued (an arrival
    /// group merged from its input).
    ///
    /// # Panics
    ///
    /// Panics if `to` is behind the clock or would pass a queued event.
    pub fn advance_to(&mut self, to: SimTime) {
        let (now, next) = (self.now, self.peek().map_or(to, |(next, _)| next));
        assert!(
            now <= to && to <= next,
            "cannot move the clock from {now} to {to}: the next event is at {next}"
        );
        self.now = to;
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.time;
        self.popped += 1;
        Some((s.time, s.event))
    }

    /// Pops the next event only if it matches `(time, kind)` exactly —
    /// the group-draining primitive (all same-timestamp network events).
    pub fn pop_if(&mut self, time: SimTime, kind: SimEventKind) -> Option<SimEvent> {
        match self.peek() {
            Some((t, k)) if t == time && k == kind => self.pop().map(|(_, ev)| ev),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenet::node::NodeId;

    fn departure(id: u64) -> SimEvent {
        SimEvent::FlowDeparture {
            request: RequestId(id),
        }
    }

    #[test]
    fn pops_in_time_then_rank_then_seq_order() {
        let mut q = EventQueue::new();
        // Same timestamp, inserted in deliberately shuffled kind order.
        q.schedule_at(SimTime::from_ms(10), SimEvent::RetireCheck);
        let node_up = NetworkEvent::NodeUp { node: NodeId(0) };
        q.schedule_at(SimTime::from_ms(10), SimEvent::Network(node_up));
        q.schedule_at(SimTime::from_ms(10), departure(1));
        // Earlier timestamp beats every rank.
        q.schedule_at(SimTime::from_ms(5), SimEvent::RetireCheck);
        let kinds: Vec<(u64, SimEventKind)> = std::iter::from_fn(|| q.pop())
            .map(|(t, ev)| (t.ms(), ev.kind()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (5, SimEventKind::RetireCheck),
                (10, SimEventKind::FlowDeparture),
                (10, SimEventKind::Network),
                (10, SimEventKind::RetireCheck),
            ]
        );
    }

    #[test]
    fn same_key_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for id in 0..5 {
            q.schedule_at(SimTime::from_ms(3), departure(id));
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                SimEvent::FlowDeparture { request } => request.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_if_drains_only_the_matching_group() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(7), departure(0));
        q.schedule_at(SimTime::from_ms(7), departure(1));
        q.schedule_at(SimTime::from_ms(7), SimEvent::RetireCheck);
        let mut drained = 0;
        while q
            .pop_if(SimTime::from_ms(7), SimEventKind::FlowDeparture)
            .is_some()
        {
            drained += 1;
        }
        assert_eq!(drained, 2);
        assert_eq!(q.len(), 1, "the retire check stays queued");
    }

    #[test]
    fn clock_follows_pops_and_counts_events() {
        let mut q = EventQueue::new();
        q.schedule_in(100, SimEvent::RetireCheck);
        assert_eq!(q.now(), SimTime::ZERO);
        q.advance_to(SimTime::from_ms(40));
        assert_eq!(q.now(), SimTime::from_ms(40));
        assert_eq!(q.popped(), 0, "advancing the clock handles no event");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ms(100));
        assert_eq!(q.now(), t);
        assert_eq!(q.popped(), 1);
    }

    #[test]
    #[should_panic(expected = "the next event is at 50ms")]
    fn advancing_past_a_queued_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(50), SimEvent::RetireCheck);
        q.advance_to(SimTime::from_ms(51));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(50), SimEvent::RetireCheck);
        q.pop();
        q.schedule_at(SimTime::from_ms(10), SimEvent::RetireCheck);
    }

    #[test]
    fn slot_helpers_round_trip() {
        let t = SimTime::from_slot(7, 5_000);
        assert_eq!(t.ms(), 35_000);
        assert_eq!(t.slot(5_000), 7);
        assert_eq!(SimTime::from_ms(35_001).slot(5_000), 7);
        assert_eq!(SimTime::from_ms(39_999).slot(5_000), 7);
        assert_eq!(SimTime::from_ms(40_000).slot(5_000), 8);
    }
}
