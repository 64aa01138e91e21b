//! The event engine: [`Simulation::drive`], its loop merging the run's
//! arrivals with the event queue, and one handler per event kind.
//!
//! # Why a group is decided without looking at the queue
//!
//! A queued event goes before the arrivals of its own instant, and
//! the loop consults the queue once per group, not once per member.
//! That visits every occurrence in `(time, rank)` order, exactly as if
//! each arrival and each decision were itself a queued event of a
//! later rank, because
//!
//! * the arrival feed is in time order, so when the group at instant
//!   `t` starts, every arrival at `t` is at its head and the group is
//!   complete; and
//! * nothing a decision at `t` schedules can land at `t`: a departure
//!   is a whole holding time later (`Request::new` asserts at least
//!   one slot, `Request::with_duration_ms` at least one millisecond;
//!   `admit_flow` re-checks in debug builds), and a retire check noted
//!   during a decision lands on the next slot boundary
//!   ([`Simulation::earliest_retire_slot`] answers `slot + 1` under
//!   [`ARRIVAL_RANK`]). So no queued event can become due between two
//!   decisions of a group.

use super::*;

/// The rank an arrival group is handled at: one past the last queued
/// kind, since a queued event goes first on a tie.
const ARRIVAL_RANK: u8 = SimEventKind::RetireCheck as u8 + 1;

/// `items` in ascending `key` order, ties in the order given: how a
/// [`RunInput::Trace`] or [`RunInput::Events`] that is not sorted becomes
/// a time-ordered feed. Input already in order (every generated trace)
/// costs the one `is_sorted` pass.
fn in_time_order<T, K: Ord>(items: &[T], key: impl Fn(&T) -> K) -> impl Iterator<Item = &T> {
    let order = (!items.is_sorted_by_key(&key)).then(|| {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&i| key(&items[i]));
        order
    });
    (0..items.len()).map(move |i| &items[order.as_ref().map_or(i, |order| order[i])])
}

impl Simulation {
    /// Generates the scenario's own trace for [`RunInput::Generated`],
    /// its request ids continuing where the previous generated trace
    /// stopped: an earlier run's flows may still be live under theirs.
    pub(super) fn generate_run_trace(&mut self, seed_offset: u64) -> Trace {
        let mut trace_rng = StdRng::seed_from_u64(
            self.scenario
                .seed
                .wrapping_add(seed_offset)
                .wrapping_mul(0x2545_F491),
        );
        let sites = self.network.topology().edge_nodes();
        let mut trace = generate_trace(
            &self.scenario.workload,
            &sites,
            self.scenario.horizon_slots,
            &mut trace_rng,
        );
        for request in &mut trace.requests {
            request.id.0 += self.generated_requests;
        }
        self.generated_requests += trace.requests.len() as u64;
        trace
    }

    /// The decision RNG every run derives from the scenario seed —
    /// identical across engines so their policy draws align.
    pub(super) fn decision_rng(&self, seed_offset: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.scenario
                .seed
                .wrapping_add(seed_offset)
                .wrapping_mul(0x9E37_79B9)
                ^ 0xDEAD_BEEF,
        )
    }

    /// The one run entry point: drives `input` through the event engine
    /// with the metrics retention, decision semantics and observer
    /// selected by `opts`, and returns the run's [`RunSummary`].
    /// [`MetricsMode::Streaming`] after full-retention runs switches the
    /// collector: their latencies fold into its histogram and their
    /// records are dropped.
    ///
    /// # Panics
    ///
    /// * A [`RunInput::Stream`] that yields an arrival earlier than the
    ///   one before it.
    /// * An arrival under the request id of a flow that is still active:
    ///   ids must be unique among live flows (a gone flow's id is free).
    pub fn drive(
        &mut self,
        input: RunInput<'_>,
        policy: &mut dyn PlacementPolicy,
        mut opts: RunOptions<'_>,
    ) -> RunSummary {
        if opts.metrics == MetricsMode::Streaming {
            self.metrics.enable_streaming();
        }
        self.semantics = opts.semantics;
        // The world may have changed since the last snapshot was taken
        // (`advance_slot`, `place_request`, the `pub` fields).
        self.cost_cache = None;
        // Swap the caller's sink in for the run (and back out below) so
        // the hot path tests one `Option` field instead of threading a
        // reference through every engine frame.
        let mut caller_sink = opts.telemetry.take();
        if let Some(sink) = caller_sink.as_deref_mut() {
            self.telemetry = Some(std::mem::take(sink));
        }

        let mut rng = self.decision_rng(opts.seed_offset);
        let own_horizon = opts.horizon_slots.unwrap_or(self.scenario.horizon_slots);
        match input {
            RunInput::Generated => {
                let trace = self.generate_run_trace(opts.seed_offset);
                self.run_trace(&trace, opts.horizon_slots, policy, &mut rng);
            }
            RunInput::Trace(trace) => self.run_trace(trace, opts.horizon_slots, policy, &mut rng),
            RunInput::Events(arrivals) => {
                let mut arrivals = in_time_order(arrivals, |a| a.at).cloned();
                self.run_event_loop(own_horizon, &mut arrivals, policy, &mut rng);
            }
            RunInput::Stream(stream) => self.run_event_loop(own_horizon, stream, policy, &mut rng),
        }
        if let (Some(sink), Some(attached)) = (caller_sink, self.telemetry.take()) {
            *sink = attached;
        }
        self.metrics.summarize()
    }

    /// Runs a slot-resolution trace through the event loop: each request
    /// arrives on its slot's boundary, counted from the run's first slot.
    fn run_trace(
        &mut self,
        trace: &Trace,
        horizon_slots: Option<u64>,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) {
        let (start, slot_ms) = (self.slot, self.slot_ms);
        let mut arrivals =
            in_time_order(&trace.requests, |r| r.arrival_slot).map(|r| TimedArrival {
                at: SimTime::from_slot(r.arrival_slot + start, slot_ms),
                request: r.clone(),
            });
        self.run_event_loop(
            horizon_slots.unwrap_or(trace.horizon_slots),
            &mut arrivals,
            policy,
            rng,
        );
    }

    /// Moves the scenario's network events due in `[start, end_slot)`
    /// from the slot timeline onto the queue (later windows stay put for
    /// chained runs).
    fn schedule_window_network_events(&mut self, start: u64, end_slot: u64) {
        let due: Vec<u64> = self
            .event_timeline
            .range(start..end_slot)
            .map(|(&s, _)| s)
            .collect();
        for s in due {
            let events = self.event_timeline.remove(&s).expect("listed key exists");
            for event in events {
                self.queue.schedule_at(
                    SimTime::from_slot(s, self.slot_ms),
                    SimEvent::Network(event),
                );
            }
        }
    }

    /// First slot whose retire phase is still ahead of the clock: the
    /// current slot while handling a pre-retire-rank event exactly on the
    /// boundary, the next slot otherwise (an arrival group included: it
    /// follows the retire check of its own instant).
    fn earliest_retire_slot(&self) -> u64 {
        let now = self.queue.now().ms();
        if now == self.slot.saturating_mul(self.slot_ms)
            && self.current_rank < SimEventKind::RetireCheck.rank()
        {
            self.slot
        } else {
            self.slot + 1
        }
    }

    /// Bookkeeping after a flow releases instance `id`: if the instance is
    /// now idle, schedule a retire check for the first slot whose retire
    /// phase both hasn't passed and clears the creation-age grace period —
    /// exactly when the slot loop's per-slot sweep would retire it.
    pub(super) fn note_possible_idle(&mut self, id: InstanceId) {
        let Some(inst) = self.pool.get(id) else {
            return;
        };
        if inst.flows > 0 {
            return;
        }
        let due = self.earliest_retire_slot().max(
            inst.created_slot
                .saturating_add(self.scenario.idle_retire_slots),
        );
        if self.retire_checks.insert(due) {
            self.queue
                .schedule_at(SimTime::from_slot(due, self.slot_ms), SimEvent::RetireCheck);
        }
    }

    /// Removes one departing flow, charging its share of the current
    /// (partial) slot's traffic. A departure event departs the flow it
    /// was scheduled for and no other: it is ignored when the flow is
    /// gone (departed, or disrupted and not re-placed) or the id's current
    /// flow departs at another instant (the event is a re-placement's
    /// leftover, or a gone flow's whose id a later arrival took over).
    pub(super) fn handle_departure(&mut self, at: SimTime, request: RequestId) {
        let Some(flow) = self
            .active
            .remove_if(request.0, |flow| flow.departure_ms == at.ms())
        else {
            return;
        };
        if let Some(sink) = self.telemetry.as_mut() {
            sink.on_completed(request, at.ms());
        }
        // Sub-slot lifetimes: a flow leaving mid-slot owes the fraction of
        // this slot it actually occupied. Zero for boundary departures, so
        // slot-boundary runs never accrue anything here.
        let slot_start_ms = at.slot(self.slot_ms).saturating_mul(self.slot_ms);
        let occupied_ms = at.ms().saturating_sub(flow.activated_ms.max(slot_start_ms));
        if occupied_ms > 0 {
            let topology = self.network.topology();
            let chain = self.chains.get(flow.request.chain);
            let mut at_node = flow.request.source;
            let mut path_cost = 0.0;
            for &inst_id in &flow.instances {
                let node = self.pool.get(inst_id).expect("active instance").node;
                path_cost += self.scenario.prices.traffic_cost_usd(
                    topology.node(at_node),
                    topology.node(node),
                    chain.traffic_gb,
                );
                at_node = node;
            }
            self.partial_traffic += occupied_ms as f64 / self.slot_ms as f64 * path_cost;
        }
        for &inst_id in &flow.instances {
            self.pool
                .remove_flow(inst_id, flow.arrival_rate_rps)
                .expect("active flow's instance exists");
            self.note_possible_idle(inst_id);
        }
        self.cost_cache = None;
    }

    /// Applies `first` and the network events queued behind it at `at` as
    /// one batch (the slot loop's per-slot event list) and sends the flows
    /// they disrupt back through the policy.
    fn handle_network_events(
        &mut self,
        at: SimTime,
        first: NetworkEvent,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) {
        let mut events = vec![first];
        while let Some(SimEvent::Network(event)) = self.queue.pop_if(at, SimEventKind::Network) {
            events.push(event);
        }
        let disrupted = self.apply_network_events(&events);
        self.counters.flows_disrupted += disrupted.len() as u32;
        if let Some(sink) = self.telemetry.as_mut() {
            for flow in &disrupted {
                sink.on_disrupted(flow.request.id, at.ms());
            }
        }
        let replaced = self.replace_disrupted(disrupted, policy, rng);
        self.counters.flows_replaced += replaced;
        self.cost_cache = None;
    }

    /// Runs the idle-instance retirement sweep queued for `at`'s slot.
    fn handle_retire_check(&mut self, at: SimTime) {
        self.retire_checks.remove(&at.slot(self.slot_ms));
        if self.retire_idle_instances() > 0 {
            self.cost_cache = None;
        }
    }

    /// Decides the arrivals sharing instant `at`, in input order, as one
    /// decision group (the slot loop groups per slot; on a slot-boundary
    /// schedule those coincide) — the group
    /// [`DecisionSemantics::SlotSnapshot`] plans against one frozen world.
    fn handle_arrivals(
        &mut self,
        at: SimTime,
        group: &[Request],
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) {
        self.counters.arrivals += group.len() as u32;
        self.unqueued_events += 2 * group.len() as u64;
        if let Some(sink) = self.telemetry.as_mut() {
            for request in group {
                sink.on_requested(at.ms(), request, false);
            }
        }
        for row in 0..group.len() {
            match self.decide_group_member(group, row, policy, rng) {
                PlacementOutcome::Accepted { sla_violated, .. } => {
                    self.counters.accepted += 1;
                    if sla_violated {
                        self.counters.sla_violations += 1;
                    }
                }
                PlacementOutcome::Rejected => self.counters.rejected += 1,
            }
        }
        self.cost_cache = None;
    }

    /// The event engine's core loop over the next `horizon_slots` slots:
    /// take whichever is due first, the next queued event (`(time,
    /// kind_rank, sequence)` order) or the next group of `arrivals`, a
    /// queued event first on a tie, lazily billing completed slots before
    /// each and once more at the end.
    fn run_event_loop(
        &mut self,
        horizon_slots: u64,
        arrivals: &mut dyn Iterator<Item = TimedArrival>,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) {
        let end_slot = self.slot + horizon_slots;
        let end_ms = end_slot.saturating_mul(self.slot_ms);
        self.schedule_window_network_events(self.slot, end_slot);
        let mut last_ms = 0;
        let mut feed = arrivals
            .inspect(|arrival| {
                let ms = arrival.at.ms();
                assert!(
                    ms >= last_ms,
                    "RunInput::Stream must be time-ordered: got an arrival at {ms}ms after one \
                     at {last_ms}ms"
                );
                last_ms = ms;
            })
            .peekable();
        // Arrivals before the clock (a chained run's input reaching back
        // into the previous run) are dropped.
        let start = self.queue.now();
        while feed.next_if(|arrival| arrival.at < start).is_some() {}
        let mut group: Vec<Request> = Vec::new();
        loop {
            // The feed is ordered: past its first arrival at or beyond the
            // horizon there is nothing for this run. Queued events there
            // stay queued for chained runs.
            let next_arrival = feed.peek().map(|a| a.at).filter(|at| at.ms() < end_ms);
            let due = self
                .queue
                .peek()
                .filter(|&(t, _)| t.ms() < end_ms && next_arrival.is_none_or(|at| t <= at));
            if let Some((t, kind)) = due {
                self.bill_slots_through(t.ms());
                self.current_rank = kind.rank();
                match self.queue.pop() {
                    Some((_, SimEvent::FlowDeparture { request })) => {
                        self.handle_departure(t, request);
                    }
                    Some((_, SimEvent::Network(first))) => {
                        self.handle_network_events(t, first, policy, rng);
                    }
                    Some((_, SimEvent::RetireCheck)) => self.handle_retire_check(t),
                    None => unreachable!("peeked event vanished"),
                }
            } else if let Some(at) = next_arrival {
                self.bill_slots_through(at.ms());
                self.queue.advance_to(at);
                self.current_rank = ARRIVAL_RANK;
                group.clear();
                while let Some(arrival) = feed.next_if(|arrival| arrival.at == at) {
                    group.push(Request {
                        arrival_slot: at.slot(self.slot_ms),
                        ..arrival.request
                    });
                }
                self.handle_arrivals(at, &group, policy, rng);
            } else {
                break;
            }
            self.current_rank = 0;
        }
        self.bill_slots_through(end_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsorted_input_is_taken_in_time_order_ties_as_given() {
        let sorted = [(0, 'a'), (0, 'b'), (1, 'c')];
        assert!(in_time_order(&sorted, |x| x.0).eq(&sorted));
        let unsorted = [(1, 'a'), (0, 'b'), (1, 'c'), (0, 'd')];
        let taken: String = in_time_order(&unsorted, |x| x.0).map(|x| x.1).collect();
        assert_eq!(taken, "bdac");
    }
}
