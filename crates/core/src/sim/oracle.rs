//! The paper's slot loop, kept as the reference the event engine is
//! compared against (`tests/event_slot_equivalence.rs`). It shares the
//! engine's clock: departures come off the same queue.

use super::*;

impl Simulation {
    /// Takes every event due by the current slot's start off the queue
    /// and moves the clock there. Departures depart; retire checks are
    /// dropped, because this loop sweeps every slot itself.
    fn process_departures(&mut self) {
        let slot_start = SimTime::from_slot(self.slot, self.slot_ms);
        while let Some((t, _)) = self.queue.peek().filter(|&(t, _)| t <= slot_start) {
            match self.queue.pop() {
                Some((_, SimEvent::FlowDeparture { request })) => self.handle_departure(t, request),
                Some((_, SimEvent::RetireCheck)) => {
                    self.retire_checks.remove(&t.slot(self.slot_ms));
                }
                // `drive` handles every network event it queues before its
                // horizon; the slot loop reads its own timeline.
                _ => unreachable!("a queued network event outlived its run"),
            }
        }
        self.queue.advance_to(slot_start);
        // A mid-slot departure's share was billed with the whole slot.
        self.open_slot.traffic_cost = 0.0;
    }

    /// Advances one slot: departures, network events (failures evict
    /// instances and send disrupted flows back through the policy for
    /// re-placement), idle retirement, the slot's arrivals, then cost
    /// accounting. Returns the slot record.
    ///
    /// This is the paper's original slotted loop. It runs on the event
    /// engine's clock, so it may follow or precede [`Simulation::drive`]
    /// on the same simulation; arrivals are decided at the slot's start.
    pub fn advance_slot(
        &mut self,
        arrivals: &[Request],
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) -> SlotRecord {
        self.process_departures();

        // Network events fire after departures (a flow that leaves this
        // slot cannot be disrupted) and before arrivals (new requests see
        // the degraded network).
        if let Some(events) = self.event_timeline.remove(&self.slot) {
            self.apply_network_events(&events);
            self.replace_disrupted(policy, rng);
        }

        self.retire_idle_instances();

        self.decide_group(arrivals, policy, rng);
        if cfg!(debug_assertions) {
            self.assert_invariants();
        }
        let record = self.close_slot(&self.slot_costs_and_latency(None));
        self.note(Note::SlotBilled(record.clone()));
        record
    }

    /// The reference [`Simulation::drive`] is checked against: the
    /// paper's original per-slot sweep ([`Simulation::advance_slot`] once
    /// per slot) over `trace`, or over the scenario's own generated trace
    /// when `None` — the trace and the decision seed
    /// [`RunInput::Generated`] uses, so the two runs are comparable bit
    /// for bit. Whole-slot billing, no telemetry; decision semantics come
    /// from [`Simulation::set_decision_semantics`].
    pub fn drive_slotted(
        &mut self,
        trace: Option<&Trace>,
        policy: &mut dyn PlacementPolicy,
        seed_offset: u64,
        horizon_slots: Option<u64>,
    ) -> RunSummary {
        let generated;
        let trace = match trace {
            Some(trace) => trace,
            None => {
                generated = self.generate_run_trace(seed_offset);
                &generated
            }
        };
        let mut rng = self.decision_rng(seed_offset);
        let start = self.slot;
        let horizon = horizon_slots.unwrap_or(trace.horizon_slots);
        let mut arrivals_by_slot: BTreeMap<u64, Vec<Request>> = BTreeMap::new();
        for r in &trace.requests {
            let mut shifted = r.clone();
            shifted.arrival_slot += start;
            arrivals_by_slot
                .entry(shifted.arrival_slot)
                .or_default()
                .push(shifted);
        }
        for s in start..start + horizon {
            let arrivals = arrivals_by_slot.remove(&s).unwrap_or_default();
            self.advance_slot(&arrivals, policy, &mut rng);
        }
        self.metrics.summarize()
    }
}
