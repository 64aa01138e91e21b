//! Network events: failures evict instances and strand flows, and the
//! disrupted flows go back through the policy.

use super::*;

impl Simulation {
    /// Applies one batch of network events: a slot's from the slot loop's
    /// timeline, an instant's from the event queue. Node failures evict
    /// every instance on the dead node and tear the flows they served out
    /// of the active set; flows whose instances survived but whose route
    /// was severed (a partition) are stranded and torn out too. Every
    /// disrupted flow is noted and left in `SimScratch::disrupted` for
    /// [`Simulation::replace_disrupted`]. Surviving flows get their cached
    /// latencies refreshed against the changed routes. The id lists live
    /// in `SimScratch` too: once they have grown, an event allocates only
    /// inside the pool's eviction and the network's route rebuild.
    pub(super) fn apply_network_events(&mut self, events: &[NetworkEvent]) {
        let mut downed = std::mem::take(&mut self.scratch.downed);
        let mut dead = std::mem::take(&mut self.scratch.dead);
        let mut torn = std::mem::take(&mut self.scratch.torn);
        let mut disrupted = std::mem::take(&mut self.scratch.disrupted);
        debug_assert!(
            disrupted.is_empty(),
            "the last batch's disrupted flows were re-placed"
        );
        downed.clear();
        dead.clear();
        for event in events {
            self.network.apply(event);
            if let Some(node) = event.downed_node() {
                downed.push(node);
            }
        }
        // Evict every instance hosted on a dead node (the pool takes their
        // demand off the node's usage).
        for &node in &downed {
            let evicted = self.pool.evict_node(node, &self.vnfs);
            dead.extend(evicted.iter().map(|inst| inst.id));
        }
        dead.sort_unstable();
        let is_dead = |id: &InstanceId| dead.binary_search(id).is_ok();
        // Tear disrupted flows out of the active set, releasing their load
        // on surviving instances (which may then retire as idle).
        torn.clear();
        if !dead.is_empty() {
            torn.extend(
                self.active
                    .iter()
                    .filter(|(_, f)| f.hops.iter().any(|hop| is_dead(&hop.instance)))
                    .map(|(id, _)| id),
            );
            for &id in &torn {
                let flow = self.active.remove(id).expect("listed flow exists");
                for hop in &flow.hops {
                    if !is_dead(&hop.instance) {
                        self.pool
                            .remove_flow(hop.instance, flow.arrival_rate_rps)
                            .expect("surviving instance exists");
                        self.note_possible_idle(hop.instance);
                    }
                }
                disrupted.push(flow);
            }
        }
        // Routes (and queueing on surviving instances) changed: refresh
        // the cached end-to-end latency of every surviving flow, and
        // strand the ones whose path no longer exists.
        self.refresh_cached_latencies(&mut torn);
        for &id in &torn {
            let flow = self.active.remove(id).expect("listed flow exists");
            for hop in &flow.hops {
                self.pool
                    .remove_flow(hop.instance, flow.arrival_rate_rps)
                    .expect("stranded flow's instances survived");
                self.note_possible_idle(hop.instance);
            }
            disrupted.push(flow);
        }
        for flow in &disrupted {
            self.note(Note::Disrupted(flow.request.id));
        }
        self.scratch.downed = downed;
        self.scratch.dead = dead;
        self.scratch.torn = torn;
        self.scratch.disrupted = disrupted;
    }

    /// Recomputes every active flow's cached latency against the current
    /// network (only called after events — the per-slot hot path reads the
    /// cache instead of re-evaluating assignments), through the recycled
    /// `SimScratch::assignment`. Replaces `stranded` with the ids of flows
    /// whose assignment is no longer routable at all (stranded by a
    /// partition); an overloaded-but-routable flow is *not* stranded, it
    /// just carries the [`INFEASIBLE_LATENCY_MS`] sentinel.
    fn refresh_cached_latencies(&mut self, stranded: &mut Vec<u64>) {
        stranded.clear();
        let assignment = &mut self.scratch.assignment;
        for flow in self.active.values_mut() {
            assignment.request = flow.request.id;
            assignment.instances.clear();
            assignment
                .instances
                .extend(flow.hops.iter().map(|hop| hop.instance));
            match assignment_latency(
                assignment,
                self.chains.get(flow.request.chain),
                flow.request.source,
                &self.pool,
                &self.vnfs,
                self.network.routes(),
            ) {
                Ok(breakdown) => {
                    let t = breakdown.total_ms();
                    flow.latency_ms = if t.is_finite() {
                        t
                    } else {
                        INFEASIBLE_LATENCY_MS
                    };
                }
                // The only reachable error here is `Unroutable`: the
                // instances exist and match the chain (they were
                // validated at admission), so an error means the network
                // no longer connects them.
                Err(_) => stranded.push(flow.request.id.0),
            }
        }
    }

    /// Sends the flows [`Simulation::apply_network_events`] disrupted back
    /// through the policy for re-placement, noting each retry and its
    /// outcome as a replacement.
    pub(super) fn replace_disrupted(&mut self, policy: &mut dyn PlacementPolicy, rng: &mut StdRng) {
        let mut disrupted = std::mem::take(&mut self.scratch.disrupted);
        for flow in disrupted.drain(..) {
            // The old hop list goes to the spares first, so the
            // re-placement's admission refills it.
            let mut hops = flow.hops;
            hops.clear();
            self.scratch.spare_hops.push(hops);
            let remaining = flow.request.departure_slot().saturating_sub(self.slot);
            if remaining == 0 {
                continue; // departures already ran; defensive only
            }
            // Re-placement rides the exact same policy path as an
            // admission: same context, masks, rewards and feedback. The
            // retry is re-quantized to whole slots (`duration_ms` would
            // otherwise re-bill the lifetime already served).
            let retry = Request {
                arrival_slot: self.slot,
                duration_slots: remaining as u32,
                duration_ms: None,
                ..flow.request
            };
            self.note(Note::Requested {
                request: &retry,
                replacement: true,
            });
            let outcome = self.place_request(&retry, policy, rng);
            self.note(Note::decided(retry.id, &outcome, true));
        }
        self.scratch.disrupted = disrupted;
    }
}
