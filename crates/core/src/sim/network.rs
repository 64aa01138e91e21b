//! Network events: failures evict instances and strand flows, and the
//! disrupted flows go back through the policy.

use super::*;

impl Simulation {
    /// Applies one batch of network events: a slot's from the slot loop's
    /// timeline, an instant's from the event queue. Node failures evict
    /// every instance on the dead node and tear the flows they served out
    /// of the active set; flows whose instances survived but whose route
    /// was severed (a partition) are stranded and torn out too. Every
    /// disrupted flow is noted and returned for re-placement. Surviving
    /// flows get their cached latencies refreshed against the changed
    /// routes.
    pub(super) fn apply_network_events(&mut self, events: &[NetworkEvent]) -> Vec<ActiveFlow> {
        let mut downed: Vec<NodeId> = Vec::new();
        for event in events {
            self.network.apply(event);
            if let Some(node) = event.downed_node() {
                downed.push(node);
            }
        }
        // Evict every instance hosted on a dead node (the pool takes their
        // demand off the node's usage).
        let mut dead_instances: BTreeSet<InstanceId> = BTreeSet::new();
        for &node in &downed {
            let evicted = self.pool.evict_node(node, &self.vnfs);
            dead_instances.extend(evicted.iter().map(|inst| inst.id));
        }
        // Tear disrupted flows out of the active set, releasing their load
        // on surviving instances (which may then retire as idle).
        let mut disrupted = Vec::new();
        if !dead_instances.is_empty() {
            let hit: Vec<u64> = self
                .active
                .iter()
                .filter(|(_, f)| {
                    f.hops
                        .iter()
                        .any(|hop| dead_instances.contains(&hop.instance))
                })
                .map(|(id, _)| id)
                .collect();
            for id in hit {
                let flow = self.active.remove(id).expect("listed flow exists");
                for hop in &flow.hops {
                    if !dead_instances.contains(&hop.instance) {
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
        for id in self.refresh_cached_latencies() {
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
        disrupted
    }

    /// Recomputes every active flow's cached latency against the current
    /// network (only called after events — the per-slot hot path reads the
    /// cache instead of re-evaluating assignments). Returns the ids of
    /// flows whose assignment is no longer routable at all (stranded by a
    /// partition); an overloaded-but-routable flow is *not* stranded, it
    /// just carries the [`INFEASIBLE_LATENCY_MS`] sentinel.
    fn refresh_cached_latencies(&mut self) -> Vec<u64> {
        let mut updates: Vec<(u64, f64)> = Vec::new();
        let mut stranded: Vec<u64> = Vec::new();
        for (id, flow) in self.active.iter() {
            let chain = self.chains.get(flow.request.chain);
            let assignment = ChainAssignment {
                request: flow.request.id,
                instances: flow.hops.iter().map(|hop| hop.instance).collect(),
            };
            match assignment_latency(
                &assignment,
                chain,
                flow.request.source,
                &self.pool,
                &self.vnfs,
                self.network.routes(),
            ) {
                Ok(breakdown) => {
                    let t = breakdown.total_ms();
                    updates.push((
                        id,
                        if t.is_finite() {
                            t
                        } else {
                            INFEASIBLE_LATENCY_MS
                        },
                    ));
                }
                // The only reachable error here is `Unroutable`: the
                // instances exist and match the chain (they were
                // validated at admission), so an error means the network
                // no longer connects them.
                Err(_) => stranded.push(id),
            }
        }
        for (id, latency) in updates {
            self.active.get_mut(id).expect("listed flow").latency_ms = latency;
        }
        stranded
    }

    /// Sends disrupted flows back through the policy for re-placement,
    /// noting each retry and its outcome as a replacement.
    pub(super) fn replace_disrupted(
        &mut self,
        disrupted: Vec<ActiveFlow>,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) {
        for flow in disrupted {
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
    }
}
