//! Cost accounting: a slot's costs and mean latency, and the event
//! engine's lazy catch-up billing of completed slots.

use super::*;

impl Simulation {
    /// Per-slot operational costs plus the mean active-flow latency, in a
    /// single pass over the active set (cost's traffic term and the
    /// latency average used to be two separate full scans).
    ///
    /// `window = Some((slot_start_ms, slot_ms))` prorates each flow's
    /// traffic by the fraction of the slot it was actually active for
    /// (the event engine); `None` bills whole slots as the slot loop
    /// writes it. A flow active since the slot's start has fraction 1.0
    /// and `1.0 * x` is `x`: on slot-boundary input, the same bits.
    pub(super) fn slot_costs_and_latency(
        &self,
        window: Option<(u64, u64)>,
    ) -> (f64, f64, f64, f64) {
        let slot_s = self.scenario.slot_seconds;
        let topology = self.network.topology();
        // Compute: every live instance bills its CPU share.
        let compute: f64 = self
            .pool
            .iter()
            .map(|inst| {
                let node = topology.node(inst.node);
                let cpu = self.vnfs.get(inst.vnf_type).demand.cpu;
                self.scenario.prices.compute_cost_usd(node, cpu, slot_s)
            })
            .sum();
        // Energy: live edge nodes bill their utilization-dependent power
        // (a failed node is powered off and draws nothing).
        let energy: f64 = topology
            .nodes()
            .iter()
            .filter(|n| !n.is_cloud() && self.network.node_alive(n.id))
            .map(|n| {
                let u = self.network.ledger().utilization_of(n.id).unwrap_or(0.0);
                self.scenario.energy.cost_usd(n, u.min(1.0), slot_s)
            })
            .sum();
        // One pass over active flows: traffic cost (chain's per-slot
        // volume along source → VNF₁ → … → VNFₙ) + cached latency sum.
        let mut traffic = 0.0;
        let mut latency_sum = 0.0;
        for flow in self.active.values() {
            latency_sum += flow.latency_ms;
            let chain = self.chains.get(flow.request.chain);
            let share = match window {
                None => 1.0,
                Some((slot_start_ms, slot_ms)) => {
                    let active_ms = (slot_start_ms + slot_ms)
                        .saturating_sub(flow.activated_ms.max(slot_start_ms));
                    (active_ms as f64 / slot_ms as f64).min(1.0)
                }
            };
            let mut at = flow.request.source;
            for &inst_id in &flow.instances {
                let node = self.pool.get(inst_id).expect("active instance").node;
                traffic += share
                    * self.scenario.prices.traffic_cost_usd(
                        topology.node(at),
                        topology.node(node),
                        chain.traffic_gb,
                    );
                at = node;
            }
        }
        let mean_latency = if self.active.is_empty() {
            0.0
        } else {
            latency_sum / self.active.len() as f64
        };
        (compute, energy, traffic, mean_latency)
    }

    /// Bills every slot whose end lies at or before `time_ms`, emitting
    /// one [`SlotRecord`] each. Between events the world cannot change,
    /// so after the first (possibly recomputed) snapshot the remaining
    /// slots reuse it verbatim — a long idle stretch costs O(1) per slot
    /// and no per-flow or per-instance scans.
    ///
    /// Debug builds check the world's invariants once before billing: it
    /// is the state every slot billed here closed on.
    pub(super) fn bill_slots_through(&mut self, time_ms: u64) {
        if cfg!(debug_assertions) && (self.slot + 1).saturating_mul(self.slot_ms) <= time_ms {
            self.assert_invariants();
        }
        while (self.slot + 1).saturating_mul(self.slot_ms) <= time_ms {
            // A flow activated after this slot's start owes less than a
            // full share, so its snapshot is specific to THIS slot and
            // must not be cached for the next one. Activations clear the
            // cache, so a live cache implies no clipping.
            let clips = self.latest_activation_ms > self.slot.saturating_mul(self.slot_ms);
            let snapshot = match self.cost_cache.filter(|_| !clips) {
                Some(c) => c,
                None => {
                    let window = (self.slot * self.slot_ms, self.slot_ms);
                    let (compute, energy, traffic, mean_latency) =
                        self.slot_costs_and_latency(Some(window));
                    let c = CostCache {
                        compute,
                        energy,
                        traffic,
                        mean_latency,
                        mean_utilization: self.network.ledger().mean_utilization(),
                        active_flows: self.active.len() as u32,
                        live_instances: self.pool.len() as u32,
                        nodes_down: self.network.down_node_count() as u32,
                    };
                    if !clips {
                        self.cost_cache = Some(c);
                    }
                    c
                }
            };
            let mut traffic_cost = snapshot.traffic;
            if self.partial_traffic != 0.0 {
                // Added (and branch-gated) separately so slot-boundary
                // runs reuse the snapshot's bits untouched.
                traffic_cost += self.partial_traffic;
                self.partial_traffic = 0.0;
            }
            let record = SlotRecord {
                slot: self.slot,
                arrivals: self.counters.arrivals,
                accepted: self.counters.accepted,
                rejected: self.counters.rejected,
                sla_violations: self.counters.sla_violations,
                active_flows: snapshot.active_flows,
                live_instances: snapshot.live_instances,
                mean_latency_ms: snapshot.mean_latency,
                compute_cost: snapshot.compute,
                energy_cost: snapshot.energy,
                traffic_cost,
                deployment_cost: self.deployment_cost_this_slot,
                mean_utilization: snapshot.mean_utilization,
                flows_disrupted: self.counters.flows_disrupted,
                flows_replaced: self.counters.flows_replaced,
                nodes_down: snapshot.nodes_down,
            };
            if let Some(sink) = self.telemetry.as_mut() {
                sink.on_slot_billed(&record, self.slot_ms);
            }
            self.metrics.push_slot(record);
            self.counters = SlotCounters::default();
            self.deployment_cost_this_slot = 0.0;
            self.slot += 1;
        }
    }
}
