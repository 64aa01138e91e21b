//! World-state invariants a network event batch must leave intact. Debug
//! builds check them after every batch, once its disrupted flows have been
//! re-placed; release builds never do.

use super::*;

impl Simulation {
    /// Checks the invariants that hold after every network event batch:
    ///
    /// * `dead_nodes_host_nothing` — no instance sits on a dead node;
    /// * `flows_routable_on_live_nodes` — every active flow's instances
    ///   exist, sit on live nodes, and are routed to from its source
    ///   (its `assignment_latency` is `Ok`).
    ///
    /// # Errors
    ///
    /// The first broken invariant, as `"<name>: <what broke it>"`.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(inst) = self
            .pool
            .iter()
            .find(|inst| !self.network.node_alive(inst.node))
        {
            return Err(format!(
                "dead_nodes_host_nothing: instance {} sits on dead node {}",
                inst.id, inst.node
            ));
        }
        for (id, flow) in &self.active {
            let assignment = ChainAssignment {
                request: flow.request.id,
                instances: flow.instances.clone(),
            };
            // A route to or from a dead node is infinite, so `Ok` also
            // means every instance sits on a live node.
            if let Err(e) = assignment_latency(
                &assignment,
                self.chains.get(flow.request.chain),
                flow.request.source,
                &self.pool,
                &self.vnfs,
                self.network.routes(),
            ) {
                return Err(format!("flows_routable_on_live_nodes: flow {id}: {e}"));
            }
        }
        Ok(())
    }

    /// Panics, naming the invariant and the batch's slot, if the network
    /// events of `slot` left an invariant broken.
    pub(super) fn assert_invariants(&self, slot: u64) {
        if let Err(violation) = self.check_invariants() {
            panic!("invariant {violation} (after the network events of slot {slot})");
        }
    }
}
