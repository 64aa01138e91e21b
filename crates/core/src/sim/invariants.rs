//! World-state invariants every handled event must leave intact. Debug
//! builds check them once per slot, on the state the slot closes on:
//! `drive` before it bills a slot, `advance_slot` after its arrivals.
//! Release builds never do.

use super::*;

/// Largest gap allowed between a running sum the pool keeps and the same
/// sum taken afresh, relative to the fresh sum or 1, whichever is larger:
/// an instance's `lambda_rps` against its flows' arrival rates, and a
/// node's usage against its live instances' demand. The pool adds and
/// subtracts one term at a time, so the two differ by rounding.
const REL_TOL: f64 = 1e-9;

/// `true` if the running sum `kept` matches the fresh sum `fresh` to
/// [`REL_TOL`].
fn close(kept: f64, fresh: f64) -> bool {
    (kept - fresh).abs() <= REL_TOL * fresh.max(1.0)
}

/// The checker's reusable buffers. Once they have grown to the largest
/// world a run reaches, a debug build's check at each slot close
/// allocates nothing.
#[derive(Debug, Default)]
pub(super) struct InvariantScratch {
    /// One `(instance, arrival rate)` share per chain position of every
    /// active flow.
    shares: Vec<(InstanceId, f64)>,
    /// The flow under check, in the form `assignment_latency` takes.
    assignment: ChainAssignment,
    /// Per node, the catalog demand of its live instances summed afresh.
    usage: Vec<Resources>,
}

impl Simulation {
    /// Checks the invariants that hold after every handled event:
    ///
    /// * `dead_nodes_host_nothing` — no instance sits on a dead node;
    /// * `node_usage_matches_instances` — every node's usage in the pool
    ///   is the sum of its live instances' catalog demand (to the same
    ///   relative tolerance), and fits its capacity unless a
    ///   `CapacityDegrade` cut that capacity (the node then admits nothing
    ///   new until its usage drains);
    /// * `flows_routable_on_live_nodes` — every active flow's instances
    ///   exist, sit on live nodes, and are routed to from its source
    ///   (its `assignment_latency` is `Ok`);
    /// * `flow_hops_match_instances` — every hop cost an active flow was
    ///   admitted with is, bit for bit, the traffic price between its
    ///   instances' current nodes (the source's, for the first);
    /// * `instance_loads_match_flows` — every live instance's `flows` is
    ///   the number of chain positions of active flows it serves, and its
    ///   `lambda_rps` the sum of those flows' arrival rates (to a relative
    ///   tolerance of 1e-9 of that sum or 1 rps, whichever is larger);
    /// * `sink_flows_are_active` — with a telemetry sink attached, every
    ///   flow it holds open is active (a subset, not equality: a sink
    ///   attached to a later `drive` never saw the flows admitted before).
    ///
    /// # Errors
    ///
    /// The first broken invariant, as `"<name>: <what broke it>"`.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_invariants_with(&mut InvariantScratch::default())
    }

    fn check_invariants_with(&self, scratch: &mut InvariantScratch) -> Result<(), String> {
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
        let InvariantScratch {
            shares,
            assignment,
            usage,
        } = scratch;
        let topology = self.network.topology();
        usage.clear();
        usage.resize(topology.node_count(), Resources::zero());
        for inst in self.pool.iter() {
            let fresh = &mut usage[inst.node.0];
            *fresh = fresh.plus(&self.vnfs.get(inst.vnf_type).demand);
        }
        for (node, fresh) in topology.nodes().iter().map(|n| n.id).zip(usage.iter()) {
            let used = self.pool.used_on(node);
            if !close(used.cpu, fresh.cpu) || !close(used.mem, fresh.mem) {
                return Err(format!(
                    "node_usage_matches_instances: node {node} counts {used:?} in use, \
                     its live instances demand {fresh:?}"
                ));
            }
            let capacity = self
                .network
                .ledger()
                .capacity_of(node)
                .map_err(|e| format!("node_usage_matches_instances: {e}"))?;
            if !capacity.fits(&used) && capacity == topology.node(node).capacity {
                return Err(format!(
                    "node_usage_matches_instances: node {node} runs {used:?}, \
                     past its capacity {capacity:?}"
                ));
            }
        }
        shares.clear();
        for (id, flow) in self.active.iter() {
            let chain = self.chains.get(flow.request.chain);
            assignment.request = flow.request.id;
            assignment.instances.clear();
            assignment
                .instances
                .extend(flow.hops.iter().map(|hop| hop.instance));
            // A route to or from a dead node is infinite, so `Ok` also
            // means every instance sits on a live node.
            if let Err(e) = assignment_latency(
                assignment,
                chain,
                flow.request.source,
                &self.pool,
                &self.vnfs,
                self.network.routes(),
            ) {
                return Err(format!("flows_routable_on_live_nodes: flow {id}: {e}"));
            }
            // Every instance exists (checked above).
            let mut at = flow.request.source;
            for (position, hop) in flow.hops.iter().enumerate() {
                let node = self.pool.get(hop.instance).map_or(at, |inst| inst.node);
                let fresh = self.scenario.prices.traffic_cost_usd(
                    topology.node(at),
                    topology.node(node),
                    chain.traffic_gb,
                );
                if hop.traffic_usd.to_bits() != fresh.to_bits() {
                    return Err(format!(
                        "flow_hops_match_instances: flow {id} carries {} for hop {position} \
                         ({at} -> {node}), which costs {fresh}",
                        hop.traffic_usd
                    ));
                }
                at = node;
                shares.push((hop.instance, flow.arrival_rate_rps));
            }
        }
        // Every share names a live instance (checked above), so the
        // sorted shares split into one run per live instance, in the
        // pool's id order.
        shares.sort_unstable_by_key(|&(id, _)| id);
        let mut rest = shares.as_slice();
        for inst in self.pool.iter() {
            let (own, tail) = rest.split_at(rest.partition_point(|&(id, _)| id <= inst.id));
            rest = tail;
            let lambda = own.iter().fold(0.0, |sum, &(_, rate)| sum + rate);
            if inst.flows as usize != own.len() || !close(inst.lambda_rps, lambda) {
                return Err(format!(
                    "instance_loads_match_flows: instance {} carries {} flows at {} rps, \
                     the active flows put {} at {lambda} rps on it",
                    inst.id,
                    inst.flows,
                    inst.lambda_rps,
                    own.len()
                ));
            }
        }
        let mut open = self.telemetry.iter().flat_map(|sink| sink.open_flow_ids());
        match open.find(|id| self.active.get(id.0).is_none()) {
            Some(id) => Err(format!(
                "sink_flows_are_active: the sink holds {id} open, not active"
            )),
            None => Ok(()),
        }
    }

    /// Panics, naming the invariant and the current slot, if the events
    /// handled so far left an invariant broken.
    pub(super) fn assert_invariants(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch.invariants);
        let checked = self.check_invariants_with(&mut scratch);
        self.scratch.invariants = scratch;
        if let Err(violation) = checked {
            panic!("invariant {violation} (at the close of slot {})", self.slot);
        }
    }
}
