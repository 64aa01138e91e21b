//! World-state invariants every handled event must leave intact. Debug
//! builds check them once per slot, on the state the slot closes on:
//! `drive` before it bills a slot, `advance_slot` after its arrivals.
//! Release builds never do.

use super::*;

/// Largest relative gap allowed between an instance's `lambda_rps` and
/// the sum of its flows' arrival rates, relative to that sum or 1 rps,
/// whichever is larger. The pool adds and subtracts rates one flow at a
/// time and the check sums them afresh, so the two differ by rounding.
const LOAD_REL_TOL: f64 = 1e-9;

/// The checker's reusable buffers. Once they have grown to the largest
/// world a run reaches, a debug build's check at each slot close
/// allocates nothing.
#[derive(Debug)]
pub(super) struct InvariantScratch {
    /// One `(instance, arrival rate)` share per chain position of every
    /// active flow.
    shares: Vec<(InstanceId, f64)>,
    /// The flow under check, in the form `assignment_latency` takes.
    assignment: ChainAssignment,
}

impl Default for InvariantScratch {
    fn default() -> Self {
        Self {
            shares: Vec::new(),
            assignment: ChainAssignment {
                request: RequestId(0),
                instances: Vec::new(),
            },
        }
    }
}

impl Simulation {
    /// Checks the invariants that hold after every handled event:
    ///
    /// * `dead_nodes_host_nothing` — no instance sits on a dead node;
    /// * `flows_routable_on_live_nodes` — every active flow's instances
    ///   exist, sit on live nodes, and are routed to from its source
    ///   (its `assignment_latency` is `Ok`);
    /// * `instance_loads_match_flows` — every live instance's `flows` is
    ///   the number of chain positions of active flows it serves, and its
    ///   `lambda_rps` the sum of those flows' arrival rates (to a relative
    ///   tolerance of 1e-9 of that sum or 1 rps, whichever is larger).
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
        let InvariantScratch { shares, assignment } = scratch;
        shares.clear();
        for (id, flow) in self.active.iter() {
            assignment.request = flow.request.id;
            assignment.instances.clone_from(&flow.instances);
            // A route to or from a dead node is infinite, so `Ok` also
            // means every instance sits on a live node.
            if let Err(e) = assignment_latency(
                assignment,
                self.chains.get(flow.request.chain),
                flow.request.source,
                &self.pool,
                &self.vnfs,
                self.network.routes(),
            ) {
                return Err(format!("flows_routable_on_live_nodes: flow {id}: {e}"));
            }
            shares.extend(flow.instances.iter().map(|&i| (i, flow.arrival_rate_rps)));
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
            if inst.flows as usize != own.len()
                || (inst.lambda_rps - lambda).abs() > LOAD_REL_TOL * lambda.max(1.0)
            {
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
        Ok(())
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
