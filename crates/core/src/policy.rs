//! The policy abstraction every manager (DRL and heuristic) implements,
//! plus the per-decision context the simulation engine hands to policies.

use crate::action::PlacementAction;
use edgenet::node::NodeId;
use rand::rngs::StdRng;
use sfc::chain::ChainSpec;
use sfc::request::Request;

/// The state-row matrix [`PlacementPolicy::greedy_batch`] takes, re-exported
/// so that crates wrapping a policy can name it without depending on `nn`.
pub use nn::tensor::Matrix;

/// Everything a policy may want to know about one candidate node for the
/// next VNF of the pending request.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateInfo {
    /// The candidate node.
    pub node: NodeId,
    /// Whether placement here is currently possible (reachable and either
    /// a reusable instance exists or a new one fits).
    pub feasible: bool,
    /// Whether an existing instance with queueing headroom can be reused
    /// (no new deployment needed).
    pub reuse_available: bool,
    /// Marginal latency of choosing this node: network hop + fixed
    /// processing + M/M/1 sojourn at the post-admission load (ms).
    pub marginal_latency_ms: f64,
    /// Marginal monetary cost of choosing this node: deployment (if a new
    /// instance is needed) + its compute cost over the flow's lifetime +
    /// hop traffic cost (USD).
    pub marginal_cost_usd: f64,
    /// Node's dominant resource utilization before this placement.
    pub utilization: f64,
    /// `true` for the cloud node.
    pub is_cloud: bool,
}

/// One decision point: place the `position`-th VNF of `request`'s chain.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionContext {
    /// DQN observation vector.
    pub encoded_state: Vec<f32>,
    /// Valid-action mask (length `node_count + 1`; last entry = reject,
    /// always `true`).
    pub mask: Vec<bool>,
    /// The pending request.
    pub request: Request,
    /// Its chain specification.
    pub chain: ChainSpec,
    /// Index of the VNF being placed.
    pub position: usize,
    /// Where the previous VNF landed (request source for position 0).
    pub at_node: NodeId,
    /// Latency accumulated by earlier hops (ms).
    pub consumed_latency_ms: f64,
    /// Per-node candidate details (index = node id).
    pub candidates: Vec<CandidateInfo>,
    /// Current slot.
    pub slot: u64,
}

impl DecisionContext {
    /// Feasible candidates only.
    pub fn feasible_candidates(&self) -> impl Iterator<Item = &CandidateInfo> {
        self.candidates.iter().filter(|c| c.feasible)
    }

    /// `true` if at least one node can host the next VNF.
    pub fn any_feasible(&self) -> bool {
        self.candidates.iter().any(|c| c.feasible)
    }
}

/// Learning signal delivered to a policy after a decision it made.
///
/// Feedback *borrows* the engine-owned observation buffers: the engine
/// reuses them across decisions, so delivering feedback allocates nothing.
/// A policy that stores experience copies what it keeps (the DQN's replay
/// copies the rows straight out of these borrows) — heuristics and frozen
/// evaluation runs copy nothing at all.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionFeedback<'a> {
    /// Observation the decision was made from.
    pub state: &'a [f32],
    /// Valid-action mask the decision was made under.
    pub mask: &'a [bool],
    /// Encoded action index taken.
    pub action_index: usize,
    /// Shaped reward.
    pub reward: f32,
    /// Observation at the next decision point (zeros when `done`).
    pub next_state: &'a [f32],
    /// Valid-action mask at the next decision point.
    pub next_mask: &'a [bool],
    /// Whether this decision ended the request's placement episode.
    pub done: bool,
}

/// A placement policy: the object under evaluation in every experiment.
///
/// The simulation engine guarantees that `decide` is only asked when the
/// mask has at least one `true` entry (reject is always valid) and that
/// `observe` receives feedback for every decision, in order.
pub trait PlacementPolicy {
    /// Stable, human-readable policy name (table row label).
    fn name(&self) -> String;

    /// Chooses an action for the decision point.
    ///
    /// Must return an action whose mask entry is `true`.
    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction;

    /// Receives the learning signal for a past decision. Heuristics ignore
    /// this.
    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        let _ = (feedback, rng);
    }

    /// `true` when the policy can answer a whole slot's pending decisions
    /// through [`PlacementPolicy::greedy_batch`]. Network-backed policies
    /// return `true` in (greedy, frozen) evaluation mode only — batched
    /// selection has no exploration rng stream, so a training policy must
    /// keep the per-decision path to preserve its draw order. Heuristics
    /// decide in nanoseconds and gain nothing from batching.
    fn supports_greedy_batch(&self) -> bool {
        false
    }

    /// Greedy actions for a batch of decisions: one encoded state per row
    /// of `states`, row-major valid-action `masks`
    /// (`masks[row * mask_stride + action]`), one selected action index
    /// per row pushed into `out` (cleared first).
    ///
    /// Only called when [`PlacementPolicy::supports_greedy_batch`] is
    /// `true`. Implementations must select exactly what `decide` would
    /// pick for each row in isolation — the engine's batched decision
    /// loop relies on that to stay bit-identical to the sequential path.
    fn greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        let _ = (states, masks, out);
        unreachable!("greedy_batch called on a policy that does not support it");
    }

    /// Switches between training (explore + learn) and evaluation (greedy,
    /// frozen) behaviour. Heuristics ignore this.
    fn set_training(&mut self, training: bool) {
        let _ = training;
    }

    /// `true` if the policy reads [`DecisionContext::encoded_state`] — in
    /// `decide`, in `observe`'s feedback, or through `greedy_batch`'s
    /// state rows. When it is `false` the engine skips the state encoding
    /// and hands the policy an empty `encoded_state` (and width-0 rows in
    /// feedback), so answering `false` is legal only for a policy that
    /// decides from the candidates, the mask and the episode fields alone
    /// and never looks at a state. The default is `true` because a wrong
    /// `true` only costs an encoding, while a wrong `false` silently feeds
    /// a policy empty observations; wrappers that do not forward this
    /// method therefore keep the state.
    fn reads_state(&self) -> bool {
        true
    }

    /// `true` if the policy learns online (affects how runners report it).
    fn is_learning(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::chain::ChainId;
    use sfc::request::RequestId;

    fn ctx(feasible: &[bool]) -> DecisionContext {
        let candidates: Vec<CandidateInfo> = feasible
            .iter()
            .enumerate()
            .map(|(i, &f)| CandidateInfo {
                node: NodeId(i),
                feasible: f,
                reuse_available: false,
                marginal_latency_ms: 1.0,
                marginal_cost_usd: 0.01,
                utilization: 0.0,
                is_cloud: false,
            })
            .collect();
        let mut mask: Vec<bool> = feasible.to_vec();
        mask.push(true);
        DecisionContext {
            encoded_state: vec![0.0; 4],
            mask,
            request: Request::new(RequestId(0), ChainId(0), NodeId(0), 0, 1),
            chain: ChainSpec::new(
                ChainId(0),
                "c",
                vec![sfc::vnf::VnfTypeId(0)],
                10.0,
                0.1,
                1.0,
            ),
            position: 0,
            at_node: NodeId(0),
            consumed_latency_ms: 0.0,
            candidates,
            slot: 0,
        }
    }

    #[test]
    fn feasible_candidates_filters() {
        let c = ctx(&[true, false, true]);
        assert_eq!(c.feasible_candidates().count(), 2);
        assert!(c.any_feasible());
    }

    #[test]
    fn no_feasible_detected() {
        let c = ctx(&[false, false]);
        assert!(!c.any_feasible());
        // Reject stays available in the mask.
        assert_eq!(c.mask, vec![false, false, true]);
    }
}
