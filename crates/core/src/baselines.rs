//! Heuristic baseline policies the paper compares against, and their
//! registry.
//!
//! All baselines are myopic (decide from the current decision context)
//! except [`ExhaustivePolicy`], which enumerates whole node sequences for
//! the remaining chain — the "offline optimal-ish" comparator used on tiny
//! instances to measure the optimality gap.
//!
//! [`baseline`] is the one place a name is bound to the policy it builds,
//! and [`roster`] names the sets of them the figures compare. Figure
//! binaries, manifests (`exper::manifest`) and grids
//! (`exper::grid::ExperimentGrid::baselines`) all build baselines through
//! it, so a grid column label always names one construction — the
//! discipline `ExperimentGrid::auto_fingerprint` relies on. The
//! exhaustive comparator is not registered: it is built from a
//! simulation's own topology.

use crate::action::PlacementAction;
use crate::policy::{DecisionContext, PlacementPolicy};
use edgenet::node::NodeId;
use edgenet::price::PriceModel;
use edgenet::routing::RoutingTable;
use edgenet::topology::Topology;
use rand::rngs::StdRng;
use rand::Rng;
use sfc::delay::mm1_sojourn_ms;
use sfc::vnf::VnfCatalog;

/// Uniformly random feasible node; rejects only when nothing fits.
#[derive(Debug, Default, Clone)]
pub struct RandomPolicy;

impl PlacementPolicy for RandomPolicy {
    fn name(&self) -> String {
        "random".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        // Count, draw `gen_range(0..count)`, walk to the pick: the draw
        // indexing a collected list would make, without the list.
        let count = ctx.feasible_candidates().count();
        if count == 0 {
            return PlacementAction::Reject;
        }
        let pick = rng.gen_range(0..count);
        ctx.feasible_candidates()
            .nth(pick)
            .map_or(PlacementAction::Reject, |c| PlacementAction::Place(c.node))
    }
}

/// Lowest-id feasible node (the classical first-fit bin-packing rule).
#[derive(Debug, Default, Clone)]
pub struct FirstFitPolicy;

impl PlacementPolicy for FirstFitPolicy {
    fn name(&self) -> String {
        "first-fit".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        ctx.feasible_candidates()
            .map(|c| c.node)
            .next()
            .map_or(PlacementAction::Reject, PlacementAction::Place)
    }
}

/// The feasible edge node that `first` ranks first by utilization, the
/// lowest id among equals (candidates come in node order and `min_by`
/// keeps the first minimum); the cloud only when no edge node fits.
fn edge_fit(
    ctx: &DecisionContext,
    first: impl Fn(&f64, &f64) -> std::cmp::Ordering,
) -> PlacementAction {
    ctx.feasible_candidates()
        .filter(|c| !c.is_cloud)
        .min_by(|a, b| first(&a.utilization, &b.utilization))
        .or_else(|| ctx.feasible_candidates().find(|c| c.is_cloud))
        .map_or(PlacementAction::Reject, |c| PlacementAction::Place(c.node))
}

/// Most-utilized feasible edge node — consolidates load (bin-packing best
/// fit: the fullest bin that still fits), minimizing the number of
/// powered nodes at the price of queueing. The cloud only when no edge
/// node fits.
#[derive(Debug, Default, Clone)]
pub struct BestFitPolicy;

impl PlacementPolicy for BestFitPolicy {
    fn name(&self) -> String {
        "best-fit".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        edge_fit(ctx, |a, b| b.total_cmp(a))
    }
}

/// Least-utilized feasible edge node — spreads load (worst fit: the
/// emptiest bin). The cloud only when no edge node fits.
#[derive(Debug, Default, Clone)]
pub struct WorstFitPolicy;

impl PlacementPolicy for WorstFitPolicy {
    fn name(&self) -> String {
        "worst-fit".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        edge_fit(ctx, f64::total_cmp)
    }
}

/// Feasible node with the smallest marginal latency (network + processing
/// + queueing). The strongest latency baseline; ignores cost entirely.
#[derive(Debug, Default, Clone)]
pub struct GreedyLatencyPolicy;

impl PlacementPolicy for GreedyLatencyPolicy {
    fn name(&self) -> String {
        "greedy-latency".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        ctx.feasible_candidates()
            .min_by(|a, b| {
                a.marginal_latency_ms
                    .partial_cmp(&b.marginal_latency_ms)
                    .unwrap()
            })
            .map_or(PlacementAction::Reject, |c| PlacementAction::Place(c.node))
    }
}

/// Feasible node with the smallest marginal monetary cost (prefers
/// instance reuse and cheap/cloud compute); ignores latency.
#[derive(Debug, Default, Clone)]
pub struct GreedyCostPolicy;

impl PlacementPolicy for GreedyCostPolicy {
    fn name(&self) -> String {
        "greedy-cost".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        ctx.feasible_candidates()
            .min_by(|a, b| {
                a.marginal_cost_usd
                    .partial_cmp(&b.marginal_cost_usd)
                    .unwrap()
            })
            .map_or(PlacementAction::Reject, |c| PlacementAction::Place(c.node))
    }
}

/// Sends every VNF to the cloud — the "no edge" strawman that bounds how
/// much latency the edge actually buys.
#[derive(Debug, Default, Clone)]
pub struct CloudOnlyPolicy;

impl PlacementPolicy for CloudOnlyPolicy {
    fn name(&self) -> String {
        "cloud-only".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        ctx.feasible_candidates()
            .find(|c| c.is_cloud)
            .map_or(PlacementAction::Reject, |c| PlacementAction::Place(c.node))
    }
}

/// Weighted-greedy: minimizes `alpha·latency_norm + beta·cost_norm` per
/// step — the myopic version of the DRL objective (a strong baseline).
#[derive(Debug, Clone)]
pub struct WeightedGreedyPolicy {
    /// Latency weight.
    pub alpha: f64,
    /// Cost weight.
    pub beta: f64,
    /// Latency normalization (ms).
    pub latency_scale_ms: f64,
    /// Cost normalization (USD).
    pub cost_scale_usd: f64,
}

impl Default for WeightedGreedyPolicy {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 1.0,
            latency_scale_ms: 50.0,
            cost_scale_usd: 0.05,
        }
    }
}

impl PlacementPolicy for WeightedGreedyPolicy {
    fn name(&self) -> String {
        "weighted-greedy".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        let score = |c: &crate::policy::CandidateInfo| {
            let lat = if c.marginal_latency_ms.is_finite() {
                c.marginal_latency_ms / self.latency_scale_ms
            } else {
                1e9
            };
            self.alpha * lat + self.beta * c.marginal_cost_usd / self.cost_scale_usd
        };
        ctx.feasible_candidates()
            .min_by(|a, b| score(a).partial_cmp(&score(b)).unwrap())
            .map_or(PlacementAction::Reject, |c| PlacementAction::Place(c.node))
    }
}

/// Exhaustive lookahead over node sequences for the *remaining* chain
/// positions, scoring each sequence with the same α/β objective the DRL
/// agent optimizes. Exponential in remaining chain length — only usable on
/// tiny instances (the optimality-gap experiment).
///
/// Deeper positions assume fresh instances at the chain's own arrival rate
/// (no cross-request reuse lookahead), which makes this an upper bound on
/// achievable cost rather than the exact offline optimum; the bound is
/// tight on lightly-loaded tiny instances.
#[derive(Debug, Clone)]
pub struct ExhaustivePolicy {
    topology: Topology,
    routes: RoutingTable,
    vnfs: VnfCatalog,
    prices: PriceModel,
    /// Latency weight.
    pub alpha: f64,
    /// Cost weight.
    pub beta: f64,
    /// Latency normalization (ms).
    pub latency_scale_ms: f64,
    /// Cost normalization (USD).
    pub cost_scale_usd: f64,
    /// Mean flow duration in slots × slot seconds (cost horizon).
    pub mean_duration_s: f64,
    /// Guard: maximum `nodes^remaining` sequences to enumerate.
    pub max_sequences: usize,
}

impl ExhaustivePolicy {
    /// Builds the policy from simulation components (cloned).
    pub fn new(
        topology: Topology,
        routes: RoutingTable,
        vnfs: VnfCatalog,
        prices: PriceModel,
        mean_duration_s: f64,
    ) -> Self {
        Self {
            topology,
            routes,
            vnfs,
            prices,
            alpha: 1.0,
            beta: 1.0,
            latency_scale_ms: 50.0,
            cost_scale_usd: 0.05,
            mean_duration_s,
            max_sequences: 200_000,
        }
    }

    fn sequence_score(&self, ctx: &DecisionContext, sequence: &[NodeId]) -> f64 {
        let mut at = ctx.at_node;
        let mut latency = 0.0;
        let mut cost = 0.0;
        for (offset, &node) in sequence.iter().enumerate() {
            let position = ctx.position + offset;
            let vnf = self.vnfs.get(ctx.chain.vnfs[position]);
            let hop = if at == node {
                0.0
            } else {
                self.routes.latency_ms(at, node)
            };
            if !hop.is_finite() {
                return f64::INFINITY;
            }
            latency += hop
                + vnf.base_processing_ms
                + mm1_sojourn_ms(vnf.service_rate_rps, ctx.chain.arrival_rate_rps);
            let node_ref = self.topology.node(node);
            cost += self.prices.deployment_cost
                + self
                    .prices
                    .compute_cost_usd(node_ref, vnf.demand.cpu, self.mean_duration_s)
                + self.prices.traffic_cost_usd(
                    self.topology.node(at),
                    node_ref,
                    if at == node {
                        0.0
                    } else {
                        ctx.chain.traffic_gb
                    },
                );
            at = node;
        }
        self.alpha * latency / self.latency_scale_ms + self.beta * cost / self.cost_scale_usd
    }
}

impl PlacementPolicy for ExhaustivePolicy {
    fn name(&self) -> String {
        "exhaustive".into()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        let n = self.topology.node_count();
        let remaining = ctx.chain.len() - ctx.position;
        let total_sequences = n.checked_pow(remaining as u32).unwrap_or(usize::MAX);
        assert!(
            total_sequences <= self.max_sequences,
            "exhaustive search over {total_sequences} sequences exceeds the {} cap — \
             use a smaller topology or shorter chains",
            self.max_sequences
        );
        let mut best: Option<(f64, NodeId)> = None;
        let mut sequence = vec![NodeId(0); remaining];
        for seq_index in 0..total_sequences {
            let mut x = seq_index;
            for slot in sequence.iter_mut() {
                *slot = NodeId(x % n);
                x /= n;
            }
            // First step must currently be feasible.
            if !ctx.candidates[sequence[0].0].feasible {
                continue;
            }
            let score = self.sequence_score(ctx, &sequence);
            if score.is_finite() && best.is_none_or(|(b, _)| score < b) {
                best = Some((score, sequence[0]));
            }
        }
        best.map_or(PlacementAction::Reject, |(_, node)| {
            PlacementAction::Place(node)
        })
    }
}

/// The registered baseline called `name` (its [`PlacementPolicy::name`]),
/// freshly built, or `None` for a name the registry does not hold.
pub fn baseline(name: &str) -> Option<Box<dyn PlacementPolicy>> {
    Some(match name {
        "random" => Box::new(RandomPolicy),
        "first-fit" => Box::new(FirstFitPolicy),
        "best-fit" => Box::new(BestFitPolicy),
        "worst-fit" => Box::new(WorstFitPolicy),
        "greedy-latency" => Box::new(GreedyLatencyPolicy),
        "greedy-cost" => Box::new(GreedyCostPolicy),
        "cloud-only" => Box::new(CloudOnlyPolicy),
        "weighted-greedy" => Box::new(WeightedGreedyPolicy::default()),
        _ => return None,
    })
}

/// The members of a named roster, in column order, or `None` for an
/// unknown roster: `"comparison"` keeps plots readable, and `"standard"`
/// is every registered [`baseline`] (the Table 3 set).
pub fn roster(name: &str) -> Option<&'static [&'static str]> {
    match name {
        "comparison" => Some(&[
            "random",
            "first-fit",
            "greedy-latency",
            "greedy-cost",
            "cloud-only",
            "weighted-greedy",
        ]),
        "standard" => Some(&[
            "random",
            "first-fit",
            "best-fit",
            "worst-fit",
            "greedy-latency",
            "greedy-cost",
            "cloud-only",
            "weighted-greedy",
        ]),
        _ => None,
    }
}

/// Every baseline (the `"standard"` [`roster`]) as a boxed trait object,
/// for experiment loops.
pub fn standard_baselines() -> Vec<Box<dyn PlacementPolicy>> {
    roster("standard")
        .unwrap_or_default()
        .iter()
        .filter_map(|name| baseline(name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CandidateInfo;
    use rand::SeedableRng;
    use sfc::chain::{ChainId, ChainSpec};
    use sfc::request::{Request, RequestId};
    use sfc::vnf::VnfTypeId;

    fn ctx_with(candidates: Vec<CandidateInfo>) -> DecisionContext {
        let mut mask: Vec<bool> = candidates.iter().map(|c| c.feasible).collect();
        mask.push(true);
        DecisionContext {
            encoded_state: vec![0.0; 8],
            mask,
            request: Request::new(RequestId(0), ChainId(0), NodeId(0), 0, 1),
            chain: ChainSpec::new(ChainId(0), "t", vec![VnfTypeId(0)], 100.0, 0.1, 1.0),
            position: 0,
            at_node: NodeId(0),
            consumed_latency_ms: 0.0,
            candidates,
            slot: 0,
        }
    }

    fn candidate(
        i: usize,
        feasible: bool,
        lat: f64,
        cost: f64,
        util: f64,
        cloud: bool,
    ) -> CandidateInfo {
        CandidateInfo {
            node: NodeId(i),
            feasible,
            reuse_available: false,
            marginal_latency_ms: lat,
            marginal_cost_usd: cost,
            utilization: util,
            is_cloud: cloud,
        }
    }

    #[test]
    fn first_fit_picks_lowest_feasible_id() {
        let ctx = ctx_with(vec![
            candidate(0, false, 1.0, 0.1, 0.1, false),
            candidate(1, true, 9.0, 0.9, 0.9, false),
            candidate(2, true, 1.0, 0.1, 0.1, false),
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            FirstFitPolicy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(1))
        );
    }

    #[test]
    fn best_and_worst_fit_order_by_utilization() {
        let ctx = ctx_with(vec![
            candidate(0, true, 1.0, 0.1, 0.2, false),
            candidate(1, true, 1.0, 0.1, 0.8, false),
            candidate(2, true, 1.0, 0.1, 0.5, false),
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            BestFitPolicy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(1))
        );
        assert_eq!(
            WorstFitPolicy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(0))
        );
    }

    #[test]
    fn fit_rules_rank_the_edge_ties_to_the_lowest_id_and_the_cloud_last() {
        // Empty edge nodes tie; the cloud (last, as topologies build it)
        // holds a little load, which `max_by` used to prefer.
        let ctx = ctx_with(vec![
            candidate(0, false, 1.0, 0.1, 0.9, false),
            candidate(1, true, 1.0, 0.1, 0.0, false),
            candidate(2, true, 1.0, 0.1, 0.0, false),
            candidate(3, true, 1.0, 0.1, 0.001, true),
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        for policy in [
            &mut BestFitPolicy as &mut dyn PlacementPolicy,
            &mut WorstFitPolicy,
        ] {
            assert_eq!(
                policy.decide(&ctx, &mut rng),
                PlacementAction::Place(NodeId(1)),
                "{}",
                policy.name()
            );
        }
        // No edge node fits: the cloud.
        let ctx = ctx_with(vec![
            candidate(0, false, 1.0, 0.1, 0.9, false),
            candidate(1, true, 1.0, 0.1, 0.001, true),
        ]);
        assert_eq!(
            BestFitPolicy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(1))
        );
        assert_eq!(
            WorstFitPolicy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(1))
        );
    }

    #[test]
    fn greedy_latency_and_cost_pick_their_minima() {
        let ctx = ctx_with(vec![
            candidate(0, true, 5.0, 0.50, 0.1, false),
            candidate(1, true, 50.0, 0.01, 0.1, false),
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            GreedyLatencyPolicy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(0))
        );
        assert_eq!(
            GreedyCostPolicy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(1))
        );
    }

    #[test]
    fn cloud_only_requires_cloud() {
        let no_cloud = ctx_with(vec![candidate(0, true, 1.0, 0.1, 0.1, false)]);
        let with_cloud = ctx_with(vec![
            candidate(0, true, 1.0, 0.1, 0.1, false),
            candidate(1, true, 40.0, 0.05, 0.0, true),
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            CloudOnlyPolicy.decide(&no_cloud, &mut rng),
            PlacementAction::Reject
        );
        assert_eq!(
            CloudOnlyPolicy.decide(&with_cloud, &mut rng),
            PlacementAction::Place(NodeId(1))
        );
    }

    #[test]
    fn all_policies_reject_when_nothing_feasible() {
        let ctx = ctx_with(vec![candidate(0, false, 1.0, 0.1, 0.1, false)]);
        let mut rng = StdRng::seed_from_u64(0);
        for mut p in standard_baselines() {
            assert_eq!(
                p.decide(&ctx, &mut rng),
                PlacementAction::Reject,
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn random_only_picks_feasible() {
        let ctx = ctx_with(vec![
            candidate(0, false, 1.0, 0.1, 0.1, false),
            candidate(1, true, 1.0, 0.1, 0.1, false),
            candidate(2, false, 1.0, 0.1, 0.1, false),
        ]);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            assert_eq!(
                RandomPolicy.decide(&ctx, &mut rng),
                PlacementAction::Place(NodeId(1))
            );
        }
    }

    #[test]
    fn random_draws_what_the_collected_form_drew() {
        // The reference is the collect-and-index form `decide` replaced:
        // the same rng, fed the same contexts, must yield the same nodes.
        fn collected(ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
            let feasible: Vec<NodeId> = ctx.feasible_candidates().map(|c| c.node).collect();
            if feasible.is_empty() {
                PlacementAction::Reject
            } else {
                PlacementAction::Place(feasible[rng.gen_range(0..feasible.len())])
            }
        }
        let mut masks = StdRng::seed_from_u64(0x5eed);
        for seed in 0..64u64 {
            let width = masks.gen_range(1..24usize);
            let ctx = ctx_with(
                (0..width)
                    .map(|i| candidate(i, masks.gen_bool(0.4), 1.0, 0.1, 0.1, false))
                    .collect(),
            );
            let mut ours = StdRng::seed_from_u64(seed);
            let mut theirs = StdRng::seed_from_u64(seed);
            for _ in 0..16 {
                assert_eq!(
                    RandomPolicy.decide(&ctx, &mut ours),
                    collected(&ctx, &mut theirs),
                    "seed {seed}, width {width}"
                );
            }
            assert_eq!(ours.gen::<u64>(), theirs.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn weighted_greedy_interpolates() {
        let ctx = ctx_with(vec![
            candidate(0, true, 5.0, 0.50, 0.1, false), // fast, expensive
            candidate(1, true, 100.0, 0.001, 0.1, false), // slow, cheap
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut lat_heavy = WeightedGreedyPolicy {
            alpha: 10.0,
            beta: 0.01,
            ..Default::default()
        };
        let mut cost_heavy = WeightedGreedyPolicy {
            alpha: 0.01,
            beta: 10.0,
            ..Default::default()
        };
        assert_eq!(
            lat_heavy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(0))
        );
        assert_eq!(
            cost_heavy.decide(&ctx, &mut rng),
            PlacementAction::Place(NodeId(1))
        );
    }

    #[test]
    fn registry_names_build_their_own_policies() {
        let standard = roster("standard").unwrap_or_default();
        assert_eq!(standard.len(), 8, "the standard roster is every baseline");
        for &name in standard {
            let built = baseline(name).map(|p| p.name());
            assert_eq!(built.as_deref(), Some(name), "label must equal name()");
        }
        for roster_name in ["comparison", "standard"] {
            let members = roster(roster_name).unwrap_or_default();
            assert!(!members.is_empty(), "{roster_name}");
            for name in members {
                assert!(standard.contains(name), "{roster_name}: {name}");
            }
        }
        assert!(baseline("frist-fit").is_none());
        assert!(baseline("exhaustive").is_none());
        assert!(roster("no-such-roster").is_none());
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = standard_baselines().iter().map(|p| p.name()).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
