//! State encoding: the fixed-length feature vector the DQN observes.
//!
//! Layout (N = node count, C = chain-type count):
//!
//! | range | feature |
//! |-------|---------|
//! | `0..N` | per-node CPU utilization |
//! | `N..2N` | per-node memory utilization |
//! | `2N..3N` | per-node reusable-instance indicator for the *next* VNF (0/0.5/1: none / instance exists / instance with headroom) |
//! | `3N..4N` | one-hot source node of the pending request |
//! | `4N..5N` | one-hot "current" node (location of the previously placed VNF) |
//! | `5N..6N` | per-node normalized marginal latency of placing the next VNF there (1.0 if infeasible) |
//! | `6N..7N` | per-node normalized marginal monetary cost (1.0 if infeasible) |
//! | `7N..7N+C` | one-hot chain type |
//! | `+0` | chain position fraction (`pos / len`) |
//! | `+1` | remaining-VNF fraction (`(len-pos) / max_len`) |
//! | `+2` | remaining latency budget fraction |
//! | `+3` | slot-phase sine |
//! | `+4` | slot-phase cosine |
//! | `+5` | live-node fraction (network health) |
//! | `+6` | capacity-loss fraction (network health) |

use crate::policy::CandidateInfo;
use edgenet::capacity::CapacityLedger;
use edgenet::node::NodeId;
use edgenet::view::NetworkHealth;
use sfc::chain::{ChainCatalog, ChainSpec};
use sfc::instance::InstancePool;
use sfc::vnf::VnfCatalog;

/// Normalization scale for the marginal-latency features (ms). Latencies
/// at or above this encode as `1.0`.
const MARGINAL_LATENCY_SCALE_MS: f64 = 200.0;

/// Normalization scale for the marginal-cost features (USD).
const MARGINAL_COST_SCALE_USD: f64 = 0.2;

/// Configuration of the state encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEncoderConfig {
    /// Number of nodes in the topology (including cloud).
    pub node_count: usize,
    /// Number of chain types in the catalog.
    pub chain_count: usize,
    /// Longest chain length (for the remaining-VNF normalization).
    pub max_chain_len: usize,
    /// Slots per diurnal period for the phase features (0 disables phase).
    pub phase_period_slots: u64,
}

/// Encodes simulation state into the DQN's observation vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEncoder {
    config: StateEncoderConfig,
}

impl StateEncoder {
    /// Creates an encoder.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(config: StateEncoderConfig) -> Self {
        assert!(config.node_count > 0, "node count must be positive");
        assert!(config.chain_count > 0, "chain count must be positive");
        assert!(
            config.max_chain_len > 0,
            "max chain length must be positive"
        );
        Self { config }
    }

    /// Builds the encoder for a concrete catalog pair.
    pub fn for_catalogs(node_count: usize, chains: &ChainCatalog, phase_period_slots: u64) -> Self {
        Self::new(StateEncoderConfig {
            node_count,
            chain_count: chains.chain_count(),
            max_chain_len: chains.max_chain_len(),
            phase_period_slots,
        })
    }

    /// Dimension of the encoded vector.
    pub fn dim(&self) -> usize {
        7 * self.config.node_count + self.config.chain_count + 7
    }

    /// The encoder's configuration.
    pub fn config(&self) -> StateEncoderConfig {
        self.config
    }

    /// Encodes one decision point.
    ///
    /// * `chain`/`position` — pending request's chain and the index of the
    ///   VNF being placed next.
    /// * `at_node` — where the previous VNF landed (or the request source
    ///   for position 0).
    /// * `consumed_latency_ms` — latency already accumulated by earlier
    ///   hops of this chain.
    /// * `health` — aggregate network degradation (live-node and
    ///   capacity-loss fractions) so policies can condition on failures.
    /// * `candidates` — per-node placement candidates (marginal latency /
    ///   cost features, and `reuse_available` for the reuse indicator);
    ///   must have exactly `node_count` entries, built against this `pool`
    ///   for this `chain`/`position` and `max_instance_utilization`
    ///   (checked in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range for the configured sizes.
    #[allow(clippy::too_many_arguments)]
    pub fn encode(
        &self,
        ledger: &CapacityLedger,
        pool: &InstancePool,
        vnfs: &VnfCatalog,
        chain: &ChainSpec,
        position: usize,
        source: NodeId,
        at_node: NodeId,
        consumed_latency_ms: f64,
        max_instance_utilization: f64,
        slot: u64,
        health: NetworkHealth,
        candidates: &[CandidateInfo],
    ) -> Vec<f32> {
        let mut out = Vec::new();
        self.encode_into(
            ledger,
            pool,
            vnfs,
            chain,
            position,
            source,
            at_node,
            consumed_latency_ms,
            max_instance_utilization,
            slot,
            health,
            candidates,
            &mut out,
        );
        out
    }

    /// [`StateEncoder::encode`] into a caller-owned buffer: the vector is
    /// cleared and zero-filled to [`StateEncoder::dim`], so a warm buffer
    /// makes every encoding allocation-free. Identical writes in identical
    /// order — the result matches [`StateEncoder::encode`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range for the configured sizes.
    #[allow(clippy::too_many_arguments)]
    pub fn encode_into(
        &self,
        ledger: &CapacityLedger,
        pool: &InstancePool,
        vnfs: &VnfCatalog,
        chain: &ChainSpec,
        position: usize,
        source: NodeId,
        at_node: NodeId,
        consumed_latency_ms: f64,
        max_instance_utilization: f64,
        slot: u64,
        health: NetworkHealth,
        candidates: &[CandidateInfo],
        out: &mut Vec<f32>,
    ) {
        let n = self.config.node_count;
        assert!(
            source.0 < n && at_node.0 < n,
            "node out of range for encoder"
        );
        assert!(
            chain.id.0 < self.config.chain_count,
            "chain out of range for encoder"
        );
        assert!(
            position < chain.len(),
            "position {position} out of range for chain of {}",
            chain.len()
        );
        assert_eq!(candidates.len(), n, "candidate list must cover every node");

        let v = out;
        v.clear();
        v.resize(self.dim(), 0.0);
        // Per-node utilizations: the ledger's capacity against the pool's
        // usage.
        for i in 0..n {
            let cap = ledger
                .capacity_of(NodeId(i))
                .expect("ledger covers topology");
            let used = pool.used_on(NodeId(i));
            let cpu_u = if cap.cpu > 0.0 {
                (used.cpu / cap.cpu).min(1.0)
            } else {
                0.0
            };
            let mem_u = if cap.mem > 0.0 {
                (used.mem / cap.mem).min(1.0)
            } else {
                0.0
            };
            v[i] = cpu_u as f32;
            v[n + i] = mem_u as f32;
        }
        // Reusable-instance indicator for the next VNF type. The candidate
        // builder has just applied the engine's reuse rule at every site
        // with these same arguments, so 1.0 is its answer and the pool is
        // only asked whether the site holds an instance at all.
        let next_type = chain.vnfs[position];
        let mu = vnfs.get(next_type).service_rate_rps;
        for (i, c) in candidates.iter().enumerate() {
            debug_assert_eq!(
                c.reuse_available,
                pool.instances_of(next_type, NodeId(i)).any(|inst| {
                    sfc::delay::admits_load(
                        mu,
                        inst.lambda_rps,
                        chain.arrival_rate_rps,
                        max_instance_utilization,
                    )
                }),
                "candidate {i} was not built against this pool and chain position"
            );
            if c.reuse_available {
                v[2 * n + i] = 1.0;
            } else if pool.instances_of(next_type, NodeId(i)).len() > 0 {
                v[2 * n + i] = 0.5;
            }
        }
        // One-hots.
        v[3 * n + source.0] = 1.0;
        v[4 * n + at_node.0] = 1.0;
        // Candidate marginal features: what each node would cost right now.
        for (i, c) in candidates.iter().enumerate() {
            let (lat, cost) = if c.feasible {
                (
                    (c.marginal_latency_ms / MARGINAL_LATENCY_SCALE_MS).clamp(0.0, 1.0),
                    (c.marginal_cost_usd / MARGINAL_COST_SCALE_USD).clamp(0.0, 1.0),
                )
            } else {
                (1.0, 1.0)
            };
            v[5 * n + i] = lat as f32;
            v[6 * n + i] = cost as f32;
        }
        v[7 * n + chain.id.0] = 1.0;
        // Scalars.
        let base = 7 * n + self.config.chain_count;
        v[base] = position as f32 / chain.len() as f32;
        v[base + 1] = (chain.len() - position) as f32 / self.config.max_chain_len as f32;
        let remaining_budget = ((chain.latency_budget_ms - consumed_latency_ms)
            / chain.latency_budget_ms)
            .clamp(-1.0, 1.0);
        v[base + 2] = remaining_budget as f32;
        if self.config.phase_period_slots > 0 {
            let angle = 2.0 * std::f64::consts::PI * (slot % self.config.phase_period_slots) as f64
                / self.config.phase_period_slots as f64;
            v[base + 3] = angle.sin() as f32;
            v[base + 4] = angle.cos() as f32;
        }
        // Network health: 1.0 / 0.0 on a fully healthy network, so the
        // features are inert for static scenarios.
        v[base + 5] = health.live_node_fraction.clamp(0.0, 1.0) as f32;
        v[base + 6] = health.capacity_loss_fraction.clamp(0.0, 1.0) as f32;
    }

    /// A zero vector of the right dimension (terminal next-state filler).
    pub fn zero_state(&self) -> Vec<f32> {
        vec![0.0; self.dim()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenet::node::Resources;
    use sfc::chain::ChainId;

    struct Fixture {
        encoder: StateEncoder,
        ledger: CapacityLedger,
        pool: InstancePool,
        vnfs: VnfCatalog,
        chains: ChainCatalog,
    }

    fn fixture() -> Fixture {
        let vnfs = VnfCatalog::standard();
        let chains = ChainCatalog::standard(&vnfs);
        let encoder = StateEncoder::for_catalogs(4, &chains, 100);
        let ledger = CapacityLedger::from_capacities(vec![Resources::new(16.0, 32.0); 4]);
        Fixture {
            encoder,
            ledger,
            pool: InstancePool::new(),
            vnfs,
            chains,
        }
    }

    fn candidates(n: usize) -> Vec<CandidateInfo> {
        (0..n)
            .map(|i| CandidateInfo {
                node: NodeId(i),
                feasible: true,
                reuse_available: false,
                marginal_latency_ms: 20.0 * (i + 1) as f64,
                marginal_cost_usd: 0.02 * (i + 1) as f64,
                utilization: 0.0,
                is_cloud: false,
            })
            .collect()
    }

    #[test]
    fn dimension_formula() {
        let f = fixture();
        // 7*4 + 4 chains + 7 scalars = 39.
        assert_eq!(f.encoder.dim(), 39);
        assert_eq!(f.encoder.zero_state().len(), 39);
    }

    #[test]
    fn encodes_utilization_and_one_hots() {
        let mut f = fixture();
        // A video transcoder demands 8 of node 1's 16 vCPU.
        let transcoder = f.vnfs.by_name("video-transcoder").unwrap().id;
        f.pool.spawn(transcoder, NodeId(1), 0, &f.vnfs);
        let chain = f.chains.get(ChainId(0)).clone();
        let v = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(2),
            NodeId(2),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        assert!((v[1] - 0.5).abs() < 1e-6, "cpu util of node 1");
        assert_eq!(v[0], 0.0);
        // Source one-hot at 3n+2, at-node one-hot at 4n+2, chain one-hot at 7n+0.
        assert_eq!(v[3 * 4 + 2], 1.0);
        assert_eq!(v[4 * 4 + 2], 1.0);
        assert_eq!(v[7 * 4], 1.0);
    }

    #[test]
    fn marginal_features_are_normalized_and_ordered() {
        let f = fixture();
        let chain = f.chains.get(ChainId(0)).clone();
        let v = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        // Latencies 20/40/60/80 ms over a 200 ms scale.
        for i in 0..4 {
            let expected = 20.0 * (i + 1) as f32 / 200.0;
            assert!(
                (v[5 * 4 + i] - expected).abs() < 1e-6,
                "latency feature {i}"
            );
        }
        // Costs 0.02·(i+1) over a 0.2 scale.
        assert!((v[6 * 4] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn infeasible_candidates_encode_as_one() {
        let f = fixture();
        let chain = f.chains.get(ChainId(0)).clone();
        let mut cands = candidates(4);
        cands[2].feasible = false;
        let v = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &cands,
        );
        assert_eq!(v[5 * 4 + 2], 1.0);
        assert_eq!(v[6 * 4 + 2], 1.0);
    }

    #[test]
    fn reuse_indicator_reflects_headroom() {
        let mut f = fixture();
        let chain = f.chains.get(ChainId(1)).clone(); // nat, firewall
        let nat = chain.vnfs[0];
        let id = f.pool.spawn(nat, NodeId(0), 0, &f.vnfs);
        let mut reusable = candidates(4);
        reusable[0].reuse_available = true;
        let v = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &reusable,
        );
        assert_eq!(v[2 * 4], 1.0, "fresh instance has headroom");
        // Saturate the instance.
        let mu = f.vnfs.get(nat).service_rate_rps;
        f.pool.add_flow(id, mu).unwrap();
        let v = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        assert_eq!(
            v[2 * 4],
            0.5,
            "saturated instance exists but lacks headroom"
        );
        // Other nodes have none.
        assert_eq!(v[2 * 4 + 1], 0.0);
    }

    #[test]
    fn budget_fraction_decreases_with_consumption() {
        let f = fixture();
        let chain = f.chains.get(ChainId(1)).clone();
        let base = 7 * 4 + 4;
        let fresh = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        let spent = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            1,
            NodeId(0),
            NodeId(0),
            chain.latency_budget_ms * 0.5,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        assert!((fresh[base + 2] - 1.0).abs() < 1e-6);
        assert!((spent[base + 2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn over_budget_clamps_to_minus_one() {
        let f = fixture();
        let chain = f.chains.get(ChainId(1)).clone();
        let base = 7 * 4 + 4;
        let v = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            1,
            NodeId(0),
            NodeId(0),
            chain.latency_budget_ms * 99.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        assert_eq!(v[base + 2], -1.0);
    }

    #[test]
    fn phase_features_rotate() {
        let f = fixture();
        let chain = f.chains.get(ChainId(0)).clone();
        let base = 7 * 4 + 4;
        let at0 = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        let at25 = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            25,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        assert!((at0[base + 3] - 0.0).abs() < 1e-6);
        assert!((at0[base + 4] - 1.0).abs() < 1e-6);
        assert!((at25[base + 3] - 1.0).abs() < 1e-6, "quarter period sine");
    }

    #[test]
    fn health_features_reflect_degradation() {
        let f = fixture();
        let chain = f.chains.get(ChainId(0)).clone();
        let base = 7 * 4 + 4;
        let degraded = NetworkHealth {
            live_node_fraction: 0.75,
            capacity_loss_fraction: 0.4,
        };
        let v = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            degraded,
            &candidates(4),
        );
        assert!((v[base + 5] - 0.75).abs() < 1e-6);
        assert!((v[base + 6] - 0.4).abs() < 1e-6);
        // Healthy networks encode as the inert (1, 0) pair.
        let healthy = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        assert_eq!(healthy[base + 5], 1.0);
        assert_eq!(healthy[base + 6], 0.0);
    }

    #[test]
    fn all_features_bounded() {
        let mut f = fixture();
        // Two video transcoders fill node 0 (16 vCPU, 32 GB).
        let transcoder = f.vnfs.by_name("video-transcoder").unwrap().id;
        f.pool.spawn(transcoder, NodeId(0), 0, &f.vnfs);
        f.pool.spawn(transcoder, NodeId(0), 0, &f.vnfs);
        let chain = f.chains.get(ChainId(3)).clone();
        let v = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            4,
            NodeId(3),
            NodeId(1),
            10.0,
            0.9,
            77,
            NetworkHealth::healthy(),
            &candidates(4),
        );
        for (i, &x) in v.iter().enumerate() {
            assert!((-1.0..=1.0).contains(&x), "feature {i} = {x} out of [-1,1]");
        }
    }

    #[test]
    #[should_panic(expected = "position")]
    fn bad_position_panics() {
        let f = fixture();
        let chain = f.chains.get(ChainId(1)).clone(); // length 2
        let _ = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            2,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(4),
        );
    }

    #[test]
    #[should_panic(expected = "candidate list")]
    fn wrong_candidate_count_panics() {
        let f = fixture();
        let chain = f.chains.get(ChainId(0)).clone();
        let _ = f.encoder.encode(
            &f.ledger,
            &f.pool,
            &f.vnfs,
            &chain,
            0,
            NodeId(0),
            NodeId(0),
            0.0,
            0.9,
            0,
            NetworkHealth::healthy(),
            &candidates(2),
        );
    }
}
