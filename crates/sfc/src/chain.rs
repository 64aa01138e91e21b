//! Service function chains: ordered VNF sequences with SLA budgets.

use crate::vnf::{VnfCatalog, VnfTypeId};
use edgenet::node::Resources;

/// Identifier of a chain specification (dense within a [`ChainCatalog`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChainId(pub usize);

impl std::fmt::Display for ChainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sfc{}", self.0)
    }
}

/// A service function chain specification.
#[derive(Debug, PartialEq)]
pub struct ChainSpec {
    /// Dense id within the catalog.
    pub id: ChainId,
    /// Human-readable name.
    pub name: String,
    /// Ordered VNF types traffic must traverse.
    pub vnfs: Vec<VnfTypeId>,
    /// End-to-end latency SLA in milliseconds (one-way through the chain).
    pub latency_budget_ms: f64,
    /// Mean per-request traffic volume through the chain, in GB.
    pub traffic_gb: f64,
    /// Mean request intensity one admitted flow adds to each traversed
    /// instance, in requests/second (the M/M/1 λ contribution).
    pub arrival_rate_rps: f64,
}

/// Written out for `clone_from`: the derived one is `*self = source.clone()`,
/// which reallocates the name and the VNF list; this one reuses both
/// buffers, so the engine's recycled decision context re-targets at a
/// request's chain without touching the heap.
impl Clone for ChainSpec {
    fn clone(&self) -> Self {
        Self {
            id: self.id,
            name: self.name.clone(),
            vnfs: self.vnfs.clone(),
            latency_budget_ms: self.latency_budget_ms,
            traffic_gb: self.traffic_gb,
            arrival_rate_rps: self.arrival_rate_rps,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured so that a new field fails to compile here.
        let Self {
            id,
            name,
            vnfs,
            latency_budget_ms,
            traffic_gb,
            arrival_rate_rps,
        } = source;
        self.id = *id;
        self.name.clone_from(name);
        self.vnfs.clone_from(vnfs);
        self.latency_budget_ms = *latency_budget_ms;
        self.traffic_gb = *traffic_gb;
        self.arrival_rate_rps = *arrival_rate_rps;
    }
}

impl ChainSpec {
    /// Creates a chain spec.
    ///
    /// # Panics
    ///
    /// Panics if the VNF list is empty or numeric parameters are not
    /// positive/finite.
    pub fn new(
        id: ChainId,
        name: impl Into<String>,
        vnfs: Vec<VnfTypeId>,
        latency_budget_ms: f64,
        traffic_gb: f64,
        arrival_rate_rps: f64,
    ) -> Self {
        assert!(!vnfs.is_empty(), "chain must contain at least one VNF");
        assert!(
            latency_budget_ms.is_finite() && latency_budget_ms > 0.0,
            "latency budget must be positive"
        );
        assert!(
            traffic_gb.is_finite() && traffic_gb >= 0.0,
            "traffic must be non-negative"
        );
        assert!(
            arrival_rate_rps.is_finite() && arrival_rate_rps > 0.0,
            "arrival rate must be positive"
        );
        Self {
            id,
            name: name.into(),
            vnfs,
            latency_budget_ms,
            traffic_gb,
            arrival_rate_rps,
        }
    }

    /// Chain length (number of VNFs).
    pub fn len(&self) -> usize {
        self.vnfs.len()
    }

    /// `true` if the chain has no VNFs (cannot occur for validated specs).
    pub fn is_empty(&self) -> bool {
        self.vnfs.is_empty()
    }

    /// Total resources one dedicated instance of each VNF would need.
    pub fn total_demand(&self, catalog: &VnfCatalog) -> Resources {
        self.vnfs.iter().fold(Resources::zero(), |acc, &id| {
            acc.plus(&catalog.get(id).demand)
        })
    }
}

/// An immutable set of chain specifications.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainCatalog {
    chains: Vec<ChainSpec>,
}

impl ChainCatalog {
    /// Builds a catalog, validating ids and VNF references.
    ///
    /// # Panics
    ///
    /// Panics if ids are not dense or a chain references a VNF type outside
    /// `vnf_catalog`.
    pub fn new(chains: Vec<ChainSpec>, vnf_catalog: &VnfCatalog) -> Self {
        assert!(!chains.is_empty(), "catalog needs at least one chain");
        for (i, c) in chains.iter().enumerate() {
            assert_eq!(c.id.0, i, "chain ids must be dense 0..n in order");
            for &v in &c.vnfs {
                assert!(
                    v.0 < vnf_catalog.type_count(),
                    "chain {} references unknown {v}",
                    c.name
                );
            }
        }
        Self { chains }
    }

    /// The four service chains used across the experiments, spanning the
    /// canonical NFV use-cases (lengths 2–5, tight and loose SLAs).
    ///
    /// Requires [`VnfCatalog::standard`].
    pub fn standard(vnf_catalog: &VnfCatalog) -> Self {
        let id = |name: &str| {
            vnf_catalog
                .by_name(name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .id
        };
        Self::new(
            vec![
                ChainSpec::new(
                    ChainId(0),
                    "web-service",
                    vec![id("nat"), id("firewall"), id("load-balancer")],
                    60.0,
                    0.05,
                    20.0,
                ),
                ChainSpec::new(
                    ChainId(1),
                    "voip",
                    vec![id("nat"), id("firewall")],
                    30.0,
                    0.01,
                    10.0,
                ),
                ChainSpec::new(
                    ChainId(2),
                    "video-streaming",
                    vec![
                        id("nat"),
                        id("firewall"),
                        id("video-transcoder"),
                        id("proxy"),
                    ],
                    120.0,
                    0.50,
                    5.0,
                ),
                ChainSpec::new(
                    ChainId(3),
                    "enterprise-vpn",
                    vec![
                        id("nat"),
                        id("encryption-gw"),
                        id("firewall"),
                        id("wan-optimizer"),
                        id("ids"),
                    ],
                    150.0,
                    0.10,
                    8.0,
                ),
            ],
            vnf_catalog,
        )
    }

    /// All chains, ordered by id.
    pub fn chains(&self) -> &[ChainSpec] {
        &self.chains
    }

    /// Number of chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Chain by id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, id: ChainId) -> &ChainSpec {
        &self.chains[id.0]
    }

    /// Longest chain length in the catalog.
    pub fn max_chain_len(&self) -> usize {
        self.chains.iter().map(ChainSpec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_chains_reference_valid_vnfs() {
        let vnfs = VnfCatalog::standard();
        let chains = ChainCatalog::standard(&vnfs);
        assert_eq!(chains.chain_count(), 4);
        assert_eq!(chains.max_chain_len(), 5);
        for c in chains.chains() {
            assert!(!c.is_empty());
            assert!(c.latency_budget_ms > 0.0);
        }
    }

    #[test]
    fn voip_has_tightest_budget() {
        let vnfs = VnfCatalog::standard();
        let chains = ChainCatalog::standard(&vnfs);
        let voip = chains.get(ChainId(1));
        for c in chains.chains() {
            assert!(voip.latency_budget_ms <= c.latency_budget_ms);
        }
    }

    #[test]
    fn total_demand_sums_vnfs() {
        let vnfs = VnfCatalog::standard();
        let chains = ChainCatalog::standard(&vnfs);
        let web = chains.get(ChainId(0));
        let d = web.total_demand(&vnfs);
        // nat (1) + firewall (2) + lb (2) = 5 vCPU.
        assert!((d.cpu - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "references unknown")]
    fn unknown_vnf_rejected() {
        let vnfs = VnfCatalog::standard();
        let bad = ChainSpec::new(ChainId(0), "bad", vec![VnfTypeId(99)], 10.0, 0.1, 1.0);
        let _ = ChainCatalog::new(vec![bad], &vnfs);
    }

    #[test]
    #[should_panic(expected = "at least one VNF")]
    fn empty_chain_rejected() {
        let _ = ChainSpec::new(ChainId(0), "empty", vec![], 10.0, 0.1, 1.0);
    }
}
