//! Per-node capacities, the one half of "does this node have room".
//!
//! The ledger holds only what each node can host; what already runs there
//! is the instance pool's to know (`sfc::instance::InstancePool` keeps a
//! per-node running sum of its live instances' demand). Utilization and
//! fit therefore take that usage from the caller.

use crate::node::{NodeId, Resources};
use crate::topology::Topology;

/// Reasons a capacity lookup can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacityError {
    /// The node id does not exist in the ledger.
    UnknownNode(NodeId),
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityError::UnknownNode(node) => write!(f, "unknown node {node}"),
        }
    }
}

impl std::error::Error for CapacityError {}

/// The current capacity of every node. A method given an out-of-range
/// node panics, except [`CapacityLedger::capacity_of`], which returns an
/// error.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityLedger {
    capacity: Vec<Resources>,
}

impl CapacityLedger {
    /// Builds a ledger at the topology's as-built capacities.
    pub fn for_topology(topology: &Topology) -> Self {
        Self::from_capacities(topology.nodes().iter().map(|n| n.capacity).collect())
    }

    /// Builds a ledger from explicit capacities (tests and tools).
    pub fn from_capacities(capacity: Vec<Resources>) -> Self {
        Self { capacity }
    }

    /// Number of tracked nodes.
    pub fn node_count(&self) -> usize {
        self.capacity.len()
    }

    /// Total capacity of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError::UnknownNode`] for out-of-range ids.
    pub fn capacity_of(&self, node: NodeId) -> Result<Resources, CapacityError> {
        self.capacity
            .get(node.0)
            .copied()
            .ok_or(CapacityError::UnknownNode(node))
    }

    /// Dominant utilization fraction at `node` (max over CPU/mem) when
    /// `used` runs there, clamped to `[0, 1]`.
    pub fn utilization_of(&self, node: NodeId, used: &Resources) -> f64 {
        self.capacity[node.0].dominant_utilization(used).min(1.0)
    }

    /// `true` if `demand` fits at `node` next to the `used` already there.
    pub fn fits(&self, node: NodeId, used: &Resources, demand: &Resources) -> bool {
        self.capacity[node.0].minus_saturating(used).fits(demand)
    }

    /// Replaces the tracked capacity of `node` (hardware degradation or a
    /// recovered node rejoining at full strength). Usage may then exceed
    /// the new capacity, in which case nothing further fits until flows
    /// drain.
    pub fn set_capacity(&mut self, node: NodeId, capacity: Resources) {
        self.capacity[node.0] = capacity;
    }

    /// Mean dominant utilization across all nodes, `used_on(node)` being
    /// the usage at each.
    pub fn mean_utilization(&self, used_on: impl Fn(NodeId) -> Resources) -> f64 {
        if self.capacity.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.capacity.len())
            .map(|i| self.utilization_of(NodeId(i), &used_on(NodeId(i))))
            .sum();
        sum / self.capacity.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> CapacityLedger {
        CapacityLedger::from_capacities(vec![Resources::new(8.0, 16.0), Resources::new(4.0, 8.0)])
    }

    #[test]
    fn exact_fit_allowed() {
        let l = ledger();
        let full = Resources::new(4.0, 8.0);
        assert!(l.fits(NodeId(1), &Resources::zero(), &full));
        assert!((l.utilization_of(NodeId(1), &full) - 1.0).abs() < 1e-9);
        assert!(!l.fits(NodeId(1), &full, &Resources::new(0.1, 0.0)));
    }

    #[test]
    fn unknown_node_errors() {
        assert!(matches!(
            ledger().capacity_of(NodeId(9)),
            Err(CapacityError::UnknownNode(_))
        ));
    }

    #[test]
    fn mean_utilization_averages_nodes() {
        let l = ledger();
        let used = |n: NodeId| {
            if n == NodeId(0) {
                Resources::new(4.0, 0.0) // 50% dominant
            } else {
                Resources::zero()
            }
        };
        assert!((l.mean_utilization(used) - 0.25).abs() < 1e-9); // (0.5 + 0) / 2
    }

    #[test]
    fn set_capacity_degrades_and_restores() {
        let mut l = ledger();
        let used = Resources::new(6.0, 6.0);
        // Degrade below current usage: nothing further fits and
        // utilization clamps at 1.
        l.set_capacity(NodeId(0), Resources::new(4.0, 8.0));
        assert!(!l.fits(NodeId(0), &used, &Resources::new(0.1, 0.1)));
        assert!((l.utilization_of(NodeId(0), &used) - 1.0).abs() < 1e-9);
        // Restore: headroom returns.
        l.set_capacity(NodeId(0), Resources::new(8.0, 16.0));
        assert!(l.fits(NodeId(0), &used, &Resources::new(2.0, 4.0)));
    }

    #[test]
    #[should_panic]
    fn unknown_node_panics_outside_capacity_of() {
        ledger().fits(NodeId(9), &Resources::zero(), &Resources::zero());
    }

    #[test]
    fn error_display_is_informative() {
        let text = CapacityError::UnknownNode(NodeId(2)).to_string();
        assert!(text.contains("n2"));
    }
}
