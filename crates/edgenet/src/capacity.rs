//! Per-node resource accounting with allocation handles.
//!
//! The ledger is the single source of truth for "does this node have room";
//! every placement decision in the orchestrator goes through it, and the
//! property tests assert alloc/free round-trips restore the exact state.

use crate::node::{NodeId, Resources};
use crate::topology::Topology;

/// Reasons a capacity operation can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacityError {
    /// The demand exceeds remaining capacity at the node.
    Insufficient {
        /// The node that rejected the allocation.
        node: NodeId,
        /// What was requested.
        requested: Resources,
        /// What remained available.
        available: Resources,
    },
    /// The node id does not exist in the ledger.
    UnknownNode(NodeId),
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityError::Insufficient { node, requested, available } => write!(
                f,
                "insufficient capacity at {node}: requested {:.2} vCPU / {:.2} GB, available {:.2} vCPU / {:.2} GB",
                requested.cpu, requested.mem, available.cpu, available.mem
            ),
            CapacityError::UnknownNode(node) => write!(f, "unknown node {node}"),
        }
    }
}

impl std::error::Error for CapacityError {}

/// Tracks used resources per node against fixed capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityLedger {
    capacity: Vec<Resources>,
    used: Vec<Resources>,
}

impl CapacityLedger {
    /// Builds a ledger with all nodes empty.
    pub fn for_topology(topology: &Topology) -> Self {
        let capacity: Vec<Resources> = topology.nodes().iter().map(|n| n.capacity).collect();
        let used = vec![Resources::zero(); capacity.len()];
        Self { capacity, used }
    }

    /// Builds a ledger from explicit capacities (tests and tools).
    pub fn from_capacities(capacities: Vec<Resources>) -> Self {
        let used = vec![Resources::zero(); capacities.len()];
        Self {
            capacity: capacities,
            used,
        }
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

    /// Currently used resources at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError::UnknownNode`] for out-of-range ids.
    pub fn used_of(&self, node: NodeId) -> Result<Resources, CapacityError> {
        self.used
            .get(node.0)
            .copied()
            .ok_or(CapacityError::UnknownNode(node))
    }

    /// Remaining free resources at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError::UnknownNode`] for out-of-range ids.
    pub fn available_of(&self, node: NodeId) -> Result<Resources, CapacityError> {
        Ok(self
            .capacity_of(node)?
            .minus_saturating(&self.used_of(node)?))
    }

    /// Dominant utilization fraction at `node` (max over CPU/mem), in `[0,1]`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError::UnknownNode`] for out-of-range ids.
    pub fn utilization_of(&self, node: NodeId) -> Result<f64, CapacityError> {
        Ok(self
            .capacity_of(node)?
            .dominant_utilization(&self.used_of(node)?)
            .min(1.0))
    }

    /// `true` if `demand` currently fits at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError::UnknownNode`] for out-of-range ids.
    pub fn fits(&self, node: NodeId, demand: &Resources) -> Result<bool, CapacityError> {
        Ok(self.available_of(node)?.fits(demand))
    }

    /// Reserves `demand` at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError::Insufficient`] (state unchanged) if the
    /// demand does not fit, or [`CapacityError::UnknownNode`].
    pub fn allocate(&mut self, node: NodeId, demand: &Resources) -> Result<(), CapacityError> {
        let available = self.available_of(node)?;
        if !available.fits(demand) {
            return Err(CapacityError::Insufficient {
                node,
                requested: *demand,
                available,
            });
        }
        self.used[node.0] = self.used[node.0].plus(demand);
        Ok(())
    }

    /// Releases `demand` at `node`. Saturates at zero (releasing more than
    /// allocated is a logic error upstream but must not corrupt the ledger).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError::UnknownNode`] for out-of-range ids.
    pub fn release(&mut self, node: NodeId, demand: &Resources) -> Result<(), CapacityError> {
        if node.0 >= self.used.len() {
            return Err(CapacityError::UnknownNode(node));
        }
        self.used[node.0] = self.used[node.0].minus_saturating(demand);
        Ok(())
    }

    /// Replaces the tracked capacity of `node` (hardware degradation or a
    /// recovered node rejoining at full strength). Usage is left
    /// untouched: it may temporarily exceed the new capacity, in which
    /// case nothing further fits until flows drain.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError::UnknownNode`] for out-of-range ids.
    pub fn set_capacity(&mut self, node: NodeId, capacity: Resources) -> Result<(), CapacityError> {
        if node.0 >= self.capacity.len() {
            return Err(CapacityError::UnknownNode(node));
        }
        self.capacity[node.0] = capacity;
        Ok(())
    }

    /// Resets all usage to zero.
    pub fn clear(&mut self) {
        for u in &mut self.used {
            *u = Resources::zero();
        }
    }

    /// Mean dominant utilization across all nodes.
    pub fn mean_utilization(&self) -> f64 {
        if self.capacity.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.capacity.len())
            .map(|i| {
                self.capacity[i]
                    .dominant_utilization(&self.used[i])
                    .min(1.0)
            })
            .sum();
        sum / self.capacity.len() as f64
    }

    /// Total used CPU across all nodes.
    pub fn total_used_cpu(&self) -> f64 {
        self.used.iter().map(|u| u.cpu).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> CapacityLedger {
        CapacityLedger::from_capacities(vec![Resources::new(8.0, 16.0), Resources::new(4.0, 8.0)])
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let mut l = ledger();
        let before = l.clone();
        let demand = Resources::new(2.0, 4.0);
        l.allocate(NodeId(0), &demand).unwrap();
        assert_eq!(l.used_of(NodeId(0)).unwrap(), demand);
        l.release(NodeId(0), &demand).unwrap();
        assert_eq!(l, before);
    }

    #[test]
    fn over_allocation_rejected_and_state_unchanged() {
        let mut l = ledger();
        l.allocate(NodeId(1), &Resources::new(3.0, 1.0)).unwrap();
        let before = l.clone();
        let err = l
            .allocate(NodeId(1), &Resources::new(2.0, 1.0))
            .unwrap_err();
        match err {
            CapacityError::Insufficient { node, .. } => assert_eq!(node, NodeId(1)),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(l, before);
    }

    #[test]
    fn exact_fit_allowed() {
        let mut l = ledger();
        l.allocate(NodeId(1), &Resources::new(4.0, 8.0)).unwrap();
        assert!((l.utilization_of(NodeId(1)).unwrap() - 1.0).abs() < 1e-9);
        assert!(!l.fits(NodeId(1), &Resources::new(0.1, 0.0)).unwrap());
    }

    #[test]
    fn release_saturates_at_zero() {
        let mut l = ledger();
        l.allocate(NodeId(0), &Resources::new(1.0, 1.0)).unwrap();
        l.release(NodeId(0), &Resources::new(100.0, 100.0)).unwrap();
        assert_eq!(l.used_of(NodeId(0)).unwrap(), Resources::zero());
    }

    #[test]
    fn unknown_node_errors() {
        let mut l = ledger();
        assert!(matches!(
            l.allocate(NodeId(9), &Resources::zero()),
            Err(CapacityError::UnknownNode(_))
        ));
        assert!(matches!(
            l.utilization_of(NodeId(9)),
            Err(CapacityError::UnknownNode(_))
        ));
        assert!(matches!(
            l.release(NodeId(9), &Resources::zero()),
            Err(CapacityError::UnknownNode(_))
        ));
    }

    #[test]
    fn mean_utilization_averages_nodes() {
        let mut l = ledger();
        l.allocate(NodeId(0), &Resources::new(4.0, 0.0)).unwrap(); // 50% dominant
        assert!((l.mean_utilization() - 0.25).abs() < 1e-9); // (0.5 + 0) / 2
    }

    #[test]
    fn set_capacity_degrades_and_restores() {
        let mut l = ledger();
        l.allocate(NodeId(0), &Resources::new(6.0, 6.0)).unwrap();
        // Degrade below current usage: nothing further fits, utilization
        // clamps at 1, usage is preserved.
        l.set_capacity(NodeId(0), Resources::new(4.0, 8.0)).unwrap();
        assert!(!l.fits(NodeId(0), &Resources::new(0.1, 0.1)).unwrap());
        assert!((l.utilization_of(NodeId(0)).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(l.used_of(NodeId(0)).unwrap(), Resources::new(6.0, 6.0));
        // Restore: headroom returns.
        l.set_capacity(NodeId(0), Resources::new(8.0, 16.0))
            .unwrap();
        assert!(l.fits(NodeId(0), &Resources::new(2.0, 4.0)).unwrap());
        assert!(matches!(
            l.set_capacity(NodeId(9), Resources::zero()),
            Err(CapacityError::UnknownNode(_))
        ));
    }

    #[test]
    fn clear_resets_everything() {
        let mut l = ledger();
        l.allocate(NodeId(0), &Resources::new(1.0, 1.0)).unwrap();
        l.clear();
        assert_eq!(l.total_used_cpu(), 0.0);
    }

    #[test]
    fn error_display_is_informative() {
        let err = CapacityError::Insufficient {
            node: NodeId(2),
            requested: Resources::new(4.0, 2.0),
            available: Resources::new(1.0, 1.0),
        };
        let text = err.to_string();
        assert!(text.contains("n2"));
        assert!(text.contains("4.00"));
    }
}
