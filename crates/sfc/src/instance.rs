//! Live VNF instances and the pool tracking them.

use crate::idmap::IdMap;
use crate::vnf::{VnfCatalog, VnfTypeId};
use edgenet::node::{NodeId, Resources};

/// Identifier of a live VNF instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

/// A running VNF instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Unique id.
    pub id: InstanceId,
    /// The VNF type this instance runs.
    pub vnf_type: VnfTypeId,
    /// Hosting node.
    pub node: NodeId,
    /// Aggregate arrival rate currently assigned (M/M/1 λ), in rps.
    pub lambda_rps: f64,
    /// Number of flows currently routed through this instance.
    pub flows: u32,
    /// Slot at which the instance was created.
    pub created_slot: u64,
}

/// Errors from instance-pool operations.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// Unknown instance id.
    Unknown(InstanceId),
    /// Attempted to retire an instance that still serves flows.
    Busy(InstanceId),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::Unknown(id) => write!(f, "unknown instance {id}"),
            InstanceError::Busy(id) => write!(f, "instance {id} still serves flows"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// The pool of all live instances in a simulation.
///
/// `instances` is the one store of instance state, an [`IdMap`] in id
/// order: ids are issued in increasing order, so a spawn is a push and a
/// lookup one binary search over the live ids. `index` holds ids only
/// (`index[node][vnf_type]`, ascending), so [`InstancePool::instances_of`]
/// visits one site's instances instead of the whole pool; only the
/// membership mutators (`spawn`, `retire`, `evict_node`) write it. It is
/// derived data: equality ignores it, and the pool is not serialisable
/// because a round trip would have to rebuild it.
#[derive(Debug, Clone, Default)]
pub struct InstancePool {
    instances: IdMap<Instance>,
    next_id: u64,
    index: Vec<Vec<Vec<u64>>>,
}

impl PartialEq for InstancePool {
    fn eq(&self, other: &Self) -> bool {
        self.instances == other.instances && self.next_id == other.next_id
    }
}

impl InstancePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns a new instance of `vnf_type` at `node`; returns its id.
    pub fn spawn(&mut self, vnf_type: VnfTypeId, node: NodeId, slot: u64) -> InstanceId {
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        if self.index.len() <= node.0 {
            self.index.resize_with(node.0 + 1, Vec::new);
        }
        let buckets = &mut self.index[node.0];
        if buckets.len() <= vnf_type.0 {
            buckets.resize_with(vnf_type.0 + 1, Vec::new);
        }
        // Ids are monotone, so a push keeps the bucket ascending.
        buckets[vnf_type.0].push(id.0);
        self.instances.insert(
            id.0,
            Instance {
                id,
                vnf_type,
                node,
                lambda_rps: 0.0,
                flows: 0,
                created_slot: slot,
            },
        );
        if cfg!(debug_assertions) {
            self.check_index();
        }
        id
    }

    /// Removes an idle instance.
    ///
    /// # Errors
    ///
    /// [`InstanceError::Busy`] if it still serves flows,
    /// [`InstanceError::Unknown`] if the id does not exist.
    pub fn retire(&mut self, id: InstanceId) -> Result<Instance, InstanceError> {
        let inst = self.instances.get(id.0).ok_or(InstanceError::Unknown(id))?;
        if inst.flows > 0 {
            return Err(InstanceError::Busy(id));
        }
        let inst = self.instances.remove(id.0).expect("checked present");
        self.index[inst.node.0][inst.vnf_type.0].retain(|&indexed| indexed != id.0);
        if cfg!(debug_assertions) {
            self.check_index();
        }
        Ok(inst)
    }

    /// Instance by id.
    pub fn get(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(id.0)
    }

    /// Adds one flow with `lambda_rps` to the instance.
    ///
    /// # Errors
    ///
    /// [`InstanceError::Unknown`] if the id does not exist.
    pub fn add_flow(&mut self, id: InstanceId, lambda_rps: f64) -> Result<(), InstanceError> {
        let inst = self
            .instances
            .get_mut(id.0)
            .ok_or(InstanceError::Unknown(id))?;
        inst.lambda_rps += lambda_rps;
        inst.flows += 1;
        Ok(())
    }

    /// Removes one flow with `lambda_rps` from the instance; saturates at
    /// zero against float drift.
    ///
    /// # Errors
    ///
    /// [`InstanceError::Unknown`] if the id does not exist.
    pub fn remove_flow(&mut self, id: InstanceId, lambda_rps: f64) -> Result<(), InstanceError> {
        let inst = self
            .instances
            .get_mut(id.0)
            .ok_or(InstanceError::Unknown(id))?;
        inst.lambda_rps = (inst.lambda_rps - lambda_rps).max(0.0);
        inst.flows = inst.flows.saturating_sub(1);
        Ok(())
    }

    /// All instances, ordered by id.
    pub fn iter(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values()
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` when no instances are live.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Instances of `vnf_type` hosted at `node`, in ascending id order
    /// (empty for a node or type the pool has never seen). Allocates
    /// nothing and visits only that site's instances.
    pub fn instances_of(
        &self,
        vnf_type: VnfTypeId,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = &Instance> + '_ {
        let ids: &[u64] = self
            .index
            .get(node.0)
            .and_then(|buckets| buckets.get(vnf_type.0))
            .map_or(&[], Vec::as_slice);
        ids.iter().map(|&id| &self.instances[id])
    }

    /// Checks that the `(node, type)` index and the instance store agree:
    /// every bucket is strictly ascending and lists only live instances of
    /// its own node and type, and the buckets together hold every live
    /// instance exactly once. The membership mutators run it in debug
    /// builds.
    ///
    /// # Panics
    ///
    /// Panics on the first disagreement.
    pub fn check_index(&self) {
        let mut indexed = 0;
        for (node, buckets) in self.index.iter().enumerate() {
            for (vnf_type, bucket) in buckets.iter().enumerate() {
                assert!(
                    bucket.windows(2).all(|w| w[0] < w[1]),
                    "bucket (node {node}, type {vnf_type}) is not strictly ascending: {bucket:?}"
                );
                for id in bucket {
                    let inst = self.instances.get(*id);
                    assert!(
                        inst.is_some_and(|i| i.node.0 == node && i.vnf_type.0 == vnf_type),
                        "bucket (node {node}, type {vnf_type}) lists id {id}, the store has {inst:?}"
                    );
                }
                indexed += bucket.len();
            }
        }
        assert_eq!(
            indexed,
            self.instances.len(),
            "index and store disagree on the number of live instances"
        );
    }

    /// Ids of every instance hosted at `node` (any type), ordered by id.
    pub fn instances_on(&self, node: NodeId) -> Vec<InstanceId> {
        self.instances
            .values()
            .filter(|i| i.node == node)
            .map(|i| i.id)
            .collect()
    }

    /// Force-removes every instance hosted at `node` (node failure): the
    /// instances are destroyed regardless of the flows they serve — the
    /// caller owns disrupting those flows. Returns the removed instances
    /// ordered by id.
    pub fn evict_node(&mut self, node: NodeId) -> Vec<Instance> {
        let mut ids: Vec<u64> = match self.index.get_mut(node.0) {
            Some(buckets) => buckets.iter_mut().flat_map(|b| b.drain(..)).collect(),
            None => Vec::new(),
        };
        ids.sort_unstable();
        let evicted = ids
            .into_iter()
            .map(|id| self.instances.remove(id).expect("indexed instance"))
            .collect();
        if cfg!(debug_assertions) {
            self.check_index();
        }
        evicted
    }

    /// Idle instances (zero flows), optionally older than `min_age_slots`.
    pub fn idle_instances(&self, current_slot: u64, min_age_slots: u64) -> Vec<InstanceId> {
        self.instances
            .values()
            .filter(|i| {
                i.flows == 0 && current_slot.saturating_sub(i.created_slot) >= min_age_slots
            })
            .map(|i| i.id)
            .collect()
    }

    /// Total resources consumed at `node` according to `catalog`.
    pub fn used_at(&self, node: NodeId, catalog: &VnfCatalog) -> Resources {
        self.instances
            .values()
            .filter(|i| i.node == node)
            .fold(Resources::zero(), |acc, i| {
                acc.plus(&catalog.get(i.vnf_type).demand)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_unique_ids() {
        let mut pool = InstancePool::new();
        let a = pool.spawn(VnfTypeId(0), NodeId(0), 0);
        let b = pool.spawn(VnfTypeId(0), NodeId(0), 0);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn flow_accounting() {
        let mut pool = InstancePool::new();
        let id = pool.spawn(VnfTypeId(1), NodeId(2), 5);
        pool.add_flow(id, 10.0).unwrap();
        pool.add_flow(id, 5.0).unwrap();
        let inst = pool.get(id).unwrap();
        assert_eq!(inst.flows, 2);
        assert!((inst.lambda_rps - 15.0).abs() < 1e-9);
        pool.remove_flow(id, 10.0).unwrap();
        let inst = pool.get(id).unwrap();
        assert_eq!(inst.flows, 1);
        assert!((inst.lambda_rps - 5.0).abs() < 1e-9);
    }

    #[test]
    fn retire_rejects_busy() {
        let mut pool = InstancePool::new();
        let id = pool.spawn(VnfTypeId(0), NodeId(0), 0);
        pool.add_flow(id, 1.0).unwrap();
        assert_eq!(pool.retire(id), Err(InstanceError::Busy(id)));
        pool.remove_flow(id, 1.0).unwrap();
        assert!(pool.retire(id).is_ok());
        assert!(pool.is_empty());
    }

    #[test]
    fn unknown_instance_errors() {
        let mut pool = InstancePool::new();
        assert_eq!(
            pool.add_flow(InstanceId(9), 1.0),
            Err(InstanceError::Unknown(InstanceId(9)))
        );
        assert_eq!(
            pool.retire(InstanceId(9)),
            Err(InstanceError::Unknown(InstanceId(9)))
        );
    }

    #[test]
    fn counting_and_filtering() {
        let mut pool = InstancePool::new();
        pool.spawn(VnfTypeId(0), NodeId(0), 0);
        pool.spawn(VnfTypeId(0), NodeId(1), 0);
        pool.spawn(VnfTypeId(1), NodeId(1), 0);
        assert_eq!(pool.instances_of(VnfTypeId(0), NodeId(0)).len(), 1);
        assert_eq!(pool.instances_of(VnfTypeId(1), NodeId(1)).len(), 1);
        assert_eq!(pool.instances_of(VnfTypeId(1), NodeId(0)).len(), 0);
        assert_eq!(pool.instances_of(VnfTypeId(7), NodeId(9)).len(), 0);
    }

    #[test]
    fn idle_instances_respect_age() {
        let mut pool = InstancePool::new();
        let old = pool.spawn(VnfTypeId(0), NodeId(0), 0);
        let fresh = pool.spawn(VnfTypeId(0), NodeId(0), 9);
        let busy = pool.spawn(VnfTypeId(0), NodeId(0), 0);
        pool.add_flow(busy, 1.0).unwrap();
        let idle = pool.idle_instances(10, 5);
        assert!(idle.contains(&old));
        assert!(!idle.contains(&fresh));
        assert!(!idle.contains(&busy));
    }

    #[test]
    fn evict_node_removes_busy_instances_and_spares_others() {
        let mut pool = InstancePool::new();
        let dead_busy = pool.spawn(VnfTypeId(0), NodeId(1), 0);
        let dead_idle = pool.spawn(VnfTypeId(1), NodeId(1), 0);
        let survivor = pool.spawn(VnfTypeId(0), NodeId(2), 0);
        pool.add_flow(dead_busy, 3.0).unwrap();
        pool.add_flow(survivor, 1.0).unwrap();
        assert_eq!(pool.instances_on(NodeId(1)), vec![dead_busy, dead_idle]);
        let evicted = pool.evict_node(NodeId(1));
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].id, dead_busy);
        assert_eq!(evicted[0].flows, 1, "eviction ignores live flows");
        assert_eq!(pool.len(), 1);
        assert!(pool.get(survivor).is_some());
        assert!(pool.instances_on(NodeId(1)).is_empty());
        assert!(pool.evict_node(NodeId(1)).is_empty(), "idempotent");
    }

    #[test]
    fn used_at_sums_demands() {
        let catalog = VnfCatalog::standard();
        let mut pool = InstancePool::new();
        pool.spawn(VnfTypeId(0), NodeId(0), 0); // nat: 1 cpu
        pool.spawn(VnfTypeId(1), NodeId(0), 0); // firewall: 2 cpu
        pool.spawn(VnfTypeId(1), NodeId(1), 0);
        let used = pool.used_at(NodeId(0), &catalog);
        assert!((used.cpu - 3.0).abs() < 1e-9);
    }
}
