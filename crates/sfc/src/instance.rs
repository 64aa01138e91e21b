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
/// lookup one binary search over the live ids. `index` holds store
/// positions (`index[node][vnf_type]`, ascending, so in id order too), so
/// [`InstancePool::instances_of`] visits one site's instances instead of
/// the whole pool and reads each without a search; only the membership
/// mutators (`spawn`, `retire`, `evict_node`) write it. `used[node]` is
/// the running sum of the catalog demand of the live instances at `node`,
/// what [`InstancePool::used_on`] answers; it too is written only by
/// `spawn`, `retire` and `evict_node`. Both are derived data, grown lazily
/// to the largest node seen: equality ignores them, and
/// the pool is not serialisable because a round trip would have to
/// rebuild them.
#[derive(Debug, Clone, Default)]
pub struct InstancePool {
    instances: IdMap<Instance>,
    next_id: u64,
    index: Vec<Vec<Vec<u32>>>,
    used: Vec<Resources>,
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

    /// Spawns a new instance of `vnf_type` at `node`, adding its `catalog`
    /// demand to the node's usage; returns its id. Whether the node has
    /// room is the caller's question.
    pub fn spawn(
        &mut self,
        vnf_type: VnfTypeId,
        node: NodeId,
        slot: u64,
        catalog: &VnfCatalog,
    ) -> InstanceId {
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        if self.index.len() <= node.0 {
            self.index.resize_with(node.0 + 1, Vec::new);
            self.used.resize(node.0 + 1, Resources::zero());
        }
        self.used[node.0] = self.used[node.0].plus(&catalog.get(vnf_type).demand);
        let buckets = &mut self.index[node.0];
        if buckets.len() <= vnf_type.0 {
            buckets.resize_with(vnf_type.0 + 1, Vec::new);
        }
        // Ids are monotone, so the instance lands past every live one and
        // a push keeps the bucket ascending.
        buckets[vnf_type.0].push(self.instances.len() as u32);
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

    /// Removes an idle instance, taking its `catalog` demand off its
    /// node's usage.
    ///
    /// # Errors
    ///
    /// [`InstanceError::Busy`] if it still serves flows,
    /// [`InstanceError::Unknown`] if the id does not exist.
    pub fn retire(
        &mut self,
        id: InstanceId,
        catalog: &VnfCatalog,
    ) -> Result<Instance, InstanceError> {
        let pos = self
            .instances
            .position(id.0)
            .ok_or(InstanceError::Unknown(id))?;
        if self.instances.as_slice()[pos].flows > 0 {
            return Err(InstanceError::Busy(id));
        }
        let inst = self.instances.remove_at(pos);
        // The store shifted every later instance down one place: so does
        // the index, in one pass over its buckets (ascending, so each
        // bucket's shifted entries are its tail).
        let pos = pos as u32;
        let bucket = &mut self.index[inst.node.0][inst.vnf_type.0];
        if let Ok(own) = bucket.binary_search(&pos) {
            bucket.remove(own);
        }
        for bucket in self.index.iter_mut().flatten() {
            let tail = bucket.partition_point(|&p| p < pos);
            for p in &mut bucket[tail..] {
                *p -= 1;
            }
        }
        self.remove_demand(&inst, catalog);
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
        let positions: &[u32] = self
            .index
            .get(node.0)
            .and_then(|buckets| buckets.get(vnf_type.0))
            .map_or(&[], Vec::as_slice);
        let store = self.instances.as_slice();
        positions.iter().map(move |&pos| &store[pos as usize])
    }

    /// Checks that the `(node, type)` index and the instance store agree:
    /// every bucket is strictly ascending and lists only store positions
    /// of live instances of its own node and type, and the buckets
    /// together hold every live instance exactly once. The membership
    /// mutators run it in debug builds.
    ///
    /// # Panics
    ///
    /// Panics on the first disagreement.
    pub fn check_index(&self) {
        let store = self.instances.as_slice();
        let mut indexed = 0;
        for (node, buckets) in self.index.iter().enumerate() {
            for (vnf_type, bucket) in buckets.iter().enumerate() {
                assert!(
                    bucket.windows(2).all(|w| w[0] < w[1]),
                    "bucket (node {node}, type {vnf_type}) is not strictly ascending: {bucket:?}"
                );
                for &pos in bucket {
                    let inst = store.get(pos as usize);
                    assert!(
                        inst.is_some_and(|i| i.node.0 == node && i.vnf_type.0 == vnf_type),
                        "bucket (node {node}, type {vnf_type}) lists position {pos}, \
                         the store has {inst:?} there"
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
    /// caller owns disrupting those flows — and their `catalog` demand
    /// leaves the node's usage one instance at a time, in id order.
    /// Returns the removed instances ordered by id. The `(node, type)`
    /// index is rebuilt from the store afterwards: a failure is rare, and
    /// it shifts the positions of every instance behind an evicted one.
    pub fn evict_node(&mut self, node: NodeId, catalog: &VnfCatalog) -> Vec<Instance> {
        let ids = self.instances_on(node);
        let evicted = ids
            .into_iter()
            .map(|id| {
                let inst = self.instances.remove(id.0).expect("listed instance");
                self.remove_demand(&inst, catalog);
                inst
            })
            .collect();
        for bucket in self.index.iter_mut().flatten() {
            bucket.clear();
        }
        for (pos, inst) in self.instances.values().enumerate() {
            self.index[inst.node.0][inst.vnf_type.0].push(pos as u32);
        }
        if cfg!(debug_assertions) {
            self.check_index();
        }
        evicted
    }

    /// Replaces `out`'s contents with the idle instances (zero flows) at
    /// least `min_age_slots` old, in id order. The caller keeps `out`
    /// between sweeps, so a sweep allocates nothing once it has grown.
    pub fn idle_instances_into(
        &self,
        current_slot: u64,
        min_age_slots: u64,
        out: &mut Vec<InstanceId>,
    ) {
        out.clear();
        out.extend(
            self.instances
                .values()
                .filter(|i| {
                    i.flows == 0 && current_slot.saturating_sub(i.created_slot) >= min_age_slots
                })
                .map(|i| i.id),
        );
    }

    /// Resources the live instances at `node` consume: the running sum of
    /// their catalog demand (zero for a node the pool has never seen).
    pub fn used_on(&self, node: NodeId) -> Resources {
        self.used.get(node.0).copied().unwrap_or_default()
    }

    /// Takes a removed instance's demand off its node's usage, saturating
    /// at zero against rounding.
    fn remove_demand(&mut self, inst: &Instance, catalog: &VnfCatalog) {
        let used = &mut self.used[inst.node.0];
        *used = used.minus_saturating(&catalog.get(inst.vnf_type).demand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> VnfCatalog {
        VnfCatalog::standard()
    }

    #[test]
    fn spawn_assigns_unique_ids() {
        let vnfs = catalog();
        let mut pool = InstancePool::new();
        let a = pool.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
        let b = pool.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn flow_accounting() {
        let mut pool = InstancePool::new();
        let id = pool.spawn(VnfTypeId(1), NodeId(2), 5, &catalog());
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
        let vnfs = catalog();
        let mut pool = InstancePool::new();
        let id = pool.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
        pool.add_flow(id, 1.0).unwrap();
        assert_eq!(pool.retire(id, &vnfs), Err(InstanceError::Busy(id)));
        assert_eq!(pool.used_on(NodeId(0)), vnfs.get(VnfTypeId(0)).demand);
        pool.remove_flow(id, 1.0).unwrap();
        assert!(pool.retire(id, &vnfs).is_ok());
        assert!(pool.is_empty());
        assert_eq!(pool.used_on(NodeId(0)), Resources::zero());
    }

    #[test]
    fn unknown_instance_errors() {
        let mut pool = InstancePool::new();
        assert_eq!(
            pool.add_flow(InstanceId(9), 1.0),
            Err(InstanceError::Unknown(InstanceId(9)))
        );
        assert_eq!(
            pool.retire(InstanceId(9), &catalog()),
            Err(InstanceError::Unknown(InstanceId(9)))
        );
    }

    #[test]
    fn counting_and_filtering() {
        let vnfs = catalog();
        let mut pool = InstancePool::new();
        pool.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
        pool.spawn(VnfTypeId(0), NodeId(1), 0, &vnfs);
        pool.spawn(VnfTypeId(1), NodeId(1), 0, &vnfs);
        assert_eq!(pool.instances_of(VnfTypeId(0), NodeId(0)).len(), 1);
        assert_eq!(pool.instances_of(VnfTypeId(1), NodeId(1)).len(), 1);
        assert_eq!(pool.instances_of(VnfTypeId(1), NodeId(0)).len(), 0);
        assert_eq!(pool.instances_of(VnfTypeId(7), NodeId(9)).len(), 0);
    }

    #[test]
    fn idle_instances_respect_age() {
        let vnfs = catalog();
        let mut pool = InstancePool::new();
        let old = pool.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
        let fresh = pool.spawn(VnfTypeId(0), NodeId(0), 9, &vnfs);
        let busy = pool.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
        pool.add_flow(busy, 1.0).unwrap();
        let mut idle = vec![busy];
        pool.idle_instances_into(10, 5, &mut idle);
        assert_eq!(idle, vec![old]);
        assert!(idle.contains(&old));
        assert!(!idle.contains(&fresh));
        assert!(!idle.contains(&busy));
    }

    #[test]
    fn evict_node_removes_busy_instances_and_spares_others() {
        let vnfs = catalog();
        let mut pool = InstancePool::new();
        let dead_busy = pool.spawn(VnfTypeId(0), NodeId(1), 0, &vnfs);
        let dead_idle = pool.spawn(VnfTypeId(1), NodeId(1), 0, &vnfs);
        let survivor = pool.spawn(VnfTypeId(0), NodeId(2), 0, &vnfs);
        pool.add_flow(dead_busy, 3.0).unwrap();
        pool.add_flow(survivor, 1.0).unwrap();
        assert_eq!(pool.instances_on(NodeId(1)), vec![dead_busy, dead_idle]);
        let evicted = pool.evict_node(NodeId(1), &vnfs);
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].id, dead_busy);
        assert_eq!(evicted[0].flows, 1, "eviction ignores live flows");
        assert_eq!(pool.len(), 1);
        assert!(pool.get(survivor).is_some());
        assert!(pool.instances_on(NodeId(1)).is_empty());
        assert_eq!(pool.used_on(NodeId(1)), Resources::zero());
        assert_eq!(pool.used_on(NodeId(2)), vnfs.get(VnfTypeId(0)).demand);
        assert!(pool.evict_node(NodeId(1), &vnfs).is_empty(), "idempotent");
    }

    #[test]
    fn used_at_sums_demands() {
        let vnfs = catalog();
        let mut pool = InstancePool::new();
        pool.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs); // nat: 1 cpu
        pool.spawn(VnfTypeId(1), NodeId(0), 0, &vnfs); // firewall: 2 cpu
        pool.spawn(VnfTypeId(1), NodeId(1), 0, &vnfs);
        assert!((pool.used_on(NodeId(0)).cpu - 3.0).abs() < 1e-9);
        assert!((pool.used_on(NodeId(1)).cpu - 2.0).abs() < 1e-9);
        assert_eq!(pool.used_on(NodeId(9)), Resources::zero(), "never seen");
    }
}
