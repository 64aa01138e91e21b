//! Property tests for the SFC layer: instance-pool accounting and
//! latency-evaluation invariants.

use edgenet::prelude::*;
use proptest::prelude::*;
use sfc::idmap::IdMap;
use sfc::prelude::*;
use std::collections::BTreeMap;

fn catalogs() -> (VnfCatalog, ChainCatalog) {
    let vnfs = VnfCatalog::standard();
    let chains = ChainCatalog::standard(&vnfs);
    (vnfs, chains)
}

/// Resources the live instances at `node` consume according to
/// `catalog`, summed afresh: the reference `InstancePool::used_on` is
/// checked against.
fn used_at(pool: &InstancePool, node: NodeId, catalog: &VnfCatalog) -> Resources {
    pool.iter()
        .filter(|i| i.node == node)
        .fold(Resources::zero(), |acc, i| {
            acc.plus(&catalog.get(i.vnf_type).demand)
        })
}

/// The index is derived data: pools with the same instances and next id
/// are equal whatever sites their histories touched, and a clone answers
/// `instances_of` like its original and then goes its own way.
#[test]
fn equality_and_clone_ignore_index_history() {
    // Same instances and next id, reached through different sites: `a`
    // keeps emptied buckets for node 5 / type 2 that `b` never grew.
    let (vnfs, _) = catalogs();
    let mut a = InstancePool::new();
    let mut b = InstancePool::new();
    a.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
    b.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
    let gone_a = a.spawn(VnfTypeId(2), NodeId(5), 0, &vnfs);
    let gone_b = b.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
    a.retire(gone_a, &vnfs).unwrap();
    b.retire(gone_b, &vnfs).unwrap();
    assert_eq!(a, b);
    b.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
    assert_ne!(a, b);

    let mut copy = b.clone();
    assert_eq!(copy, b);
    assert!(copy
        .instances_of(VnfTypeId(0), NodeId(0))
        .eq(b.instances_of(VnfTypeId(0), NodeId(0))));
    copy.evict_node(NodeId(0), &vnfs);
    assert_eq!(copy.instances_of(VnfTypeId(0), NodeId(0)).len(), 0);
    assert_eq!(b.instances_of(VnfTypeId(0), NodeId(0)).len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pool_flow_accounting_never_goes_negative(
        ops in proptest::collection::vec((0usize..3, 0.0f64..50.0, proptest::bool::ANY), 1..60)
    ) {
        let (vnfs, _) = catalogs();
        let mut pool = InstancePool::new();
        let ids: Vec<InstanceId> =
            (0..3).map(|i| pool.spawn(VnfTypeId(i % 2), NodeId(i), 0, &vnfs)).collect();
        for (which, lambda, add) in ops {
            let id = ids[which];
            if add {
                pool.add_flow(id, lambda).unwrap();
            } else {
                pool.remove_flow(id, lambda).unwrap();
            }
            let inst = pool.get(id).unwrap();
            prop_assert!(inst.lambda_rps >= 0.0, "lambda went negative");
        }
    }

    #[test]
    fn add_then_remove_restores_lambda(
        lambdas in proptest::collection::vec(0.1f64..30.0, 1..20)
    ) {
        let (vnfs, _) = catalogs();
        let mut pool = InstancePool::new();
        let id = pool.spawn(VnfTypeId(0), NodeId(0), 0, &vnfs);
        for &l in &lambdas {
            pool.add_flow(id, l).unwrap();
        }
        for &l in lambdas.iter().rev() {
            pool.remove_flow(id, l).unwrap();
        }
        let inst = pool.get(id).unwrap();
        prop_assert!(inst.lambda_rps.abs() < 1e-6);
        prop_assert_eq!(inst.flows, 0);
    }

    #[test]
    fn mm1_sojourn_monotone_in_lambda(mu in 10.0f64..1000.0, split in 0.01f64..0.98) {
        let lambda_lo = mu * split * 0.5;
        let lambda_hi = mu * split;
        prop_assert!(mm1_sojourn_ms(mu, lambda_lo) <= mm1_sojourn_ms(mu, lambda_hi));
    }

    #[test]
    fn chain_latency_decomposition_sums(
        node_picks in proptest::collection::vec(0usize..4, 2..3),
        source in 0usize..4,
    ) {
        // VoIP chain (2 VNFs) placed arbitrarily: breakdown must sum to total
        // and grow when any component grows.
        let (vnfs, chains) = catalogs();
        let topo = TopologyBuilder::default().metro(4);
        let routes = RoutingTable::build(&topo);
        let chain = chains.get(ChainId(1)).clone();
        let mut pool = InstancePool::new();
        let instances: Vec<InstanceId> = chain
            .vnfs
            .iter()
            .zip(node_picks.iter())
            .map(|(&v, &n)| pool.spawn(v, NodeId(n), 0, &vnfs))
            .collect();
        let assignment = ChainAssignment { request: RequestId(0), instances };
        let breakdown =
            assignment_latency(&assignment, &chain, NodeId(source), &pool, &vnfs, &routes).unwrap();
        let total = breakdown.total_ms();
        prop_assert!(
            (total - (breakdown.network_ms + breakdown.processing_ms + breakdown.queueing_ms)).abs()
                < 1e-9
        );
        prop_assert!(breakdown.network_ms >= 0.0);
        prop_assert!(breakdown.queueing_ms > 0.0, "idle queues still serve");
    }

    #[test]
    fn colocated_placement_never_slower_than_detour(
        source in 0usize..4,
        detour in 0usize..4,
    ) {
        // Placing both VNFs at the source is never worse on *network*
        // latency than bouncing through a detour node.
        let (vnfs, chains) = catalogs();
        let topo = TopologyBuilder::default().metro(4);
        let routes = RoutingTable::build(&topo);
        let chain = chains.get(ChainId(1)).clone();
        let src = NodeId(source);

        let colocated = hypothetical_latency_ms(
            &chain, src, &[src, src], &[0.0, 0.0], &vnfs, &routes,
        );
        let detoured = hypothetical_latency_ms(
            &chain, src, &[NodeId(detour), src], &[0.0, 0.0], &vnfs, &routes,
        );
        prop_assert!(colocated <= detoured + 1e-9);
    }

    /// The pool's derived data against whole-pool scans, after every
    /// operation of a random history. The `(node, type)` index:
    /// `instances_of` yields exactly `iter().filter(..)`, element for
    /// element in id order, for every site including nodes and types the
    /// pool has never seen. The usage sums: `used_on` equals a fresh fold
    /// of the live instances' catalog demand at every node, exactly (the
    /// standard demands are small integers, so no sum rounds), and is
    /// exactly zero everywhere once the pool is empty.
    #[test]
    fn instances_of_matches_a_whole_pool_scan(
        ops in proptest::collection::vec((0usize..5, 0usize..64, 0usize..64, 0.1f64..40.0), 1..80)
    ) {
        const NODES: usize = 4;
        const TYPES: usize = 3;
        let (vnfs, _) = catalogs();
        let mut pool = InstancePool::new();
        for (op, a, b, lambda) in ops {
            let live: Vec<InstanceId> = pool.iter().map(|i| i.id).collect();
            let pick = live.get(a % live.len().max(1)).copied();
            match (op, pick) {
                (0, _) => {
                    pool.spawn(VnfTypeId(a % TYPES), NodeId(b % NODES), 0, &vnfs);
                }
                (1, Some(id)) => pool.add_flow(id, lambda).unwrap(),
                (2, Some(id)) => pool.remove_flow(id, lambda).unwrap(),
                (3, Some(id)) => {
                    // Busy instances refuse and must leave the index and
                    // the usage alone.
                    let busy = pool.get(id).unwrap().flows > 0;
                    prop_assert_eq!(pool.retire(id, &vnfs).is_err(), busy);
                }
                (4, _) => {
                    let node = NodeId(b % (NODES + 1));
                    let expected = pool.instances_on(node);
                    let evicted: Vec<InstanceId> =
                        pool.evict_node(node, &vnfs).iter().map(|i| i.id).collect();
                    prop_assert_eq!(evicted, expected);
                }
                _ => {}
            }
            pool.check_index();
            for n in 0..NODES + 2 {
                prop_assert_eq!(pool.used_on(NodeId(n)), used_at(&pool, NodeId(n), &vnfs));
            }
            let mut indexed = 0;
            for t in 0..TYPES + 2 {
                for n in 0..NODES + 2 {
                    let (t, n) = (VnfTypeId(t), NodeId(n));
                    let of = pool.instances_of(t, n);
                    indexed += of.len();
                    let scanned: Vec<&Instance> =
                        pool.iter().filter(|i| i.vnf_type == t && i.node == n).collect();
                    prop_assert_eq!(of.collect::<Vec<_>>(), scanned);
                }
            }
            prop_assert_eq!(indexed, pool.len());
        }
        for n in 0..NODES {
            pool.evict_node(NodeId(n), &vnfs);
        }
        for n in 0..NODES + 2 {
            prop_assert_eq!(pool.used_on(NodeId(n)), Resources::zero());
        }
    }

    /// The `(node, type)` index holds store positions, so every
    /// retirement shifts the positions of the instances behind it and
    /// every eviction rebuilds the index. A random history biased toward
    /// exactly those (a retirement always picks an idle instance, so it
    /// always lands), interleaved with spawns and flow changes: after every
    /// operation `instances_of` yields exactly `iter().filter(..)` in id
    /// order for every site, and `used_on` equals a fresh fold of the live
    /// instances' catalog demand.
    #[test]
    fn position_index_follows_retires_and_evictions(
        ops in proptest::collection::vec((0usize..6, 0usize..64, 0usize..64, 0.1f64..40.0), 1..120)
    ) {
        const NODES: usize = 3;
        const TYPES: usize = 3;
        let (vnfs, _) = catalogs();
        let mut pool = InstancePool::new();
        for (op, a, b, lambda) in ops {
            let live: Vec<InstanceId> = pool.iter().map(|i| i.id).collect();
            let idle: Vec<InstanceId> =
                pool.iter().filter(|i| i.flows == 0).map(|i| i.id).collect();
            match op {
                0 | 1 => {
                    pool.spawn(VnfTypeId(a % TYPES), NodeId(b % NODES), 0, &vnfs);
                }
                2 if !idle.is_empty() => {
                    pool.retire(idle[a % idle.len()], &vnfs).unwrap();
                }
                3 => {
                    pool.evict_node(NodeId(b % (NODES + 1)), &vnfs);
                }
                4 if !live.is_empty() => {
                    pool.add_flow(live[a % live.len()], lambda).unwrap();
                }
                5 if !live.is_empty() => {
                    pool.remove_flow(live[a % live.len()], lambda).unwrap();
                }
                _ => {}
            }
            for n in 0..NODES + 1 {
                let n = NodeId(n);
                prop_assert_eq!(pool.used_on(n), used_at(&pool, n, &vnfs));
                for t in 0..TYPES + 1 {
                    let t = VnfTypeId(t);
                    let scanned: Vec<&Instance> =
                        pool.iter().filter(|i| i.vnf_type == t && i.node == n).collect();
                    prop_assert_eq!(pool.instances_of(t, n).collect::<Vec<_>>(), scanned);
                }
            }
        }
    }

    /// `IdMap` against `BTreeMap<u64, _>`, the store it replaced, over a
    /// random history of inserts (ids past the last key, as the engine
    /// issues them, and out-of-order ones, as a re-placed flow re-admits
    /// its old request id), removals, conditional removals and lookups:
    /// every operation answers alike, and afterwards the two hold the same
    /// entries in the same ascending order.
    #[test]
    fn id_map_matches_a_btree_map(
        ops in proptest::collection::vec(
            (0usize..5, proptest::bool::ANY, 0u64..48, 0u32..1000),
            1..120,
        )
    ) {
        let mut map: IdMap<u32> = IdMap::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for (op, past_last, id, value) in ops {
            let id = if past_last {
                model.keys().next_back().map_or(0, |&last| last + 1) + id % 3
            } else {
                id
            };
            match op {
                0 => prop_assert_eq!(map.insert(id, value), model.insert(id, value)),
                1 => prop_assert_eq!(map.remove(id), model.remove(&id)),
                2 => {
                    let odd = |v: &u32| v % 2 == 1;
                    let expected = match model.get(&id) {
                        Some(v) if odd(v) => model.remove(&id),
                        _ => None,
                    };
                    prop_assert_eq!(map.remove_if(id, odd), expected);
                }
                3 => prop_assert_eq!(map.get(id), model.get(&id)),
                _ => {
                    let mut bump = |v: &mut u32| {
                        *v += value;
                        *v
                    };
                    prop_assert_eq!(map.get_mut(id).map(&mut bump), model.get_mut(&id).map(bump));
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert!(map.iter().eq(model.iter().map(|(&id, v)| (id, v))));
        }
    }
}
