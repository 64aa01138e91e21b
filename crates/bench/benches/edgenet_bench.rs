//! Micro-benchmarks for the network substrate: routing-table builds and
//! lookups at experiment topology sizes, and the per-node usage
//! accounting that a spawn and a retire pay.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use edgenet::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc::instance::InstancePool;
use sfc::vnf::{VnfCatalog, VnfTypeId};

fn bench_routing(c: &mut Criterion) {
    let metro = TopologyBuilder::default().metro(16);
    c.bench_function("routing_build_metro16", |b| {
        b.iter(|| black_box(RoutingTable::build(black_box(&metro))))
    });
    let mut rng = StdRng::seed_from_u64(0);
    let wax = TopologyBuilder::default().waxman(64, 600.0, 0.7, 0.3, &mut rng);
    c.bench_function("routing_build_waxman64", |b| {
        b.iter(|| black_box(RoutingTable::build(black_box(&wax))))
    });
    let table = RoutingTable::build(&metro);
    c.bench_function("routing_lookup", |b| {
        b.iter(|| black_box(table.latency_ms(NodeId(0), NodeId(12))))
    });
}

fn bench_capacity(c: &mut Criterion) {
    let vnfs = VnfCatalog::standard();
    let mut pool = InstancePool::new();
    c.bench_function("pool_spawn_retire", |b| {
        b.iter(|| {
            let id = pool.spawn(VnfTypeId(1), NodeId(3), 0, &vnfs);
            pool.retire(id, &vnfs).unwrap();
        })
    });
}

criterion_group!(benches, bench_routing, bench_capacity);
criterion_main!(benches);
