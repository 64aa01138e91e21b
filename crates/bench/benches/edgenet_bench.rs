//! Micro-benchmarks for the network substrate: routing-table builds and
//! lookups at experiment topology sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use edgenet::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let topo = TopologyBuilder::default().metro(16);
    let mut ledger = CapacityLedger::for_topology(&topo);
    let demand = Resources::new(2.0, 4.0);
    c.bench_function("ledger_alloc_release", |b| {
        b.iter(|| {
            ledger.allocate(NodeId(3), &demand).unwrap();
            ledger.release(NodeId(3), &demand).unwrap();
        })
    });
}

criterion_group!(benches, bench_routing, bench_capacity);
criterion_main!(benches);
