//! End-to-end simulator throughput: slots per second under a heuristic
//! policy, and the per-decision cost of the full context build.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use mano::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc::chain::ChainId;
use sfc::request::{Request, RequestId};

fn bench_slot_throughput(c: &mut Criterion) {
    let mut scenario = Scenario::default_metro().with_arrival_rate(6.0);
    scenario.horizon_slots = 8;
    c.bench_function("sim_run_8slots_first_fit", |b| {
        b.iter_batched(
            || Simulation::new(&scenario, RewardConfig::default()),
            |mut sim| {
                let mut policy = FirstFitPolicy;
                black_box(sim.drive(RunInput::Generated, &mut policy, RunOptions::new()))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_decision_context(c: &mut Criterion) {
    let scenario = Scenario::default_metro();
    let sim = Simulation::new(&scenario, RewardConfig::default());
    let chain = sim.chains.get(ChainId(2)).clone();
    let request = Request::new(RequestId(0), ChainId(2), edgenet::node::NodeId(0), 0, 5);
    c.bench_function("decision_context_build", |b| {
        b.iter(|| {
            black_box(sim.decision_context(
                black_box(&request),
                black_box(&chain),
                1,
                edgenet::node::NodeId(2),
                3.0,
            ))
        })
    });
}

fn bench_place_request(c: &mut Criterion) {
    let scenario = Scenario::default_metro();
    c.bench_function("place_request_episode", |b| {
        b.iter_batched(
            || {
                (
                    Simulation::new(&scenario, RewardConfig::default()),
                    StdRng::seed_from_u64(7),
                )
            },
            |(mut sim, mut rng)| {
                let mut policy = GreedyLatencyPolicy;
                let req = Request::new(RequestId(1), ChainId(0), edgenet::node::NodeId(1), 0, 5);
                black_box(sim.place_request(&req, &mut policy, &mut rng))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_slot_throughput,
    bench_decision_context,
    bench_place_request
);
criterion_main!(benches);
