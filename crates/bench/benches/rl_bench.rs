//! Micro-benchmarks for the RL toolkit: replay sampling and DQN learn
//! steps — the training loop's hot path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::prelude::*;

fn filled_transition(i: usize) -> Transition {
    Transition::new(
        vec![(i % 7) as f32; 29],
        i % 4,
        0.5,
        vec![(i % 5) as f32; 29],
        i.is_multiple_of(9),
    )
}

fn bench_replay(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut uniform = UniformReplay::new(50_000);
    let mut per = PrioritizedReplay::new(50_000, PerConfig::default());
    for i in 0..50_000 {
        uniform.push(filled_transition(i));
        per.push(filled_transition(i));
    }
    let (mut ids, mut weights) = (Vec::with_capacity(32), Vec::with_capacity(32));
    c.bench_function("uniform_replay_sample32", |b| {
        b.iter(|| {
            uniform.sample_into(32, &mut rng, &mut ids, &mut weights);
            black_box((&ids, &weights));
        })
    });
    c.bench_function("prioritized_replay_sample32", |b| {
        b.iter(|| {
            per.sample_into(32, &mut rng, &mut ids, &mut weights);
            black_box((&ids, &weights));
        })
    });
}

fn bench_dqn_learn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let config = DqnConfig {
        network: QNetworkConfig::Standard {
            hidden: vec![128, 128],
        },
        replay_capacity: 10_000,
        batch_size: 32,
        learn_start: 64,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(config, 29, 10, &mut rng);
    for i in 0..1_000 {
        agent.observe(filled_transition(i), &mut rng);
    }
    c.bench_function("dqn_learn_step_batch32", |b| {
        b.iter(|| black_box(agent.learn(&mut rng)))
    });
    let state = vec![0.3f32; 29];
    let mask = vec![true; 10];
    c.bench_function("dqn_act_greedy", |b| {
        b.iter(|| black_box(agent.act_greedy(black_box(&state), black_box(&mask))))
    });
}

criterion_group!(benches, bench_replay, bench_dqn_learn);
criterion_main!(benches);
