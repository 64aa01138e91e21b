//! Micro-benchmarks for the neural-network substrate: forward and
//! forward+backward passes at the DQN's working sizes, through the
//! workspace pipeline the agent runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let config = MlpConfig::new(64, &[128, 128], 10);
    let net = Mlp::new(&config, &mut rng);
    let mut ws = Workspace::new();
    let batch = Matrix::from_fn(32, 64, |r, c| ((r * 31 + c) % 17) as f32 / 17.0);
    c.bench_function("mlp_forward_32x64_128x128x10", |b| {
        b.iter(|| {
            black_box(net.forward_into(black_box(&batch), &mut ws));
        })
    });
    let single: Vec<f32> = (0..64).map(|c| (c % 13) as f32 / 13.0).collect();
    c.bench_function("mlp_forward_single", |b| {
        b.iter(|| {
            black_box(net.forward_one_into(black_box(&single), &mut ws));
        })
    });
}

/// One DQN update (`train_selected`: forward, Huber TD loss on the taken
/// actions, backward, clipped Adam step) on a 32-row batch.
fn bench_train_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let config = MlpConfig::new(64, &[128, 128], 10);
    let mut net = Mlp::new(&config, &mut rng);
    let mut adam = OptimizerConfig::adam(1e-3).build();
    let x = Matrix::from_fn(32, 64, |r, c| ((r * 7 + c) % 19) as f32 / 19.0);
    let actions: Vec<usize> = (0..32).map(|r| r % 10).collect();
    let targets: Vec<f32> = (0..32).map(|r| (r % 5) as f32 / 5.0).collect();
    c.bench_function("mlp_train_selected32", |b| {
        b.iter(|| {
            black_box(net.train_selected(
                &x,
                &actions,
                &targets,
                None,
                Loss::Huber(1.0),
                &mut adam,
                Some(10.0),
            ))
        })
    });
}

fn bench_matmul(c: &mut Criterion) {
    let a = Matrix::from_fn(128, 128, |r, c| ((r * c) % 23) as f32 / 23.0);
    let bm = Matrix::from_fn(128, 128, |r, c| ((r + c) % 29) as f32 / 29.0);
    c.bench_function("matmul_128x128", |b| {
        b.iter(|| black_box(a.matmul(black_box(&bm))))
    });
}

criterion_group!(benches, bench_forward, bench_train_step, bench_matmul);
criterion_main!(benches);
