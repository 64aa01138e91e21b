//! Replays: public functions of one layer, timed on inputs captured from
//! a real run against the world that run left behind (the `hotpath`
//! method). A replay times one layer alone, so its numbers bound what a
//! change to that layer can save in a whole run.

use crate::metrics::Metrics;
use crate::stats::median;
use drl_vnf_edge::nn::tensor::Matrix;
use drl_vnf_edge::prelude::*;
use drl_vnf_edge::sfc::request::Request;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One decision point as the engine presented it to the policy.
#[derive(Debug, Clone)]
pub struct Captured {
    request: Request,
    position: usize,
    at_node: NodeId,
    consumed_latency_ms: f64,
    state: Vec<f32>,
    mask: Vec<bool>,
}

/// Passes every decision to `inner` and keeps the first `limit` decision
/// points it saw. Used for one untimed run per traced invocation.
pub struct CapturePolicy<P> {
    inner: P,
    limit: usize,
    captured: Vec<Captured>,
}

impl<P: PlacementPolicy> CapturePolicy<P> {
    /// Captures up to `limit` decision points of `inner`'s run.
    pub fn new(inner: P, limit: usize) -> Self {
        Self {
            inner,
            limit,
            captured: Vec::with_capacity(limit),
        }
    }

    /// The captured decision points.
    pub fn into_captured(self) -> Vec<Captured> {
        self.captured
    }
}

impl<P: PlacementPolicy> PlacementPolicy for CapturePolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        if self.captured.len() < self.limit {
            self.captured.push(Captured {
                request: ctx.request.clone(),
                position: ctx.position,
                at_node: ctx.at_node,
                consumed_latency_ms: ctx.consumed_latency_ms,
                state: ctx.encoded_state.clone(),
                mask: ctx.mask.clone(),
            });
        }
        self.inner.decide(ctx, rng)
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.inner.observe(feedback, rng);
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }
}

/// Runs the scenario's own trace under `policy` and returns the world it
/// left with the decision points it met.
pub fn capture_generated<P: PlacementPolicy>(
    scenario: &Scenario,
    policy: P,
    limit: usize,
) -> (Simulation, Vec<Captured>) {
    let mut sim = Simulation::new(scenario, RewardConfig::default());
    let mut capture = CapturePolicy::new(policy, limit);
    sim.drive(RunInput::Generated, &mut capture, RunOptions::new());
    (sim, capture.into_captured())
}

/// Times `body` over `rounds` rounds of `calls` calls each and returns the
/// median nanoseconds per call.
fn ns_per_call(rounds: usize, calls: usize, mut body: impl FnMut()) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64
        })
        .collect();
    median(&per_round)
}

const ROUNDS: usize = 7;

/// `core::sim` and `core::state`: candidate build, full decision context,
/// and state encoding, each over every captured decision point.
pub fn engine_replay(sim: &Simulation, captured: &[Captured], m: &mut Metrics) {
    if captured.is_empty() {
        return;
    }
    let chains: Vec<_> = captured
        .iter()
        .map(|c| sim.chains.get(c.request.chain).clone())
        .collect();
    let mut candidates = Vec::new();
    let candidates_ns = ns_per_call(ROUNDS, captured.len(), || {
        for (c, chain) in captured.iter().zip(&chains) {
            sim.candidates_into(chain, c.position, c.at_node, &mut candidates);
            black_box(&candidates);
        }
    });
    let context_ns = ns_per_call(ROUNDS, captured.len(), || {
        for (c, chain) in captured.iter().zip(&chains) {
            black_box(sim.decision_context(
                &c.request,
                chain,
                c.position,
                c.at_node,
                c.consumed_latency_ms,
            ));
        }
    });
    // The encoder reads the candidate list; build each one outside the
    // timed region, a bounded number so the lists stay small.
    let sample = &captured[..captured.len().min(2_048)];
    let lists: Vec<Vec<CandidateInfo>> = sample
        .iter()
        .zip(&chains)
        .map(|(c, chain)| sim.candidates(chain, c.position, c.at_node))
        .collect();
    let mut state = Vec::new();
    let scenario = sim.scenario();
    let encode_ns = ns_per_call(ROUNDS, sample.len(), || {
        for ((c, chain), list) in sample.iter().zip(&chains).zip(&lists) {
            sim.encoder.encode_into(
                sim.ledger(),
                &sim.pool,
                &sim.vnfs,
                chain,
                c.position,
                c.request.source,
                c.at_node,
                c.consumed_latency_ms,
                scenario.max_instance_utilization,
                sim.slot(),
                sim.network.health(),
                list,
                &mut state,
            );
            black_box(&state);
        }
    });
    m.set("sim.candidates_ns", candidates_ns);
    m.set("sim.context_ns", context_ns);
    m.set("state.encode_ns", encode_ns);
}

/// `Simulation::new` for `scenario`: median of 50.
pub fn construction_replay(scenario: &Scenario, m: &mut Metrics) {
    let us = ns_per_call(50, 1, || {
        black_box(Simulation::new(scenario, RewardConfig::default()));
    }) * 1e-3;
    m.set("sim.new_us", us);
}

/// Row-major `(states, masks)` of the first `rows` captured decisions,
/// cycling when fewer were captured.
fn batch_of(captured: &[Captured], rows: usize) -> (Matrix, Vec<bool>) {
    let mut states = Matrix::default();
    states.begin_rows(rows, captured[0].state.len());
    let mut masks = Vec::with_capacity(rows * captured[0].mask.len());
    for c in captured.iter().cycle().take(rows) {
        states.push_row(&c.state);
        masks.extend_from_slice(&c.mask);
    }
    (states, masks)
}

/// `rl`: greedy action selection per decision and per batched row (16 is
/// the served fleet's real tick width, 128 the kernels' best case).
pub fn rl_replay(agent: &DqnAgent, captured: &[Captured], m: &mut Metrics) {
    if captured.is_empty() {
        return;
    }
    let mut agent = agent.clone();
    let sample = &captured[..captured.len().min(4_096)];
    let greedy_ns = ns_per_call(ROUNDS, sample.len(), || {
        let mut sink = 0usize;
        for c in sample {
            sink = sink.wrapping_add(agent.act_greedy(&c.state, &c.mask));
        }
        black_box(sink);
    });
    m.set("rl.act_greedy_ns", greedy_ns);
    let mut actions = Vec::new();
    for (rows, name) in [
        (16usize, "rl.act_batch16_ns_per_row"),
        (128, "rl.act_batch128_ns_per_row"),
    ] {
        let (states, masks) = batch_of(sample, rows);
        let batches = (sample.len() / rows).max(8);
        let per_row = ns_per_call(ROUNDS, batches * rows, || {
            for _ in 0..batches {
                agent.act_greedy_batch(&states, &masks, &mut actions);
                black_box(&actions);
            }
        });
        m.set(name, per_row);
    }
}

/// `rl` write side: one `DqnAgent::learn` step on the replay the agent
/// already holds.
pub fn learn_replay(agent: &DqnAgent, m: &mut Metrics) {
    if agent.replay_len() < agent.config().batch_size {
        return;
    }
    let mut agent = agent.clone();
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let steps = 50;
    let ns = ns_per_call(ROUNDS, steps, || {
        for _ in 0..steps {
            black_box(agent.learn(&mut rng));
        }
    });
    m.set("rl.learn_us", ns * 1e-3);
}

/// `nn`: the Q-network's forward at 1 and 128 rows and a 32-row
/// forward + backward, with operation and byte counts *computed* from the
/// layer shapes (a CPU run cannot measure them).
pub fn nn_replay(agent: &DqnAgent, captured: &[Captured], m: &mut Metrics) {
    let QNetwork::Standard(mlp) = agent.online_network() else {
        return;
    };
    if captured.is_empty() {
        return;
    }
    let mut mlp = mlp.clone();
    let flops: usize = mlp
        .layers()
        .iter()
        .map(|l| 2 * l.in_dim() * l.out_dim() + l.out_dim())
        .sum();
    // One row at batch 1: every parameter is read once, every activation
    // written once and read once.
    let bytes: usize = mlp
        .layers()
        .iter()
        .map(|l| 4 * (l.param_count() + l.in_dim() + l.out_dim()))
        .sum();
    m.set("nn.flops_per_row", flops as f64);
    m.set("nn.bytes_per_row", bytes as f64);

    let mut ws = Workspace::new();
    // A different state per call, as in a run: the kernels skip zero
    // inputs, so one state repeated would train the branch predictor.
    let singles: Vec<Matrix> = captured
        .iter()
        .take(2_048)
        .map(|c| Matrix::row_vector(&c.state))
        .collect();
    let forward1_ns = ns_per_call(ROUNDS, singles.len(), || {
        for one in &singles {
            black_box(mlp.forward_into(one, &mut ws));
        }
    });
    let (wide, _) = batch_of(captured, 128);
    let calls = 64;
    let forward128_ns = ns_per_call(ROUNDS, calls * 128, || {
        for _ in 0..calls {
            black_box(mlp.forward_into(black_box(&wide), &mut ws));
        }
    });
    m.set("nn.forward1_ns", forward1_ns);
    m.set("nn.forward128_ns_per_row", forward128_ns);
    m.set("nn.gflops_1", flops as f64 / forward1_ns);
    m.set("nn.gflops_128", flops as f64 / forward128_ns);

    let (batch, _) = batch_of(captured, 32);
    let grad = Matrix::full(32, mlp.output_dim(), 0.01);
    let calls = 64;
    let fwd_bwd_ns = ns_per_call(ROUNDS, calls, || {
        for _ in 0..calls {
            black_box(mlp.forward_train_scratch(&batch));
            mlp.backward_scratch(&grad);
        }
    });
    m.set("nn.fwd_bwd32_us", fwd_bwd_ns * 1e-3);
}
