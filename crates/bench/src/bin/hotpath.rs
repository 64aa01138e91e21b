//! hotpath — the tracked decision/train-step throughput benchmark.
//!
//! Measures the two rates every training run lives and dies by:
//!
//! * **decisions/sec** — greedy action selection (`DqnAgent::act_greedy`)
//!   over realistic encoder states captured from a live simulation,
//! * **batched decisions/sec** — the same decisions answered through
//!   `DqnAgent::act_greedy_batch`: all captured states as rows of one
//!   matrix, ONE forward per round, mask-aware per-row argmax
//!   (action-parity with the per-decision loop asserted before timing),
//!   and
//! * **train-steps/sec** — full DQN learn steps (`DqnAgent::learn`:
//!   replay sample, batch assembly, double-DQN targets, forward/backward,
//!   clipped Adam update).
//!
//! Since the event-queue refactor the report also tracks the simulation
//! engine itself:
//!
//! * **events/sec** — lifecycle events (arrivals, decisions, departures,
//!   retire checks) popped per second by the discrete-event loop on a
//!   busy trace, and
//! * **idle slots/sec** — an idle-trace sparsity sweep: the same arrival
//!   prefix followed by a 10x-longer all-idle tail. The event engine
//!   pops the *same* events either way, so the tail must cost ~nothing —
//!   the report carries the measured idle-overhead ratio as evidence
//!   that sparse time is O(events), not O(slots) of work.
//!
//! Beside the train-step rate sits **`train_gemm_ratio`**: the time of the
//! learn step's widest dL/dW product over that of a forward product of
//! equal flops — near 1 while both run the one register-tile kernel.
//!
//! And the serving layer (`crates/serve`):
//!
//! * **serve decisions/sec** — eight concurrent simulations sharing one
//!   policy server under `DecisionSemantics::SlotSnapshot`, their
//!   wavefronts fusing into wide forwards, against the same eight
//!   simulations each deciding sequentially on a private policy clone.
//!
//! Decisions and train steps are measured twice: once through the
//! optimized scratch-buffer engine, and once through a faithful replica
//! of the pre-optimization pipeline (allocate-per-call tensors, the naive
//! zero-skip matmul kernels preserved in [`nn::tensor::reference`],
//! cloned forward caches, cloned replay batches); the batched series is
//! compared against the optimized per-decision path. The baseline is
//! *recomputed in the same report*, so `BENCH_hotpath.json` always
//! carries its own before/after evidence and the speedups are robust to
//! whatever machine CI lands on.
//!
//! The report also soft-compares against the previous run's file (log
//! only, never failing) so regressions are visible in CI output.

use bench::{bench_scenario, dqn_config, out_path, scaled};
use drl_vnf_edge::nn::optimizer::clip_global_norm;
use drl_vnf_edge::nn::tensor::reference;
use drl_vnf_edge::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Captured decision points: `(encoded_state, mask)` pairs from a live
/// placement run, so both paths are timed on the states the engine
/// actually produces (one-hot-heavy, ~half zeros).
struct CapturePolicy {
    inner: FirstFitPolicy,
    contexts: Vec<(Vec<f32>, Vec<bool>)>,
}

impl PlacementPolicy for CapturePolicy {
    fn name(&self) -> String {
        "capture-first-fit".into()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        self.contexts
            .push((ctx.encoded_state.clone(), ctx.mask.clone()));
        self.inner.decide(ctx, rng)
    }
}

/// The pre-optimization Q-network execution path, replayed against the
/// *same parameters* as the optimized agent: per-call allocation
/// everywhere, reference kernels (with their historical `a == 0.0` skip
/// branch), materialized activation derivatives, cloned forward caches.
struct BaselineNet {
    layers: Vec<(Matrix, Matrix, Activation)>,
}

impl BaselineNet {
    fn from_qnet(net: &QNetwork) -> Self {
        match net {
            QNetwork::Standard(mlp) => Self {
                layers: mlp
                    .layers()
                    .iter()
                    .map(|l| (l.weights().clone(), l.bias().clone(), l.activation()))
                    .collect(),
            },
            QNetwork::Dueling { .. } => {
                panic!("hotpath baseline models the standard MLP head (the headline config)")
            }
        }
    }

    /// Pre-optimization batched forward: fresh matrices per layer.
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut a = x.clone();
        for (w, b, act) in &self.layers {
            let z = reference::add_row_broadcast(&reference::matmul(&a, w), b);
            a = act.apply(&z);
        }
        a
    }

    /// Pre-optimization single-state path: `Matrix::row_vector` staging +
    /// allocating forward + `to_vec` of the output row.
    fn q_row(&self, state: &[f32]) -> Vec<f32> {
        self.forward(&Matrix::row_vector(state)).row(0).to_vec()
    }

    fn act_greedy(&self, state: &[f32], mask: &[bool]) -> usize {
        let q = self.q_row(state);
        masked_argmax(&q, mask).expect("some action valid")
    }

    /// Pre-optimization training forward: clones the input and keeps the
    /// pre-activation per layer, exactly like the old `Dense::forward_train`.
    #[allow(clippy::type_complexity)]
    fn forward_train(&self, x: &Matrix) -> (Matrix, Vec<(Matrix, Matrix)>) {
        let mut a = x.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for (w, b, act) in &self.layers {
            let z = reference::add_row_broadcast(&reference::matmul(&a, w), b);
            let out = act.apply(&z);
            caches.push((a.clone(), z));
            a = out;
        }
        (a, caches)
    }

    /// One pre-optimization learn step: cloned replay batch, fresh batch
    /// matrices, allocating double-DQN targets, materialized derivative +
    /// hadamard backward, fresh gradient matrices, clip, Adam.
    fn learn(
        &mut self,
        target: &BaselineNet,
        replay: &mut UniformReplay,
        optimizer: &mut Optimizer,
        config: &DqnConfig,
        action_count: usize,
        rng: &mut StdRng,
    ) -> f32 {
        let batch = replay.sample(config.batch_size, rng);
        let n = batch.transitions.len();
        let state_dim = self.layers[0].0.rows();

        let mut states = Matrix::zeros(n, state_dim);
        let mut next_states = Matrix::zeros(n, state_dim);
        for (r, t) in batch.transitions.iter().enumerate() {
            states.row_mut(r).copy_from_slice(&t.state);
            next_states.row_mut(r).copy_from_slice(&t.next_state);
        }

        let q_next_target = target.forward(&next_states);
        let q_next_online = self.forward(&next_states); // double DQN
        let all_valid = vec![true; action_count];
        let mut actions = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for (r, t) in batch.transitions.iter().enumerate() {
            actions.push(t.action);
            let future = if t.done {
                0.0
            } else {
                let mask = t.next_mask().unwrap_or(&all_valid);
                match masked_argmax(q_next_online.row(r), mask) {
                    Some(a_star) => q_next_target.get(r, a_star),
                    None => 0.0,
                }
            };
            targets.push(t.reward + config.gamma * future);
        }

        let (pred, caches) = self.forward_train(&states);
        let (loss, grad_out) = config
            .loss
            .evaluate_selected(&pred, &actions, &targets, None);

        // Backward, fresh matrices per layer.
        let mut grads: Vec<(Matrix, Matrix)> = Vec::with_capacity(self.layers.len());
        let mut g = grad_out;
        for ((w, _, act), (input, z)) in self.layers.iter().zip(caches.iter()).rev() {
            let grad_z = g.hadamard(&act.derivative(z));
            grads.push((reference::tmatmul(input, &grad_z), grad_z.col_sum()));
            g = reference::matmul_t(&grad_z, w);
        }
        grads.reverse();

        if let Some(limit) = config.max_grad_norm {
            let mut refs: Vec<&mut Matrix> = Vec::with_capacity(grads.len() * 2);
            for (gw, gb) in grads.iter_mut() {
                refs.push(gw);
                refs.push(gb);
            }
            clip_global_norm(&mut refs, limit);
        }
        optimizer.begin_step();
        for (i, ((w, b, _), (gw, gb))) in self.layers.iter_mut().zip(grads.iter()).enumerate() {
            optimizer.update(2 * i, w, gw);
            optimizer.update(2 * i + 1, b, gb);
        }
        loss
    }
}

fn rate(count: usize, secs: f64) -> f64 {
    count as f64 / secs.max(1e-9)
}

fn json_rates(decisions_per_sec: f64, train_steps_per_sec: f64) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    m.insert(
        "decisions_per_sec",
        serde_json::Value::from(decisions_per_sec),
    );
    m.insert(
        "train_steps_per_sec",
        serde_json::Value::from(train_steps_per_sec),
    );
    serde_json::Value::Object(m)
}

fn main() {
    let started = Instant::now();

    // ---- Capture realistic decision contexts from a live simulation.
    let mut scenario = bench_scenario(6.0);
    scenario.horizon_slots = 10;
    let mut sim = Simulation::new(&scenario, RewardConfig::default());
    let state_dim = sim.encoder.dim();
    let action_count = sim.action_space.len();
    let mut capture = CapturePolicy {
        inner: FirstFitPolicy,
        contexts: Vec::new(),
    };
    sim.drive(RunInput::Generated, &mut capture, RunOptions::new());
    let contexts = capture.contexts;
    assert!(
        contexts.len() >= 16,
        "capture run produced only {} decision contexts",
        contexts.len()
    );
    eprintln!(
        "[hotpath] captured {} contexts (state_dim={state_dim}, actions={action_count})",
        contexts.len()
    );

    // ---- Agent under test: the evaluation's reference DQN (Table 2).
    let config = DqnConfig {
        learn_start: 1,
        epsilon: EpsilonSchedule::Constant(0.0),
        ..dqn_config()
    };
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut agent = DqnAgent::new(config.clone(), state_dim, action_count, &mut rng);

    // Fill replay with transitions stitched from consecutive contexts.
    let replay_fill = 2_048.min(config.replay_capacity);
    let mut baseline_replay = UniformReplay::new(config.replay_capacity);
    for i in 0..replay_fill {
        let (s, m) = &contexts[i % contexts.len()];
        let (s2, m2) = &contexts[(i + 1) % contexts.len()];
        let action = m.iter().position(|&ok| ok).expect("some action valid");
        let t = Transition::with_mask(
            s.clone(),
            action,
            0.25 * (i % 5) as f32 - 0.5,
            s2.clone(),
            i % 9 == 0,
            m2.clone(),
        );
        baseline_replay.push(t.clone());
        agent.observe(t, &mut rng);
    }

    // ---- Baseline replica on the agent's exact parameters.
    let baseline_net = BaselineNet::from_qnet(agent.online_network());

    // Sanity: the two paths must agree decision-for-decision before any
    // timing is trusted.
    for (s, m) in &contexts {
        assert_eq!(
            agent.act_greedy(s, m),
            baseline_net.act_greedy(s, m),
            "optimized and baseline paths disagree — timing would be meaningless"
        );
    }

    // ---- decisions/sec.
    let timing_reps = 8;
    let decision_rounds = scaled(500, 100);
    let total_decisions = decision_rounds * contexts.len();

    // The batched series: all captured contexts as the rows of one
    // matrix, answered by `act_greedy_batch`'s single forward per round.
    // Parity is asserted before timing — the batched selection must be
    // bit-identical to the per-decision loop (rows are independent under
    // the kernels).
    let mut batch_states = Matrix::default();
    batch_states.begin_rows(contexts.len(), state_dim);
    let mut batch_masks: Vec<bool> = Vec::with_capacity(contexts.len() * action_count);
    for (s, m) in &contexts {
        batch_states.push_row(s);
        batch_masks.extend_from_slice(m);
    }
    let mut batch_actions = Vec::new();
    agent.act_greedy_batch(&batch_states, &batch_masks, &mut batch_actions);
    for (i, (s, m)) in contexts.iter().enumerate() {
        assert_eq!(
            batch_actions[i],
            agent.act_greedy(s, m),
            "batched and per-decision selection disagree — timing would be meaningless"
        );
    }

    // The three decision series are timed as best-of-N *interleaved*
    // repetitions: the container shares its core, so contention arrives
    // in bursts longer than one measurement; interleaving puts every
    // series inside each burst-free window, and the per-series max is the
    // standard low-noise estimator. The trend gate downstream needs
    // stable rates (and above all a stable batched/per-decision ratio),
    // not averaged-in neighbor noise.
    let mut sink = 0usize;
    let mut optimized_decisions = 0.0f64;
    let mut baseline_decisions = 0.0f64;
    let mut batched_decisions = 0.0f64;
    for _ in 0..timing_reps {
        let t0 = Instant::now();
        for _ in 0..decision_rounds {
            for (s, m) in &contexts {
                sink = sink.wrapping_add(agent.act_greedy(s, m));
            }
        }
        optimized_decisions =
            optimized_decisions.max(rate(total_decisions, t0.elapsed().as_secs_f64()));

        let t0 = Instant::now();
        for _ in 0..decision_rounds {
            for (s, m) in &contexts {
                sink = sink.wrapping_add(baseline_net.act_greedy(s, m));
            }
        }
        baseline_decisions =
            baseline_decisions.max(rate(total_decisions, t0.elapsed().as_secs_f64()));

        let t0 = Instant::now();
        for _ in 0..decision_rounds {
            agent.act_greedy_batch(&batch_states, &batch_masks, &mut batch_actions);
            sink = sink.wrapping_add(batch_actions[0]);
        }
        batched_decisions =
            batched_decisions.max(rate(total_decisions, t0.elapsed().as_secs_f64()));
    }
    std::hint::black_box(sink);

    // ---- train-steps/sec: best-of-N interleaved like the decision
    // series — this series is CI-gated too, so it gets the same noise
    // treatment. Training keeps learning across repetitions (the agents'
    // per-step cost does not depend on training progress), and the
    // baseline's target-sync cadence runs on its global step count.
    let train_steps = scaled(200, 20);
    let total_train_steps = timing_reps * train_steps;
    let mut train_rng = StdRng::seed_from_u64(0xD1CE);
    let mut baseline_train_net = BaselineNet::from_qnet(agent.online_network());
    let mut baseline_target_net = BaselineNet::from_qnet(agent.online_network());
    let mut baseline_opt = config.optimizer.build();
    let mut baseline_train_rng = StdRng::seed_from_u64(0xD1CE);
    let mut baseline_step = 0u64;
    let mut optimized_train = 0.0f64;
    let mut baseline_train = 0.0f64;
    for _ in 0..timing_reps {
        let t0 = Instant::now();
        for _ in 0..train_steps {
            std::hint::black_box(agent.learn(&mut train_rng));
        }
        optimized_train = optimized_train.max(rate(train_steps, t0.elapsed().as_secs_f64()));

        let t0 = Instant::now();
        for _ in 0..train_steps {
            std::hint::black_box(baseline_train_net.learn(
                &baseline_target_net,
                &mut baseline_replay,
                &mut baseline_opt,
                &config,
                action_count,
                &mut baseline_train_rng,
            ));
            // Periodic hard target sync, exactly as the pre-optimization
            // learn performed it (a full parameter clone every
            // target_sync_every learn steps) — the optimized agent does
            // the same internally.
            baseline_step += 1;
            if config.target_sync_every > 0
                && baseline_step.is_multiple_of(config.target_sync_every)
            {
                baseline_target_net.layers = baseline_train_net.layers.clone();
            }
        }
        baseline_train = baseline_train.max(rate(train_steps, t0.elapsed().as_secs_f64()));
    }

    // ---- train_gemm_ratio: the learn step's widest dL/dW product
    // (batch x hidden input, transposed, times batch x hidden dL/dz),
    // computed the way `Dense` computes it — pack the transpose, then
    // `matmul_into` — over a forward product of equal flops (batch x
    // hidden times hidden x hidden). Both run the one register-tile
    // kernel, so the ratio sits a little above 1 (the pack). It is
    // informational, not trend-gated: a compiler or CPU on which the
    // training product stops vectorizing shows up here as a number instead
    // of hiding inside train-steps/sec.
    let train_gemm_ratio = {
        let hidden = baseline_net.layers[0].0.cols();
        let dense = |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * 31 + c * 17) % 23) as f32 * 0.125 - 1.0
            })
        };
        let x = dense(config.batch_size, hidden);
        let grad_z = dense(config.batch_size, hidden);
        let w = dense(hidden, hidden);
        let (mut x_t, mut out) = (Matrix::default(), Matrix::default());
        let calls = scaled(2_000, 200);
        let (mut train_wall, mut forward_wall) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..timing_reps {
            let t0 = Instant::now();
            for _ in 0..calls {
                std::hint::black_box(&x).transpose_into(&mut x_t);
                x_t.matmul_into(std::hint::black_box(&grad_z), &mut out);
            }
            train_wall = train_wall.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            for _ in 0..calls {
                std::hint::black_box(&x).matmul_into(std::hint::black_box(&w), &mut out);
            }
            forward_wall = forward_wall.min(t0.elapsed().as_secs_f64());
        }
        std::hint::black_box(&out);
        train_wall / forward_wall.max(1e-12)
    };

    let decision_speedup = optimized_decisions / baseline_decisions.max(1e-9);
    let batched_speedup = batched_decisions / optimized_decisions.max(1e-9);
    let train_speedup = optimized_train / baseline_train.max(1e-9);
    eprintln!(
        "[hotpath] decisions/sec: {optimized_decisions:.0} vs baseline {baseline_decisions:.0} ({decision_speedup:.2}x)"
    );
    eprintln!(
        "[hotpath] batched decisions/sec: {batched_decisions:.0} ({batched_speedup:.2}x over the per-decision path)"
    );
    eprintln!(
        "[hotpath] train-steps/sec: {optimized_train:.1} vs baseline {baseline_train:.1} ({train_speedup:.2}x)"
    );

    eprintln!(
        "[hotpath] train_gemm_ratio: {train_gemm_ratio:.2} (dL/dW product over an equal-flop forward product)"
    );

    // ---- events/sec + the idle-trace sparsity sweep.
    //
    // Both runs replay the SAME deterministic arrival prefix; the sparse
    // run then idles for 10x the horizon. The event queue pops an
    // identical event sequence either way (idle slots schedule nothing),
    // so any extra wall clock on the long run is pure per-slot billing
    // overhead — the ratio is the O(events)-not-O(slots) evidence.
    let active_slots: u64 = 20;
    let idle_factor: u64 = 10;
    let mut requests = Vec::new();
    for slot in 0..active_slots {
        for k in 0..4u64 {
            let i = slot * 4 + k;
            requests.push(Request::new(
                RequestId(i),
                ChainId((i % 4) as usize),
                edgenet::node::NodeId((i % 4) as usize),
                slot,
                1 + ((i * 7) % 4) as u32,
            ));
        }
    }
    let busy_trace = Trace {
        requests: requests.clone(),
        horizon_slots: active_slots,
    };
    let idle_trace = Trace {
        requests,
        horizon_slots: active_slots * idle_factor,
    };
    let event_scenario = {
        let mut s = bench_scenario(6.0);
        s.horizon_slots = active_slots;
        s
    };
    let timed_run = |trace: &Trace| -> (f64, u64, u64) {
        let mut sim = Simulation::new(&event_scenario, RewardConfig::default());
        let mut policy = FirstFitPolicy;
        let t0 = Instant::now();
        let _ = sim.drive(RunInput::Trace(trace), &mut policy, RunOptions::new());
        (
            t0.elapsed().as_secs_f64(),
            sim.events_processed(),
            sim.metrics().slots().len() as u64,
        )
    };
    // Interleaved best-of, like every other series: the ratio needs both
    // walls sampled inside the same contention-free window.
    let mut busy_wall = f64::INFINITY;
    let mut idle_wall = f64::INFINITY;
    let mut busy_events = 0u64;
    let mut idle_events = 0u64;
    let mut idle_slots = 0u64;
    for _ in 0..timing_reps {
        let (w, e, _) = timed_run(&busy_trace);
        busy_wall = busy_wall.min(w);
        busy_events = e;
        let (w, e, s) = timed_run(&idle_trace);
        idle_wall = idle_wall.min(w);
        idle_events = e;
        idle_slots = s;
    }
    // The tail drains flows still alive at the short horizon (departures
    // plus their retire checks) but schedules nothing per slot: the extra
    // pops are bounded by the arrival count, not the idle slot count.
    let extra_events = idle_events.saturating_sub(busy_events);
    assert!(
        extra_events < (idle_factor - 1) * active_slots,
        "idle tail popped {extra_events} extra events — that smells like per-slot work"
    );
    let events_per_sec = rate(busy_events as usize, busy_wall);
    let idle_slots_per_sec = rate(idle_slots as usize, idle_wall);
    let idle_overhead_ratio = idle_wall / busy_wall.max(1e-9);
    eprintln!(
        "[hotpath] events/sec: {events_per_sec:.0} ({busy_events} events over {active_slots} slots)"
    );
    eprintln!(
        "[hotpath] idle sweep: {idle_factor}x horizon costs {idle_overhead_ratio:.2}x wall \
         ({idle_slots_per_sec:.0} slots/sec billed; O(events), not O(slots))"
    );

    // ---- serve: cross-simulation fused decision serving.
    //
    // Eight concurrent simulations share ONE policy server; every slot's
    // decision wavefront crosses the ring and fuses with whatever the
    // other simulations have pending, so the server's forwards run wide
    // enough to hit the register-tiled kernels (a single simulation's
    // sub-8-row waves cannot). The baseline is the same eight
    // simulations each running per-decision sequential inference on a
    // private policy clone — the pre-serving deployment shape. The two
    // modes legitimately take different trajectories (snapshot vs
    // sequential semantics), so each side counts its own decisions.
    let serve_sims: usize = 8;
    let serve_seeds: Vec<u64> = (0..serve_sims as u64).collect();
    // A busy serving workload: wide per-slot wavefronts are the regime
    // the serving layer exists for (many users per simulation), and they
    // amortize the per-wave ring round-trip over more fused rows.
    let serve_scenario = {
        let mut s = bench_scenario(20.0);
        s.workload.mean_duration_slots = 4.0;
        s.horizon_slots = scaled(60, 15) as u64;
        s
    };
    let serve_policy = {
        let probe = Simulation::new(&serve_scenario, RewardConfig::default());
        let dim = probe.encoder.dim();
        let actions = probe.action_space.len();
        drop(probe);
        // A serving-scale Q-network: policy servers exist because the
        // served model is expensive — the fleet amortizes it. Twice the
        // reference width keeps the per-decision forward honest for the
        // deployment shape this series models.
        let manager = DrlManagerConfig {
            dqn: DqnConfig {
                network: QNetworkConfig::Standard {
                    hidden: vec![256, 256],
                },
                epsilon: EpsilonSchedule::Constant(0.0),
                ..dqn_config()
            },
            label: "drl".into(),
        };
        let mut serve_rng = StdRng::seed_from_u64(0x5EED);
        let mut p = DrlPolicy::new(manager, dim, actions, &mut serve_rng);
        p.set_training(false);
        p
    };
    let serve_cells = cells_for_seeds("hotpath-serve", 6.0, &serve_scenario, &serve_seeds);
    let serve_reps = 3;
    let mut baseline_serve_rate = 0.0f64;
    let mut serve_rate = 0.0f64;
    let mut serve_stats = ServeStats::default();
    for _ in 0..serve_reps {
        let t0 = Instant::now();
        let counts = run_indexed_with(
            serve_sims,
            serve_sims,
            || serve_policy.clone(),
            |worker, index| {
                let mut sim = Simulation::new(&serve_scenario, RewardConfig::default());
                sim.drive(
                    RunInput::Generated,
                    worker,
                    RunOptions::new().with_seed_offset(serve_seeds[index]),
                );
                sim.metrics().decision_count()
            },
        );
        let total: u64 = counts.iter().sum();
        baseline_serve_rate =
            baseline_serve_rate.max(rate(total as usize, t0.elapsed().as_secs_f64()));

        let t0 = Instant::now();
        let (_, stats) = serve_evaluations(
            serve_policy.clone(),
            ServeConfig::default(),
            RewardConfig::default(),
            &serve_cells,
            Some(serve_sims),
            DecisionSemantics::SlotSnapshot,
        );
        serve_rate = serve_rate.max(rate(stats.decisions as usize, t0.elapsed().as_secs_f64()));
        serve_stats = stats;
    }
    let serve_speedup = serve_rate / baseline_serve_rate.max(1e-9);
    eprintln!(
        "[hotpath] serve decisions/sec: {serve_rate:.0} vs {baseline_serve_rate:.0} per-sim sequential \
         ({serve_speedup:.2}x at {serve_sims} sims; {:.1} mean rows/forward, widest {})",
        serve_stats.mean_rows_per_tick(),
        serve_stats.max_rows_per_tick
    );

    // ---- Soft comparison against the previous run (log-only: machine
    // noise must never fail CI, it just has to be visible there).
    let report_path = out_path("BENCH_hotpath.json");
    if let Ok(text) = std::fs::read_to_string(&report_path) {
        if let Ok(prev) = serde_json::from_str(&text) {
            let prev: serde_json::Value = prev;
            if let Some(prev_rate) = prev
                .get("optimized")
                .and_then(|o| o.get("decisions_per_sec"))
                .and_then(serde_json::Value::as_f64)
            {
                let ratio = optimized_decisions / prev_rate.max(1e-9);
                let verdict = if ratio < 0.9 {
                    "REGRESSION (>10% slower — investigate)"
                } else if ratio > 1.1 {
                    "improvement"
                } else {
                    "steady"
                };
                eprintln!(
                    "[hotpath] vs previous run: {ratio:.2}x decisions/sec ({verdict}; previous {prev_rate:.0}/s)"
                );
            }
        }
    } else {
        eprintln!("[hotpath] no previous BENCH_hotpath.json — starting the trajectory");
    }

    // ---- Emit the report.
    let mut cfg = serde_json::Map::new();
    cfg.insert("state_dim", serde_json::Value::from(state_dim as u64));
    cfg.insert("action_count", serde_json::Value::from(action_count as u64));
    cfg.insert(
        "batch_size",
        serde_json::Value::from(config.batch_size as u64),
    );
    cfg.insert("contexts", serde_json::Value::from(contexts.len() as u64));
    cfg.insert(
        "decisions_timed",
        serde_json::Value::from(total_decisions as u64),
    );
    cfg.insert("batch_rows", serde_json::Value::from(contexts.len() as u64));
    cfg.insert(
        "train_steps_timed",
        serde_json::Value::from(total_train_steps as u64),
    );

    let mut speedup = serde_json::Map::new();
    speedup.insert("decisions", serde_json::Value::from(decision_speedup));
    speedup.insert(
        "batched_decisions",
        serde_json::Value::from(batched_speedup),
    );
    speedup.insert("train_steps", serde_json::Value::from(train_speedup));

    let mut doc = serde_json::Map::new();
    doc.insert("schema_version", serde_json::Value::from(1u64));
    doc.insert("name", serde_json::Value::from("hotpath"));
    doc.insert("config", serde_json::Value::Object(cfg));
    doc.insert("baseline", json_rates(baseline_decisions, baseline_train));
    let optimized = {
        let mut m = match json_rates(optimized_decisions, optimized_train) {
            serde_json::Value::Object(m) => m,
            _ => unreachable!("json_rates builds an object"),
        };
        m.insert(
            "batched_decisions_per_sec",
            serde_json::Value::from(batched_decisions),
        );
        m.insert("events_per_sec", serde_json::Value::from(events_per_sec));
        m.insert(
            "idle_slots_per_sec",
            serde_json::Value::from(idle_slots_per_sec),
        );
        m.insert(
            "serve_decisions_per_sec",
            serde_json::Value::from(serve_rate),
        );
        serde_json::Value::Object(m)
    };
    doc.insert("optimized", optimized);
    let serve = {
        let mut m = serde_json::Map::new();
        m.insert(
            "concurrent_sims",
            serde_json::Value::from(serve_sims as u64),
        );
        m.insert(
            "baseline_decisions_per_sec",
            serde_json::Value::from(baseline_serve_rate),
        );
        m.insert(
            "serve_decisions_per_sec",
            serde_json::Value::from(serve_rate),
        );
        m.insert("speedup", serde_json::Value::from(serve_speedup));
        m.insert("ticks", serde_json::Value::from(serve_stats.ticks));
        m.insert(
            "mean_rows_per_tick",
            serde_json::Value::from(serve_stats.mean_rows_per_tick()),
        );
        m.insert(
            "max_rows_per_tick",
            serde_json::Value::from(serve_stats.max_rows_per_tick),
        );
        serde_json::Value::Object(m)
    };
    doc.insert("serve", serve);
    let sparse = {
        let mut m = serde_json::Map::new();
        m.insert("active_slots", serde_json::Value::from(active_slots));
        m.insert("idle_factor", serde_json::Value::from(idle_factor));
        m.insert("events", serde_json::Value::from(busy_events));
        m.insert("busy_wall_secs", serde_json::Value::from(busy_wall));
        m.insert("idle_wall_secs", serde_json::Value::from(idle_wall));
        m.insert(
            "idle_overhead_ratio",
            serde_json::Value::from(idle_overhead_ratio),
        );
        serde_json::Value::Object(m)
    };
    doc.insert("sparse", sparse);
    doc.insert("speedup", serde_json::Value::Object(speedup));
    doc.insert(
        "train_gemm_ratio",
        serde_json::Value::from(train_gemm_ratio),
    );
    doc.insert(
        "wall_clock_secs",
        serde_json::Value::from(started.elapsed().as_secs_f64()),
    );

    write_lines(
        &report_path,
        &[serde_json::to_string_pretty(&serde_json::Value::Object(
            doc,
        ))],
    )
    .expect("write BENCH_hotpath.json");
    eprintln!(
        "[hotpath] wrote {} ({:.2}s wall)",
        report_path.display(),
        started.elapsed().as_secs_f64()
    );
}
