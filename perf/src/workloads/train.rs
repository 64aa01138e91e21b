//! `train_drl`: one pass of `train_drl` with the headline DQN, single
//! thread. The write side of `rl`/`nn` (replay push and sample, backward,
//! Adam, target sync), with `core::sim` delivering `observe` feedback; a
//! forward-only optimisation should barely move it.

use super::metro::{traced_layers, Traced, TRAIN_SLOTS};
use super::{
    rep_info, summary_digest, timed_reps, timed_setup, traced_reps, Args, Checks, Outcome, Rep,
};
use crate::alloc;
use crate::metrics::{Metrics, PER_LAYER};
use crate::replay;
use crate::stats::fnv1a;
use crate::trace::{SpanName, Trace, TracedPolicy};
use drl_vnf_edge::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const QUICK_SLOTS: u64 = 60;

fn scenario(args: &Args) -> Scenario {
    let mut s = bench::bench_scenario(6.0);
    s.seed = args.seed;
    s.horizon_slots = if args.quick { QUICK_SLOTS } else { TRAIN_SLOTS };
    s
}

/// Digest of everything a training pass simulated and learned from: the
/// pass summary and every episode return, bit for bit.
fn training_digest(summary: &RunSummary, episode_returns: &[f32]) -> u64 {
    let mut bytes = summary_digest(summary).to_le_bytes().to_vec();
    bytes.extend(
        episode_returns
            .iter()
            .flat_map(|r| r.to_bits().to_le_bytes()),
    );
    fnv1a(&bytes)
}

fn untraced_rep(scenario: &Scenario) -> (Rep, DrlPolicy) {
    let live = alloc::reset_peak();
    let t0 = Instant::now();
    let trained = train_drl(scenario, RewardConfig::default(), bench::drl_default(), 1);
    let wall_s = t0.elapsed().as_secs_f64();
    let summary = &trained.pass_summaries[0];
    let rep = Rep {
        wall_s,
        requests: summary.total_arrivals,
        generated: None,
        decisions: trained.policy.agent().env_steps(),
        peak_heap_bytes: alloc::peak_above(live),
        digest: training_digest(summary, &trained.episode_returns),
        accepted: summary.total_accepted,
    };
    (rep, trained.policy)
}

/// The one-pass loop of `train_drl`, re-implemented over `DrlPolicy::new`
/// and `Simulation::drive` so that the policy can be wrapped.
fn traced_rep(scenario: &Scenario, run_id: u32, like: &Rep) -> Traced {
    let reward = RewardConfig::default();
    let mut trace = Trace::new();
    let run = trace.open(SpanName::Run, run_id, None);
    let probe = Simulation::new(scenario, reward);
    let (state_dim, action_count) = (probe.encoder.dim(), probe.action_space.len());
    drop(probe);
    let mut agent_rng = StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x5851_F42D));
    let mut policy = DrlPolicy::new(
        bench::drl_default(),
        state_dim,
        action_count,
        &mut agent_rng,
    );
    policy.set_training(true);
    let mut policy = TracedPolicy::new(policy, 2 * like.decisions as usize);
    let new = trace.open(SpanName::SimNew, run_id, Some(run));
    let mut sim = Simulation::new(scenario, reward);
    trace.close(new);
    let drive = trace.open(SpanName::SimDrive, run_id, Some(run));
    let summary = sim.drive(RunInput::Generated, &mut policy, RunOptions::new());
    trace.close(drive);
    trace.close(run);
    trace.adopt(drive, policy.log());
    let episode_returns = policy.inner_mut().take_episode_returns();
    Traced {
        wall_s: trace.totals(SpanName::Run).total_s,
        trace,
        digest: training_digest(&summary, &episode_returns),
        requests: summary.total_arrivals,
        events: sim.events_processed(),
        observes: policy.observes(),
    }
}

/// `train_drl`.
pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let set_up = timed_setup(args, &mut checks, || scenario(args), |s| untraced_rep(s).0);
    let Some((scenario, like, setup_s)) = set_up else {
        return Outcome::failed(args, checks);
    };
    let mut trained = None;
    let reps = timed_reps(args, &like, &mut checks, || {
        let (rep, policy) = untraced_rep(&scenario);
        trained = Some(policy);
        rep
    });
    let mut info = rep_info(&reps);
    let Some(trained) = trained else {
        return Outcome::end_to_end(&reps, setup_s, info, checks);
    };
    let agent = trained.agent();
    info.push(("env_steps".into(), agent.env_steps().into()));
    info.push(("learn_steps".into(), agent.learn_steps().into()));
    checks.check(agent.learn_steps() > 0, || {
        "the training pass never took a gradient step".into()
    });
    if !args.trace {
        return Outcome::end_to_end(&reps, setup_s, info, checks);
    }

    let traced = traced_reps(args.seconds * 0.4, &mut checks, |run_id| {
        traced_rep(&scenario, run_id, &like)
    });
    let mut m = Metrics::new(PER_LAYER);
    let mismatch = "the re-implemented training loop's returns or summary differ from train_drl's";
    let Some(trace) = traced_layers(
        traced,
        &like,
        &reps,
        mismatch,
        &mut checks,
        &mut info,
        &mut m,
    ) else {
        return Outcome::per_layer(m, info, checks, None);
    };
    m.set("rl.env_steps", agent.env_steps() as f64);
    m.set("rl.learn_steps", agent.learn_steps() as f64);

    replay::learn_replay(agent, &mut m);
    let (sim, captured) = replay::capture_generated(&scenario, trained.clone(), 12_000);
    info.push(("captured_decisions".into(), captured.len().into()));
    replay::engine_replay(&sim, &captured, &mut m);
    replay::construction_replay(&scenario, &mut m);
    replay::rl_replay(trained.agent(), &captured, &mut m);
    replay::nn_replay(trained.agent(), &captured, &mut m);
    Outcome::per_layer(m, info, checks, Some(trace))
}
