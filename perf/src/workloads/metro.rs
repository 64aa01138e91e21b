//! `metro_heuristic` and `metro_drl`: one lazily generated city-scale
//! arrival stream through the event engine, single thread. The two differ
//! only in the policy, so the first is the engine-only control for the
//! second: a change to `nn`/`rl` must leave `metro_heuristic` alone.

use super::{
    best_wall, rep_info, summary_digest, timed_reps, timed_setup, traced_reps, Args, Checks,
    Outcome, Rep,
};
use crate::alloc;
use crate::metrics::{Metrics, PER_LAYER};
use crate::replay::{self, CapturePolicy};
use crate::trace::{SpanName, Trace, TracedPolicy, TracedStream};
use drl_vnf_edge::edgenet::node::Resources;
use drl_vnf_edge::prelude::*;
use serde_json::Value;
use std::time::Instant;

/// Horizon of the stream in slots: three simulated weeks of the default
/// city's rush-hour and weekday curves, so every weekday factor weighs
/// the same. ~24.4k requests and ~83k decisions at 3 requests/slot
/// baseline: both sit mid-way between two powers of two, so that a log
/// the program grows by doubling peaks at the same size on every seed
/// (at four weeks, ~32.5k requests straddled 2^15 and `peak_heap_bytes`
/// jumped by 58% between seeds).
const HORIZON_SLOTS: u64 = 3 * 7 * 288;
const QUICK_HORIZON_SLOTS: u64 = 600;
/// Slots the set-up trains the DQN for: long enough to pass
/// `learn_start` and take real gradient steps, short enough to repeat.
pub(super) const TRAIN_SLOTS: u64 = 120;
const QUICK_TRAIN_SLOTS: u64 = 30;

/// Everything a repetition needs besides the policy.
struct World {
    scenario: Scenario,
    profile: MetroProfile,
    sites: Vec<NodeId>,
    slot_ms: u64,
    horizon: u64,
}

fn world(args: &Args) -> World {
    let mut scenario = Scenario::default_metro();
    scenario.topology_builder.edge_capacity = Resources::new(32.0, 128.0);
    scenario.seed = args.seed;
    let slot_ms = (scenario.slot_seconds * 1000.0).round() as u64;
    let sites = (0..scenario.topology.site_count()).map(NodeId).collect();
    let mut profile = MetroProfile::default_city(args.seed);
    profile.base_rate = 3.0;
    profile.mean_duration_ms = 6.0 * slot_ms as f64;
    World {
        scenario,
        profile,
        sites,
        slot_ms,
        horizon: if args.quick {
            QUICK_HORIZON_SLOTS
        } else {
            HORIZON_SLOTS
        },
    }
}

/// The frozen headline DQN, trained one pass on the evaluation scenario.
/// The training scenario keeps the library's own seed: `--seed` varies
/// the requests a workload serves, not the network that serves them, so
/// the cost of a request is comparable from seed to seed.
pub(super) fn trained_policy(args: &Args) -> DrlPolicy {
    let mut scenario = bench::bench_scenario(6.0);
    scenario.horizon_slots = if args.quick {
        QUICK_TRAIN_SLOTS
    } else {
        TRAIN_SLOTS
    };
    train_drl(&scenario, RewardConfig::default(), bench::drl_default(), 1).policy
}

fn options<'t>(w: &World, sink: &'t mut TelemetrySink) -> RunOptions<'t> {
    RunOptions::new()
        .sparse()
        .with_streaming_metrics()
        .with_horizon(w.horizon)
        .with_telemetry(sink)
}

/// One run as its caller sees it: build the simulation, drive the
/// stream through it, summarise. Construction is inside the measured
/// call, so work moved from `drive` into `new` cannot hide.
fn untraced_rep(w: &World, policy: &mut dyn PlacementPolicy) -> Rep {
    let mut sink = TelemetrySink::new();
    let mut source = w.profile.stream(&w.sites, w.horizon, w.slot_ms);
    let mut stream = (&mut source).map(TimedArrival::from);
    let live = alloc::reset_peak();
    let t0 = Instant::now();
    let mut sim = Simulation::new(&w.scenario, RewardConfig::default());
    let summary = sim.drive(RunInput::Stream(&mut stream), policy, options(w, &mut sink));
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_above(live);
    Rep {
        wall_s,
        requests: summary.total_arrivals,
        generated: Some(source.emitted()),
        decisions: sim.metrics().decision_count(),
        peak_heap_bytes,
        digest: summary_digest(&summary),
        accepted: summary.total_accepted,
    }
}

/// What one traced repetition of a single-threaded engine workload
/// yields: its spans, and the counts read from public accessors.
pub(super) struct Traced {
    pub(super) trace: Trace,
    pub(super) wall_s: f64,
    pub(super) digest: u64,
    pub(super) requests: u64,
    pub(super) events: u64,
    pub(super) observes: u64,
}

fn traced_rep<P: PlacementPolicy>(w: &World, policy: P, run_id: u32, like: &Rep) -> Traced {
    let mut trace = Trace::new();
    let run = trace.open(SpanName::Run, run_id, None);
    let new = trace.open(SpanName::SimNew, run_id, Some(run));
    let mut sim = Simulation::new(&w.scenario, RewardConfig::default());
    trace.close(new);
    let mut sink = TelemetrySink::new();
    let mut source = w.profile.stream(&w.sites, w.horizon, w.slot_ms);
    let mut stream = TracedStream::new(
        (&mut source).map(TimedArrival::from),
        like.requests as usize + 1,
    );
    let mut policy = TracedPolicy::new(policy, like.decisions as usize);
    let drive = trace.open(SpanName::SimDrive, run_id, Some(run));
    let summary = sim.drive(
        RunInput::Stream(&mut stream),
        &mut policy,
        options(w, &mut sink),
    );
    trace.close(drive);
    trace.close(run);
    trace.adopt(drive, stream.log());
    trace.adopt(drive, policy.log());
    Traced {
        wall_s: trace.totals(SpanName::Run).total_s,
        trace,
        digest: summary_digest(&summary),
        requests: source.emitted(),
        events: sim.events_processed(),
        observes: policy.observes(),
    }
}

/// The layer metrics the single-threaded engine workloads derive from a
/// trace whose roots are `Run` spans: stream, engine, policy, and how
/// much of the wall they account for.
fn engine_layers(t: &Traced, m: &mut Metrics) {
    let Traced {
        trace,
        wall_s,
        requests,
        events,
        observes,
        ..
    } = t;
    let (wall_s, requests, events) = (*wall_s, *requests, *events);
    let gen = trace.totals(SpanName::WorkloadNext);
    m.set("workload.gen_s", gen.total_s);
    m.set("workload.requests", requests as f64);
    m.set(
        "workload.gen_ns_per_request",
        gen.total_s * 1e9 / requests.max(1) as f64,
    );
    let drive = trace.totals(SpanName::SimDrive);
    m.set("sim.drive_s", drive.total_s);
    m.set("sim.self_s", drive.self_s);
    m.set("sim.self_share", drive.self_s / wall_s);
    m.set("sim.events", events as f64);
    m.set(
        "sim.events_per_request",
        events as f64 / requests.max(1) as f64,
    );
    m.set(
        "sim.self_ns_per_event",
        drive.self_s * 1e9 / events.max(1) as f64,
    );
    policy_layers(trace, wall_s, *observes, m);
    let attributed =
        gen.total_s + drive.self_s + trace.totals(SpanName::SimNew).self_s + policy_seconds(trace);
    m.set("layers.sum_share", attributed / wall_s);
}

fn policy_seconds(trace: &Trace) -> f64 {
    [
        SpanName::PolicyDecide,
        SpanName::PolicyBatch,
        SpanName::PolicyObserve,
    ]
    .iter()
    .map(|n| trace.totals(*n).total_s)
    .sum()
}

/// The `policy.*` metrics; `worker_wall_s` is the wall the policy's
/// callers had between them (wall × worker threads).
pub(super) fn policy_layers(trace: &Trace, worker_wall_s: f64, observes: u64, m: &mut Metrics) {
    let decide = trace.totals(SpanName::PolicyDecide);
    m.set("policy.decide_s", decide.total_s);
    m.set("policy.decides", decide.count as f64);
    m.set(
        "policy.decide_ns",
        decide.total_s * 1e9 / decide.count.max(1) as f64,
    );
    let batch = trace.totals(SpanName::PolicyBatch);
    m.set("policy.batch_s", batch.total_s);
    m.set("policy.batches", batch.count as f64);
    m.set(
        "policy.rows_per_batch",
        batch.rows as f64 / batch.count.max(1) as f64,
    );
    m.set(
        "policy.observe_s",
        trace.totals(SpanName::PolicyObserve).total_s,
    );
    m.set("policy.observes", observes as f64);
    m.set("policy.share", policy_seconds(trace) / worker_wall_s);
}

/// Checks that every traced repetition simulated what the untraced ones
/// did, then derives the layer metrics from the fastest of them, as the
/// end-to-end metrics come from the fastest untraced one. Returns that
/// repetition's spans, `None` when there was none.
pub(super) fn traced_layers(
    traced: Vec<Traced>,
    like: &Rep,
    reps: &[Rep],
    mismatch: &str,
    checks: &mut Checks,
    info: &mut Vec<(String, Value)>,
    m: &mut Metrics,
) -> Option<Trace> {
    checks.check(traced.iter().all(|t| t.digest == like.digest), || {
        mismatch.into()
    });
    info.push(("traced_reps".into(), traced.len().into()));
    let best = traced
        .into_iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))?;
    engine_layers(&best, m);
    let untraced_wall = best_wall(reps);
    m.set(
        "trace.overhead_share",
        (best.wall_s - untraced_wall) / untraced_wall,
    );
    info.push(("traced_wall_s".into(), best.wall_s.into()));
    info.push(("spans".into(), best.trace.len().into()));
    Some(best.trace)
}

/// The shared flow of both metro workloads. `build` makes the world and
/// the policy from the seed; `agent` is the DQN behind the policy when
/// there is one, for the `rl`/`nn` replays.
fn run<P: PlacementPolicy + Clone>(
    args: &Args,
    build: impl FnMut() -> (World, P),
    agent: impl Fn(&P) -> Option<&DqnAgent>,
) -> Outcome {
    let mut checks = Checks::default();
    // Each repetition gets a clone made outside the measured call: a
    // frozen policy still grows its episode log, and each repetition
    // must start alike.
    let set_up = timed_setup(args, &mut checks, build, |(w, policy)| {
        untraced_rep(w, &mut policy.clone())
    });
    let Some(((w, policy), like, setup_s)) = set_up else {
        return Outcome::failed(args, checks);
    };
    let reps = timed_reps(args, &like, &mut checks, || {
        untraced_rep(&w, &mut policy.clone())
    });
    let mut info = rep_info(&reps);
    if !args.trace || reps.is_empty() {
        return Outcome::end_to_end(&reps, setup_s, info, checks);
    }

    let traced = traced_reps(args.seconds * 0.4, &mut checks, |run_id| {
        traced_rep(&w, policy.clone(), run_id, &like)
    });
    let mut m = Metrics::new(PER_LAYER);
    let mismatch = "traced and untraced runs disagree on summary_digest";
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

    // Replays: a shorter run of the same stream leaves a warm world and
    // the decision points the policy met on it.
    let capture_horizon = w.horizon.min(4_000);
    let mut sim = Simulation::new(&w.scenario, RewardConfig::default());
    let mut sink = TelemetrySink::new();
    let mut stream = w
        .profile
        .stream(&w.sites, capture_horizon, w.slot_ms)
        .map(TimedArrival::from);
    let mut capture = CapturePolicy::new(policy.clone(), 12_000);
    sim.drive(
        RunInput::Stream(&mut stream),
        &mut capture,
        RunOptions::new()
            .sparse()
            .with_streaming_metrics()
            .with_horizon(capture_horizon)
            .with_telemetry(&mut sink),
    );
    let captured = capture.into_captured();
    info.push(("captured_decisions".into(), captured.len().into()));
    replay::engine_replay(&sim, &captured, &mut m);
    replay::construction_replay(&w.scenario, &mut m);
    if let Some(agent) = agent(&policy) {
        replay::rl_replay(agent, &captured, &mut m);
        replay::nn_replay(agent, &captured, &mut m);
        // The interaction note the README carries: the replayed cost per
        // decision times the decision count should reproduce the decide
        // time seen in the run.
        if let (Some(ns), Some(n), Some(s)) = (
            m.get("rl.act_greedy_ns"),
            m.get("policy.decides"),
            m.get("policy.decide_s"),
        ) {
            info.push((
                "replayed_over_traced_decide".into(),
                (ns * 1e-9 * n / s).into(),
            ));
        }
    }
    Outcome::per_layer(m, info, checks, Some(trace))
}

/// `metro_heuristic`: first-fit placement, so `nn`/`rl`/`serve` do no work.
pub fn run_heuristic(args: &Args) -> Outcome {
    run(args, || (world(args), FirstFitPolicy), |_| None)
}

/// `metro_drl`: the frozen headline DQN deciding one row at a time
/// (`DecisionSemantics::Sequential`, the paper's loop).
pub fn run_drl(args: &Args) -> Outcome {
    run(
        args,
        || (world(args), trained_policy(args)),
        |policy| Some(policy.agent()),
    )
}
