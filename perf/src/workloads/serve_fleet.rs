//! `serve_fleet`: eight simulations run closed-loop by `nproc` client
//! threads against one `PolicyServer`. Each client sends a decision wave
//! and waits for the reply before it simulates on, so at most `nproc`
//! threads are runnable and a slower server is offered less load. The
//! only workload where `serve::{ring, server, client}` and the batched
//! kernels do work.

use super::metro::{policy_layers, trained_policy};
use super::{
    best_wall, rep_info, summary_digest, timed_reps, timed_setup, traced_reps, Args, Checks,
    Outcome, Rep,
};
use crate::alloc;
use crate::metrics::{Metrics, PER_LAYER};
use crate::replay;
use crate::stamp::logical_cores;
use crate::stats::{fnv1a, percentile_sorted};
use crate::trace::{Leaf, Span, SpanName, Trace, TracedPolicy};
use drl_vnf_edge::exper::pool::run_indexed_with;
use drl_vnf_edge::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CELLS: u64 = 8;
const QUICK_CELLS: u64 = 2;
const HORIZON_SLOTS: u64 = 180;
const QUICK_HORIZON_SLOTS: u64 = 40;
const SEMANTICS: DecisionSemantics = DecisionSemantics::SlotSnapshot;

struct World {
    cells: Vec<EvalCell>,
    policy: DrlPolicy,
    clients: usize,
}

fn world(args: &Args) -> World {
    // Wide per-slot wavefronts and short flows: the regime a policy
    // server exists for (the `hotpath` serve series uses the same shape).
    let mut scenario = bench::bench_scenario(20.0);
    scenario.workload.mean_duration_slots = 4.0;
    scenario.horizon_slots = if args.quick {
        QUICK_HORIZON_SLOTS
    } else {
        HORIZON_SLOTS
    };
    let count = if args.quick { QUICK_CELLS } else { CELLS };
    let seeds: Vec<u64> = (args.seed..args.seed + count).collect();
    World {
        cells: cells_for_seeds("serve_fleet", 20.0, &scenario, &seeds),
        policy: trained_policy(args),
        clients: logical_cores(),
    }
}

fn cells_digest<'a>(summaries: impl Iterator<Item = &'a RunSummary>) -> u64 {
    let digests: Vec<u8> = summaries
        .flat_map(|s| summary_digest(s).to_le_bytes())
        .collect();
    fnv1a(&digests)
}

fn untraced_rep(w: &World) -> Rep {
    let policy = w.policy.clone();
    let live = alloc::reset_peak();
    let t0 = Instant::now();
    let (cells, stats) = serve_evaluations(
        policy,
        ServeConfig::default(),
        RewardConfig::default(),
        &w.cells,
        Some(w.clients),
        SEMANTICS,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let requests = cells.iter().map(|c| c.summary.total_arrivals).sum();
    Rep {
        wall_s,
        requests,
        generated: None,
        decisions: stats.decisions,
        peak_heap_bytes: alloc::peak_above(live),
        digest: cells_digest(cells.iter().map(|c| &c.summary)),
        accepted: cells.iter().map(|c| c.summary.total_accepted).sum(),
    }
}

/// What one simulation of a traced repetition yields.
struct TracedCell {
    trace: Trace,
    summary: RunSummary,
    events: u64,
    observes: u64,
}

/// What one traced repetition yields.
struct Traced {
    /// Spans of the client threads: one `Run` tree per simulation.
    clients: Trace,
    /// `greedy_batch` calls on the server thread, one per tick.
    forwards: Vec<Leaf>,
    stats: ServeStats,
    wall_s: f64,
    digest: u64,
    requests: u64,
    events: u64,
    observes: u64,
}

/// The loop of `serve_evaluations`, re-implemented over the same public
/// pieces so that both sides of the ring can be wrapped.
fn traced_rep(w: &World, like: &Rep) -> Traced {
    let server_log = Arc::new(Mutex::new(Vec::new()));
    let served = TracedPolicy::with_sink(
        w.policy.clone(),
        like.decisions as usize,
        Arc::clone(&server_log),
    );
    let t0 = Instant::now();
    let server = PolicyServer::spawn(served, ServeConfig::default());
    let waves_per_client = like.decisions as usize / w.clients.max(1);
    let cells: Vec<TracedCell> = run_indexed_with(
        w.cells.len(),
        w.clients,
        || TracedPolicy::new(ServedPolicy::new(&server), waves_per_client),
        |client, index| {
            let cell = &w.cells[index];
            let run_id = index as u32;
            let (logged, observed) = (client.log().len(), client.observes());
            let mut trace = Trace::new();
            let run = trace.open(SpanName::Run, run_id, None);
            let new = trace.open(SpanName::SimNew, run_id, Some(run));
            let mut sim = Simulation::new(&cell.scenario, RewardConfig::default());
            trace.close(new);
            let drive = trace.open(SpanName::SimDrive, run_id, Some(run));
            let summary = sim.drive(
                RunInput::Generated,
                client,
                RunOptions::new()
                    .with_seed_offset(cell.seed)
                    .with_semantics(SEMANTICS),
            );
            trace.close(drive);
            trace.close(run);
            trace.adopt(drive, &client.log()[logged..]);
            TracedCell {
                trace,
                summary,
                events: sim.events_processed(),
                observes: client.observes() - observed,
            }
        },
    );
    let stats = server.shutdown();
    let wall_s = t0.elapsed().as_secs_f64();
    // `shutdown` joined the server thread, which dropped the wrapper.
    let forwards = server_log
        .lock()
        .expect("server thread has exited")
        .pop()
        .map(|dropped| dropped.log)
        .unwrap_or_default();
    let digest = cells_digest(cells.iter().map(|c| &c.summary));
    let requests = cells.iter().map(|c| c.summary.total_arrivals).sum();
    let events = cells.iter().map(|c| c.events).sum();
    let observes = cells.iter().map(|c| c.observes).sum();
    let mut clients = Trace::new();
    for cell in cells {
        clients.absorb(cell.trace);
    }
    Traced {
        clients,
        forwards,
        stats,
        wall_s,
        digest,
        requests,
        events,
        observes,
    }
}

fn layers(w: &World, t: &Traced, m: &mut Metrics) {
    let worker_wall = t.wall_s * w.clients.min(w.cells.len()) as f64;
    let drive = t.clients.totals(SpanName::SimDrive);
    m.set("workload.requests", t.requests as f64);
    m.set("sim.drive_s", drive.total_s);
    m.set("sim.self_s", drive.self_s);
    m.set("sim.self_share", drive.self_s / worker_wall);
    m.set("sim.events", t.events as f64);
    m.set(
        "sim.events_per_request",
        t.events as f64 / t.requests.max(1) as f64,
    );
    m.set(
        "sim.self_ns_per_event",
        drive.self_s * 1e9 / t.events.max(1) as f64,
    );
    // Seen from a client, the policy is the whole round trip.
    policy_layers(&t.clients, worker_wall, t.observes, m);
    m.set(
        "layers.sum_share",
        (drive.total_s + t.clients.totals(SpanName::SimNew).total_s) / worker_wall,
    );

    let mut waves: Vec<f64> = t.clients.durations(SpanName::PolicyBatch);
    waves.extend(t.clients.durations(SpanName::PolicyDecide));
    waves.sort_by(f64::total_cmp);
    let rows = t.clients.totals(SpanName::PolicyBatch).rows
        + t.clients.totals(SpanName::PolicyDecide).rows;
    let forward_s: f64 = t
        .forwards
        .iter()
        .map(|l| (l.end_ns - l.start_ns) as f64 * 1e-9)
        .sum();
    m.set("serve.waves", waves.len() as f64);
    m.set("serve.ticks", t.stats.ticks as f64);
    m.set(
        "serve.rows_per_wave",
        rows as f64 / waves.len().max(1) as f64,
    );
    m.set("serve.rows_per_tick_mean", t.stats.mean_rows_per_tick());
    m.set("serve.rows_per_tick_max", t.stats.max_rows_per_tick as f64);
    m.set("serve.forward_s", forward_s);
    m.set("serve.busy_share", forward_s / t.wall_s);
    if !waves.is_empty() {
        let mean_wave = waves.iter().sum::<f64>() / waves.len() as f64;
        let mean_tick = forward_s / t.forwards.len().max(1) as f64;
        // Ring wait, row concatenation and the reply: what a wave pays
        // on top of the forward that answers it.
        m.set("serve.overhead_us_per_wave", (mean_wave - mean_tick) * 1e6);
        m.set(
            "serve.wave_latency_p50_us",
            percentile_sorted(&waves, 0.50) * 1e6,
        );
        m.set(
            "serve.wave_latency_p99_us",
            percentile_sorted(&waves, 0.99) * 1e6,
        );
    }
}

/// `serve_fleet`.
pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let Some((w, like, setup_s)) = timed_setup(args, &mut checks, || world(args), untraced_rep)
    else {
        return Outcome::failed(args, checks);
    };
    let reps = timed_reps(args, &like, &mut checks, || untraced_rep(&w));
    let mut info = rep_info(&reps);
    info.push(("client_threads".into(), w.clients.into()));
    if reps.is_empty() {
        return Outcome::end_to_end(&reps, setup_s, info, checks);
    }

    // The serving layer's contract: a served simulation is bit-identical
    // to the same simulation deciding in-process.
    let t0 = Instant::now();
    let inproc = parallel_eval_semantics(
        &w.policy,
        "inproc",
        RewardConfig::default(),
        &w.cells,
        Some(w.clients),
        false,
        SEMANTICS,
    );
    let inproc_wall_s = t0.elapsed().as_secs_f64();
    let inproc_digest = cells_digest(inproc.iter().map(|c| &c.summary));
    checks.check(inproc_digest == like.digest, || {
        "served summaries differ from in-process SlotSnapshot runs of the same cells".into()
    });
    if !args.trace {
        return Outcome::end_to_end(&reps, setup_s, info, checks);
    }

    let untraced_wall = best_wall(&reps);
    let traced = traced_reps(args.seconds * 0.4, &mut checks, |_| traced_rep(&w, &like));
    let mut m = Metrics::new(PER_LAYER);
    checks.check(traced.iter().all(|t| t.digest == like.digest), || {
        "traced and untraced runs disagree on summary_digest".into()
    });
    info.push(("traced_reps".into(), traced.len().into()));
    let Some(best) = traced
        .into_iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
    else {
        return Outcome::per_layer(m, info, checks, None);
    };
    layers(&w, &best, &mut m);
    m.set(
        "trace.overhead_share",
        (best.wall_s - untraced_wall) / untraced_wall,
    );
    m.set(
        "serve.inproc_decisions_per_s",
        like.decisions as f64 / inproc_wall_s,
    );
    info.push(("traced_wall_s".into(), best.wall_s.into()));

    let scenario = &w.cells[0].scenario;
    let (sim, captured) = replay::capture_generated(scenario, w.policy.clone(), 12_000);
    info.push(("captured_decisions".into(), captured.len().into()));
    replay::engine_replay(&sim, &captured, &mut m);
    replay::construction_replay(scenario, &mut m);
    replay::rl_replay(w.policy.agent(), &captured, &mut m);
    replay::nn_replay(w.policy.agent(), &captured, &mut m);

    let mut trace = best.clients;
    for l in &best.forwards {
        trace.push(Span {
            name: SpanName::ServeForward,
            start_ns: l.start_ns,
            end_ns: l.end_ns,
            parent: None,
            run_id: u32::MAX,
            rows: l.rows,
        });
    }
    info.push(("spans".into(), trace.len().into()));
    Outcome::per_layer(m, info, checks, Some(trace))
}
