//! `grid_sweep`: the registry manifest `fig2_load` on three seeds (7 rates
//! × 6 baseline policies × 3 seeds = 126 cells) through
//! `ExperimentGrid::run` on `nproc` threads. The only workload where the
//! `exper` pool, the `sweep` protocol and `core::report` do work, and it
//! uses `core::sim` the opposite way from the metro runs: many short
//! slot-compatible cells with full metrics, each building its own
//! `Simulation` and generating its own trace.

use super::metro::policy_layers;
use super::{best_wall, rep_info, timed_reps, timed_setup, Args, Checks, Outcome, Rep};
use crate::alloc;
use crate::metrics::{Metrics, PER_LAYER};
use crate::replay;
use crate::stamp::logical_cores;
use crate::stats::{fnv1a, median};
use crate::trace::{DropSink, Dropped, Span, SpanName, Trace, TracedPolicy};
use bench::sweep_grids::sweep_grid_manifest;
use drl_vnf_edge::exper::manifest::{baseline_factory, ExpandedPoint, FastScaled};
use drl_vnf_edge::nn::tensor::Matrix;
use drl_vnf_edge::prelude::*;
use drl_vnf_edge::sweep::prelude::*;
use rand::rngs::StdRng;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const GRID: &str = "fig2_load";
const SHARDS: usize = 4;

/// The registry manifest with its seed axis taken from `--seed`: three
/// seeds, not the registry's five, so that a repetition takes under two
/// seconds and a run holds eight of them. `quick` takes the manifest's own
/// FAST expansion.
fn expand(args: &Args) -> ExpandedPoint {
    let seeds = |n: u64| (args.seed..args.seed + n).collect::<Vec<u64>>();
    let manifest = sweep_grid_manifest(GRID)
        .expect("registry grid")
        .seeds(FastScaled {
            full: seeds(3),
            fast: seeds(2),
        });
    manifest.expand(args.quick).points.remove(0)
}

/// A boxed policy as a policy, so that [`TracedPolicy`] can wrap what a
/// grid factory returns.
struct Boxed(Box<dyn PlacementPolicy>);

impl PlacementPolicy for Boxed {
    fn name(&self) -> String {
        self.0.name()
    }
    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        self.0.decide(ctx, rng)
    }
    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.0.observe(feedback, rng);
    }
    fn supports_greedy_batch(&self) -> bool {
        self.0.supports_greedy_batch()
    }
    fn greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        self.0.greedy_batch(states, masks, out);
    }
    fn set_training(&mut self, training: bool) {
        self.0.set_training(training);
    }
    fn is_learning(&self) -> bool {
        self.0.is_learning()
    }
}

/// The same grid with every policy wrapped. `ExperimentGrid::cell` builds
/// a cell's policy first and drops it last, so the wrapper's lifetime is
/// the cell's span, and what it logs in between is the policy's share.
fn traced_grid(point: &ExpandedPoint, threads: usize, sink: &DropSink) -> ExperimentGrid {
    let mut grid = ExperimentGrid::new(point.grid_name.clone())
        .seeds(&point.seeds)
        .reward(point.reward)
        .threads(threads);
    for row in &point.scenarios {
        grid = grid.scenario(row.label.clone(), row.x, row.scenario.clone());
    }
    for policy in &point.policies {
        let inner = baseline_factory(policy.label()).expect("registry rosters are baselines");
        let sink = Arc::clone(sink);
        grid = grid.policy_boxed(
            policy.label(),
            Box::new(move || {
                Box::new(TracedPolicy::with_sink(
                    Boxed(inner()),
                    8_192,
                    Arc::clone(&sink),
                ))
            }),
        );
    }
    let fingerprint = grid.auto_fingerprint();
    grid.fingerprint(fingerprint)
}

fn drain(sink: &DropSink) -> Vec<Dropped> {
    std::mem::take(&mut *sink.lock().expect("no cell panicked"))
}

fn canonical(report: &BenchReport) -> String {
    serde_json::to_string(&report.canonical_json())
}

fn untraced_rep(grid: &ExperimentGrid, decisions: u64) -> Rep {
    let live = alloc::reset_peak();
    let t0 = Instant::now();
    let report = grid.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_above(live);
    let requests = report.cells.iter().map(|c| c.summary.total_arrivals).sum();
    Rep {
        wall_s,
        requests,
        generated: None,
        decisions,
        peak_heap_bytes,
        digest: fnv1a(canonical(&report).as_bytes()),
        accepted: report.cells.iter().map(|c| c.summary.total_accepted).sum(),
    }
}

/// What the sharded pass measured on its way to the merged report.
struct Sharded {
    canonical: String,
    decisions: u64,
    plan_us: f64,
    write_ms: f64,
    load_ms: f64,
    merge_ms: f64,
    canonical_json_ms: f64,
    fragment_bytes: u64,
}

/// The sweep protocol in-process: plan → run each shard's cells → write
/// and re-load its fragment → merge. Runs on the wrapped grid, whose
/// wrappers also count the decisions the plain grid cannot.
fn sharded(grid: &ExperimentGrid, sink: &DropSink, out_dir: &Path) -> Result<Sharded, String> {
    let name = grid.grid_name().to_string();
    let fingerprint = grid.grid_fingerprint().to_string();
    let t0 = Instant::now();
    let plans = plan(&name, &fingerprint, grid.cell_count(), SHARDS);
    let plan_us = t0.elapsed().as_secs_f64() * 1e6;
    let (mut write_s, mut load_s, mut fragment_bytes) = (0.0, 0.0, 0u64);
    let mut fragments = Vec::with_capacity(plans.len());
    for p in &plans {
        let cells = grid.run_cells(&p.cell_indices());
        let frag = fragment(&name, &fingerprint, p.shard_id, p.shard_of, cells);
        let t0 = Instant::now();
        let path = frag.write_to(out_dir).map_err(|e| e.to_string())?;
        write_s += t0.elapsed().as_secs_f64();
        fragment_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let t0 = Instant::now();
        let loaded = load_fragment(&path).ok_or("a fragment just written does not load")?;
        load_s += t0.elapsed().as_secs_f64();
        fragments.push(loaded);
    }
    let t0 = Instant::now();
    let merged = merge_fragments(&name, &fingerprint, grid.cell_count(), &fragments)
        .map_err(|e| e.to_string())?;
    let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let canonical = canonical(&merged);
    let canonical_json_ms = t0.elapsed().as_secs_f64() * 1e3;
    let decisions = drain(sink).iter().map(|cell| cell.log.len() as u64).sum();
    Ok(Sharded {
        canonical,
        decisions,
        plan_us,
        write_ms: write_s * 1e3,
        load_ms: load_s * 1e3,
        merge_ms,
        canonical_json_ms,
        fragment_bytes,
    })
}

/// One run of the wrapped grid: its wall and the cell spans it left.
fn traced_run(point: &ExpandedPoint, threads: usize, sink: &DropSink) -> (f64, String, Trace) {
    let grid = traced_grid(point, threads, sink);
    let t0 = Instant::now();
    let report = grid.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut cells = drain(sink);
    cells.sort_by_key(|c| c.created_ns);
    let mut trace = Trace::new();
    for (i, cell) in cells.iter().enumerate() {
        let run = trace.push(Span {
            name: SpanName::Run,
            start_ns: cell.created_ns,
            end_ns: cell.dropped_ns,
            parent: None,
            run_id: i as u32,
            rows: 1,
        });
        trace.adopt(run, &cell.log);
    }
    (wall_s, canonical(&report), trace)
}

/// `grid_sweep`.
pub fn run(args: &Args) -> Outcome {
    let threads = logical_cores();
    let mut checks = Checks::default();
    let set_up = timed_setup(
        args,
        &mut checks,
        || {
            let point = expand(args);
            let grid = point.grid().threads(threads);
            (point, grid)
        },
        // The warm-up is compared on its digest only; the decision count
        // comes from the sharded pass below.
        |(_, grid)| untraced_rep(grid, 0),
    );
    let Some(((point, grid), like, setup_s)) = set_up else {
        return Outcome::failed(args, checks);
    };
    let mut info = vec![
        ("threads".into(), threads.into()),
        ("cells".into(), grid.cell_count().into()),
        ("grid_fingerprint".into(), grid.grid_fingerprint().into()),
    ];

    // The sharded pass comes first: it yields the decision count the
    // untraced repetitions report their rate with.
    let sink: DropSink = Arc::new(Mutex::new(Vec::new()));
    let wrapped = traced_grid(&point, threads, &sink);
    checks.check(
        wrapped.grid_fingerprint() == grid.grid_fingerprint(),
        || "the wrapped grid's structural fingerprint differs from the registry grid's".into(),
    );
    let sharded = match checks.run("sharded sweep", || sharded(&wrapped, &sink, &args.out_dir)) {
        Some(Ok(s)) => Some(s),
        Some(Err(e)) => {
            checks.check(false, || format!("sharded sweep: {e}"));
            None
        }
        None => None,
    };
    let decisions = sharded.as_ref().map_or(0, |s| s.decisions);

    let reps = timed_reps(args, &like, &mut checks, || untraced_rep(&grid, decisions));
    info.extend(rep_info(&reps));
    if let Some(s) = &sharded {
        checks.check(fnv1a(s.canonical.as_bytes()) == like.digest, || {
            "the sharded-merged canonical JSON differs from the direct run's".into()
        });
    }
    if !args.trace {
        return Outcome::end_to_end(&reps, setup_s, info, checks);
    }

    let mut m = Metrics::new(PER_LAYER);
    let (Some(s), false) = (&sharded, reps.is_empty()) else {
        return Outcome::per_layer(m, info, checks, None);
    };
    let Some((wall_s, canonical_n, trace)) =
        checks.run("traced grid run", || traced_run(&point, threads, &sink))
    else {
        return Outcome::per_layer(m, info, checks, None);
    };
    checks.check(fnv1a(canonical_n.as_bytes()) == like.digest, || {
        "traced and untraced runs disagree on summary_digest".into()
    });
    let run1_s = checks
        .run("one-thread grid run", || traced_run(&point, 1, &sink).0)
        .unwrap_or(0.0);

    let worker_wall = wall_s * threads as f64;
    let cells = trace.totals(SpanName::Run);
    let mut cell_ms: Vec<f64> = trace
        .durations(SpanName::Run)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    m.set("workload.requests", like.requests as f64);
    // `ExperimentGrid::cell` is not a public boundary: on this workload
    // the engine's span is the whole cell (build, generate, drive).
    m.set("sim.drive_s", cells.total_s);
    m.set("sim.self_s", cells.self_s);
    m.set("sim.self_share", cells.self_s / worker_wall);
    policy_layers(&trace, worker_wall, 0, &mut m);
    m.set("layers.sum_share", cells.total_s / worker_wall);
    let untraced_wall = best_wall(&reps);
    m.set(
        "trace.overhead_share",
        (wall_s - untraced_wall) / untraced_wall,
    );
    m.set("exper.cells", cells.count as f64);
    m.set("exper.run1_s", run1_s);
    m.set("exper.runN_s", wall_s);
    m.set("exper.cell_ms_p50", median(&cell_ms));
    m.set("exper.cell_ms_max", cell_ms.last().copied().unwrap_or(0.0));
    m.set("exper.parallel_efficiency", run1_s / worker_wall);
    m.set("sweep.plan_us", s.plan_us);
    m.set("sweep.fragment_write_ms", s.write_ms);
    m.set("sweep.fragment_load_ms", s.load_ms);
    m.set("sweep.merge_ms", s.merge_ms);
    m.set("sweep.fragment_bytes", s.fragment_bytes as f64);
    m.set("report.canonical_json_ms", s.canonical_json_ms);
    info.push(("traced_wall_s".into(), wall_s.into()));
    info.push(("spans".into(), trace.len().into()));

    // Replays on the middle scenario of the sweep, under first-fit.
    let scenario = &point.scenarios[point.scenarios.len() / 2].scenario;
    let (sim, captured) = replay::capture_generated(scenario, FirstFitPolicy, 12_000);
    info.push(("captured_decisions".into(), captured.len().into()));
    replay::engine_replay(&sim, &captured, &mut m);
    replay::construction_replay(scenario, &mut m);
    Outcome::per_layer(m, info, checks, Some(trace))
}
