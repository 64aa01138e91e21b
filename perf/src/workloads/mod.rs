//! The five workloads and what they share: timing a set-up, timing
//! repetitions for a fixed number of seconds, and counting checks.

pub mod grid;
pub mod metro;
pub mod serve_fleet;
pub mod train;

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{fnv1a, median};
use crate::trace::Trace;
use drl_vnf_edge::prelude::*;
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "metro_heuristic",
    "metro_drl",
    "serve_fleet",
    "train_drl",
    "grid_sweep",
];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: String,
    /// Seeds every generated input.
    pub seed: u64,
    /// How long to measure (s).
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Smoke-test sizes: seconds instead of minutes, numbers meaningless.
    pub quick: bool,
    /// Where output documents and shard fragments are written.
    pub out_dir: PathBuf,
}

/// Operations attempted and failed. An operation is one simulation run or
/// one consistency check; a panic or a mismatch is a failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one consistency check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("[perf] FAILED: {what}");
        self.failures.push(what);
    }

    /// Counts one run; a panic inside it is a failure, not an abort.
    pub fn run<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(format!("{what} panicked"));
                None
            }
        }
    }
}

/// What one untraced repetition of a workload measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds inside the measured call.
    pub wall_s: f64,
    /// Simulated requests that arrived.
    pub requests: u64,
    /// Requests the arrival stream emitted, where the benchmark drives the
    /// stream itself; every one must arrive.
    pub generated: Option<u64>,
    /// Policy decisions taken (0 when this repetition cannot count them).
    pub decisions: u64,
    /// Peak heap above the live heap before the measured call.
    pub peak_heap_bytes: u64,
    /// FNV-1a over every simulated statistic the repetition produced.
    pub digest: u64,
    /// Requests accepted (reported, and checked against `requests`).
    pub accepted: u64,
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Metrics,
    /// Reported beside the metrics: digests, counts, quartiles.
    pub info: Vec<(String, Value)>,
    /// Operations attempted and failed.
    pub checks: Checks,
    /// The spans of the first traced repetition.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// The end-to-end outcome of `reps` (`--trace 0`).
    pub fn end_to_end(
        reps: &[Rep],
        setup_s: f64,
        info: Vec<(String, Value)>,
        checks: Checks,
    ) -> Self {
        Self {
            metrics: end_to_end(reps, setup_s),
            info,
            checks,
            trace: None,
        }
    }

    /// The outcome of a run whose set-up failed: no metric, `checks` says
    /// what failed.
    pub fn failed(args: &Args, checks: Checks) -> Self {
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        Self {
            metrics: Metrics::new(table),
            info: Vec::new(),
            checks,
            trace: None,
        }
    }

    /// The outcome of a traced pass (`--trace 1`); `trace` is `None` when
    /// the pass failed before it produced spans.
    pub fn per_layer(
        metrics: Metrics,
        info: Vec<(String, Value)>,
        checks: Checks,
        trace: Option<Trace>,
    ) -> Self {
        Self {
            metrics,
            info,
            checks,
            trace,
        }
    }
}

/// Set-up is everything a workload does before its first measured
/// repetition: `build` makes the inputs and the world from the seed
/// (training the policy where the workload serves one), and `warm_up`
/// runs one unmeasured repetition in it, which fills caches and finishes
/// lazy initialisation. Sets up at least three times, and for a second
/// when that takes more; a traced pass, which does not report
/// `setup_s`, sets up once. Returns the last world, its warm-up
/// repetition and the median duration.
pub fn timed_setup<W>(
    args: &Args,
    checks: &mut Checks,
    mut build: impl FnMut() -> W,
    mut warm_up: impl FnMut(&W) -> Rep,
) -> Option<(W, Rep, f64)> {
    let min_samples = if args.trace { 1 } else { 3 };
    let started = Instant::now();
    let mut durations = Vec::new();
    let mut last = None;
    while durations.len() < min_samples || (!args.trace && started.elapsed().as_secs_f64() < 1.0) {
        drop(last.take());
        let t0 = Instant::now();
        let (world, warm) = checks.run("set-up", || {
            let world = build();
            let warm = warm_up(&world);
            (world, warm)
        })?;
        durations.push(t0.elapsed().as_secs_f64());
        last = Some((world, warm));
    }
    let (world, warm) = last.expect("set up at least once");
    Some((world, warm, median(&durations)))
}

/// Repeats `rep` for `--seconds` (a quarter of it in a traced pass, which
/// only needs the untraced wall to compare against), at least three
/// times, then checks that every repetition, the warm-up included,
/// simulated exactly the same thing.
pub fn timed_reps(
    args: &Args,
    warm: &Rep,
    checks: &mut Checks,
    mut rep: impl FnMut() -> Rep,
) -> Vec<Rep> {
    let (seconds, min_reps) = if args.trace {
        (args.seconds * 0.25, 1)
    } else {
        (args.seconds, 3)
    };
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        match checks.run("repetition", &mut rep) {
            Some(r) => reps.push(r),
            // A workload that panics will panic again; do not spin.
            None => break,
        }
    }
    checks.check(reps.iter().all(|r| r.digest == warm.digest), || {
        "repetitions of one workload disagree on summary_digest".into()
    });
    let sane = warm.requests > 0
        && warm.generated.is_none_or(|g| g == warm.requests)
        && warm.accepted <= warm.requests;
    checks.check(sane, || {
        format!(
            "{:?} generated, {} arrived, {} accepted: not a run",
            warm.generated, warm.requests, warm.accepted
        )
    });
    reps
}

/// Repeats a traced repetition until `seconds` have passed (at least
/// once); `rep` is handed the repetition's number.
pub fn traced_reps<T>(seconds: f64, checks: &mut Checks, mut rep: impl FnMut(u32) -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let number = out.len() as u32;
        match checks.run("traced repetition", || rep(number)) {
            Some(t) => out.push(t),
            None => break,
        }
    }
    out
}

/// The fastest repetition's wall. Every repetition simulates exactly the
/// same thing, so what differs between them is interference from the
/// host's other tenants, and that only ever adds time: on the shared
/// 2-core hosts this runs on, the median of a 10 s window moved by ±20%
/// from run to run while the minimum moved by ±3%.
pub fn best_wall(reps: &[Rep]) -> f64 {
    reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics of a set of repetitions: rates over the
/// fastest repetition, with the counts (which repeat exactly) taken from
/// the first.
pub fn end_to_end(reps: &[Rep], setup_s: f64) -> Metrics {
    let mut m = Metrics::new(END_TO_END);
    let Some(first) = reps.first() else {
        return m;
    };
    let wall = best_wall(reps);
    m.set("requests_per_s", first.requests as f64 / wall);
    m.set("decisions_per_s", first.decisions as f64 / wall);
    let peaks: Vec<f64> = reps.iter().map(|r| r.peak_heap_bytes as f64).collect();
    m.set("peak_heap_bytes", median(&peaks));
    m.set("setup_s", setup_s);
    m
}

/// The lines reported beside the end-to-end metrics.
pub fn rep_info(reps: &[Rep]) -> Vec<(String, Value)> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let (q1, q3) = crate::stats::quartiles(&walls);
    vec![
        (
            "summary_digest".into(),
            format!("{:016x}", first.digest).into(),
        ),
        ("requests".into(), first.requests.into()),
        ("accepted".into(), first.accepted.into()),
        (
            "acceptance_ratio".into(),
            (first.accepted as f64 / first.requests.max(1) as f64).into(),
        ),
        ("decisions".into(), first.decisions.into()),
        ("reps".into(), reps.len().into()),
        ("run_wall_s_median".into(), median(&walls).into()),
        ("run_wall_s_min".into(), best_wall(reps).into()),
        ("run_wall_s_q1".into(), q1.into()),
        ("run_wall_s_q3".into(), q3.into()),
        (
            "run_wall_iqr_over_median".into(),
            ((q3 - q1) / median(&walls)).into(),
        ),
    ]
}

/// Digest of a run summary with its one wall-clock field zeroed.
pub fn summary_digest(summary: &RunSummary) -> u64 {
    let mut s = summary.clone();
    s.mean_decision_time_us = 0.0;
    fnv1a(serde_json::to_string(&summary_json(&s)).as_bytes())
}

/// Runs the named workload.
pub fn run(args: &Args) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "metro_heuristic" => metro::run_heuristic(args),
        "metro_drl" => metro::run_drl(args),
        "serve_fleet" => serve_fleet::run(args),
        "train_drl" => train::run(args),
        "grid_sweep" => grid::run(args),
        _ => return None,
    })
}
