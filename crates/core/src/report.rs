//! Result emission: CSV series and markdown tables for the experiment
//! harness (the same rows/series the paper's figures and tables report),
//! plus the machine-readable `BENCH_<name>.json` report CI tracks.

use crate::metrics::{
    aggregate_summaries, MetricStats, RunSummary, SlotRecord, SummaryAggregate, SUMMARY_METRICS,
};
use crate::runner::PolicyResult;
use serde_json::{Error as JsonError, FromJson, Value};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders a set of policy results as a markdown comparison table.
pub fn markdown_comparison(results: &[PolicyResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "| policy | accept % | mean lat (ms) | p95 lat (ms) | SLA viol % | cost/slot ($) | util % | decide (µs) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for r in results {
        let s = &r.summary;
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.2} | {:.2} | {:.1} | {:.4} | {:.1} | {:.1} |",
            r.policy,
            100.0 * s.acceptance_ratio,
            s.mean_admission_latency_ms,
            s.p95_admission_latency_ms,
            100.0 * s.sla_violation_ratio,
            s.mean_slot_cost_usd,
            100.0 * s.mean_utilization,
            s.mean_decision_time_us,
        );
    }
    out
}

/// CSV header matching [`summary_csv_row`].
pub fn summary_csv_header() -> &'static str {
    "policy,x,acceptance_ratio,mean_latency_ms,p50_latency_ms,p95_latency_ms,\
     sla_violation_ratio,total_cost_usd,mean_slot_cost_usd,mean_utilization,\
     mean_active_flows,mean_live_instances,mean_decision_time_us"
}

/// One CSV row for a summary at sweep coordinate `x` (e.g. arrival rate).
pub fn summary_csv_row(policy: &str, x: f64, s: &RunSummary) -> String {
    format!(
        "{policy},{x},{:.6},{:.4},{:.4},{:.4},{:.6},{:.6},{:.6},{:.6},{:.3},{:.3},{:.3}",
        s.acceptance_ratio,
        s.mean_admission_latency_ms,
        s.p50_admission_latency_ms,
        s.p95_admission_latency_ms,
        s.sla_violation_ratio,
        s.total_cost_usd,
        s.mean_slot_cost_usd,
        s.mean_utilization,
        s.mean_active_flows,
        s.mean_live_instances,
        s.mean_decision_time_us,
    )
}

/// CSV header for per-slot time series.
pub fn slot_csv_header() -> &'static str {
    "policy,slot,arrivals,accepted,rejected,sla_violations,active_flows,live_instances,\
     mean_latency_ms,compute_cost,energy_cost,traffic_cost,deployment_cost,total_cost,\
     mean_utilization,flows_disrupted,flows_replaced,nodes_down"
}

/// One CSV row for a slot record.
pub fn slot_csv_row(policy: &str, r: &SlotRecord) -> String {
    format!(
        "{policy},{},{},{},{},{},{},{},{:.4},{:.6},{:.6},{:.6},{:.6},{:.6},{:.4},{},{},{}",
        r.slot,
        r.arrivals,
        r.accepted,
        r.rejected,
        r.sla_violations,
        r.active_flows,
        r.live_instances,
        r.mean_latency_ms,
        r.compute_cost,
        r.energy_cost,
        r.traffic_cost,
        r.deployment_cost,
        r.total_cost(),
        r.mean_utilization,
        r.flows_disrupted,
        r.flows_replaced,
        r.nodes_down,
    )
}

/// Writes lines to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_lines<P: AsRef<Path>>(path: P, lines: &[String]) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, lines.join("\n") + "\n")
}

/// CSV header for multi-seed band rows: `policy,x,seeds`, then
/// `<metric>_mean,<metric>_std,<metric>_ci95` for every
/// [`SUMMARY_METRICS`] entry (matches [`aggregate_csv_row`]).
pub fn aggregate_csv_header() -> String {
    let mut out = String::from("policy,x,seeds");
    for (name, _) in SUMMARY_METRICS {
        let _ = write!(out, ",{name}_mean,{name}_std,{name}_ci95");
    }
    out
}

/// One CSV row of per-metric mean/std/ci95 bands at sweep coordinate `x`.
pub fn aggregate_csv_row(policy: &str, x: f64, agg: &SummaryAggregate) -> String {
    let mut out = format!("{policy},{x},{}", agg.runs);
    for (_, s) in &agg.metrics {
        let _ = write!(out, ",{:.6},{:.6},{:.6}", s.mean, s.std, s.ci95);
    }
    out
}

/// Renders multi-seed aggregates as a markdown comparison table with
/// mean ± 95% CI cells (the banded sibling of [`markdown_comparison`]).
pub fn markdown_aggregate_comparison(rows: &[(String, SummaryAggregate)]) -> String {
    let mut out = String::new();
    out.push_str(
        "| policy | seeds | accept % | mean lat (ms) | p95 lat (ms) | SLA viol % | cost/slot ($) | util % |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    let pm = |s: &MetricStats, scale: f64, prec: usize| {
        format!("{:.prec$} ± {:.prec$}", s.mean * scale, s.ci95 * scale)
    };
    for (policy, agg) in rows {
        let g = |name: &str| agg.get(name).expect("standard metric");
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            policy,
            agg.runs,
            pm(g("acceptance_ratio"), 100.0, 1),
            pm(g("mean_latency_ms"), 1.0, 2),
            pm(g("p95_latency_ms"), 1.0, 2),
            pm(g("sla_violation_ratio"), 100.0, 1),
            pm(g("mean_slot_cost_usd"), 1.0, 4),
            pm(g("mean_utilization"), 100.0, 1),
        );
    }
    out
}

/// Version stamp of the `BENCH_*.json` schema; bump on breaking changes
/// so the perf-trajectory tooling can detect old artifacts.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One executed grid cell of a bench report: the (scenario, policy, seed)
/// coordinate plus its run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Scenario label (grid row).
    pub scenario: String,
    /// Policy label (grid column).
    pub policy: String,
    /// Sweep coordinate of the scenario (arrival rate, sites, …).
    pub x: f64,
    /// Workload seed offset of this cell.
    pub seed: u64,
    /// The cell's run summary.
    pub summary: RunSummary,
}

/// Multi-seed statistics of one (scenario, policy) cell group.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchAggregate {
    /// Scenario label.
    pub scenario: String,
    /// Policy label.
    pub policy: String,
    /// Sweep coordinate.
    pub x: f64,
    /// Per-metric bands across the group's seeds.
    pub aggregate: SummaryAggregate,
}

/// The machine-readable result of one experiment-engine run: everything
/// `BENCH_<name>.json` contains. `cells` and `aggregates` are the
/// deterministic payload (bit-identical for any thread count);
/// `wall_clock_secs`/`throughput_slots_per_sec`/`threads` are measurement
/// metadata and legitimately vary run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Experiment name (`BENCH_<name>.json`).
    pub name: String,
    /// Worker threads the grid ran on.
    pub threads: usize,
    /// Wall-clock duration of the grid run (seconds).
    pub wall_clock_secs: f64,
    /// Total slots simulated across all cells.
    pub slots_simulated: u64,
    /// `slots_simulated / wall_clock_secs`.
    pub throughput_slots_per_sec: f64,
    /// Configuration fingerprint (used by binaries that share cached
    /// grids); empty when unused.
    pub fingerprint: String,
    /// Per-cell results in grid-index order.
    pub cells: Vec<BenchCell>,
    /// Per-(scenario, policy) multi-seed statistics, grid order.
    pub aggregates: Vec<BenchAggregate>,
}

/// Groups consecutive cells sharing (scenario, policy, x) and aggregates
/// each group across its seeds. Cells arrive in grid-index order
/// (scenario-major, then policy, then seed), so consecutive grouping
/// exactly recovers the grid's cell groups.
pub fn group_aggregates(cells: &[BenchCell]) -> Vec<BenchAggregate> {
    let mut out: Vec<BenchAggregate> = Vec::new();
    let mut group: Vec<RunSummary> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        group.push(cell.summary.clone());
        let next_differs = cells.get(i + 1).is_none_or(|n| {
            n.scenario != cell.scenario || n.policy != cell.policy || n.x != cell.x
        });
        if next_differs {
            out.push(BenchAggregate {
                scenario: cell.scenario.clone(),
                policy: cell.policy.clone(),
                x: cell.x,
                aggregate: aggregate_summaries(&group),
            });
            group.clear();
        }
    }
    out
}

/// Serializes a [`RunSummary`] with exact field names.
pub fn summary_json(s: &RunSummary) -> Value {
    let mut map = serde_json::Map::new();
    map.insert("slots", Value::from(s.slots));
    map.insert("total_arrivals", Value::from(s.total_arrivals));
    map.insert("total_accepted", Value::from(s.total_accepted));
    map.insert("total_rejected", Value::from(s.total_rejected));
    map.insert("acceptance_ratio", Value::from(s.acceptance_ratio));
    map.insert("sla_violation_ratio", Value::from(s.sla_violation_ratio));
    map.insert(
        "mean_admission_latency_ms",
        Value::from(s.mean_admission_latency_ms),
    );
    map.insert(
        "p50_admission_latency_ms",
        Value::from(s.p50_admission_latency_ms),
    );
    map.insert(
        "p95_admission_latency_ms",
        Value::from(s.p95_admission_latency_ms),
    );
    map.insert("total_cost_usd", Value::from(s.total_cost_usd));
    map.insert("mean_slot_cost_usd", Value::from(s.mean_slot_cost_usd));
    map.insert("mean_utilization", Value::from(s.mean_utilization));
    map.insert("mean_active_flows", Value::from(s.mean_active_flows));
    map.insert("mean_live_instances", Value::from(s.mean_live_instances));
    map.insert(
        "mean_decision_time_us",
        Value::from(s.mean_decision_time_us),
    );
    map.insert("flows_disrupted", Value::from(s.flows_disrupted));
    map.insert(
        "replacement_success_rate",
        Value::from(s.replacement_success_rate),
    );
    map.insert("downtime_slots", Value::from(s.downtime_slots));
    Value::Object(map)
}

/// Reads [`summary_json`] output.
impl FromJson for RunSummary {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(RunSummary {
            slots: v.req("slots")?,
            total_arrivals: v.req("total_arrivals")?,
            total_accepted: v.req("total_accepted")?,
            total_rejected: v.req("total_rejected")?,
            acceptance_ratio: v.req("acceptance_ratio")?,
            sla_violation_ratio: v.req("sla_violation_ratio")?,
            mean_admission_latency_ms: v.req("mean_admission_latency_ms")?,
            p50_admission_latency_ms: v.req("p50_admission_latency_ms")?,
            p95_admission_latency_ms: v.req("p95_admission_latency_ms")?,
            total_cost_usd: v.req("total_cost_usd")?,
            mean_slot_cost_usd: v.req("mean_slot_cost_usd")?,
            mean_utilization: v.req("mean_utilization")?,
            mean_active_flows: v.req("mean_active_flows")?,
            mean_live_instances: v.req("mean_live_instances")?,
            mean_decision_time_us: v.req("mean_decision_time_us")?,
            flows_disrupted: v.req("flows_disrupted")?,
            replacement_success_rate: v.req("replacement_success_rate")?,
            downtime_slots: v.req("downtime_slots")?,
        })
    }
}

/// Serializes one [`BenchCell`] with exact field names — the unit shared
/// by the full report payload and the sharded-sweep shard fragments, so a
/// cell that crosses a process boundary serializes identically to one
/// that never left.
pub fn cell_json(c: &BenchCell) -> Value {
    let mut map = serde_json::Map::new();
    map.insert("scenario", Value::from(c.scenario.as_str()));
    map.insert("policy", Value::from(c.policy.as_str()));
    map.insert("x", Value::from(c.x));
    map.insert("seed", Value::from(c.seed));
    map.insert("summary", summary_json(&c.summary));
    Value::Object(map)
}

/// Reads [`cell_json`] output.
impl FromJson for BenchCell {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(BenchCell {
            scenario: v.req("scenario")?,
            policy: v.req("policy")?,
            x: v.req("x")?,
            seed: v.req("seed")?,
            summary: v.req("summary")?,
        })
    }
}

/// Reads `schema_version` and requires it to be `supported`.
///
/// # Errors
///
/// When the field is absent, not a `u64`, or another version.
pub fn check_schema_version(v: &Value, supported: u64) -> Result<(), JsonError> {
    let found: u64 = v.req("schema_version")?;
    if found == supported {
        Ok(())
    } else {
        Err(JsonError::new(
            "schema_version",
            supported.to_string(),
            found.to_string(),
        ))
    }
}

fn aggregate_json(agg: &SummaryAggregate) -> Value {
    let mut metrics = serde_json::Map::new();
    for (name, s) in &agg.metrics {
        let mut stats = serde_json::Map::new();
        stats.insert("mean", Value::from(s.mean));
        stats.insert("std", Value::from(s.std));
        stats.insert("ci95", Value::from(s.ci95));
        metrics.insert(*name, Value::Object(stats));
    }
    let mut map = serde_json::Map::new();
    map.insert("seeds", Value::from(agg.runs));
    map.insert("metrics", Value::Object(metrics));
    Value::Object(map)
}

impl BenchReport {
    /// Packages cells, in grid-index order, as a report: the one place a
    /// report is assembled. It sums the cells' slots, derives the
    /// throughput from `wall_clock_secs` (0 when no time was measured),
    /// and aggregates each (scenario, policy, x) group with
    /// [`group_aggregates`].
    pub fn from_cells(
        name: impl Into<String>,
        fingerprint: impl Into<String>,
        threads: usize,
        wall_clock_secs: f64,
        cells: Vec<BenchCell>,
    ) -> Self {
        let slots_simulated: u64 = cells.iter().map(|c| c.summary.slots).sum();
        Self {
            name: name.into(),
            threads,
            wall_clock_secs,
            slots_simulated,
            throughput_slots_per_sec: if wall_clock_secs > 0.0 {
                slots_simulated as f64 / wall_clock_secs
            } else {
                0.0
            },
            fingerprint: fingerprint.into(),
            aggregates: group_aggregates(&cells),
            cells,
        }
    }

    /// The deterministic payload: cells + aggregates only. Two runs of the
    /// same grid serialize this identically regardless of thread count.
    pub fn payload_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        self.insert_payload(&mut map);
        Value::Object(map)
    }

    /// Inserts the payload's two members, `cells` and `aggregates`.
    fn insert_payload(&self, map: &mut serde_json::Map) {
        let cells: Vec<Value> = self.cells.iter().map(cell_json).collect();
        let aggregates: Vec<Value> = self
            .aggregates
            .iter()
            .map(|a| {
                let mut map = serde_json::Map::new();
                map.insert("scenario", Value::from(a.scenario.as_str()));
                map.insert("policy", Value::from(a.policy.as_str()));
                map.insert("x", Value::from(a.x));
                map.insert("aggregate", aggregate_json(&a.aggregate));
                Value::Object(map)
            })
            .collect();
        map.insert("cells", Value::Array(cells));
        map.insert("aggregates", Value::Array(aggregates));
    }

    /// The full document written to `BENCH_<name>.json`.
    pub fn to_json(&self) -> Value {
        self.doc_json(
            self.threads,
            self.wall_clock_secs,
            self.throughput_slots_per_sec,
        )
    }

    /// The full document with the run-to-run measurement metadata
    /// (`threads`, `wall_clock_secs`, `throughput_slots_per_sec`) scrubbed
    /// to zero. Two *different executions* of the same grid — one process,
    /// or N worker processes merged — agree on this form byte for byte,
    /// so it is what the sharded-sweep tooling writes and what CI diffs.
    /// (`slots_simulated` stays: it is a deterministic sum over cells.)
    pub fn canonical_json(&self) -> Value {
        self.doc_json(0, 0.0, 0.0)
    }

    fn doc_json(&self, threads: usize, wall_clock_secs: f64, throughput: f64) -> Value {
        let mut map = serde_json::Map::new();
        map.insert("schema_version", Value::from(BENCH_SCHEMA_VERSION));
        map.insert("name", Value::from(self.name.as_str()));
        map.insert("threads", Value::from(threads));
        map.insert("wall_clock_secs", Value::from(wall_clock_secs));
        map.insert("slots_simulated", Value::from(self.slots_simulated));
        map.insert("throughput_slots_per_sec", Value::from(throughput));
        if !self.fingerprint.is_empty() {
            map.insert("fingerprint", Value::from(self.fingerprint.as_str()));
        }
        self.insert_payload(&mut map);
        Value::Object(map)
    }

    /// Writes the pretty-printed report to `dir/BENCH_<name>.json` and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        write_lines(&path, &[serde_json::to_string_pretty(&self.to_json())])?;
        Ok(path)
    }

    /// Writes the pretty-printed [`BenchReport::canonical_json`] form to
    /// `dir/BENCH_<name>.json` and returns the path — the writer the
    /// sweep merge and its single-process reference both use, so the two
    /// files can be compared byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_canonical_to(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        write_lines(
            &path,
            &[serde_json::to_string_pretty(&self.canonical_json())],
        )?;
        Ok(path)
    }
}

/// Reads [`BenchReport::to_json`] output. Aggregates are recomputed from
/// the cells (they are derived data).
impl FromJson for BenchReport {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        check_schema_version(v, BENCH_SCHEMA_VERSION)?;
        let cells: Vec<BenchCell> = v.req("cells")?;
        Ok(Self {
            name: v.req("name")?,
            threads: v.req("threads")?,
            wall_clock_secs: v.req("wall_clock_secs")?,
            slots_simulated: v.req("slots_simulated")?,
            throughput_slots_per_sec: v.req("throughput_slots_per_sec")?,
            fingerprint: v.opt("fingerprint")?.unwrap_or_default(),
            aggregates: group_aggregates(&cells),
            cells,
        })
    }
}

/// Loads `dir/BENCH_<name>.json`.
///
/// # Errors
///
/// I/O, syntax and shape failures, naming the file.
pub fn load_bench_report(dir: &Path, name: &str) -> Result<BenchReport, JsonError> {
    serde_json::from_file(&dir.join(format!("BENCH_{name}.json")))
}

/// Version stamp of the `BENCH_search_*.json` schema; bump on breaking
/// changes.
pub const SEARCH_SCHEMA_VERSION: u64 = 1;

/// One (reward point, scenario, policy) candidate of a configuration
/// search, with its health trajectory through the halving schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCandidate {
    /// Index of the candidate's reward point.
    pub point: usize,
    /// Scenario label.
    pub scenario: String,
    /// Policy label.
    pub policy: String,
    /// Sweep coordinate.
    pub x: f64,
    /// Latency weight α of the reward point.
    pub alpha: f64,
    /// Cost weight β of the reward point.
    pub beta: f64,
    /// Health over the screening seeds (normalized across all
    /// candidates).
    pub screened_health: f64,
    /// Whether the candidate was promoted to the full seed budget.
    pub promoted: bool,
    /// Seeds actually evaluated.
    pub seeds_run: usize,
    /// Final health over the evaluated seeds (normalized across all
    /// candidates).
    pub health: f64,
}

/// One reward point's evaluated grid inside a [`SearchReport`]: the
/// embedded bench report plus a per-cell health score aligned with
/// `report.cells` (the per-seed scatter behind the candidate healths).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchPointReport {
    /// Latency weight α of the point.
    pub alpha: f64,
    /// Cost weight β of the point.
    pub beta: f64,
    /// Health of each cell, `report.cells` order, normalized across the
    /// point's cells.
    pub cell_health: Vec<f64>,
    /// The point's evaluated cells and aggregates.
    pub report: BenchReport,
}

/// The machine-readable result of one manifest search: everything
/// `BENCH_search_<name>.json` contains. Like [`BenchReport`], the whole
/// document except nested measurement metadata is deterministic; the
/// canonical form scrubs that metadata so two runs of the same search
/// agree byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Manifest name (`BENCH_search_<name>.json`).
    pub name: String,
    /// Mode-independent fingerprint of the searched manifest.
    pub manifest_fingerprint: String,
    /// Whether the `FAST` variant was searched.
    pub fast: bool,
    /// Seeds per candidate in the screening pass.
    pub screen_seeds: usize,
    /// Seeds per promoted candidate.
    pub full_seeds: usize,
    /// Fraction of candidates promoted.
    pub promote_fraction: f64,
    /// Total (cell × seed) runs evaluated.
    pub runs_evaluated: usize,
    /// Runs the exhaustive grid would have evaluated.
    pub runs_exhaustive: usize,
    /// The `(metric, weight, higher_is_better)` health weights used.
    pub health_weights: Vec<(String, f64, bool)>,
    /// Every candidate, expansion order.
    pub candidates: Vec<SearchCandidate>,
    /// Index into `candidates` of the winner.
    pub best: usize,
    /// Per-reward-point evaluated grids, expansion order.
    pub points: Vec<SearchPointReport>,
}

fn search_candidate_json(c: &SearchCandidate) -> Value {
    let mut map = serde_json::Map::new();
    map.insert("point", Value::from(c.point));
    map.insert("scenario", Value::from(c.scenario.as_str()));
    map.insert("policy", Value::from(c.policy.as_str()));
    map.insert("x", Value::from(c.x));
    map.insert("alpha", Value::from(c.alpha));
    map.insert("beta", Value::from(c.beta));
    map.insert("screened_health", Value::from(c.screened_health));
    map.insert("promoted", Value::from(c.promoted));
    map.insert("seeds_run", Value::from(c.seeds_run));
    map.insert("health", Value::from(c.health));
    Value::Object(map)
}

impl FromJson for SearchCandidate {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(SearchCandidate {
            point: v.req("point")?,
            scenario: v.req("scenario")?,
            policy: v.req("policy")?,
            x: v.req("x")?,
            alpha: v.req("alpha")?,
            beta: v.req("beta")?,
            screened_health: v.req("screened_health")?,
            promoted: v.req("promoted")?,
            seeds_run: v.req("seeds_run")?,
            health: v.req("health")?,
        })
    }
}

impl FromJson for SearchPointReport {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(SearchPointReport {
            alpha: v.req("alpha")?,
            beta: v.req("beta")?,
            cell_health: v.req("cell_health")?,
            report: v.req("report")?,
        })
    }
}

/// Writes `(metric, weight, higher_is_better)` health weights as search
/// reports and manifests store them:
/// `[{"metric", "weight", "direction": "up" | "down"}]`.
pub fn health_weights_json(weights: &[(String, f64, bool)]) -> Value {
    let weights = weights.iter().map(|(metric, weight, up)| {
        let mut w = serde_json::Map::new();
        w.insert("metric", Value::from(metric.as_str()));
        w.insert("weight", Value::from(*weight));
        w.insert("direction", Value::from(if *up { "up" } else { "down" }));
        Value::Object(w)
    });
    Value::Array(weights.collect())
}

/// One health weight read back from [`health_weights_json`] output.
pub struct HealthWeight(pub String, pub f64, pub bool);

impl FromJson for HealthWeight {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let up = match v.req::<String>("direction")?.as_str() {
            "up" => true,
            "down" => false,
            other => {
                return Err(JsonError::new(
                    "direction",
                    "`up` or `down`",
                    format!("{other:?}"),
                ))
            }
        };
        Ok(Self(v.req("metric")?, v.req("weight")?, up))
    }
}

impl From<HealthWeight> for (String, f64, bool) {
    fn from(HealthWeight(metric, weight, up): HealthWeight) -> Self {
        (metric, weight, up)
    }
}

impl SearchReport {
    /// The winning candidate.
    pub fn best_candidate(&self) -> &SearchCandidate {
        &self.candidates[self.best]
    }

    /// Candidate indices ordered healthiest-first (final health, ties
    /// toward the lower index; promoted candidates outrank screened-out
    /// ones at equal health since their score is better founded).
    pub fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by(|&a, &b| {
            let (ca, cb) = (&self.candidates[a], &self.candidates[b]);
            cb.health
                .partial_cmp(&ca.health)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(cb.promoted.cmp(&ca.promoted))
                .then(a.cmp(&b))
        });
        order
    }

    /// The full document written to `BENCH_search_<name>.json`, with
    /// nested reports in their canonical (measurement-scrubbed) form so
    /// two executions of the same search serialize identically.
    pub fn canonical_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        map.insert("schema_version", Value::from(SEARCH_SCHEMA_VERSION));
        map.insert("name", Value::from(self.name.as_str()));
        map.insert(
            "manifest_fingerprint",
            Value::from(self.manifest_fingerprint.as_str()),
        );
        map.insert("fast", Value::from(self.fast));
        map.insert("screen_seeds", Value::from(self.screen_seeds));
        map.insert("full_seeds", Value::from(self.full_seeds));
        map.insert("promote_fraction", Value::from(self.promote_fraction));
        map.insert("runs_evaluated", Value::from(self.runs_evaluated));
        map.insert("runs_exhaustive", Value::from(self.runs_exhaustive));
        map.insert("health_weights", health_weights_json(&self.health_weights));
        map.insert(
            "candidates",
            Value::Array(self.candidates.iter().map(search_candidate_json).collect()),
        );
        map.insert("best", Value::from(self.best));
        let points: Vec<Value> = self
            .points
            .iter()
            .map(|p| {
                let mut pm = serde_json::Map::new();
                pm.insert("alpha", Value::from(p.alpha));
                pm.insert("beta", Value::from(p.beta));
                pm.insert(
                    "cell_health",
                    Value::Array(p.cell_health.iter().map(|&h| Value::from(h)).collect()),
                );
                pm.insert("report", p.report.canonical_json());
                Value::Object(pm)
            })
            .collect();
        map.insert("points", Value::Array(points));
        Value::Object(map)
    }

    /// Writes the pretty-printed canonical document to
    /// `dir/BENCH_search_<name>.json` and returns the path. Byte-stable
    /// across executions, so CI compares two runs with `cmp`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_canonical_to(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_search_{}.json", self.name));
        write_lines(
            &path,
            &[serde_json::to_string_pretty(&self.canonical_json())],
        )?;
        Ok(path)
    }
}

/// Reads [`SearchReport::canonical_json`] output, and checks that `best`
/// indexes a candidate.
impl FromJson for SearchReport {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        check_schema_version(v, SEARCH_SCHEMA_VERSION)?;
        let candidates: Vec<SearchCandidate> = v.req("candidates")?;
        let best: usize = v.req("best")?;
        if best >= candidates.len() {
            return Err(JsonError::new(
                "best",
                format!("an index below {} (the candidate count)", candidates.len()),
                best.to_string(),
            ));
        }
        Ok(Self {
            name: v.req("name")?,
            manifest_fingerprint: v.req("manifest_fingerprint")?,
            fast: v.req("fast")?,
            screen_seeds: v.req("screen_seeds")?,
            full_seeds: v.req("full_seeds")?,
            promote_fraction: v.req("promote_fraction")?,
            runs_evaluated: v.req("runs_evaluated")?,
            runs_exhaustive: v.req("runs_exhaustive")?,
            health_weights: v
                .req::<Vec<HealthWeight>>("health_weights")?
                .into_iter()
                .map(Into::into)
                .collect(),
            candidates,
            best,
            points: v.req("points")?,
        })
    }
}

/// Loads `dir/BENCH_search_<name>.json`.
///
/// # Errors
///
/// I/O, syntax and shape failures, naming the file.
pub fn load_search_report(dir: &Path, name: &str) -> Result<SearchReport, JsonError> {
    serde_json::from_file(&dir.join(format!("BENCH_search_{name}.json")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RunSummary {
        RunSummary {
            slots: 10,
            total_arrivals: 100,
            total_accepted: 90,
            total_rejected: 10,
            acceptance_ratio: 0.9,
            sla_violation_ratio: 0.05,
            mean_admission_latency_ms: 25.0,
            p50_admission_latency_ms: 20.0,
            p95_admission_latency_ms: 60.0,
            total_cost_usd: 5.0,
            mean_slot_cost_usd: 0.5,
            mean_utilization: 0.4,
            mean_active_flows: 30.0,
            mean_live_instances: 12.0,
            mean_decision_time_us: 15.0,
            flows_disrupted: 3,
            replacement_success_rate: 2.0 / 3.0,
            downtime_slots: 7,
        }
    }

    #[test]
    fn markdown_table_contains_policy_rows() {
        let results = vec![
            PolicyResult {
                policy: "drl".into(),
                summary: summary(),
            },
            PolicyResult {
                policy: "first-fit".into(),
                summary: summary(),
            },
        ];
        let md = markdown_comparison(&results);
        assert!(md.contains("| drl |"));
        assert!(md.contains("| first-fit |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn csv_row_has_header_arity() {
        let header_fields = summary_csv_header().split(',').count();
        let row_fields = summary_csv_row("p", 1.0, &summary()).split(',').count();
        assert_eq!(header_fields, row_fields);
    }

    #[test]
    fn slot_csv_row_has_header_arity() {
        let r = SlotRecord {
            slot: 0,
            arrivals: 1,
            accepted: 1,
            rejected: 0,
            sla_violations: 0,
            active_flows: 1,
            live_instances: 1,
            mean_latency_ms: 1.0,
            compute_cost: 0.1,
            energy_cost: 0.1,
            traffic_cost: 0.1,
            deployment_cost: 0.1,
            mean_utilization: 0.2,
            flows_disrupted: 1,
            flows_replaced: 1,
            nodes_down: 0,
        };
        assert_eq!(
            slot_csv_header().split(',').count(),
            slot_csv_row("p", &r).split(',').count()
        );
    }

    fn report_fixture() -> BenchReport {
        let mut cells = Vec::new();
        for policy in ["drl", "first-fit"] {
            for seed in [1u64, 2] {
                let mut s = summary();
                s.mean_admission_latency_ms += seed as f64;
                cells.push(BenchCell {
                    scenario: "s0".into(),
                    policy: policy.into(),
                    x: 8.0,
                    seed,
                    summary: s,
                });
            }
        }
        BenchReport::from_cells("unit", "fp", 4, 1.5, cells)
    }

    #[test]
    fn from_cells_sums_slots_and_aggregates_groups() {
        let report = report_fixture();
        assert_eq!(report.slots_simulated, 40);
        assert_eq!(report.throughput_slots_per_sec, 40.0 / 1.5);
        assert_eq!(report.aggregates, group_aggregates(&report.cells));
        assert_eq!(report.aggregates.len(), 2);
        assert_eq!(report.aggregates[0].aggregate.runs, 2);
        assert_eq!((report.threads, report.fingerprint.as_str()), (4, "fp"));
        let unmeasured = BenchReport::from_cells("unit", "", 0, 0.0, report.cells);
        assert_eq!(unmeasured.slots_simulated, 40);
        assert_eq!(unmeasured.throughput_slots_per_sec, 0.0);
    }

    #[test]
    fn aggregate_csv_row_matches_header_arity() {
        let agg = aggregate_summaries(&[summary(), summary()]);
        assert_eq!(
            aggregate_csv_header().split(',').count(),
            aggregate_csv_row("p", 1.0, &agg).split(',').count()
        );
    }

    #[test]
    fn aggregate_markdown_has_band_cells() {
        let agg = aggregate_summaries(&[summary(), summary()]);
        let md = markdown_aggregate_comparison(&[("drl".to_string(), agg)]);
        assert!(md.contains("| drl | 2 |"));
        assert!(md.contains("±"));
    }

    #[test]
    fn group_aggregates_splits_on_cell_group_boundaries() {
        let report = report_fixture();
        assert_eq!(report.aggregates.len(), 2);
        assert_eq!(report.aggregates[0].policy, "drl");
        assert_eq!(report.aggregates[0].aggregate.runs, 2);
        assert_eq!(report.aggregates[1].policy, "first-fit");
    }

    #[test]
    fn bench_report_json_roundtrip() -> Result<(), JsonError> {
        let report = report_fixture();
        let text = serde_json::to_string_pretty(&report.to_json());
        assert_eq!(
            BenchReport::from_json(&serde_json::from_str(&text)?)?,
            report
        );
        Ok(())
    }

    #[test]
    fn summary_json_roundtrip_is_exact() -> Result<(), JsonError> {
        let s = summary();
        let v = serde_json::from_str(&serde_json::to_string(&summary_json(&s)))?;
        assert_eq!(RunSummary::from_json(&v)?, s);
        Ok(())
    }

    #[test]
    fn bench_report_write_and_load() -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join("mano_bench_report_test");
        let report = report_fixture();
        assert_eq!(report.write_to(&dir)?, dir.join("BENCH_unit.json"));
        assert_eq!(load_bench_report(&dir, "unit")?, report);
        let missing = load_bench_report(&dir, "missing").unwrap_err();
        assert_eq!(missing.file, Some(dir.join("BENCH_missing.json")));
        assert_eq!(missing.expected, "a readable file");
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn payload_json_excludes_timing_metadata() {
        let payload = report_fixture().payload_json();
        assert!(payload.get("cells").is_some());
        assert!(payload.get("aggregates").is_some());
        assert!(payload.get("wall_clock_secs").is_none());
        assert!(payload.get("threads").is_none());
    }

    #[test]
    fn cell_json_roundtrip_is_exact() -> Result<(), JsonError> {
        let cell = report_fixture().cells[1].clone();
        let v = serde_json::from_str(&serde_json::to_string(&cell_json(&cell)))?;
        assert_eq!(BenchCell::from_json(&v)?, cell);
        Ok(())
    }

    #[test]
    fn canonical_json_scrubs_only_measurement_metadata() -> Result<(), JsonError> {
        let mut a = report_fixture();
        let mut b = report_fixture();
        // Same deterministic payload, different execution circumstances.
        a.threads = 1;
        a.wall_clock_secs = 9.0;
        a.throughput_slots_per_sec = 40.0 / 9.0;
        b.threads = 8;
        b.wall_clock_secs = 1.25;
        b.throughput_slots_per_sec = 40.0 / 1.25;
        assert_ne!(
            serde_json::to_string(&a.to_json()),
            serde_json::to_string(&b.to_json())
        );
        let canon_a = serde_json::to_string_pretty(&a.canonical_json());
        assert_eq!(
            canon_a,
            serde_json::to_string_pretty(&b.canonical_json()),
            "canonical form must not depend on how the grid was executed"
        );
        // Still a well-formed report document with the full payload.
        let parsed = BenchReport::from_json(&serde_json::from_str(&canon_a)?)?;
        assert_eq!(parsed.cells, a.cells);
        assert_eq!(parsed.slots_simulated, a.slots_simulated);
        assert_eq!(parsed.threads, 0);
        Ok(())
    }

    #[test]
    fn write_canonical_matches_canonical_json() {
        let dir = std::env::temp_dir().join("mano_bench_canonical_test");
        let report = report_fixture();
        let path = report.write_canonical_to(&dir).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            on_disk,
            serde_json::to_string_pretty(&report.canonical_json()) + "\n"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    fn search_report_fixture() -> SearchReport {
        let report = report_fixture();
        let candidates = vec![
            SearchCandidate {
                point: 0,
                scenario: "s0".into(),
                policy: "drl".into(),
                x: 8.0,
                alpha: 1.0,
                beta: 1.0,
                screened_health: 0.8,
                promoted: true,
                seeds_run: 2,
                health: 0.85,
            },
            SearchCandidate {
                point: 0,
                scenario: "s0".into(),
                policy: "first-fit".into(),
                x: 8.0,
                alpha: 1.0,
                beta: 1.0,
                screened_health: 0.3,
                promoted: false,
                seeds_run: 1,
                health: 0.25,
            },
        ];
        SearchReport {
            name: "unit".into(),
            manifest_fingerprint: "unit-0123456789abcdef".into(),
            fast: true,
            screen_seeds: 1,
            full_seeds: 2,
            promote_fraction: 0.5,
            runs_evaluated: 3,
            runs_exhaustive: 4,
            health_weights: vec![
                ("acceptance_ratio".into(), 3.0, true),
                ("p95_latency_ms".into(), 2.0, false),
            ],
            candidates,
            best: 0,
            points: vec![SearchPointReport {
                alpha: 1.0,
                beta: 1.0,
                cell_health: vec![0.9, 0.8, 0.3, 0.2],
                report,
            }],
        }
    }

    #[test]
    fn search_report_json_roundtrip() -> Result<(), JsonError> {
        let report = search_report_fixture();
        let text = serde_json::to_string_pretty(&report.canonical_json());
        let parsed = SearchReport::from_json(&serde_json::from_str(&text)?)?;
        // The nested bench report's measurement metadata is scrubbed by
        // the canonical form; everything else survives exactly.
        assert_eq!(parsed.name, report.name);
        assert_eq!(parsed.manifest_fingerprint, report.manifest_fingerprint);
        assert_eq!(parsed.candidates, report.candidates);
        assert_eq!(parsed.health_weights, report.health_weights);
        assert_eq!(parsed.best_candidate().policy, "drl");
        assert_eq!(parsed.ranking(), vec![0, 1]);
        assert_eq!(parsed.points[0].cell_health, report.points[0].cell_health);
        assert_eq!(parsed.points[0].report.cells, report.points[0].report.cells);
        assert_eq!(parsed.runs_evaluated, 3);
        Ok(())
    }

    #[test]
    fn search_report_canonical_is_execution_independent() {
        let a = search_report_fixture();
        let mut b = search_report_fixture();
        b.points[0].report.threads = 16;
        b.points[0].report.wall_clock_secs = 99.0;
        b.points[0].report.throughput_slots_per_sec = 1.0;
        assert_eq!(
            serde_json::to_string_pretty(&a.canonical_json()),
            serde_json::to_string_pretty(&b.canonical_json())
        );
    }

    #[test]
    fn search_report_write_and_load() -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join("mano_search_report_test");
        let report = search_report_fixture();
        let path = report.write_canonical_to(&dir)?;
        assert_eq!(path, dir.join("BENCH_search_unit.json"));
        assert_eq!(
            load_search_report(&dir, "unit")?.candidates,
            report.candidates
        );
        assert!(load_search_report(&dir, "missing").is_err());
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn truncated_bench_report_names_its_file_and_byte() -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join("mano_truncated_bench_report_test");
        let text = serde_json::to_string_pretty(&report_fixture().to_json());
        write_lines(
            dir.join("BENCH_unit.json"),
            &[text[..text.len() / 2].to_string()],
        )?;
        let e = load_bench_report(&dir, "unit").unwrap_err();
        assert_eq!(e.file, Some(dir.join("BENCH_unit.json")));
        assert!(e.path.starts_with("byte "), "{e}");
        assert_eq!(e.found, "end of input");
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn mistyped_bench_cell_field_is_named_by_its_path() -> Result<(), JsonError> {
        let mut report = report_fixture();
        report.cells[1].summary.total_arrivals = 101;
        let text = serde_json::to_string(&report.to_json())
            .replace(r#""total_arrivals":101"#, r#""total_arrivals":-1"#);
        let e = BenchReport::from_json(&serde_json::from_str(&text)?).unwrap_err();
        assert_eq!(e.path, "cells[1].summary.total_arrivals");
        assert_eq!(e.found, "-1");
        assert_eq!(
            e.to_string(),
            "cells[1].summary.total_arrivals: expected a u64 (as a decimal string from 2^53 on), \
             found -1"
        );
        Ok(())
    }

    #[test]
    fn bench_report_of_another_schema_version_is_refused() -> Result<(), JsonError> {
        let text = serde_json::to_string(&report_fixture().to_json())
            .replace(r#""schema_version":1"#, r#""schema_version":2"#);
        let e = BenchReport::from_json(&serde_json::from_str(&text)?).unwrap_err();
        assert_eq!(
            (e.path.as_str(), e.expected.as_str()),
            ("schema_version", "1")
        );
        Ok(())
    }

    #[test]
    fn truncated_search_report_names_its_file_and_byte() -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join("mano_truncated_search_report_test");
        let text = serde_json::to_string_pretty(&search_report_fixture().canonical_json());
        write_lines(
            dir.join("BENCH_search_unit.json"),
            &[text[..text.len() / 3].to_string()],
        )?;
        let e = load_search_report(&dir, "unit").unwrap_err();
        assert_eq!(e.file, Some(dir.join("BENCH_search_unit.json")));
        assert_eq!(e.found, "end of input");
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn mistyped_search_point_field_is_named_by_its_path() -> Result<(), JsonError> {
        let mut report = search_report_fixture();
        report.points[0].report.cells[1].summary.total_arrivals = 101;
        let text = serde_json::to_string(&report.canonical_json())
            .replace(r#""total_arrivals":101"#, r#""total_arrivals":"many""#);
        let e = SearchReport::from_json(&serde_json::from_str(&text)?).unwrap_err();
        assert_eq!(e.path, "points[0].report.cells[1].summary.total_arrivals");
        assert_eq!(e.found, r#""many""#);
        Ok(())
    }

    #[test]
    fn search_report_best_must_index_a_candidate() -> Result<(), JsonError> {
        let mut report = search_report_fixture();
        report.best = 2;
        let doc = serde_json::from_str(&serde_json::to_string(&report.canonical_json()))?;
        let e = SearchReport::from_json(&doc).unwrap_err();
        assert_eq!(e.path, "best");
        assert_eq!(e.found, "2");
        assert!(e.expected.contains("below 2"), "{e}");
        Ok(())
    }

    #[test]
    fn write_lines_roundtrip() {
        let dir = std::env::temp_dir().join("mano_report_test");
        let path = dir.join("out.csv");
        write_lines(&path, &["a".into(), "b".into()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a\nb\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
