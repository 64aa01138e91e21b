//! Declarative experiment grids: a (scenario × policy-factory × seed)
//! cross-product whose cells run in parallel and reduce deterministically.
//!
//! Every cell carries its grid index; workers report `(index, result)`
//! pairs that land in index-addressed slots, and aggregation walks the
//! slots in index order. The reduction therefore never observes execution
//! interleaving, which is what makes a parallel run bit-identical to
//! `EXPER_THREADS=1`.

use crate::manifest::baseline_factory;
use crate::pool::{run_indexed, thread_count};
use crate::timer::evaluate_timed;
use mano::prelude::*;
use sfc::chain::ChainCatalog;
use sfc::vnf::VnfCatalog;
use std::time::Instant;

/// Builds a fresh policy instance for one grid cell. Cells never share
/// policy state — stateful policies (the DRL manager) are cloned into
/// each cell by their factory, so cells stay independent and the grid can
/// run them in any order on any thread.
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn PlacementPolicy> + Send + Sync>;

/// One labelled grid row: a scenario plus the sweep coordinate it
/// represents (arrival rate, site count, chain length, …).
pub struct GridScenario {
    /// Stable label recorded in cells (`λ=8`, `sites=12`, …).
    pub label: String,
    /// Numeric sweep coordinate for CSV/plot axes.
    pub x: f64,
    /// The scenario itself.
    pub scenario: Scenario,
}

/// A declarative (scenario × policy × seed) experiment.
///
/// ```
/// use exper::prelude::*;
/// use mano::prelude::*;
///
/// let report = ExperimentGrid::new("doc")
///     .scenario("small", 1.0, Scenario::small_test())
///     .policy("first-fit", || Box::new(FirstFitPolicy))
///     .policy("greedy-latency", || Box::new(GreedyLatencyPolicy))
///     .seeds(&[1, 2])
///     .threads(2)
///     .run();
/// assert_eq!(report.cells.len(), 4);
/// assert_eq!(report.aggregates.len(), 2);
/// ```
pub struct ExperimentGrid {
    name: String,
    scenarios: Vec<GridScenario>,
    policies: Vec<(String, PolicyFactory)>,
    seeds: Vec<u64>,
    reward: RewardConfig,
    threads: Option<usize>,
    scrub_decision_time: bool,
    catalogs: Option<(VnfCatalog, ChainCatalog)>,
    fingerprint: String,
}

impl ExperimentGrid {
    /// Starts an empty grid named `name` (becomes `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            scenarios: Vec::new(),
            policies: Vec::new(),
            seeds: vec![0],
            reward: RewardConfig::default(),
            threads: None,
            scrub_decision_time: true,
            catalogs: None,
            fingerprint: String::new(),
        }
    }

    /// Adds a scenario row with its sweep coordinate.
    pub fn scenario(mut self, label: impl Into<String>, x: f64, scenario: Scenario) -> Self {
        self.scenarios.push(GridScenario {
            label: label.into(),
            x,
            scenario,
        });
        self
    }

    /// Adds a policy column built per cell by `factory`.
    pub fn policy<F, P>(mut self, label: impl Into<String>, factory: F) -> Self
    where
        F: Fn() -> Box<P> + Send + Sync + 'static,
        P: PlacementPolicy + 'static,
    {
        self.policies.push((
            label.into(),
            Box::new(move || factory() as Box<dyn PlacementPolicy>),
        ));
        self
    }

    /// Adds a policy column from an already-boxed factory (for trait
    /// objects whose concrete type varies at runtime).
    pub fn policy_boxed(mut self, label: impl Into<String>, factory: PolicyFactory) -> Self {
        self.policies.push((label.into(), factory));
        self
    }

    /// Appends one column per registered baseline (`mano::baselines`),
    /// labelled by its name, in the order given.
    ///
    /// # Panics
    ///
    /// Panics on a name the registry does not hold.
    pub fn baselines(mut self, names: &[&str]) -> Self {
        for &name in names {
            let factory =
                baseline_factory(name).unwrap_or_else(|| panic!("unknown baseline `{name}`"));
            self.policies.push((name.to_string(), factory));
        }
        self
    }

    /// Replaces the seed axis (default `[0]`).
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the reward configuration passed to every evaluation.
    pub fn reward(mut self, reward: RewardConfig) -> Self {
        self.reward = reward;
        self
    }

    /// Pins the worker-thread count, overriding `EXPER_THREADS` (tests
    /// use this to compare thread counts without mutating the process
    /// environment).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Keeps wall-clock decision times in cell summaries: each cell's
    /// policy runs inside a decision timer that fills
    /// `mean_decision_time_us`. By default nothing is timed and the field
    /// stays 0, because timings are measurement noise that would break the
    /// byte-identical-output guarantee; the scalability figure opts in
    /// (its whole point is timing).
    pub fn keep_decision_time(mut self) -> Self {
        self.scrub_decision_time = false;
        self
    }

    /// Evaluates every cell on custom VNF/chain catalogs instead of the
    /// standard ones.
    pub fn with_catalogs(mut self, vnfs: VnfCatalog, chains: ChainCatalog) -> Self {
        self.catalogs = Some((vnfs, chains));
        self
    }

    /// Attaches a configuration fingerprint recorded in the report
    /// (binaries sharing a cached grid use it to detect staleness).
    pub fn fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = fingerprint.into();
        self
    }

    /// Total number of cells the grid will run.
    pub fn cell_count(&self) -> usize {
        self.scenarios.len() * self.policies.len() * self.seeds.len()
    }

    /// The grid's name (`BENCH_<name>.json`).
    pub fn grid_name(&self) -> &str {
        &self.name
    }

    /// The fingerprint attached via [`ExperimentGrid::fingerprint`]
    /// (empty when unset).
    pub fn grid_fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// A structural fingerprint of the grid: an FNV-1a hash over the
    /// name, every scenario (label, coordinate, full `Debug` form), the
    /// policy labels, the seed axis, the reward configuration, custom
    /// catalogs and the decision-time scrub flag — everything that
    /// determines the deterministic cell payload *except* the policy
    /// factories themselves, which are opaque closures. Callers must keep
    /// the label↔policy binding stable (the registry discipline: a label
    /// names exactly one construction, which [`ExperimentGrid::baselines`]
    /// guarantees by building every baseline column through
    /// `mano::baselines::baseline`); under that discipline two grids with
    /// equal fingerprints produce bit-identical cells, which is what the
    /// sharded-sweep merge validates before trusting a fragment.
    pub fn auto_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut desc = format!(
            "grid;v1;name={};seeds={:?};reward={:?};scrub={}",
            self.name, self.seeds, self.reward, self.scrub_decision_time
        );
        for row in &self.scenarios {
            let _ = write!(desc, ";scenario={}|{}|{:?}", row.label, row.x, row.scenario);
        }
        for (label, _) in &self.policies {
            let _ = write!(desc, ";policy={label}");
        }
        if let Some((vnfs, chains)) = &self.catalogs {
            let _ = write!(desc, ";catalogs={vnfs:?}|{chains:?}");
        }
        format!("{}-{:016x}", self.name, fnv1a(desc.as_bytes()))
    }

    /// Executes exactly one global cell. Pure in the grid-engine sense:
    /// the result depends only on the grid definition and `index`, never
    /// on which other cells ran (or on which thread/process this one ran).
    fn cell(&self, index: usize) -> BenchCell {
        let per_policy = self.seeds.len();
        let per_scenario = self.policies.len() * per_policy;
        let row = &self.scenarios[index / per_scenario];
        let (policy_label, factory) = &self.policies[(index % per_scenario) / per_policy];
        let seed = self.seeds[index % per_policy];
        let mut policy = factory();
        let result = evaluate_timed(
            policy.as_mut(),
            !self.scrub_decision_time,
            |policy| match &self.catalogs {
                Some((vnfs, chains)) => evaluate_policy_with_catalogs(
                    &row.scenario,
                    self.reward,
                    policy,
                    seed,
                    vnfs,
                    chains,
                ),
                None => evaluate_policy(&row.scenario, self.reward, policy, seed),
            },
        );
        BenchCell {
            scenario: row.label.clone(),
            policy: policy_label.clone(),
            x: row.x,
            seed,
            summary: result.summary,
        }
    }

    /// Executes exactly the given global cells (any subset, any order) on
    /// the grid's worker pool and returns `(global index, cell)` pairs in
    /// the order of `indices`. This is the shard-execution entry point:
    /// a sweep worker expands its shard plan to indices and runs only
    /// those, and because every cell is a pure function of its index the
    /// results are bit-identical to the same cells of a full
    /// [`ExperimentGrid::run`].
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty (like [`ExperimentGrid::run`]) or any
    /// index is out of range.
    pub fn run_cells(&self, indices: &[usize]) -> Vec<(usize, BenchCell)> {
        self.assert_runnable();
        let n = self.cell_count();
        for &index in indices {
            assert!(index < n, "cell index {index} outside grid of {n} cells");
        }
        let threads = self.threads.unwrap_or_else(thread_count);
        run_indexed(indices.len(), threads, |slot| {
            let index = indices[slot];
            (index, self.cell(index))
        })
    }

    fn assert_runnable(&self) {
        assert!(
            !self.scenarios.is_empty(),
            "grid needs at least one scenario"
        );
        assert!(!self.policies.is_empty(), "grid needs at least one policy");
        assert!(!self.seeds.is_empty(), "grid needs at least one seed");
    }

    /// Executes the grid and returns its report.
    ///
    /// Cell order (and therefore `report.cells` order) is scenario-major,
    /// then policy, then seed. `cells` and `aggregates` are bit-identical
    /// for any thread count; `wall_clock_secs`/`throughput_slots_per_sec`
    /// are measurement metadata.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no scenarios or no policies, or if a cell's
    /// policy panics.
    pub fn run(&self) -> BenchReport {
        self.assert_runnable();
        let threads = self.threads.unwrap_or_else(thread_count);
        let n = self.cell_count();

        let started = Instant::now();
        let cells = run_indexed(n, threads, |index| self.cell(index));
        let wall_clock_secs = started.elapsed().as_secs_f64();

        BenchReport::from_cells(
            self.name.clone(),
            self.fingerprint.clone(),
            threads,
            wall_clock_secs,
            cells,
        )
    }
}

/// FNV-1a 64-bit over bytes — dependency-free, stable across platforms,
/// plenty for detecting grid- and manifest-structure drift (this is
/// staleness detection, not a security boundary).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Concatenates several grid reports into one (used when a sweep must be
/// split into sub-grids, e.g. a per-size DRL manager whose observation
/// width differs per scenario). Cells keep their per-report order;
/// aggregates are recomputed over the concatenation; wall-clock and slot
/// totals are summed (the sub-grids ran back to back).
///
/// # Panics
///
/// Panics when `reports` is empty.
pub fn merge_reports(name: impl Into<String>, reports: Vec<BenchReport>) -> BenchReport {
    assert!(!reports.is_empty(), "cannot merge zero reports");
    let threads = reports.iter().map(|r| r.threads).max().unwrap_or(1);
    let wall_clock_secs: f64 = reports.iter().map(|r| r.wall_clock_secs).sum();
    let cells: Vec<BenchCell> = reports.into_iter().flat_map(|r| r.cells).collect();
    BenchReport::from_cells(name, "", threads, wall_clock_secs, cells)
}

/// Renders a report's aggregates as a band CSV (header + one row per
/// (scenario, policy) group): the multi-seed upgrade of the old
/// single-seed sweep CSVs.
pub fn sweep_csv(report: &BenchReport) -> Vec<String> {
    let mut lines = vec![aggregate_csv_header()];
    for a in &report.aggregates {
        lines.push(aggregate_csv_row(&a.policy, a.x, &a.aggregate));
    }
    lines
}

/// Renders a report's raw cells as a CSV (header + one row per cell),
/// for consumers that want the per-seed scatter rather than the bands.
pub fn cells_csv(report: &BenchReport) -> Vec<String> {
    let mut lines = vec![format!("{},seed", summary_csv_header())];
    for c in &report.cells {
        lines.push(format!(
            "{},{}",
            summary_csv_row(&c.policy, c.x, &c.summary),
            c.seed
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid(threads: usize) -> BenchReport {
        tiny_grid_def(threads).run()
    }

    #[test]
    fn grid_runs_all_cells_in_order() {
        let report = tiny_grid(2);
        assert_eq!(report.cells.len(), 4);
        let coords: Vec<(&str, u64)> = report
            .cells
            .iter()
            .map(|c| (c.policy.as_str(), c.seed))
            .collect();
        assert_eq!(
            coords,
            vec![
                ("first-fit", 3),
                ("first-fit", 7),
                ("cloud-only", 3),
                ("cloud-only", 7)
            ]
        );
        assert_eq!(report.aggregates.len(), 2);
        assert_eq!(report.aggregates[0].aggregate.runs, 2);
        assert!(report.slots_simulated > 0);
        assert!(report.wall_clock_secs > 0.0);
    }

    #[test]
    fn decision_time_scrubbed_by_default() {
        let report = tiny_grid(1);
        assert!(report
            .cells
            .iter()
            .all(|c| c.summary.mean_decision_time_us == 0.0));
        let kept = ExperimentGrid::new("unit")
            .scenario("small", 1.0, Scenario::small_test())
            .policy("first-fit", || Box::new(FirstFitPolicy))
            .keep_decision_time()
            .threads(1)
            .run();
        assert!(kept.cells[0].summary.mean_decision_time_us > 0.0);
    }

    #[test]
    fn merge_concatenates_and_reaggregates() {
        // The fig5 shape: one sub-grid per scenario size, merged into a
        // single report whose groups stay distinct per scenario.
        let sub = |label: &str, x: f64| {
            ExperimentGrid::new(label)
                .scenario(label, x, Scenario::small_test())
                .policy("first-fit", || Box::new(FirstFitPolicy))
                .seeds(&[3, 7])
                .threads(2)
                .run()
        };
        let merged = merge_reports("merged", vec![sub("n=4", 4.0), sub("n=8", 8.0)]);
        assert_eq!(merged.cells.len(), 4);
        assert_eq!(merged.aggregates.len(), 2);
        assert_eq!(merged.aggregates[0].scenario, "n=4");
        assert_eq!(merged.aggregates[1].scenario, "n=8");
        assert!(merged.aggregates.iter().all(|a| a.aggregate.runs == 2));
    }

    #[test]
    fn csv_renderers_match_cell_counts() {
        let report = tiny_grid(1);
        assert_eq!(sweep_csv(&report).len(), 1 + report.aggregates.len());
        assert_eq!(cells_csv(&report).len(), 1 + report.cells.len());
    }

    fn tiny_grid_def(threads: usize) -> ExperimentGrid {
        ExperimentGrid::new("unit")
            .scenario("small", 1.0, Scenario::small_test())
            .baselines(&["first-fit", "cloud-only"])
            .seeds(&[3, 7])
            .threads(threads)
    }

    #[test]
    fn run_cells_matches_full_run_for_any_subset() {
        let grid = tiny_grid_def(2);
        let full = grid.run();
        // An out-of-order, non-contiguous subset.
        let picked = grid.run_cells(&[3, 0, 2]);
        assert_eq!(
            picked.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![3, 0, 2],
            "pairs come back in request order"
        );
        for (index, cell) in &picked {
            assert_eq!(cell, &full.cells[*index], "cell {index} diverged");
        }
        assert!(grid.run_cells(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn run_cells_rejects_out_of_range_indices() {
        let _ = tiny_grid_def(1).run_cells(&[99]);
    }

    #[test]
    fn auto_fingerprint_is_stable_and_structure_sensitive() {
        let fp = tiny_grid_def(1).auto_fingerprint();
        assert_eq!(
            fp,
            tiny_grid_def(4).auto_fingerprint(),
            "thread count is measurement config, not structure"
        );
        assert!(
            fp.starts_with("unit-"),
            "fingerprint is name-prefixed: {fp}"
        );
        let other_seeds = ExperimentGrid::new("unit")
            .scenario("small", 1.0, Scenario::small_test())
            .policy("first-fit", || Box::new(FirstFitPolicy))
            .policy("cloud-only", || Box::new(CloudOnlyPolicy))
            .seeds(&[3, 8])
            .auto_fingerprint();
        assert_ne!(fp, other_seeds, "seed axis is structural");
        let other_label = ExperimentGrid::new("unit")
            .scenario("small", 1.0, Scenario::small_test())
            .policy("first-fit", || Box::new(FirstFitPolicy))
            .policy("greedy-latency", || Box::new(GreedyLatencyPolicy))
            .seeds(&[3, 7])
            .auto_fingerprint();
        assert_ne!(fp, other_label, "policy labels are structural");
    }

    #[test]
    #[should_panic(expected = "unknown baseline `frist-fit`")]
    fn unknown_baseline_column_rejected() {
        let _ = ExperimentGrid::new("unit").baselines(&["frist-fit"]);
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn empty_policy_axis_rejected() {
        let _ = ExperimentGrid::new("unit")
            .scenario("small", 1.0, Scenario::small_test())
            .run();
    }
}
