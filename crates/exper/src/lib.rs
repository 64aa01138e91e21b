//! # exper — the parallel multi-seed experiment engine
//!
//! The paper's evaluation is a grid of (scenario × policy × seed) cells.
//! Each simulation run stays sequential and deterministic — a pure
//! function of (scenario, seed) — so the engine scales the evaluation the
//! only way that preserves reproducibility: Monte Carlo fan-out of whole
//! runs across worker threads.
//!
//! * [`pool`] — the std-only fork-join pool (`EXPER_THREADS` override,
//!   shared-counter work stealing, index-ordered results, worker-local
//!   state via [`pool::run_indexed_with`]).
//! * [`grid`] — declarative [`grid::ExperimentGrid`]s with deterministic
//!   multi-seed aggregation and [`mano::report::BenchReport`] output.
//! * [`eval`] — [`eval::parallel_eval`], the greedy-evaluation fan-out
//!   that clones one frozen policy per worker thread (one warm inference
//!   workspace each) instead of per cell. Its cells become a report
//!   through [`mano::report::BenchReport::from_cells`], the one place any
//!   report is assembled.
//! * [`manifest`] — declarative [`manifest::ScenarioManifest`]s (JSON or
//!   code) that expand deterministically into grids: the single
//!   definition path shared by figure binaries, the sweep registry and
//!   the search driver.
//! * [`search`] — composite [`search::HealthScore`]s over
//!   `SUMMARY_METRICS` and the successive-halving
//!   [`search::SearchDriver`] that hunts a manifest's frontier on a
//!   fraction of the exhaustive (cell × seed) budget and returns its
//!   persistent [`mano::report::SearchReport`] directly.
//!
//! # Determinism guarantee
//!
//! `report.cells` and `report.aggregates` of a grid run are bit-identical
//! for every thread count (cells carry their grid index; reduction sorts
//! by index, and the engine reads no clock: per-cell decision timing is
//! measured only when explicitly kept). Only `wall_clock_secs` /
//! `throughput_slots_per_sec` / `threads` — measurement metadata — and a
//! kept `mean_decision_time_us` vary between runs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod grid;
pub mod manifest;
pub mod pool;
pub mod search;
mod timer;

/// Convenient glob-import of the engine's surface.
pub mod prelude {
    pub use crate::eval::{cells_for_seeds, parallel_eval, parallel_eval_semantics, EvalCell};
    pub use crate::grid::{
        cells_csv, merge_reports, sweep_csv, ExperimentGrid, GridScenario, PolicyFactory,
    };
    pub use crate::manifest::{
        baseline_factory, synthetic_chains, Axis, EventSpec, ExpandedPoint, Expansion, FastScaled,
        ManifestBase, PolicySpec, ResolvedPolicy, RewardAxes, ScenarioManifest, SearchParams,
        SweepSpec, TopologyFamily, TrainRequest, MANIFEST_SCHEMA_VERSION,
    };
    pub use crate::pool::{parallel_map, run_indexed, run_indexed_with, thread_count, THREADS_ENV};
    pub use crate::search::{HealthScore, SearchDriver};
}
