//! Merges a sharded sweep's fragments back into one canonical
//! `BENCH_<name>.json` — byte-identical to what a single-process
//! `ExperimentGrid::run` of the same grid would have produced.
//!
//! ```text
//! bench sweep_merge --grid fig2_load --of 4
//! ```
//!
//! Rebuilds the registry grid (for its cell count and structural
//! fingerprint), loads the `N` fragments from `results/shards/`, and
//! refuses to merge on any mismatch — schema version, grid name,
//! fingerprint, shard count, or incomplete/duplicated cell coverage. A
//! refused merge exits non-zero with the reason; it never writes a
//! partial report.

use super::Outcome;
use crate::sweep_grids::{sweep_grid_or_exit, sweep_usage};
use drl_vnf_edge::prelude::*;
use sweep::prelude::*;

fn usage() -> ! {
    sweep_usage("sweep_merge --grid <name> --of <n>")
}

/// Merges the `--of` fragments of `--grid` into its canonical report.
pub fn run(args: &[String]) -> Outcome {
    let mut grid_name = None;
    let mut of = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--grid" => grid_name = Some(value),
            "--of" => of = value.parse::<usize>().ok(),
            _ => usage(),
        }
    }
    let (Some(grid_name), Some(of)) = (grid_name, of) else {
        usage();
    };
    if of == 0 {
        usage();
    }
    let grid = sweep_grid_or_exit("sweep_merge", &grid_name);
    let report = merge_or_exit("sweep_merge", &grid, of);
    let path = report.write_canonical_to(&crate::results_dir())?;
    eprintln!(
        "[sweep_merge] wrote {} ({} cells from {of} shards)",
        path.display(),
        report.cells.len(),
    );
    Ok(())
}

/// Loads the `of` fragments of `grid` from `results/shards/` and merges
/// them. A fragment or merge the protocol refuses prints the reason as
/// `[<tool>] … refused: …` and exits 1.
pub fn merge_or_exit(tool: &str, grid: &ExperimentGrid, of: usize) -> BenchReport {
    let dir = shards_dir(&crate::results_dir());
    let refuse = |what: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("[{tool}] {what} refused: {e}");
        std::process::exit(1);
    };
    let fragments: Vec<ShardFragment> = (0..of)
        .map(|k| ShardFragment::load(&dir.join(fragment_file_name(grid.grid_name(), k, of))))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| refuse("fragment", &e));
    merge_fragments(
        grid.grid_name(),
        grid.grid_fingerprint(),
        grid.cell_count(),
        &fragments,
    )
    .unwrap_or_else(|e| refuse("merge", &e))
}
