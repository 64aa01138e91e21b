//! One shard of a sharded sweep: rebuilds the named registry grid,
//! recomputes the (pure, deterministic) shard plan locally, executes
//! exactly its shard's cells, and writes one fragment under
//! `results/shards/`.
//!
//! ```text
//! bench sweep_worker --grid fig2_load --shard 1 --of 4
//! ```
//!
//! Workers never talk to each other: the plan is a pure function of
//! `(grid, shard count)`, so every process derives the same partition
//! independently. `FAST` and `RESULTS_DIR` are read from the environment
//! (the driver propagates its own), and `EXPER_THREADS` caps this
//! worker's in-process pool — the driver sets it to its per-worker core
//! budget.

use super::Outcome;
use crate::sweep_grids::{sweep_grid_or_exit, sweep_usage};
use sweep::prelude::*;

fn usage() -> ! {
    sweep_usage("sweep_worker --grid <name> --shard <k> --of <n>")
}

/// Runs shard `--shard` of `--of` of `--grid` and writes its fragment.
pub fn run(args: &[String]) -> Outcome {
    let (mut grid_name, mut shard, mut of) = (None, None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--grid" => grid_name = Some(value),
            "--shard" => shard = value.parse::<usize>().ok(),
            "--of" => of = value.parse::<usize>().ok(),
            _ => usage(),
        }
    }
    let (Some(grid_name), Some(shard), Some(of)) = (grid_name, shard, of) else {
        usage()
    };
    if shard >= of {
        usage();
    }
    let grid = sweep_grid_or_exit("sweep_worker", &grid_name);
    let plans = plan(
        grid.grid_name(),
        grid.grid_fingerprint(),
        grid.cell_count(),
        of,
    );
    let my_plan = &plans[shard];
    let indices = my_plan.cell_indices();
    eprintln!(
        "[sweep_worker] {} shard {}/{}: {} of {} cells",
        grid.grid_name(),
        shard,
        of,
        indices.len(),
        grid.cell_count()
    );
    let cells = grid.run_cells(&indices);
    let frag = fragment(grid.grid_name(), grid.grid_fingerprint(), shard, of, cells);
    let path = frag.write_to(&crate::results_dir())?;
    eprintln!("[sweep_worker] wrote {}", path.display());
    Ok(())
}
