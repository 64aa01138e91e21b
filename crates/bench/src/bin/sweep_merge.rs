//! Merges a sharded sweep's fragments back into one canonical
//! `BENCH_<name>.json` — byte-identical to what a single-process
//! `ExperimentGrid::run` of the same grid would have produced.
//!
//! ```text
//! sweep_merge --grid fig2_load --of 4
//! ```
//!
//! Rebuilds the registry grid (for its cell count and structural
//! fingerprint), loads the `N` fragments from `results/shards/`, and
//! refuses to merge on any mismatch — schema version, grid name,
//! fingerprint, shard count, or incomplete/duplicated cell coverage. A
//! refused merge exits non-zero with the reason; it never writes a
//! partial report.

use bench::sweep_grids::{build_sweep_grid, sweep_grid_names};
use sweep::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: sweep_merge --grid <name> --of <n>\n       grids: {}",
        sweep_grid_names().join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut grid_name = None;
    let mut of = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
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
    let Some(grid) = build_sweep_grid(&grid_name) else {
        eprintln!(
            "[sweep_merge] unknown grid {grid_name:?}; known: {}",
            sweep_grid_names().join(", ")
        );
        std::process::exit(2);
    };

    let results = bench::results_dir();
    let dir = shards_dir(&results);
    let mut fragments = Vec::with_capacity(of);
    for shard_id in 0..of {
        let path = dir.join(fragment_file_name(&grid_name, shard_id, of));
        match ShardFragment::load(&path) {
            Ok(frag) => fragments.push(frag),
            Err(e) => {
                eprintln!("[sweep_merge] fragment refused: {e}");
                std::process::exit(1);
            }
        }
    }

    match merge_fragments(
        grid.grid_name(),
        grid.grid_fingerprint(),
        grid.cell_count(),
        &fragments,
    ) {
        Ok(report) => {
            let path = report
                .write_canonical_to(&results)
                .expect("write merged report");
            eprintln!(
                "[sweep_merge] wrote {} ({} cells from {} shards)",
                path.display(),
                report.cells.len(),
                of
            );
        }
        Err(e) => {
            eprintln!("[sweep_merge] refused: {e}");
            std::process::exit(1);
        }
    }
}
