//! Drives a sharded sweep end to end on one machine: spawns N
//! `sweep_worker` processes over a registry grid, merges their fragments,
//! checks the merged canonical JSON byte-for-byte against an in-process
//! reference run, and prints the sharded and single-process cells/s to
//! stderr (the tracked in-process sweep rate is `requests_per_s` on
//! `perf/`'s `grid_sweep` workload).
//!
//! ```text
//! sweep_drive --grid fig2_load --shards 4 --workers 4
//! sweep_drive --grid fig2_load --in-process   # reference run only
//! ```
//!
//! Scheduling: at most `--workers` children run concurrently; each child
//! gets `EXPER_THREADS = max(1, budget / workers)` (budget = the driver's
//! own `EXPER_THREADS` if set, else available parallelism) so the fleet
//! shares the machine's cores instead of oversubscribing them N-fold. A
//! worker that exits non-zero is retried exactly once; a second failure
//! aborts the drive. `FAST` and `RESULTS_DIR` are inherited by workers
//! from this process's environment.

use bench::sweep_grids::{build_sweep_grid, sweep_grid_names};
use std::path::Path;
use std::process::{Child, Command};
use std::time::{Duration, Instant};
use sweep::prelude::*;

struct Args {
    grid: String,
    shards: usize,
    workers: usize,
    in_process: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep_drive --grid <name> [--shards <n>] [--workers <n>] [--in-process]\n       grids: {}",
        sweep_grid_names().join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut grid = None;
    let mut shards = None;
    let mut workers = None;
    let mut in_process = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--in-process" => in_process = true,
            "--grid" => grid = Some(args.next().unwrap_or_else(|| usage())),
            // A missing or unparsable count is a usage error, not a silent
            // fall-back to the default fleet.
            "--shards" => shards = args.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            "--workers" => workers = args.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            _ => usage(),
        }
    }
    let Some(grid) = grid else { usage() };
    let shards = shards.unwrap_or(4);
    let workers = workers.unwrap_or(shards).min(shards.max(1));
    if shards == 0 || workers == 0 {
        usage();
    }
    Args {
        grid,
        shards,
        workers,
        in_process,
    }
}

/// One queued shard execution (spawn + single retry bookkeeping).
struct Slot {
    shard: usize,
    child: Child,
    retried: bool,
}

fn spawn_worker(exe: &Path, grid: &str, shard: usize, of: usize, threads: usize) -> Child {
    Command::new(exe)
        .args([
            "--grid",
            grid,
            "--shard",
            &shard.to_string(),
            "--of",
            &of.to_string(),
        ])
        .env(exper::pool::THREADS_ENV, threads.to_string())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("[sweep_drive] cannot spawn {}: {e}", exe.display());
            std::process::exit(1);
        })
}

/// Runs all shards as worker processes, retrying each failed shard once.
/// Returns the fleet's wall-clock seconds (spawn of the first worker to
/// exit of the last).
fn run_fleet(args: &Args, per_worker_threads: usize) -> f64 {
    let exe = std::env::current_exe()
        .expect("own path")
        .with_file_name("sweep_worker");
    let started = Instant::now();
    let mut pending: Vec<usize> = (0..args.shards).collect();
    let mut running: Vec<Slot> = Vec::new();
    loop {
        while running.len() < args.workers {
            let Some(shard) = pending.first().copied() else {
                break;
            };
            pending.remove(0);
            eprintln!("[sweep_drive] shard {shard}/{}: launched", args.shards);
            running.push(Slot {
                shard,
                child: spawn_worker(&exe, &args.grid, shard, args.shards, per_worker_threads),
                retried: false,
            });
        }
        if running.is_empty() {
            break;
        }
        let mut still_running = Vec::with_capacity(running.len());
        for mut slot in running {
            match slot.child.try_wait().expect("wait on worker") {
                None => still_running.push(slot),
                Some(status) if status.success() => {
                    eprintln!("[sweep_drive] shard {}/{}: done", slot.shard, args.shards);
                }
                Some(status) => {
                    if slot.retried {
                        eprintln!(
                            "[sweep_drive] shard {}/{} failed twice ({status}); aborting",
                            slot.shard, args.shards
                        );
                        std::process::exit(1);
                    }
                    eprintln!(
                        "[sweep_drive] shard {}/{} failed ({status}); retrying once",
                        slot.shard, args.shards
                    );
                    still_running.push(Slot {
                        shard: slot.shard,
                        child: spawn_worker(
                            &exe,
                            &args.grid,
                            slot.shard,
                            args.shards,
                            per_worker_threads,
                        ),
                        retried: true,
                    });
                }
            }
        }
        running = still_running;
        if !running.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    started.elapsed().as_secs_f64()
}

fn main() {
    let args = parse_args();
    let Some(grid) = build_sweep_grid(&args.grid) else {
        eprintln!(
            "[sweep_drive] unknown grid {:?}; known: {}",
            args.grid,
            sweep_grid_names().join(", ")
        );
        std::process::exit(2);
    };
    let results = bench::results_dir();

    if args.in_process {
        let started = Instant::now();
        let report = grid.run();
        let wall = started.elapsed().as_secs_f64();
        let path = report
            .write_canonical_to(&results)
            .expect("write reference report");
        eprintln!(
            "[sweep_drive] in-process reference: {} cells in {wall:.2}s -> {}",
            report.cells.len(),
            path.display()
        );
        return;
    }

    // Single-process reference first: it provides both the byte-identity
    // check and the denominator of the speedup measurement.
    eprintln!(
        "[sweep_drive] {}: single-process reference run ({} cells)…",
        args.grid,
        grid.cell_count()
    );
    let started = Instant::now();
    let reference = grid.run();
    let single_wall = started.elapsed().as_secs_f64();
    let reference_bytes = serde_json::to_string_pretty(&reference.canonical_json());

    // The driver's total core budget: its own `EXPER_THREADS` if set,
    // otherwise the machine's available parallelism.
    let budget = exper::pool::thread_count();
    let per_worker_threads = (budget / args.workers).max(1);
    eprintln!(
        "[sweep_drive] {}: {} shards on {} workers × {} threads (budget {})…",
        args.grid, args.shards, args.workers, per_worker_threads, budget
    );
    let fleet_wall = run_fleet(&args, per_worker_threads);

    let dir = shards_dir(&results);
    let mut fragments = Vec::with_capacity(args.shards);
    for shard_id in 0..args.shards {
        let path = dir.join(fragment_file_name(&args.grid, shard_id, args.shards));
        match ShardFragment::load(&path) {
            Ok(frag) => fragments.push(frag),
            Err(e) => {
                eprintln!("[sweep_drive] fragment refused: {e}");
                std::process::exit(1);
            }
        }
    }
    let merged = match merge_fragments(
        grid.grid_name(),
        grid.grid_fingerprint(),
        grid.cell_count(),
        &fragments,
    ) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("[sweep_drive] merge refused: {e}");
            std::process::exit(1);
        }
    };
    let merged_bytes = serde_json::to_string_pretty(&merged.canonical_json());
    if merged_bytes != reference_bytes {
        eprintln!(
            "[sweep_drive] DETERMINISM VIOLATION: merged canonical JSON differs \
             from the single-process reference for {}",
            args.grid
        );
        std::process::exit(1);
    }
    let path = merged
        .write_canonical_to(&results)
        .expect("write merged report");

    let cells = grid.cell_count();
    let cells_per_sec = cells as f64 / fleet_wall.max(1e-9);
    let single_cells_per_sec = cells as f64 / single_wall.max(1e-9);
    let speedup = cells_per_sec / single_cells_per_sec.max(1e-9);
    eprintln!(
        "[sweep_drive] {}: merged == reference (byte-identical) -> {}",
        args.grid,
        path.display()
    );
    eprintln!(
        "[sweep_drive] sharded {cells_per_sec:.2} cells/s vs single-process \
         {single_cells_per_sec:.2} cells/s (speedup {speedup:.2}x)"
    );
    if budget < args.workers {
        eprintln!(
            "[sweep_drive] note: {} workers on a {budget}-core budget — expect ~1x; \
             process sharding pays off when cores >= workers",
            args.workers
        );
    }
}
