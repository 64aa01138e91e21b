//! bench_summary — prints the markdown digest of every `BENCH_*.json` in
//! `RESULTS_DIR` to stdout. CI appends it to `$GITHUB_STEP_SUMMARY` so
//! each run's headline numbers (grid throughput, the metro streaming
//! sweep, manifest searches, pending shard fragments) are visible without
//! downloading the results artifact.

use bench::results_dir;
use bench::summary::results_markdown;

fn main() {
    print!("{}", results_markdown(&results_dir()));
}
