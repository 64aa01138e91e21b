//! `bench summary` — prints the markdown digest of every `BENCH_*.json`
//! in `RESULTS_DIR` to stdout. CI appends it to `$GITHUB_STEP_SUMMARY` so
//! each run's headline numbers (grid throughput, the metro streaming
//! sweep, manifest searches) are visible without downloading the results
//! artifact.

use super::Outcome;
use crate::results_dir;
use crate::summary::results_markdown;

/// Prints the digest; takes no arguments.
pub fn run(_args: &[String]) -> Outcome {
    print!("{}", results_markdown(&results_dir()));
    Ok(())
}
