//! Figure 2 — mean end-to-end latency vs arrival rate λ, DRL vs baselines,
//! mean ± 95% CI across the evaluation seeds.
//!
//! Expected shape: greedy-latency lowest at low load; all heuristics'
//! latency grows with load as queues fill; DRL tracks the best heuristic
//! and degrades latest; random/first-fit/cloud-only are dominated.

use super::Outcome;
use crate::{best_per_coordinate, emit_sweep_csv, load_sweep_grid};

/// Writes `fig2_latency_vs_load.csv` from the shared λ sweep.
pub fn run() -> Outcome {
    let report = load_sweep_grid();
    emit_sweep_csv("fig2_latency_vs_load.csv", &report);
    // Human-readable digest: best mean latency per sweep coordinate.
    for (rate, best) in best_per_coordinate(&report, "mean_latency_ms") {
        eprintln!(
            "[fig2] λ={rate:>4.1}: best latency {} ({:.2} ± {:.2} ms)",
            best.policy,
            best.aggregate.mean("mean_latency_ms"),
            best.aggregate
                .get("mean_latency_ms")
                .ok_or("no latency metric")?
                .ci95,
        );
    }
    Ok(())
}
