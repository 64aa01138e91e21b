//! Figure 3 — mean per-slot operational cost vs arrival rate λ,
//! mean ± 95% CI across the evaluation seeds.
//!
//! Expected shape: cost grows roughly linearly with load for all
//! policies; greedy-latency pays a growing premium (it spawns instances
//! wherever latency is lowest); cloud-only pays the cloud-traffic premium;
//! DRL and weighted-greedy sit lowest.

use super::Outcome;
use crate::{best_per_coordinate, emit_sweep_csv, load_sweep_grid};

/// Writes `fig3_cost_vs_load.csv` from the shared λ sweep.
pub fn run() -> Outcome {
    let report = load_sweep_grid();
    emit_sweep_csv("fig3_cost_vs_load.csv", &report);
    for (rate, best) in best_per_coordinate(&report, "mean_slot_cost_usd") {
        eprintln!(
            "[fig3] λ={rate:>4.1}: best cost {} (${:.4} ± {:.4}/slot)",
            best.policy,
            best.aggregate.mean("mean_slot_cost_usd"),
            best.aggregate
                .get("mean_slot_cost_usd")
                .ok_or("no cost metric")?
                .ci95,
        );
    }
    Ok(())
}
