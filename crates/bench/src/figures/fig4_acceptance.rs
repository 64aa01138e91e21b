//! Figure 4 — request acceptance ratio vs arrival rate λ,
//! mean ± 95% CI across the evaluation seeds.
//!
//! Expected shape: near 1.0 for everyone below the capacity knee, then
//! degrading at overload; DRL and the packing-aware heuristics degrade
//! last; policies ignoring capacity (cloud-only excepted — the cloud is
//! effectively infinite) drop first.

use super::Outcome;
use crate::{emit_sweep_csv, load_sweep_grid};

/// Writes `fig4_acceptance.csv` from the shared λ sweep.
pub fn run() -> Outcome {
    let report = load_sweep_grid();
    emit_sweep_csv("fig4_acceptance.csv", &report);
    for a in &report.aggregates {
        let acc = a
            .aggregate
            .get("acceptance_ratio")
            .ok_or("no acceptance metric")?;
        if acc.mean < 0.999 {
            eprintln!(
                "[fig4] λ={:>4.1}: {} accepts {:.1} ± {:.1}%",
                a.x,
                a.policy,
                100.0 * acc.mean,
                100.0 * acc.ci95,
            );
        }
    }
    Ok(())
}
