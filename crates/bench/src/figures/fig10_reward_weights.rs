//! Figure 10 — reward-weight sensitivity: sweeping α (latency weight) vs
//! β (cost weight) traces the latency/cost trade-off frontier of the DRL
//! manager. The weight lattice lives in the checked-in
//! `manifests/fig10_reward_weights.json` (one reward point per paired
//! (α, β) value); this binary is just the manifest's exhaustive
//! evaluation plus the classic frontier CSV, now with a composite
//! `health` column. `search_drive fig10_reward_weights` runs the same
//! manifest under successive halving instead.
//!
//! Expected shape: latency-heavy weights produce low latency and higher
//! cost; cost-heavy the reverse; the points form a monotone frontier.

use super::Outcome;
use crate::manifests::{load_checked_manifest, pretrained_trainer};
use crate::{emit_csv, emit_report, fast_mode};
use drl_vnf_edge::prelude::*;

/// Writes `fig10_reward_weights.csv` and `BENCH_fig10_reward_weights.json`.
pub fn run() -> Outcome {
    let manifest = load_checked_manifest("fig10_reward_weights");
    let health = HealthScore::new(manifest.health.clone());
    let mut trainer = pretrained_trainer(&manifest);
    let expansion = manifest.expand(fast_mode());

    let weights: Vec<(f64, f64)> = expansion.points.iter().map(|p| (p.alpha, p.beta)).collect();
    let reports: Vec<BenchReport> = expansion
        .points
        .iter()
        .map(|point| point.grid_with(&mut trainer).run())
        .collect();
    let report = merge_reports("fig10_reward_weights", reports);

    // One aggregate per reward point (each point grid is 1 scenario ×
    // 1 trained column); health is normalized across the frontier.
    assert_eq!(report.aggregates.len(), weights.len());
    let healths = health.score_aggregates(&report.aggregates);

    let mut lines = vec![
        "alpha,beta,seeds,mean_latency_ms,mean_latency_ms_ci95,mean_slot_cost_usd,\
         mean_slot_cost_usd_ci95,acceptance_ratio,acceptance_ratio_ci95,\
         sla_violation_ratio,sla_violation_ratio_ci95,health"
            .to_string(),
    ];
    for (((alpha, beta), a), h) in weights.iter().zip(&report.aggregates).zip(&healths) {
        let g = |name: &str| a.aggregate.get(name).ok_or(format!("no metric `{name}`"));
        let (latency, cost) = (g("mean_latency_ms")?, g("mean_slot_cost_usd")?);
        let (acceptance, sla) = (g("acceptance_ratio")?, g("sla_violation_ratio")?);
        eprintln!(
            "[fig10]   α={alpha}, β={beta} → {:.2} ± {:.2} ms, ${:.4}/slot, health {h:.4}",
            latency.mean, latency.ci95, cost.mean,
        );
        lines.push(format!(
            "{alpha},{beta},{},{:.4},{:.4},{:.6},{:.6},{:.4},{:.4},{:.4},{:.4},{:.4}",
            a.aggregate.runs,
            latency.mean,
            latency.ci95,
            cost.mean,
            cost.ci95,
            acceptance.mean,
            acceptance.ci95,
            sla.mean,
            sla.ci95,
            h,
        ));
    }
    emit_csv("fig10_reward_weights.csv", &lines);
    emit_report(&report);
    Ok(())
}
