//! Figure 12 — resilience under dynamic node failures: acceptance, cost
//! and recovery metrics vs per-slot failure rate, DRL vs heuristics,
//! multi-seed bands. Every scenario runs a seeded stochastic
//! failure/repair process (`EventSchedule::Stochastic`); failed nodes
//! evict their instances and the disrupted flows re-enter placement
//! through the same policy path as fresh admissions.
//!
//! The DRL manager is trained once on a failure-bearing scenario, so its
//! replay buffer contains re-placement episodes and its observation's
//! network-health features (live-node fraction, capacity-loss fraction)
//! carry signal during training.
//!
//! Expected shape: acceptance and replacement success fall with the
//! failure rate for every policy; the adaptive policies (DRL,
//! weighted-greedy) degrade more gracefully than first-fit because they
//! spread load off the (about-to-be-scarce) consolidated nodes.

use super::Outcome;
use crate::{
    bench_scenario, default_passes, drl_default, emit_markdown, emit_report, emit_sweep_csv,
    eval_seeds, factory_of, fast_mode,
};
use drl_vnf_edge::prelude::*;
use std::fmt::Write as _;

/// Per-node per-slot failure probabilities swept on the x axis.
fn failure_rates() -> Vec<f64> {
    if fast_mode() {
        vec![0.0, 0.01]
    } else {
        vec![0.0, 0.002, 0.005, 0.01, 0.02]
    }
}

/// Mean downtime of a failed node, in slots.
const MEAN_DOWNTIME_SLOTS: f64 = 20.0;

fn resilience_scenario(failure_rate: f64) -> Scenario {
    bench_scenario(6.0).with_failures(failure_rate, MEAN_DOWNTIME_SLOTS)
}

/// Writes `fig12_resilience.csv`, `fig12_resilience.md` and `BENCH_resilience.json`.
pub fn run() -> Outcome {
    let reward = RewardConfig::default();
    let rates = failure_rates();

    // Train on a failing network (mid-sweep rate) so disruption episodes
    // land in the replay buffer.
    let train_rate = 0.01;
    eprintln!("[fig12] training DRL at failure rate {train_rate}…");
    let trained = train_drl(
        &resilience_scenario(train_rate),
        reward,
        drl_default(),
        default_passes(),
    );

    let mut grid = ExperimentGrid::new("resilience")
        .reward(reward)
        .seeds(&eval_seeds())
        .policy_boxed("drl", factory_of(trained.policy))
        .baselines(&["weighted-greedy", "first-fit", "greedy-latency"]);
    for &rate in &rates {
        grid = grid.scenario(format!("fail={rate}"), rate, resilience_scenario(rate));
    }
    let report = grid.run();

    // Band CSV (mean/std/ci95 for every summary metric, including the
    // disruption/recovery columns) + the machine-readable report.
    emit_sweep_csv("fig12_resilience.csv", &report);
    emit_report(&report);

    // Recovery digest: the columns the figure actually plots.
    let mut md = String::from("# Figure 12 — resilience vs failure rate\n\n");
    md.push_str(
        "| failure rate | policy | accept % | cost/slot ($) | disrupted | replace % | downtime (node-slots) |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for a in &report.aggregates {
        let g = |name: &str| a.aggregate.mean(name);
        let _ = writeln!(
            md,
            "| {} | {} | {:.1} | {:.4} | {:.1} | {:.1} | {:.1} |",
            a.x,
            a.policy,
            100.0 * g("acceptance_ratio"),
            g("mean_slot_cost_usd"),
            g("flows_disrupted"),
            100.0 * g("replacement_success_rate"),
            g("downtime_slots"),
        );
    }
    emit_markdown("fig12_resilience.md", &md);
    Ok(())
}
