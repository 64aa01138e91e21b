//! Figure 6 — effect of SFC length (1–6 VNFs) on latency and cost.
//!
//! Builds a synthetic chain catalog where chain *k* has *k* VNFs drawn
//! from the standard light-to-medium types, trains one DRL manager on the
//! uniform mix, then evaluates every policy on single-length workloads —
//! one grid row per length, multi-seed bands per cell.
//!
//! Expected shape: latency and cost grow roughly linearly with chain
//! length for all policies; the gap between placement-aware policies and
//! random/first-fit widens with length (more decisions to get wrong).

use super::Outcome;
use crate::sweep_grids::synthetic_chains;
use crate::{
    default_passes, drl_default, emit_csv, emit_report, eval_seeds, factory_of, fast_mode, scaled,
};
use drl_vnf_edge::prelude::*;

/// Writes `fig6_chain_length.csv` and `BENCH_fig6_chain_length.json`.
pub fn run() -> Outcome {
    let max_len = if fast_mode() { 3 } else { 6 };
    let vnfs = VnfCatalog::standard();
    let chains = synthetic_chains(&vnfs, max_len);
    let reward = RewardConfig::default();
    let comparison = roster("comparison").ok_or("no comparison roster")?;

    let mut scenario = Scenario::default_metro().with_arrival_rate(5.0);
    scenario.topology_builder.edge_capacity = edgenet::node::Resources::new(32.0, 128.0);
    scenario.horizon_slots = scaled(240, 30) as u64;
    scenario.workload.chain_mix = vec![1.0; max_len];

    eprintln!("[fig6] training DRL on the uniform length mix…");
    let trained = train_drl_with_catalogs(
        &scenario,
        reward,
        drl_default(),
        default_passes().min(6),
        &vnfs,
        &chains,
    );

    // One grid row per chain length: workload concentrated on that length.
    let mut grid = ExperimentGrid::new("fig6_chain_length")
        .reward(reward)
        .seeds(&eval_seeds())
        .with_catalogs(vnfs, chains)
        .policy_boxed("drl", factory_of(trained.policy))
        .baselines(comparison);
    for len in 1..=max_len {
        let mut s = scenario.clone();
        s.workload.chain_mix = (0..max_len)
            .map(|i| if i + 1 == len { 1.0 } else { 0.0 })
            .collect();
        grid = grid.scenario(format!("len={len}"), len as f64, s);
    }
    let report = grid.run();
    emit_csv("fig6_chain_length.csv", &sweep_csv(&report));
    emit_report(&report);
    Ok(())
}
