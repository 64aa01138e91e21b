//! Figure 8 — optimality gap on tiny instances: DRL and heuristics vs the
//! exhaustive lookahead comparator (3 edge sites + cloud, short chains),
//! multi-seed: the gap is now a mean over the evaluation seeds instead of
//! a single-trace sample.
//!
//! Expected shape: exhaustive sets the reference combined objective; DRL
//! lands within ~5–15%; weighted-greedy close behind; first-fit and
//! random show large gaps.

use super::Outcome;
use crate::{
    aggregate_rows, default_passes, drl_default, emit_markdown, emit_report, eval_seeds,
    factory_of, scaled,
};
use drl_vnf_edge::prelude::*;

fn tiny_scenario() -> Scenario {
    let mut s = Scenario::default_metro().with_arrival_rate(3.0);
    s.topology = TopologySpec::Metro { sites: 3 };
    s.topology_builder.edge_capacity = edgenet::node::Resources::new(16.0, 64.0);
    s.horizon_slots = scaled(240, 30) as u64;
    // Short chains only: voip (2 VNFs) and web (3 VNFs) keep the
    // exhaustive enumeration tractable (4^3 = 64 sequences max).
    s.workload.chain_mix = vec![1.0, 1.0, 0.0, 0.0];
    s
}

/// Writes `fig8_optgap.md` and `BENCH_fig8_optgap.json`.
pub fn run() -> Outcome {
    let scenario = tiny_scenario();
    let reward = RewardConfig::default();

    eprintln!("[fig8] training DRL on the tiny instance…");
    let trained = train_drl(&scenario, reward, drl_default(), default_passes());

    // The exhaustive policy needs simulator components.
    let probe = Simulation::new(&scenario, reward);
    let mean_duration_s = scenario.workload.mean_duration_slots * scenario.slot_seconds;
    let exhaustive = ExhaustivePolicy::new(
        probe.topology().clone(),
        probe.routes().clone(),
        probe.vnfs.clone(),
        scenario.prices,
        mean_duration_s,
    );
    drop(probe);

    let report = ExperimentGrid::new("fig8_optgap")
        .scenario("tiny", 3.0, scenario)
        .reward(reward)
        .seeds(&eval_seeds())
        .policy_boxed("exhaustive", factory_of(exhaustive))
        .policy_boxed("drl", factory_of(trained.policy))
        .baselines(&["weighted-greedy", "first-fit", "random"])
        .run();

    let reference = report.aggregates[0].aggregate.combined_objective(1.0, 1.0);
    let mut md = String::from("# Figure 8 — optimality gap vs exhaustive (tiny instance)\n\n");
    md.push_str(&markdown_aggregate_comparison(&aggregate_rows(&report)));
    md.push_str("\n| policy | combined objective | gap vs exhaustive |\n|---|---|---|\n");
    for a in &report.aggregates {
        let obj = a.aggregate.combined_objective(1.0, 1.0);
        md.push_str(&format!(
            "| {} | {:.2} | {:+.1}% |\n",
            a.policy,
            obj,
            100.0 * (obj - reference) / reference
        ));
    }
    emit_markdown("fig8_optgap.md", &md);
    emit_report(&report);
    Ok(())
}
