//! Table 3 — head-to-head summary of every policy on the reference
//! scenario (λ = 8, scarce edge capacity): the paper's main comparison,
//! now mean ± 95% CI across the evaluation seeds.

use super::Outcome;
use crate::{
    aggregate_rows, bench_scenario, emit_markdown, emit_report, eval_seeds, factory_of,
    train_headline,
};
use drl_vnf_edge::prelude::*;

/// Writes `table3_summary.md` and `BENCH_table3_summary.json`.
pub fn run() -> Outcome {
    let scenario = bench_scenario(8.0);
    eprintln!("[table3] training DRL…");
    let trained = train_headline(&scenario);

    let report = ExperimentGrid::new("table3_summary")
        .scenario("lambda=8", 8.0, scenario)
        .seeds(&eval_seeds())
        .policy_boxed("drl", factory_of(trained.policy))
        .baselines(roster("standard").ok_or("no standard roster")?)
        .run();

    let mut rows = aggregate_rows(&report);
    rows.sort_by(|a, b| {
        a.1.combined_objective(1.0, 1.0)
            .total_cmp(&b.1.combined_objective(1.0, 1.0))
    });

    let mut md = String::from(
        "# Table 3 — head-to-head on the reference scenario (λ=8, 8 sites + cloud)\n\n\
         Rows sorted by the combined objective (α·latency + β·cost + rejection penalty),\n\
         mean ± 95% CI across the evaluation seeds.\n\n",
    );
    md.push_str(&markdown_aggregate_comparison(&rows));
    md.push_str("\n| policy | combined objective |\n|---|---|\n");
    for (policy, agg) in &rows {
        md.push_str(&format!(
            "| {} | {:.2} |\n",
            policy,
            agg.combined_objective(1.0, 1.0)
        ));
    }
    emit_markdown("table3_summary.md", &md);
    emit_report(&report);
    Ok(())
}
