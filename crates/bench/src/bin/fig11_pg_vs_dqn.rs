//! Figure 11 (extension) — value-based vs policy-gradient management:
//! the Double-DQN manager against a REINFORCE manager trained on the same
//! scenario (concurrently, on the engine's pool), plus their convergence
//! curves and a multi-seed head-to-head grid.
//!
//! Expected shape: DQN converges faster and more stably (off-policy replay
//! reuses every transition); REINFORCE reaches a comparable final policy
//! but with noisier curves — the classic trade-off.

use bench::{
    bench_scenario, default_passes, drl_default, emit_csv, emit_markdown, emit_report, eval_seeds,
    factory_of,
};
use drl_vnf_edge::prelude::*;

fn main() {
    let scenario = bench_scenario(8.0);
    let reward = RewardConfig::default();
    let passes = default_passes();

    eprintln!(
        "[fig11] training DQN and REINFORCE on {} threads…",
        thread_count()
    );
    let algorithms = ["dqn", "reinforce"];
    let trained: Vec<(String, Vec<f32>, PolicyFactory)> =
        parallel_map(&algorithms, |_, &algo| match algo {
            "dqn" => {
                let t = train_drl(&scenario, reward, drl_default(), passes);
                ("dqn".to_string(), t.episode_returns, factory_of(t.policy))
            }
            _ => {
                let t = train_pg(&scenario, reward, PgManagerConfig::default(), passes);
                (
                    "reinforce".to_string(),
                    t.episode_returns,
                    factory_of(t.policy),
                )
            }
        });

    // Convergence curves.
    let mut lines = vec!["algorithm,episode,smoothed_return".to_string()];
    for (label, returns, _) in &trained {
        let smoothed = moving_average(returns, 200);
        for (i, &s) in smoothed.iter().enumerate() {
            if i % 10 == 0 {
                lines.push(format!("{label},{i},{s:.4}"));
            }
        }
    }
    emit_csv("fig11_pg_vs_dqn_curves.csv", &lines);

    // Head-to-head evaluation on identical traces across seeds.
    let mut grid = ExperimentGrid::new("fig11_pg_vs_dqn")
        .scenario("lambda=8", 8.0, scenario)
        .reward(reward)
        .seeds(&eval_seeds());
    for (label, _, factory) in trained {
        grid = grid.policy_boxed(label, factory);
    }
    let report = grid.run();

    let rows: Vec<(String, SummaryAggregate)> = report
        .aggregates
        .iter()
        .map(|a| (a.policy.clone(), a.aggregate.clone()))
        .collect();
    let mut md = String::from("# Figure 11 — DQN vs REINFORCE managers\n\n");
    md.push_str(&markdown_aggregate_comparison(&rows));
    emit_markdown("fig11_pg_vs_dqn.md", &md);
    emit_report(&report);
}
