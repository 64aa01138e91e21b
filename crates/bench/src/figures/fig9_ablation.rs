//! Figure 9 / Ablation — what each DQN ingredient buys: experience replay,
//! the target network, double-Q, dueling heads, prioritized replay. The
//! six variants train concurrently on the engine's pool and share one
//! multi-seed evaluation grid.
//!
//! Expected shape: removing replay or the target network slows and
//! destabilizes convergence (lower, noisier final return); double/dueling
//! match or slightly improve the base agent.

use super::Outcome;
use crate::{
    aggregate_rows, bench_scenario, default_passes, dqn_config, emit_csv, emit_markdown,
    emit_report, eval_seeds, factory_of,
};
use drl_vnf_edge::prelude::*;

fn ablations() -> Vec<DrlManagerConfig> {
    let base = dqn_config();
    vec![
        DrlManagerConfig {
            dqn: base.clone(),
            label: "full".into(),
        },
        DrlManagerConfig {
            dqn: DqnConfig {
                replay_capacity: 1,
                batch_size: 1,
                learn_start: 1,
                ..base.clone()
            },
            label: "no-replay".into(),
        },
        DrlManagerConfig {
            dqn: DqnConfig {
                target_sync_every: 0,
                soft_tau: None,
                ..base.clone()
            },
            label: "no-target-net".into(),
        },
        DrlManagerConfig {
            dqn: DqnConfig {
                double: false,
                ..base.clone()
            },
            label: "no-double".into(),
        },
        DrlManagerConfig {
            dqn: DqnConfig {
                network: QNetworkConfig::Dueling {
                    trunk: vec![128],
                    head: 64,
                },
                ..base.clone()
            },
            label: "dueling".into(),
        },
        DrlManagerConfig {
            dqn: DqnConfig {
                prioritized: Some(PerConfig::default()),
                ..base
            },
            label: "prioritized".into(),
        },
    ]
}

/// Writes `fig9_ablation_curves.csv`, `fig9_ablation.md` and `BENCH_fig9_ablation.json`.
pub fn run() -> Outcome {
    let scenario = bench_scenario(8.0);
    let reward = RewardConfig::default();

    let configs = ablations();
    eprintln!(
        "[fig9] training {} ablations on {} threads…",
        configs.len(),
        thread_count()
    );
    let trained = parallel_map(&configs, |_, config| {
        let label = config.label.clone();
        let t = train_drl(&scenario, reward, config.clone(), default_passes().min(6));
        eprintln!("[fig9] {label}: trained");
        (label, t)
    });

    let mut curve_lines = vec!["variant,episode,smoothed_return".to_string()];
    let mut final_returns = Vec::new();
    for (label, t) in &trained {
        let smoothed = moving_average(&t.episode_returns, 200);
        for (i, &s) in smoothed.iter().enumerate() {
            if i % 20 == 0 {
                curve_lines.push(format!("{label},{i},{s:.4}"));
            }
        }
        let tail = &smoothed[smoothed.len().saturating_sub(200)..];
        let final_return = tail.iter().sum::<f32>() / tail.len().max(1) as f32;
        final_returns.push((label.clone(), final_return));
    }
    emit_csv("fig9_ablation_curves.csv", &curve_lines);

    let mut grid = ExperimentGrid::new("fig9_ablation")
        .scenario("lambda=8", 8.0, scenario)
        .reward(reward)
        .seeds(&eval_seeds());
    for (label, t) in trained {
        grid = grid.policy_boxed(label, factory_of(t.policy));
    }
    let report = grid.run();

    let mut md = String::from("# Figure 9 — DQN ablation\n\n");
    md.push_str("| variant | final smoothed return |\n|---|---|\n");
    for (label, ret) in &final_returns {
        md.push_str(&format!("| {label} | {ret:.3} |\n"));
    }
    md.push('\n');
    md.push_str(&markdown_aggregate_comparison(&aggregate_rows(&report)));
    emit_markdown("fig9_ablation.md", &md);
    emit_report(&report);
    Ok(())
}
