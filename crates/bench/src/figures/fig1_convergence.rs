//! Figure 1 — training convergence: smoothed episode return vs training
//! episode for the DQN variants (DQN, Double DQN, Dueling DQN, PER DQN).
//! Variants train concurrently on the engine's pool (each training run
//! stays sequential and deterministic); the trained policies then get a
//! multi-seed head-to-head evaluation grid.
//!
//! Expected shape: all variants rise from the random-policy return and
//! plateau; Double/Dueling converge at least as fast and more stably than
//! vanilla DQN.

use super::Outcome;
use crate::{
    bench_scenario, default_passes, drl_variants, emit_csv, emit_report, eval_seeds, factory_of,
};
use drl_vnf_edge::prelude::*;

/// Writes `fig1_convergence.csv` and `BENCH_fig1_convergence.json`.
pub fn run() -> Outcome {
    let scenario = bench_scenario(8.0);
    let reward = RewardConfig::default();

    let variants = drl_variants();
    eprintln!(
        "[fig1] training {} variants on {} threads…",
        variants.len(),
        thread_count()
    );
    let trained = parallel_map(&variants, |_, config| {
        let label = config.label.clone();
        let trained = train_drl(&scenario, reward, config.clone(), default_passes());
        eprintln!("[fig1] {label}: {} episodes", trained.episode_returns.len());
        (label, trained)
    });

    let mut lines = vec!["policy,episode,return,smoothed_return".to_string()];
    for (label, t) in &trained {
        let smoothed = moving_average(&t.episode_returns, 200);
        for (i, (&r, &s)) in t.episode_returns.iter().zip(smoothed.iter()).enumerate() {
            // Thin the curve: every 10th episode keeps files plottable.
            if i % 10 == 0 {
                lines.push(format!("{label},{i},{r:.4},{s:.4}"));
            }
        }
        eprintln!(
            "[fig1] {label}: smoothed {:.3} -> {:.3}",
            smoothed.first().copied().unwrap_or(0.0),
            smoothed.last().copied().unwrap_or(0.0)
        );
    }
    emit_csv("fig1_convergence.csv", &lines);

    // Multi-seed evaluation of the trained variants on identical traces.
    let mut grid = ExperimentGrid::new("fig1_convergence")
        .scenario("lambda=8", 8.0, scenario)
        .reward(reward)
        .seeds(&eval_seeds());
    for (label, t) in trained {
        grid = grid.policy_boxed(label, factory_of(t.policy));
    }
    emit_report(&grid.run());
    Ok(())
}
