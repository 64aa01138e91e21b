//! Quick calibration harness: trains the headline DRL manager on the
//! default scenario and prints a head-to-head table against the baselines.
//! Useful when tuning hyperparameters; not part of the figure suite.

use bench::{default_passes, drl_default, scaled};
use drl_vnf_edge::prelude::*;

fn main() {
    let mut scenario = Scenario::default_metro();
    scenario.horizon_slots = scaled(360, 60) as u64;
    if let Ok(rate) = std::env::var("RATE") {
        scenario = scenario.with_arrival_rate(rate.parse().expect("RATE must be a number"));
    }
    if let Ok(cap) = std::env::var("EDGE_CPU") {
        let cpu: f64 = cap.parse().expect("EDGE_CPU must be a number");
        scenario = scenario.with_edge_capacity(edgenet::node::Resources::new(cpu, cpu * 4.0));
    }
    let reward = RewardConfig::default();

    let passes: usize = std::env::var("PASSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(default_passes);
    eprintln!("[calibrate] training DRL ({passes} passes)…");
    let start = std::time::Instant::now();
    let mut trained = train_drl(&scenario, reward, drl_default(), passes);
    eprintln!(
        "[calibrate] trained in {:.1}s, {} episodes, {} learn steps",
        start.elapsed().as_secs_f64(),
        trained.episode_returns.len(),
        trained.policy.agent().learn_steps()
    );
    let smoothed = moving_average(&trained.episode_returns, 100);
    if let (Some(first), Some(last)) = (smoothed.first(), smoothed.last()) {
        eprintln!("[calibrate] smoothed return: {first:.3} -> {last:.3}");
    }

    let mut results = Vec::new();
    results.push(evaluate_policy(
        &scenario,
        reward,
        &mut trained.policy,
        1000,
    ));
    for name in roster("comparison").expect("a registry roster") {
        let mut p = baseline(name).expect("a registry baseline");
        results.push(evaluate_policy(&scenario, reward, p.as_mut(), 1000));
    }
    results.sort_by(|a, b| {
        a.summary
            .combined_objective(1.0, 1.0)
            .partial_cmp(&b.summary.combined_objective(1.0, 1.0))
            .unwrap()
    });
    println!("{}", markdown_comparison(&results));
}
