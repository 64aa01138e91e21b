//! Flash-crowd autoscaling: watch the VNF manager absorb a 4× traffic
//! spike — instances scale out during the spike and are retired after the
//! idle grace period once it passes.
//!
//! ```sh
//! cargo run --release --example flash_crowd_autoscale
//! ```

use drl_vnf_edge::prelude::*;

fn main() {
    let mut scenario = Scenario::default_metro();
    scenario.topology = TopologySpec::Metro { sites: 6 };
    scenario.horizon_slots = 240;
    scenario.workload.pattern = LoadPattern::FlashCrowd {
        base: 3.0,
        spike_rate: 12.0,
        spike_start: 80,
        spike_duration: 60,
    };

    let reward = RewardConfig::default();
    // The weighted-greedy heuristic reacts instantly to the spike — a good
    // lens on the engine's scale-out/scale-in behaviour without training.
    let mut policy = WeightedGreedyPolicy::default();
    let mut sim = Simulation::new(&scenario, reward);
    let _summary = sim.drive(RunInput::Generated, &mut policy, RunOptions::new());

    println!("slot | load phase   | active flows | instances | util % | cost/slot");
    println!("-----|--------------|--------------|-----------|--------|----------");
    for r in sim.metrics().slots().iter().step_by(10) {
        let phase = if (80..140).contains(&r.slot) {
            "FLASH CROWD"
        } else {
            "baseline"
        };
        println!(
            "{:>4} | {:<12} | {:>12} | {:>9} | {:>5.1} | ${:.4}",
            r.slot,
            phase,
            r.active_flows,
            r.live_instances,
            100.0 * r.mean_utilization,
            r.total_cost()
        );
    }

    let spike: Vec<&SlotRecord> = sim
        .metrics()
        .slots()
        .iter()
        .filter(|r| (80..140).contains(&r.slot))
        .collect();
    let calm: Vec<&SlotRecord> = sim
        .metrics()
        .slots()
        .iter()
        .filter(|r| r.slot < 80)
        .collect();
    let mean_inst = |rs: &[&SlotRecord]| {
        rs.iter().map(|r| r.live_instances as f64).sum::<f64>() / rs.len().max(1) as f64
    };
    println!(
        "\nmean instances: {:.1} before spike -> {:.1} during spike (scale-out x{:.1})",
        mean_inst(&calm),
        mean_inst(&spike),
        mean_inst(&spike) / mean_inst(&calm).max(1e-9)
    );
}
