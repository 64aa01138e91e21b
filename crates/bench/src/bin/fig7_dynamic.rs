//! Figure 7 — time-varying load: per-slot cost and latency under a diurnal
//! cycle with a flash crowd, DRL vs static heuristics. Training (one DRL
//! manager per workload) and the per-policy slot traces fan out on the
//! engine's pool; a merged multi-seed summary grid feeds the JSON report.
//!
//! Expected shape: every policy's cost follows the load envelope; during
//! the flash crowd the adaptive policies (DRL, weighted-greedy) absorb the
//! spike by spilling to reuse/cloud while first-fit's latency spikes.

use bench::{default_passes, drl_default, emit_csv, emit_report, eval_seeds, factory_of, scaled};
use drl_vnf_edge::prelude::*;
use std::time::Instant;

fn dynamic_scenario() -> Scenario {
    let mut s = Scenario::default_metro();
    s.topology_builder.edge_capacity = edgenet::node::Resources::new(32.0, 128.0);
    s.horizon_slots = scaled(480, 60) as u64;
    s.workload.pattern = LoadPattern::Diurnal {
        base: 6.0,
        amplitude: 4.0,
        period: scaled(240, 30) as u64,
        phase: 0,
    };
    s
}

fn flash_scenario() -> Scenario {
    let mut s = dynamic_scenario();
    s.workload.pattern = LoadPattern::FlashCrowd {
        base: 4.0,
        spike_rate: 14.0,
        spike_start: scaled(160, 20) as u64,
        spike_duration: scaled(80, 10) as u64,
    };
    s
}

/// The slot-trace seed (a single fixed trace keeps the time series
/// readable; the summary grid below carries the multi-seed bands).
const TRACE_SEED: u64 = 2024;

/// The static heuristics the DRL manager is traced and graded against.
const BASELINES: &[&str] = &["weighted-greedy", "first-fit", "greedy-latency"];

fn main() {
    let reward = RewardConfig::default();
    let workloads = [("diurnal", dynamic_scenario()), ("flash", flash_scenario())];

    eprintln!(
        "[fig7] training per-workload DRL on {} threads…",
        thread_count()
    );
    let trained = parallel_map(&workloads, |_, (tag, scenario)| {
        let t = train_drl(scenario, reward, drl_default(), default_passes().min(6));
        eprintln!("[fig7] {tag}: trained");
        t
    });

    // Per-slot traces: one engine cell per (workload, policy).
    let mut jobs: Vec<(String, Scenario, PolicyFactory)> = Vec::new();
    for ((tag, scenario), t) in workloads.iter().zip(&trained) {
        jobs.push((
            tag.to_string(),
            scenario.clone(),
            factory_of(t.policy.clone()),
        ));
        for name in BASELINES {
            let factory = baseline_factory(name).expect("a registry baseline");
            jobs.push((tag.to_string(), scenario.clone(), factory));
        }
    }
    let mut lines = vec![format!("workload,{}", slot_csv_header())];
    let traces = parallel_map(&jobs, |_, (tag, scenario, factory)| {
        let mut policy = factory();
        policy.set_training(false);
        let mut sim = Simulation::new(scenario, reward);
        let _ = sim.drive(
            RunInput::Generated,
            policy.as_mut(),
            RunOptions::new().with_seed_offset(TRACE_SEED),
        );
        let label = policy.name();
        sim.metrics()
            .slots()
            .iter()
            .map(|r| format!("{tag},{}", slot_csv_row(&label, r)))
            .collect::<Vec<_>>()
    });
    lines.extend(traces.into_iter().flatten());
    emit_csv("fig7_dynamic.csv", &lines);

    // Multi-seed summary grid: one sub-grid per workload (each has its
    // own trained DRL), merged into the JSON report.
    let reports: Vec<BenchReport> = workloads
        .iter()
        .zip(trained)
        .map(|((tag, scenario), t)| {
            let grid = ExperimentGrid::new(format!("fig7_{tag}"))
                .scenario(*tag, 0.0, scenario.clone())
                .reward(reward)
                .seeds(&eval_seeds())
                .policy_boxed("drl", factory_of(t.policy.clone()))
                .baselines(BASELINES)
                .run();
            // The same trained manager re-run under SlotSnapshot
            // semantics: the dynamic workloads are where whole-slot
            // frozen-snapshot waves could plausibly change quality
            // (flash-crowd slots carry the widest wavefronts), so the
            // delta rides the report as its own policy column.
            let cells = cells_for_seeds(tag, 0.0, scenario, &eval_seeds());
            let started = Instant::now();
            let snap_cells = parallel_eval_semantics(
                &t.policy,
                "drl-snap",
                reward,
                &cells,
                None,
                false,
                DecisionSemantics::SlotSnapshot,
            );
            let snap = BenchReport::from_cells(
                format!("fig7_{tag}_snap"),
                "",
                thread_count(),
                started.elapsed().as_secs_f64(),
                snap_cells,
            );
            merge_reports(format!("fig7_{tag}"), vec![grid, snap])
        })
        .collect();
    emit_report(&merge_reports("fig7_dynamic", reports));
}
