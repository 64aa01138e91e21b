//! Table 1 — simulation parameters (the reconstructed parameter table the
//! paper's evaluation section opens with).

use super::Outcome;
use crate::{bench_scenario, emit_markdown};
use drl_vnf_edge::prelude::*;

/// Writes `table1_params.md`.
pub fn run() -> Outcome {
    let scenario = bench_scenario(8.0);
    let vnfs = VnfCatalog::standard();
    let chains = ChainCatalog::standard(&vnfs);

    let mut md = String::from("# Table 1 — Simulation parameters\n\n");
    md.push_str("| parameter | value |\n|---|---|\n");
    md.push_str(&format!(
        "| edge sites | {} (metro preset, full mesh) |\n",
        scenario.topology.site_count()
    ));
    md.push_str("| cloud | 1 remote site, +20 ms access latency |\n");
    md.push_str(&format!(
        "| edge capacity | {:.0} vCPU / {:.0} GB per site |\n",
        scenario.topology_builder.edge_capacity.cpu, scenario.topology_builder.edge_capacity.mem
    ));
    md.push_str(&format!(
        "| slot duration | {} s |\n",
        scenario.slot_seconds
    ));
    md.push_str(&format!("| horizon | {} slots |\n", scenario.horizon_slots));
    md.push_str("| arrival process | Poisson, λ swept 1–12 req/slot |\n");
    md.push_str(&format!(
        "| flow duration | geometric, mean {} slots |\n",
        scenario.workload.mean_duration_slots
    ));
    md.push_str(&format!(
        "| max instance utilization (admission headroom) | {} |\n",
        scenario.max_instance_utilization
    ));
    md.push_str(&format!(
        "| idle-instance retirement | {} slots |\n",
        scenario.idle_retire_slots
    ));
    md.push_str(&format!(
        "| deployment cost | ${} per instance |\n",
        scenario.prices.deployment_cost
    ));
    md.push_str(&format!(
        "| WAN / cloud traffic | ${} / ${} per GB |\n",
        scenario.prices.wan_traffic_per_gb, scenario.prices.cloud_traffic_per_gb
    ));
    md.push_str(&format!(
        "| energy | ${} per kWh, PUE {} |\n",
        scenario.energy.price_per_kwh, scenario.energy.pue
    ));

    md.push_str("\n## VNF type catalog\n\n| VNF | vCPU | mem (GB) | μ (req/s) | base delay (ms) |\n|---|---|---|---|---|\n");
    for t in vnfs.types() {
        md.push_str(&format!(
            "| {} | {:.0} | {:.0} | {:.0} | {:.2} |\n",
            t.name, t.demand.cpu, t.demand.mem, t.service_rate_rps, t.base_processing_ms
        ));
    }

    md.push_str("\n## Service chains\n\n| chain | VNF sequence | SLA (ms) | traffic (GB/slot) | λ per flow (req/s) |\n|---|---|---|---|---|\n");
    for c in chains.chains() {
        let seq: Vec<&str> = c.vnfs.iter().map(|&v| vnfs.get(v).name.as_str()).collect();
        md.push_str(&format!(
            "| {} | {} | {:.0} | {:.2} | {:.0} |\n",
            c.name,
            seq.join(" → "),
            c.latency_budget_ms,
            c.traffic_gb,
            c.arrival_rate_rps
        ));
    }

    emit_markdown("table1_params.md", &md);
    Ok(())
}
