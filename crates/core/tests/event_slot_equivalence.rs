//! Golden slot-equivalence suite: every scenario family used by the
//! figure binaries runs through BOTH the paper's slotted loop
//! ([`Simulation::drive_slotted`], the reference) and the event engine
//! ([`Simulation::drive`]), and must produce a bit-identical
//! [`RunSummary`] plus a bit-identical per-slot [`SlotRecord`] stream.
//! The slot loop bills every active flow one whole slot, literally; the
//! engine prorates, which on this slot-boundary input must come to the
//! same bits: the suite is the proof that it does.
//!
//! This is the contract that let `exper`, the `fig*` binaries and the
//! `BENCH_*` reports migrate to the event engine without output drift.
//! Scenario families mirror the figure binaries' constructors (same
//! topology, capacity, workload and failure knobs) with horizons trimmed
//! so the suite stays test-pyramid friendly; `FAST=1` trims further.

use mano::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::dqn::DqnConfig;
use rl::qnet::QNetworkConfig;
use rl::schedule::EpsilonSchedule;
use sfc::chain::{ChainCatalog, ChainId, ChainSpec};
use sfc::vnf::VnfCatalog;
use workload::pattern::LoadPattern;

fn fast_mode() -> bool {
    std::env::var_os("FAST").is_some_and(|v| v == "1")
}

fn scaled(full: u64, fast: u64) -> u64 {
    if fast_mode() {
        fast
    } else {
        full
    }
}

/// Which loop [`run`] takes: the reference or the engine.
#[derive(Clone, Copy)]
enum Engine {
    SlotLoop,
    Event,
}

/// One generated-trace run of `sim` on `engine`: the same trace and the
/// same decision seed either way.
fn run(
    sim: &mut Simulation,
    policy: &mut dyn PlacementPolicy,
    seed_offset: u64,
    engine: Engine,
) -> RunSummary {
    let opts = RunOptions::new().with_seed_offset(seed_offset);
    match engine {
        Engine::SlotLoop => sim.drive_slotted(None, policy, seed_offset, None),
        Engine::Event => sim.drive(RunInput::Generated, policy, opts),
    }
}

/// Runs `scenario` through both engines with freshly built policies and
/// asserts the summary and the whole slot-record stream match bit for bit.
fn assert_engines_match(
    label: &str,
    scenario: &Scenario,
    catalogs: Option<(VnfCatalog, ChainCatalog)>,
    mut make_policy: impl FnMut() -> Box<dyn PlacementPolicy>,
) {
    let build = |scenario: &Scenario| match &catalogs {
        Some((vnfs, chains)) => Simulation::with_catalogs(
            scenario,
            RewardConfig::default(),
            vnfs.clone(),
            chains.clone(),
        ),
        None => Simulation::new(scenario, RewardConfig::default()),
    };

    let mut slot_policy = make_policy();
    let mut slot_sim = build(scenario);
    let slot_summary = run(&mut slot_sim, slot_policy.as_mut(), 7, Engine::SlotLoop);

    let mut event_policy = make_policy();
    let mut event_sim = build(scenario);
    let event_summary = run(&mut event_sim, event_policy.as_mut(), 7, Engine::Event);

    assert_eq!(slot_summary, event_summary, "{label}: RunSummary diverged");

    let slot_records = slot_sim.metrics().slots();
    let event_records = event_sim.metrics().slots();
    assert_eq!(
        slot_records.len(),
        event_records.len(),
        "{label}: slot-record counts diverged"
    );
    for (a, b) in slot_records.iter().zip(event_records) {
        assert_eq!(a, b, "{label}: record for slot {} diverged", a.slot);
    }
}

/// The fig2/3/4 load-sweep family (`bench::bench_scenario`).
fn bench_family(rate: f64) -> Scenario {
    let mut s = Scenario::default_metro().with_arrival_rate(rate);
    s.topology_builder.edge_capacity = edgenet::node::Resources::new(32.0, 128.0);
    s.horizon_slots = scaled(120, 24);
    s
}

#[test]
fn load_sweep_scenarios_are_engine_equivalent() {
    for rate in [2.0, 6.0] {
        let scenario = bench_family(rate);
        assert_engines_match(
            &format!("bench_scenario({rate}) first-fit"),
            &scenario,
            None,
            || Box::new(FirstFitPolicy),
        );
        assert_engines_match(
            &format!("bench_scenario({rate}) weighted-greedy"),
            &scenario,
            None,
            || Box::<WeightedGreedyPolicy>::default(),
        );
    }
}

#[test]
fn rng_heavy_policy_is_engine_equivalent() {
    // RandomPolicy consumes the decision rng every step, so any drift in
    // the engines' rng draw order shows up immediately.
    let scenario = bench_family(4.0);
    assert_engines_match("bench_scenario(4.0) random", &scenario, None, || {
        Box::new(RandomPolicy)
    });
}

#[test]
fn scalability_scenarios_are_engine_equivalent() {
    // fig5's size sweep: metro rings of growing site counts.
    for sites in [4usize, 8] {
        let mut scenario = Scenario::default_metro().with_arrival_rate(6.0);
        scenario.topology = TopologySpec::Metro { sites };
        scenario.topology_builder.edge_capacity = edgenet::node::Resources::new(32.0, 128.0);
        scenario.horizon_slots = scaled(100, 20);
        assert_engines_match(&format!("fig5 sites={sites}"), &scenario, None, || {
            Box::<WeightedGreedyPolicy>::default()
        });
    }
}

#[test]
fn synthetic_chain_catalog_is_engine_equivalent() {
    // fig6's chain-length sweep: custom catalogs through `with_catalogs`.
    let vnfs = VnfCatalog::standard();
    let order = ["nat", "firewall", "load-balancer"];
    let chains: Vec<ChainSpec> = (1..=order.len())
        .map(|len| {
            let seq = order[..len]
                .iter()
                .map(|n| vnfs.by_name(n).expect("standard catalog").id)
                .collect();
            ChainSpec::new(
                ChainId(len - 1),
                format!("len-{len}"),
                seq,
                40.0 + 25.0 * len as f64,
                0.05,
                10.0,
            )
        })
        .collect();
    let chains = ChainCatalog::new(chains, &vnfs);

    let mut scenario = Scenario::default_metro().with_arrival_rate(5.0);
    scenario.topology_builder.edge_capacity = edgenet::node::Resources::new(32.0, 128.0);
    scenario.horizon_slots = scaled(100, 20);
    scenario.workload.chain_mix = vec![1.0; 3];
    assert_engines_match(
        "fig6 synthetic chains",
        &scenario,
        Some((vnfs, chains)),
        || Box::new(FirstFitPolicy),
    );
}

#[test]
fn dynamic_load_scenarios_are_engine_equivalent() {
    // fig7's non-stationary workloads: diurnal wave and flash crowd.
    let mut diurnal = Scenario::default_metro();
    diurnal.topology_builder.edge_capacity = edgenet::node::Resources::new(32.0, 128.0);
    diurnal.horizon_slots = scaled(160, 30);
    diurnal.workload.pattern = LoadPattern::Diurnal {
        base: 6.0,
        amplitude: 4.0,
        period: scaled(80, 15),
        phase: 0,
    };
    assert_engines_match("fig7 diurnal", &diurnal, None, || {
        Box::<WeightedGreedyPolicy>::default()
    });

    let mut flash = diurnal.clone();
    flash.workload.pattern = LoadPattern::FlashCrowd {
        base: 4.0,
        spike_rate: 14.0,
        spike_start: scaled(50, 10),
        spike_duration: scaled(30, 6),
    };
    assert_engines_match("fig7 flash crowd", &flash, None, || {
        Box::new(FirstFitPolicy)
    });
}

#[test]
fn optgap_scenario_is_engine_equivalent() {
    // fig8's tiny comparator topology (3 edge sites + cloud).
    let mut scenario = Scenario::default_metro().with_arrival_rate(3.0);
    scenario.topology = TopologySpec::Metro { sites: 3 };
    scenario.horizon_slots = scaled(100, 20);
    scenario.workload.chain_mix = vec![1.0, 1.0];
    assert_engines_match("fig8 tiny", &scenario, None, || Box::new(FirstFitPolicy));
}

#[test]
fn stochastic_failure_scenarios_are_engine_equivalent() {
    // fig12's resilience sweep: stochastic per-node failures + recovery
    // (the PR 3 event schedule) must disrupt, re-place and recover
    // identically under both engines.
    for failure_rate in [0.01, 0.05] {
        let mut scenario = bench_family(6.0).with_failures(failure_rate, 20.0);
        scenario.horizon_slots = scaled(120, 24);
        assert_engines_match(
            &format!("fig12 failures={failure_rate}"),
            &scenario,
            None,
            || Box::<WeightedGreedyPolicy>::default(),
        );
    }
}

#[test]
fn frozen_drl_is_engine_equivalent() {
    // A network-backed policy: the event engine groups same-timestamp
    // arrivals exactly as the slot loop groups a slot's, so a frozen DQN
    // must decide — and therefore produce — identical output on both.
    let mut scenario = Scenario::small_test();
    scenario.horizon_slots = scaled(50, 25);
    let probe = Simulation::new(&scenario, RewardConfig::default());
    let state_dim = probe.encoder.dim();
    let action_count = probe.action_space.len();
    drop(probe);
    let config = DrlManagerConfig {
        dqn: DqnConfig {
            network: QNetworkConfig::Standard { hidden: vec![16] },
            epsilon: EpsilonSchedule::Constant(0.0),
            ..DqnConfig::default()
        },
        label: "drl".into(),
    };
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut template = DrlPolicy::new(config, state_dim, action_count, &mut rng);
    template.set_training(false);

    let mut slot_policy = template.clone();
    let mut slot_sim = Simulation::new(&scenario, RewardConfig::default());
    let slot_summary = run(&mut slot_sim, &mut slot_policy, 7, Engine::SlotLoop);

    let mut event_policy = template.clone();
    let mut event_sim = Simulation::new(&scenario, RewardConfig::default());
    let event_summary = run(&mut event_sim, &mut event_policy, 7, Engine::Event);

    assert_eq!(slot_summary, event_summary, "DRL run diverged");
    assert_eq!(slot_sim.metrics().slots(), event_sim.metrics().slots());
}

#[test]
fn chained_runs_stay_engine_equivalent() {
    // No library or binary code chains runs (`runner`, `pg` and every
    // bin build a fresh `Simulation` per run), but `drive` allows it:
    // state carried across run boundaries — live flows, pending
    // departures, instance ages, the next generated request id — must
    // migrate identically.
    let scenario = bench_family(5.0);

    let mut slot_policy = WeightedGreedyPolicy::default();
    let mut slot_sim = Simulation::new(&scenario, RewardConfig::default());
    let _ = run(&mut slot_sim, &mut slot_policy, 1, Engine::SlotLoop);
    let slot_summary = run(&mut slot_sim, &mut slot_policy, 2, Engine::SlotLoop);

    let mut event_policy = WeightedGreedyPolicy::default();
    let mut event_sim = Simulation::new(&scenario, RewardConfig::default());
    let _ = run(&mut event_sim, &mut event_policy, 1, Engine::Event);
    let event_summary = run(&mut event_sim, &mut event_policy, 2, Engine::Event);

    for (a, b) in slot_sim
        .metrics()
        .slots()
        .iter()
        .zip(event_sim.metrics().slots())
    {
        assert_eq!(a, b, "chained: record for slot {} diverged", a.slot);
    }
    assert_eq!(slot_summary, event_summary, "chained RunSummary diverged");
}
