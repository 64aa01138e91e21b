//! End-to-end smoke tests: `Scenario::small_test()` must run to
//! completion under the canonical baseline policies and produce
//! non-degenerate metrics, and the engine's skipped state encoding for
//! the baselines (`reads_state() == false`) must change none of their
//! decisions.

use drl_vnf_edge::prelude::*;
use rand::rngs::StdRng;

fn smoke(policy: &mut dyn PlacementPolicy, name: &str) -> RunSummary {
    let scenario = Scenario::small_test();
    let result = evaluate_policy(&scenario, RewardConfig::default(), policy, 13);
    let s = result.summary;
    assert!(s.total_arrivals > 0, "{name}: no arrivals generated");
    assert!(
        (0.0..=1.0).contains(&s.acceptance_ratio),
        "{name}: acceptance ratio {} outside [0,1]",
        s.acceptance_ratio
    );
    assert_eq!(
        s.total_arrivals,
        s.total_accepted + s.total_rejected,
        "{name}: arrival accounting"
    );
    assert!(
        s.total_cost_usd.is_finite() && s.total_cost_usd >= 0.0,
        "{name}: cost {} degenerate",
        s.total_cost_usd
    );
    assert_eq!(s.slots, scenario.horizon_slots, "{name}: truncated run");
    s
}

#[test]
fn first_fit_smoke() {
    let s = smoke(&mut FirstFitPolicy, "first-fit");
    assert!(s.total_accepted > 0, "first-fit should admit something");
}

#[test]
fn greedy_latency_smoke() {
    let s = smoke(&mut GreedyLatencyPolicy, "greedy-latency");
    assert!(
        s.total_accepted > 0,
        "greedy-latency should admit something"
    );
    assert!(
        s.mean_admission_latency_ms > 0.0,
        "admitted requests must have positive latency"
    );
}

#[test]
fn cloud_only_smoke() {
    // small_test ships a cloud node, so cloud-only must still admit.
    let s = smoke(&mut CloudOnlyPolicy, "cloud-only");
    assert!(
        s.total_accepted > 0,
        "cloud-only should admit via the cloud"
    );
}

/// The nine baselines, each of which answers `reads_state() == false`.
fn nine_baselines(scenario: &Scenario) -> Vec<Box<dyn PlacementPolicy>> {
    let probe = Simulation::new(scenario, RewardConfig::default());
    let exhaustive = ExhaustivePolicy::new(
        probe.topology().clone(),
        probe.routes().clone(),
        probe.vnfs.clone(),
        scenario.prices,
        scenario.workload.mean_duration_slots * scenario.slot_seconds,
    );
    let mut policies = standard_baselines();
    policies.push(Box::new(exhaustive));
    policies
}

/// Forwards `decide` and `observe` to `inner` but keeps the default
/// `reads_state() == true`, so the engine encodes the state for it.
struct ReadsState<'p>(&'p mut dyn PlacementPolicy);

impl PlacementPolicy for ReadsState<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        self.0.decide(ctx, rng)
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.0.observe(feedback, rng);
    }
}

/// Decides first-fit, answers `reads_state` with `reads`, and checks that
/// the engine hands it a state exactly when it asked for one.
struct StateProbe {
    reads: bool,
    dim: usize,
    decisions: u64,
}

impl PlacementPolicy for StateProbe {
    fn name(&self) -> String {
        "state-probe".into()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        let expected = if self.reads { self.dim } else { 0 };
        assert_eq!(
            ctx.encoded_state.len(),
            expected,
            "reads_state = {}",
            self.reads
        );
        self.decisions += 1;
        FirstFitPolicy.decide(ctx, rng)
    }

    fn reads_state(&self) -> bool {
        self.reads
    }
}

fn run_under(
    scenario: &Scenario,
    semantics: DecisionSemantics,
    policy: &mut dyn PlacementPolicy,
) -> (RunSummary, Vec<SlotRecord>) {
    let mut sim = Simulation::new(scenario, RewardConfig::default());
    let options = RunOptions::new()
        .with_seed_offset(13)
        .with_semantics(semantics);
    let summary = sim.drive(RunInput::Generated, policy, options);
    (summary, sim.metrics().slots().to_vec())
}

#[test]
fn skipping_the_state_changes_no_baseline_decision() {
    // Failures make re-placement episodes run too.
    let scenario = Scenario::small_test().with_failures(0.02, 8.0);
    for semantics in [
        DecisionSemantics::Sequential,
        DecisionSemantics::SlotSnapshot,
    ] {
        for (mut plain, mut wrapped) in nine_baselines(&scenario)
            .into_iter()
            .zip(nine_baselines(&scenario))
        {
            let name = plain.name();
            assert!(!plain.reads_state(), "{name} should skip the state");
            let skipped = run_under(&scenario, semantics, plain.as_mut());
            let encoded = run_under(&scenario, semantics, &mut ReadsState(wrapped.as_mut()));
            assert!(
                skipped.0.downtime_slots > 0,
                "the failure process must fire"
            );
            assert_eq!(skipped, encoded, "{name} under {semantics:?}");
        }
    }
}

#[test]
fn the_engine_encodes_the_state_only_for_readers() {
    let scenario = Scenario::small_test().with_failures(0.02, 8.0);
    let dim = Simulation::new(&scenario, RewardConfig::default())
        .encoder
        .dim();
    for semantics in [
        DecisionSemantics::Sequential,
        DecisionSemantics::SlotSnapshot,
    ] {
        for reads in [false, true] {
            let mut probe = StateProbe {
                reads,
                dim,
                decisions: 0,
            };
            run_under(&scenario, semantics, &mut probe);
            assert!(
                probe.decisions > 0,
                "{semantics:?}: the probe decided nothing"
            );
        }
    }
}
