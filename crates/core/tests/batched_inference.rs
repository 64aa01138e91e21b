//! Where the engine may batch decisions: `greedy_batch` is reached only
//! under [`DecisionSemantics::SlotSnapshot`]. The paper's sequential loop
//! decides every placement through `decide`, however many arrivals share
//! a slot, and a training policy refuses to batch under either semantics.

use mano::prelude::*;
use nn::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::dqn::DqnConfig;
use rl::qnet::QNetworkConfig;
use rl::reinforce::ReinforceConfig;
use rl::schedule::EpsilonSchedule;

/// A multi-arrival scenario (Poisson λ=2 over 4 sites) so slots routinely
/// carry groups worth batching.
fn scenario() -> Scenario {
    let mut s = Scenario::small_test();
    s.horizon_slots = 50;
    s
}

/// `(state_dim, action_count)` of the policies' networks for `scenario`.
fn dims(scenario: &Scenario) -> (usize, usize) {
    let probe = Simulation::new(scenario, RewardConfig::default());
    (probe.encoder.dim(), probe.action_space.len())
}

fn frozen_dqn(scenario: &Scenario) -> DrlPolicy {
    let (state_dim, action_count) = dims(scenario);
    let config = DrlManagerConfig {
        dqn: DqnConfig {
            network: QNetworkConfig::Standard { hidden: vec![16] },
            epsilon: EpsilonSchedule::Constant(0.0),
            ..DqnConfig::default()
        },
        label: "drl".into(),
    };
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut policy = DrlPolicy::new(config, state_dim, action_count, &mut rng);
    policy.set_training(false);
    policy
}

/// Counts the engine's `greedy_batch` calls into `inner`.
struct Counting<P> {
    inner: P,
    batches: u64,
}

impl<P: PlacementPolicy> PlacementPolicy for Counting<P> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        self.inner.decide(ctx, rng)
    }
    fn supports_greedy_batch(&self) -> bool {
        self.inner.supports_greedy_batch()
    }
    fn greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        self.batches += 1;
        self.inner.greedy_batch(states, masks, out);
    }
}

/// `greedy_batch` calls a frozen DQN sees over one run under `semantics`.
fn greedy_batch_calls(semantics: DecisionSemantics) -> u64 {
    let scenario = scenario();
    let inner = frozen_dqn(&scenario);
    assert!(
        inner.supports_greedy_batch(),
        "a frozen DQN offers to batch"
    );
    let mut policy = Counting { inner, batches: 0 };
    let mut sim = Simulation::new(&scenario, RewardConfig::default());
    let opts = RunOptions::new().with_semantics(semantics);
    sim.drive(RunInput::Generated, &mut policy, opts);
    policy.batches
}

#[test]
fn greedy_batch_is_reached_only_under_snapshot_semantics() {
    assert_eq!(greedy_batch_calls(DecisionSemantics::Sequential), 0);
    assert!(greedy_batch_calls(DecisionSemantics::SlotSnapshot) >= 1);
}

#[test]
fn training_mode_never_uses_the_batched_path() {
    // Exploration draws from the decision rng stream; batching a training
    // policy would desynchronize it. The policy must refuse to batch.
    let scenario = scenario();
    let mut dqn = frozen_dqn(&scenario);
    dqn.set_training(true);
    assert!(!dqn.supports_greedy_batch());

    let (state_dim, action_count) = dims(&scenario);
    let config = PgManagerConfig {
        reinforce: ReinforceConfig {
            hidden: vec![16],
            ..ReinforceConfig::default()
        },
        label: "pg".into(),
    };
    let mut rng = StdRng::seed_from_u64(0xBA7D);
    let mut pg = PgPolicy::new(config, state_dim, action_count, &mut rng);
    assert!(!pg.supports_greedy_batch(), "policies start in training");
    pg.set_training(false);
    assert!(pg.supports_greedy_batch());
}
