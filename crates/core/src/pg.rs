//! Policy-gradient VNF manager — the REINFORCE-based alternative to the
//! DQN manager (the extension experiment).

use crate::action::PlacementAction;
use crate::config::Scenario;
use crate::policy::{DecisionContext, DecisionFeedback, PlacementPolicy};
use crate::reward::RewardConfig;
use crate::runner::{train, Trained};
use rand::rngs::StdRng;
use rl::reinforce::{ReinforceAgent, ReinforceConfig};
use sfc::chain::ChainCatalog;
use sfc::vnf::VnfCatalog;

/// Configuration of the policy-gradient manager.
#[derive(Debug, Clone, PartialEq)]
pub struct PgManagerConfig {
    /// REINFORCE hyperparameters.
    pub reinforce: ReinforceConfig,
    /// Row label used in result tables.
    pub label: String,
}

impl Default for PgManagerConfig {
    fn default() -> Self {
        Self {
            reinforce: ReinforceConfig::default(),
            label: "drl-pg".into(),
        }
    }
}

/// REINFORCE placement policy: samples placements from a masked softmax
/// policy while training, acts on the mode during evaluation.
#[derive(Clone)]
pub struct PgPolicy {
    agent: ReinforceAgent,
    label: String,
    training: bool,
    episode_returns: Vec<f32>,
}

impl std::fmt::Debug for PgPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PgPolicy")
            .field("label", &self.label)
            .field("training", &self.training)
            .field("episodes", &self.episode_returns.len())
            .finish()
    }
}

impl PgPolicy {
    /// Builds the policy for the given observation/action sizes.
    pub fn new(
        config: PgManagerConfig,
        state_dim: usize,
        action_count: usize,
        rng: &mut StdRng,
    ) -> Self {
        let agent = ReinforceAgent::new(config.reinforce, state_dim, action_count, rng);
        Self {
            agent,
            label: config.label,
            training: true,
            episode_returns: Vec::new(),
        }
    }

    /// Read access to the wrapped agent.
    pub fn agent(&self) -> &ReinforceAgent {
        &self.agent
    }

    /// Drains accumulated per-episode returns.
    pub fn take_episode_returns(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.episode_returns)
    }
}

impl PlacementPolicy for PgPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        let index = if self.training {
            self.agent.act(&ctx.encoded_state, &ctx.mask, rng)
        } else {
            self.agent.act_greedy(&ctx.encoded_state, &ctx.mask)
        };
        if index + 1 == ctx.mask.len() {
            PlacementAction::Reject
        } else {
            PlacementAction::Place(edgenet::node::NodeId(index))
        }
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, _rng: &mut StdRng) {
        if self.training {
            // The feedback borrows engine scratch; clone what the episode
            // record stores (evaluation mode copies nothing).
            self.agent.record_step(
                feedback.state.to_vec(),
                feedback.mask.to_vec(),
                feedback.action_index,
                feedback.reward,
            );
            if feedback.done {
                if let Some(r) = self.agent.end_episode() {
                    self.episode_returns.push(r);
                }
            }
        }
    }

    fn supports_greedy_batch(&self) -> bool {
        !self.training
    }

    fn greedy_batch(&mut self, states: &nn::tensor::Matrix, masks: &[bool], out: &mut Vec<usize>) {
        self.agent.act_greedy_batch(states, masks, out);
    }

    fn set_training(&mut self, training: bool) {
        if self.training && !training {
            self.agent.abandon_episode();
        }
        self.training = training;
    }

    fn is_learning(&self) -> bool {
        self.training
    }
}

/// Trains a policy-gradient manager through the same pass loop as
/// [`crate::runner::train_drl`] (validation-based checkpoint selection
/// included).
///
/// # Panics
///
/// Panics if `passes == 0` or the scenario is invalid.
pub fn train_pg(
    scenario: &Scenario,
    reward: RewardConfig,
    config: PgManagerConfig,
    passes: usize,
) -> Trained<PgPolicy> {
    let vnfs = VnfCatalog::standard();
    let chains = ChainCatalog::standard(&vnfs);
    train(
        scenario,
        reward,
        passes,
        (&vnfs, &chains),
        0x1357_9BDF,
        |state_dim, action_count, rng| PgPolicy::new(config, state_dim, action_count, rng),
        PgPolicy::take_episode_returns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_policy;
    use rand::SeedableRng;

    fn fast_pg() -> PgManagerConfig {
        PgManagerConfig {
            reinforce: ReinforceConfig {
                hidden: vec![32],
                optimizer: nn::prelude::OptimizerConfig::adam(2e-3),
                ..ReinforceConfig::default()
            },
            label: "pg-test".into(),
        }
    }

    #[test]
    fn pg_trains_and_evaluates() {
        let mut scenario = Scenario::small_test();
        scenario.horizon_slots = 40;
        let reward = RewardConfig::default();
        let mut trained = train_pg(&scenario, reward, fast_pg(), 2);
        assert_eq!(trained.pass_summaries.len(), 2);
        assert!(!trained.episode_returns.is_empty());
        assert!(trained.policy.agent().episodes_trained() > 0);
        let result = evaluate_policy(&scenario, reward, &mut trained.policy, 50);
        assert!(result.summary.total_arrivals > 0);
    }

    #[test]
    fn pg_beats_random_on_small_scenario() {
        let mut scenario = Scenario::small_test();
        scenario.horizon_slots = 50;
        let reward = RewardConfig::default();
        let mut policy = train_pg(&scenario, reward, fast_pg(), 3).policy;
        let pg = evaluate_policy(&scenario, reward, &mut policy, 77);
        let mut random = crate::baselines::RandomPolicy;
        let rand_result = evaluate_policy(&scenario, reward, &mut random, 77);
        assert!(
            pg.summary.combined_objective(1.0, 1.0)
                < rand_result.summary.combined_objective(1.0, 1.0),
            "pg {:.2} vs random {:.2}",
            pg.summary.combined_objective(1.0, 1.0),
            rand_result.summary.combined_objective(1.0, 1.0)
        );
    }

    #[test]
    fn eval_mode_does_not_learn() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = PgPolicy::new(fast_pg(), 8, 3, &mut rng);
        policy.set_training(false);
        assert!(!policy.is_learning());
        let state = vec![0.0; 8];
        let mask = vec![true; 3];
        policy.observe(
            DecisionFeedback {
                state: &state,
                mask: &mask,
                action_index: 0,
                reward: 1.0,
                next_state: &state,
                next_mask: &mask,
                done: true,
            },
            &mut rng,
        );
        assert_eq!(policy.agent().episodes_trained(), 0);
    }
}
