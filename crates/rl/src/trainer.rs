//! Generic episode-loop trainer and evaluator for DQN agents on any
//! [`Environment`].

use crate::dqn::DqnAgent;
use crate::env::Environment;
use crate::transition::Transition;
use rand::Rng;

/// Per-episode training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeStats {
    /// Episode index (0-based).
    pub episode: usize,
    /// Undiscounted return.
    pub total_reward: f32,
    /// Steps taken.
    pub steps: usize,
    /// Mean learn-step loss during the episode (`None` before learning
    /// starts).
    pub mean_loss: Option<f32>,
    /// ε at episode end.
    pub epsilon: f32,
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingHistory {
    /// Per-episode statistics, in order.
    pub episodes: Vec<EpisodeStats>,
}

impl TrainingHistory {
    /// Mean return over the trailing `window` episodes.
    pub fn trailing_mean_return(&self, window: usize) -> f32 {
        if self.episodes.is_empty() {
            return 0.0;
        }
        let tail = &self.episodes[self.episodes.len().saturating_sub(window)..];
        tail.iter().map(|e| e.total_reward).sum::<f32>() / tail.len() as f32
    }

    /// Per-episode returns as a plain vector (for plotting/CSV).
    pub fn returns(&self) -> Vec<f32> {
        self.episodes.iter().map(|e| e.total_reward).collect()
    }
}

/// Runs `episodes` training episodes of `agent` on `env`.
///
/// The step cap is `env.max_episode_steps()` or `fallback_step_cap`.
pub fn train_dqn<E: Environment, R: Rng>(
    agent: &mut DqnAgent,
    env: &mut E,
    episodes: usize,
    fallback_step_cap: usize,
    rng: &mut R,
) -> TrainingHistory {
    let cap = env.max_episode_steps().unwrap_or(fallback_step_cap);
    let mut history = TrainingHistory {
        episodes: Vec::with_capacity(episodes),
    };
    for episode in 0..episodes {
        let mut state = env.reset(rng);
        let mut total_reward = 0.0;
        let mut steps = 0usize;
        let mut loss_sum = 0.0f64;
        let mut loss_count = 0usize;
        for _ in 0..cap {
            let mask = env.action_mask();
            let action = agent.act(&state, &mask, rng);
            let outcome = env.step(action, rng);
            let next_mask = env.action_mask();
            let transition = Transition::with_mask(
                state,
                action,
                outcome.reward,
                outcome.next_state.clone(),
                outcome.done,
                next_mask,
            );
            if let Some(stats) = agent.observe(transition, rng) {
                loss_sum += stats.loss as f64;
                loss_count += 1;
            }
            total_reward += outcome.reward;
            steps += 1;
            state = outcome.next_state;
            if outcome.done {
                break;
            }
        }
        history.episodes.push(EpisodeStats {
            episode,
            total_reward,
            steps,
            mean_loss: (loss_count > 0).then(|| (loss_sum / loss_count as f64) as f32),
            epsilon: agent.epsilon(),
        });
    }
    history
}

/// Greedy-policy evaluation: runs `episodes` episodes without exploration
/// or learning; returns the mean undiscounted return. Takes `&mut` only to
/// reuse the agent's inference workspace — no learning happens.
pub fn evaluate_dqn<E: Environment, R: Rng>(
    agent: &mut DqnAgent,
    env: &mut E,
    episodes: usize,
    fallback_step_cap: usize,
    rng: &mut R,
) -> f32 {
    let cap = env.max_episode_steps().unwrap_or(fallback_step_cap);
    let mut total = 0.0;
    for _ in 0..episodes {
        let mut state = env.reset(rng);
        for _ in 0..cap {
            let mask = env.action_mask();
            let action = agent.act_greedy(&state, &mask);
            let outcome = env.step(action, rng);
            total += outcome.reward;
            state = outcome.next_state;
            if outcome.done {
                break;
            }
        }
    }
    total / episodes.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dqn::DqnConfig;
    use crate::qnet::QNetworkConfig;
    use crate::schedule::EpsilonSchedule;
    use crate::toy::{BanditEnv, ChainEnv, GridWorld};
    use nn::prelude::OptimizerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_config() -> DqnConfig {
        DqnConfig {
            network: QNetworkConfig::Standard { hidden: vec![32] },
            gamma: 0.95,
            optimizer: OptimizerConfig::adam(3e-3),
            replay_capacity: 4_000,
            batch_size: 32,
            learn_start: 64,
            train_every: 1,
            target_sync_every: 100,
            epsilon: EpsilonSchedule::Linear {
                start: 1.0,
                end: 0.02,
                steps: 2_000,
            },
            ..DqnConfig::default()
        }
    }

    #[test]
    fn dqn_solves_contextual_bandit() {
        let mut rng = StdRng::seed_from_u64(100);
        let mut env = BanditEnv::new(3, 3);
        let mut agent = DqnAgent::new(fast_config(), env.state_dim(), env.action_count(), &mut rng);
        train_dqn(&mut agent, &mut env, 1_500, 1, &mut rng);
        let mean = evaluate_dqn(&mut agent, &mut env, 200, 1, &mut rng);
        assert!(mean > 0.95, "bandit mean reward {mean}");
    }

    #[test]
    fn dqn_solves_chain() {
        let mut rng = StdRng::seed_from_u64(101);
        let mut env = ChainEnv::new(6, 0.01);
        let mut agent = DqnAgent::new(fast_config(), env.state_dim(), env.action_count(), &mut rng);
        train_dqn(&mut agent, &mut env, 250, 60, &mut rng);
        let mean = evaluate_dqn(&mut agent, &mut env, 20, 60, &mut rng);
        // Optimal: 5 steps right → 1 - 0.05 = 0.95.
        assert!(mean > 0.9, "chain mean return {mean}");
    }

    #[test]
    fn dqn_solves_gridworld_with_mask() {
        let mut rng = StdRng::seed_from_u64(102);
        let mut env = GridWorld::new(4);
        let mut agent = DqnAgent::new(fast_config(), env.state_dim(), env.action_count(), &mut rng);
        train_dqn(&mut agent, &mut env, 400, 64, &mut rng);
        let mean = evaluate_dqn(&mut agent, &mut env, 10, 64, &mut rng);
        let optimal = env.optimal_return().unwrap();
        assert!(
            mean > optimal - 0.1,
            "gridworld mean return {mean}, optimal {optimal}"
        );
    }

    #[test]
    fn history_trailing_mean() {
        let history = TrainingHistory {
            episodes: (0..10)
                .map(|i| EpisodeStats {
                    episode: i,
                    total_reward: i as f32,
                    steps: 1,
                    mean_loss: None,
                    epsilon: 0.1,
                })
                .collect(),
        };
        assert!((history.trailing_mean_return(2) - 8.5).abs() < 1e-6);
        assert_eq!(history.returns().len(), 10);
    }

    #[test]
    fn evaluate_on_empty_history_is_zero() {
        let h = TrainingHistory { episodes: vec![] };
        assert_eq!(h.trailing_mean_return(5), 0.0);
    }
}
