//! Episode-loop trainer and evaluator for DQN agents on any
//! [`Environment`].

use super::Environment;
use rand::Rng;
use rl::dqn::DqnAgent;
use rl::transition::Transition;

/// Undiscounted return of each training episode, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingHistory {
    /// One return per episode.
    pub returns: Vec<f32>,
}

impl TrainingHistory {
    /// Mean return over the trailing `window` episodes.
    pub fn trailing_mean_return(&self, window: usize) -> f32 {
        if self.returns.is_empty() {
            return 0.0;
        }
        let tail = &self.returns[self.returns.len().saturating_sub(window)..];
        tail.iter().sum::<f32>() / tail.len() as f32
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
        returns: Vec::with_capacity(episodes),
    };
    for _ in 0..episodes {
        let mut state = env.reset(rng);
        let mut total_reward = 0.0;
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
            agent.observe(transition, rng);
            total_reward += outcome.reward;
            state = outcome.next_state;
            if outcome.done {
                break;
            }
        }
        history.returns.push(total_reward);
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
