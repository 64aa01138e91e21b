//! Tabular Q-learning — the trusted reference learner for validating deep
//! agents on toy environments with small discrete state spaces.

use crate::env::{masked_argmax, DiscreteStateEnvironment};
use crate::schedule::EpsilonSchedule;
use rand::Rng;

/// Hyperparameters for tabular Q-learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QTableConfig {
    /// Learning rate α.
    pub alpha: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Optimistic initial Q value (encourages early exploration).
    pub initial_q: f32,
}

impl Default for QTableConfig {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            gamma: 0.99,
            epsilon: EpsilonSchedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: 5_000,
            },
            initial_q: 0.0,
        }
    }
}

/// A tabular Q-learning agent.
#[derive(Debug, Clone)]
pub struct QTableAgent {
    q: Vec<Vec<f32>>,
    config: QTableConfig,
    steps: u64,
}

impl QTableAgent {
    /// Creates a table of `state_count x action_count` entries.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero, `alpha ∉ (0,1]` or `gamma ∉ [0,1]`.
    pub fn new(state_count: usize, action_count: usize, config: QTableConfig) -> Self {
        assert!(
            state_count > 0 && action_count > 0,
            "table dimensions must be positive"
        );
        assert!(
            config.alpha > 0.0 && config.alpha <= 1.0,
            "alpha must be in (0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&config.gamma),
            "gamma must be in [0,1]"
        );
        config.epsilon.validate();
        Self {
            q: vec![vec![config.initial_q; action_count]; state_count],
            config,
            steps: 0,
        }
    }

    /// Number of states in the table.
    pub fn state_count(&self) -> usize {
        self.q.len()
    }

    /// Q-values for a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn q_values(&self, state: usize) -> &[f32] {
        &self.q[state]
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        self.config.epsilon.value(self.steps)
    }

    /// ε-greedy action for `state` under `mask`.
    ///
    /// # Panics
    ///
    /// Panics if every action is masked or `state` is out of range.
    pub fn act<R: Rng + ?Sized>(&self, state: usize, mask: &[bool], rng: &mut R) -> usize {
        if rng.gen::<f32>() < self.epsilon() {
            let valid: Vec<usize> = mask
                .iter()
                .enumerate()
                .filter_map(|(i, &ok)| ok.then_some(i))
                .collect();
            assert!(!valid.is_empty(), "act called with fully-masked action set");
            valid[rng.gen_range(0..valid.len())]
        } else {
            self.act_greedy(state, mask)
        }
    }

    /// Greedy action for `state` under `mask`.
    ///
    /// # Panics
    ///
    /// Panics if every action is masked or `state` is out of range.
    pub fn act_greedy(&self, state: usize, mask: &[bool]) -> usize {
        masked_argmax(&self.q[state], mask).expect("act_greedy called with fully-masked action set")
    }

    /// Q-learning update for one transition. `next_mask` restricts the
    /// bootstrap maximization; pass `None` for all-valid.
    ///
    /// Returns the TD error.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        reward: f32,
        next_state: usize,
        done: bool,
        next_mask: Option<&[bool]>,
    ) -> f32 {
        self.steps += 1;
        let future = if done {
            0.0
        } else {
            let row = &self.q[next_state];
            match next_mask {
                Some(mask) => masked_argmax(row, mask).map_or(0.0, |a| row[a]),
                None => row.iter().copied().fold(f32::NEG_INFINITY, f32::max),
            }
        };
        let target = reward + self.config.gamma * future;
        let td = target - self.q[state][action];
        self.q[state][action] += self.config.alpha * td;
        td
    }

    /// Runs `episodes` training episodes on `env`; returns per-episode
    /// undiscounted returns.
    pub fn train<E: DiscreteStateEnvironment, R: Rng>(
        &mut self,
        env: &mut E,
        episodes: usize,
        rng: &mut R,
    ) -> Vec<f32> {
        let cap = env.max_episode_steps().unwrap_or(10_000);
        let mut returns = Vec::with_capacity(episodes);
        for _ in 0..episodes {
            let _obs = env.reset(rng);
            let mut state = env.state_id();
            let mut ep_return = 0.0;
            for _ in 0..cap {
                let mask = env.action_mask();
                let action = self.act(state, &mask, rng);
                let outcome = env.step(action, rng);
                let next_state = env.state_id();
                let next_mask = env.action_mask();
                self.update(
                    state,
                    action,
                    outcome.reward,
                    next_state,
                    outcome.done,
                    Some(&next_mask),
                );
                ep_return += outcome.reward;
                state = next_state;
                if outcome.done {
                    break;
                }
            }
            returns.push(ep_return);
        }
        returns
    }

    /// Greedy-policy evaluation over `episodes`; returns mean return.
    pub fn evaluate<E: DiscreteStateEnvironment, R: Rng>(
        &self,
        env: &mut E,
        episodes: usize,
        rng: &mut R,
    ) -> f32 {
        let cap = env.max_episode_steps().unwrap_or(10_000);
        let mut total = 0.0;
        for _ in 0..episodes {
            let _ = env.reset(rng);
            let mut ep = 0.0;
            for _ in 0..cap {
                let action = self.act_greedy(env.state_id(), &env.action_mask());
                let outcome = env.step(action, rng);
                ep += outcome.reward;
                if outcome.done {
                    break;
                }
            }
            total += ep;
        }
        total / episodes.max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::chain::ChainEnv;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn update_moves_toward_target() {
        let mut agent = QTableAgent::new(
            2,
            2,
            QTableConfig {
                alpha: 0.5,
                ..Default::default()
            },
        );
        let td = agent.update(0, 1, 1.0, 1, true, None);
        assert!((td - 1.0).abs() < 1e-6);
        assert!((agent.q_values(0)[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bootstrap_respects_mask() {
        let mut agent = QTableAgent::new(
            2,
            2,
            QTableConfig {
                alpha: 1.0,
                gamma: 1.0,
                ..Default::default()
            },
        );
        // Seed next-state values: Q(1,0)=10 (masked), Q(1,1)=1.
        agent.update(1, 0, 10.0, 1, true, None);
        agent.update(1, 1, 1.0, 1, true, None);
        agent.update(0, 0, 0.0, 1, false, Some(&[false, true]));
        assert!(
            (agent.q_values(0)[0] - 1.0).abs() < 1e-6,
            "bootstrapped through masked action"
        );
    }

    #[test]
    fn solves_chain_env() {
        let mut env = ChainEnv::new(5, 0.0);
        let mut agent = QTableAgent::new(
            env.state_count_public(),
            2,
            QTableConfig {
                alpha: 0.2,
                gamma: 0.95,
                epsilon: EpsilonSchedule::Linear {
                    start: 1.0,
                    end: 0.01,
                    steps: 2_000,
                },
                initial_q: 0.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(11);
        agent.train(&mut env, 300, &mut rng);
        let mean = agent.evaluate(&mut env, 20, &mut rng);
        // Optimal: walk right 4 steps, reward 1.0 at the end.
        assert!(mean > 0.9, "mean greedy return {mean}");
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn invalid_alpha_panics() {
        let _ = QTableAgent::new(
            1,
            1,
            QTableConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
    }
}
