//! Validation environments and the episode loop that drives agents
//! through them.
//!
//! These are not part of the VNF domain: they have known optimal returns,
//! so a regression in backprop, target computation, masking or replay fails
//! the learning tests before it can silently degrade the headline
//! experiments.

use rand::RngCore;

pub mod bandit;
pub mod chain;
pub mod gridworld;
pub mod trainer;

pub use bandit::BanditEnv;
pub use chain::ChainEnv;
pub use gridworld::GridWorld;
pub use trainer::{evaluate_dqn, train_dqn, TrainingHistory};

/// Outcome of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Observation after the transition.
    pub next_state: Vec<f32>,
    /// Scalar reward for the transition.
    pub reward: f32,
    /// Whether the episode terminated with this step.
    pub done: bool,
}

impl StepOutcome {
    /// Convenience constructor.
    pub fn new(next_state: Vec<f32>, reward: f32, done: bool) -> Self {
        Self {
            next_state,
            reward,
            done,
        }
    }
}

/// A discrete-action environment.
///
/// States are dense `f32` feature vectors of fixed dimension; actions are
/// `0..action_count()`. Environments may additionally advertise a per-state
/// *action mask*, the way the VNF manager masks saturated edge nodes.
pub trait Environment {
    /// Dimension of the observation vector.
    fn state_dim(&self) -> usize;

    /// Number of discrete actions.
    fn action_count(&self) -> usize;

    /// Resets the environment and returns the initial observation.
    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f32>;

    /// Applies `action` and returns the transition outcome.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `action >= action_count()` or if the
    /// action is masked out — callers are expected to respect
    /// [`Environment::action_mask`].
    fn step(&mut self, action: usize, rng: &mut dyn RngCore) -> StepOutcome;

    /// Mask of currently valid actions (`true` = allowed).
    ///
    /// Default: all actions valid. Invariant: at least one entry must be
    /// `true` in any non-terminal state.
    fn action_mask(&self) -> Vec<bool> {
        vec![true; self.action_count()]
    }

    /// Optional upper bound on episode length used by trainers; `None`
    /// means the environment terminates on its own.
    fn max_episode_steps(&self) -> Option<usize> {
        None
    }
}
