//! A contextual bandit: one-step episodes where the best action depends on
//! the context bit. Catches agents that ignore their input.

use super::{Environment, StepOutcome};
use rand::{Rng, RngCore};

/// Two-context, `k`-armed bandit. In context `c`, arm `c % k` pays `1.0`;
/// all other arms pay `0.0`. Episodes are a single step.
#[derive(Debug, Clone)]
pub struct BanditEnv {
    arms: usize,
    context: usize,
    contexts: usize,
}

impl BanditEnv {
    /// Creates a bandit with `arms >= 2` arms and `contexts >= 1` contexts.
    ///
    /// # Panics
    ///
    /// Panics if `arms < 2` or `contexts == 0`.
    pub fn new(arms: usize, contexts: usize) -> Self {
        assert!(arms >= 2, "bandit needs at least 2 arms");
        assert!(contexts >= 1, "bandit needs at least 1 context");
        Self {
            arms,
            context: 0,
            contexts,
        }
    }

    /// The optimal arm for the current context.
    pub fn optimal_arm(&self) -> usize {
        self.context % self.arms
    }

    fn observe(&self) -> Vec<f32> {
        let mut v = vec![0.0; self.contexts];
        v[self.context] = 1.0;
        v
    }
}

impl Environment for BanditEnv {
    fn state_dim(&self) -> usize {
        self.contexts
    }

    fn action_count(&self) -> usize {
        self.arms
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f32> {
        self.context = (rng.next_u32() as usize) % self.contexts;
        self.observe()
    }

    fn step(&mut self, action: usize, rng: &mut dyn RngCore) -> StepOutcome {
        assert!(action < self.arms, "bandit arm out of range");
        let reward = if action == self.optimal_arm() {
            1.0
        } else {
            0.0
        };
        // Draw next context for the returned observation; episode ends.
        self.context = rng.gen_range(0..self.contexts);
        StepOutcome::new(self.observe(), reward, true)
    }

    fn max_episode_steps(&self) -> Option<usize> {
        Some(1)
    }
}

mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn optimal_arm_pays_one() {
        let mut env = BanditEnv::new(3, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = env.reset(&mut rng);
        let best = env.optimal_arm();
        let out = env.step(best, &mut rng);
        assert_eq!(out.reward, 1.0);
        assert!(out.done);
    }

    #[test]
    fn suboptimal_arm_pays_zero() {
        let mut env = BanditEnv::new(3, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = env.reset(&mut rng);
        let bad = (env.optimal_arm() + 1) % 3;
        assert_eq!(env.step(bad, &mut rng).reward, 0.0);
    }

    #[test]
    fn contexts_vary_across_resets() {
        let mut env = BanditEnv::new(2, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let obs = env.reset(&mut rng);
            seen.insert(obs.iter().position(|&v| v == 1.0).unwrap());
        }
        assert!(seen.len() >= 3, "contexts seen: {seen:?}");
    }
}
