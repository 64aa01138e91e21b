//! Proportional prioritized experience replay (Schaul et al., 2016).

use super::sumtree::SumTree;
use super::{Replay, TransitionStore};
use crate::transition::AsTransition;
use rand::Rng;

/// Hyperparameters for prioritized replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerConfig {
    /// Priority exponent `α` — 0 is uniform, 1 is fully proportional.
    pub alpha: f32,
    /// Initial importance-sampling exponent `β`; annealed to 1.
    pub beta0: f32,
    /// Number of `sample_into` calls over which `β` anneals from `beta0`
    /// to 1.
    pub beta_anneal_steps: u64,
    /// Small constant added to TD error magnitudes so no priority is zero.
    pub priority_eps: f32,
}

impl Default for PerConfig {
    fn default() -> Self {
        Self {
            alpha: 0.6,
            beta0: 0.4,
            beta_anneal_steps: 100_000,
            priority_eps: 1e-3,
        }
    }
}

impl PerConfig {
    /// Validates the hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.alpha), "alpha must be in [0,1]");
        assert!((0.0..=1.0).contains(&self.beta0), "beta0 must be in [0,1]");
        assert!(self.priority_eps > 0.0, "priority_eps must be positive");
    }
}

/// Priority-proportional replay buffer with IS-weight correction.
///
/// New transitions enter with the current maximum priority so everything is
/// replayed at least once; priorities are subsequently refreshed from TD
/// errors via [`Replay::update_priorities`]. The transitions live in a
/// [`TransitionStore`], which grows with use up to `capacity`; the sum tree
/// is sized for `capacity` up front, leaf `i` for the store's slot `i`.
#[derive(Debug, Clone)]
pub struct PrioritizedReplay {
    store: TransitionStore,
    tree: SumTree,
    config: PerConfig,
    sample_calls: u64,
}

impl PrioritizedReplay {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the config is invalid.
    pub fn new(capacity: usize, config: PerConfig) -> Self {
        let store = TransitionStore::new(capacity);
        config.validate();
        Self {
            store,
            tree: SumTree::new(capacity),
            config,
            sample_calls: 0,
        }
    }

    /// The configured hyperparameters.
    pub fn config(&self) -> PerConfig {
        self.config
    }

    /// Current annealed `β`.
    pub fn beta(&self) -> f32 {
        let steps = self.config.beta_anneal_steps.max(1) as f32;
        let progress = (self.sample_calls as f32 / steps).min(1.0);
        self.config.beta0 + (1.0 - self.config.beta0) * progress
    }

    fn priority_from_td(&self, td: f32) -> f32 {
        (td.abs() + self.config.priority_eps).powf(self.config.alpha)
    }
}

impl Replay for PrioritizedReplay {
    fn push(&mut self, transition: impl AsTransition) {
        // New samples get max priority so they are seen at least once.
        let p = self.tree.max_priority().max(self.priority_from_td(0.0));
        let slot = self.store.push(transition.view());
        self.tree.set(slot, p);
    }

    fn store(&self) -> &TransitionStore {
        &self.store
    }

    fn sample_into<R: Rng + ?Sized>(
        &mut self,
        batch: usize,
        rng: &mut R,
        indices: &mut Vec<u64>,
        weights: &mut Vec<f32>,
    ) {
        assert!(batch > 0, "batch size must be positive");
        assert!(
            !self.store.is_empty(),
            "cannot sample from an empty replay buffer"
        );
        self.sample_calls += 1;
        let beta = self.beta();
        let total = self.tree.total();
        indices.clear();
        weights.clear();

        // Stratified sampling: one draw per equal-mass segment.
        let segment = total / batch as f64;
        let n = self.store.len() as f32;
        let mut max_w = 0.0f32;
        for k in 0..batch {
            let lo = segment * k as f64;
            let v = lo + rng.gen::<f64>() * segment;
            let idx = self.tree.find_prefix(v);
            let p = self.tree.get(idx) as f64 / total;
            // w_i = (N * P(i))^-β, normalized later by max w.
            let w = ((n as f64 * p).max(1e-12) as f32).powf(-beta);
            indices.push(idx as u64);
            weights.push(w);
            max_w = max_w.max(w);
            debug_assert!(
                idx < self.store.len(),
                "sum-tree sampled an empty slot — priority/storage desync"
            );
        }
        if max_w > 0.0 {
            for w in weights.iter_mut() {
                *w /= max_w;
            }
        }
    }

    fn update_priorities(&mut self, indices: &[u64], td_errors: &[f32]) {
        assert_eq!(
            indices.len(),
            td_errors.len(),
            "indices/td_errors length mismatch"
        );
        for (&i, &td) in indices.iter().zip(td_errors.iter()) {
            let idx = i as usize;
            if idx < self.store.len() {
                let p = self.priority_from_td(td);
                self.tree.set(idx, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::Transition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(v: f32) -> Transition {
        Transition::new(vec![v], 0, v, vec![v], false)
    }

    fn buf(capacity: usize) -> PrioritizedReplay {
        PrioritizedReplay::new(capacity, PerConfig::default())
    }

    #[test]
    fn push_and_len() {
        let mut b = buf(3);
        assert!(b.is_empty());
        b.push(t(1.0));
        b.push(t(2.0));
        assert_eq!(b.len(), 2);
        b.push(t(3.0));
        b.push(t(4.0)); // wraps
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn new_samples_get_max_priority() {
        let mut b = buf(4);
        b.push(t(0.0));
        b.update_priorities(&[0], &[10.0]); // big priority on slot 0
        let p0 = b.tree.get(0);
        b.push(t(1.0));
        // Newly pushed slot 1 should match the max (slot 0's) priority.
        assert!((b.tree.get(1) - p0).abs() < 1e-5);
    }

    #[test]
    fn high_priority_items_sampled_more() {
        let mut b = buf(2);
        b.push(t(0.0)); // slot 0
        b.push(t(1.0)); // slot 1
        b.update_priorities(&[0, 1], &[0.0, 10.0]);
        let mut rng = StdRng::seed_from_u64(9);
        let mut count1 = 0;
        let draws = 2000;
        let (mut ids, mut weights) = (Vec::new(), Vec::new());
        for _ in 0..draws {
            b.sample_into(1, &mut rng, &mut ids, &mut weights);
            if b.get_ref(ids[0]).reward == 1.0 {
                count1 += 1;
            }
        }
        // Priority ratio ≈ (10+eps)^0.6 : (0+eps)^0.6 — heavily favors slot 1.
        assert!(count1 as f64 / draws as f64 > 0.9, "count1 = {count1}");
    }

    #[test]
    fn weights_penalize_frequent_samples() {
        let mut b = buf(2);
        b.push(t(0.0));
        b.push(t(1.0));
        b.update_priorities(&[0, 1], &[0.1, 10.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let (mut ids, mut weights) = (Vec::new(), Vec::new());
        b.sample_into(32, &mut rng, &mut ids, &mut weights);
        // The high-priority item must carry a smaller IS weight.
        let mut w_high: Option<f32> = None;
        let mut w_low: Option<f32> = None;
        for (&id, &w) in ids.iter().zip(weights.iter()) {
            if b.get_ref(id).reward == 1.0 {
                w_high = Some(w);
            } else {
                w_low = Some(w);
            }
        }
        if let (Some(h), Some(l)) = (w_high, w_low) {
            assert!(
                h < l,
                "high-priority weight {h} should be < low-priority weight {l}"
            );
        }
        // All weights normalized to (0, 1].
        assert!(weights.iter().all(|&w| w > 0.0 && w <= 1.0 + 1e-6));
    }

    #[test]
    fn beta_anneals_to_one() {
        let mut b = PrioritizedReplay::new(
            2,
            PerConfig {
                beta_anneal_steps: 10,
                ..PerConfig::default()
            },
        );
        b.push(t(0.0));
        let mut rng = StdRng::seed_from_u64(0);
        assert!((b.beta() - 0.4).abs() < 1e-6);
        let (mut ids, mut weights) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            b.sample_into(1, &mut rng, &mut ids, &mut weights);
        }
        assert!((b.beta() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn update_priorities_ignores_stale_indices() {
        let mut b = buf(2);
        b.push(t(0.0));
        // Index 1 not yet occupied; must not panic.
        b.update_priorities(&[1, 99], &[1.0, 1.0]);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let mut b = PrioritizedReplay::new(
            2,
            PerConfig {
                alpha: 0.0,
                ..PerConfig::default()
            },
        );
        b.push(t(0.0));
        b.push(t(1.0));
        b.update_priorities(&[0, 1], &[0.0, 100.0]);
        // With α=0 both priorities are (|td|+eps)^0 = 1.
        assert!((b.tree.get(0) - b.tree.get(1)).abs() < 1e-6);
    }

    #[test]
    fn storage_grows_with_use() {
        let mut b = buf(50_000);
        for i in 0..100 {
            b.push(t(i as f32));
        }
        assert_eq!(b.len(), 100);
        // One chunk each of records, states and the side ring; no masks.
        assert_eq!(b.store().chunks_allocated(), 3);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn invalid_alpha_panics() {
        let _ = PrioritizedReplay::new(
            2,
            PerConfig {
                alpha: 2.0,
                ..PerConfig::default()
            },
        );
    }
}
