//! Uniform-sampling ring-buffer replay (the classic DQN buffer).

use super::{Replay, TransitionStore};
use crate::transition::AsTransition;
use rand::Rng;

/// Fixed-capacity ring buffer with uniform random sampling over a
/// [`TransitionStore`], which allocates for what it holds, not for what it
/// may hold.
///
/// # Examples
///
/// ```
/// use rl::replay::{Replay, UniformReplay};
/// use rl::transition::Transition;
/// use rand::SeedableRng;
///
/// let mut buf = UniformReplay::new(2);
/// for i in 0..3 {
///     buf.push(Transition::new(vec![i as f32], 0, 0.0, vec![0.0], false));
/// }
/// assert_eq!(buf.len(), 2); // oldest evicted
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let (mut ids, mut weights) = (Vec::new(), Vec::new());
/// buf.sample_into(2, &mut rng, &mut ids, &mut weights);
/// assert_eq!(ids.len(), 2);
/// assert!(ids.iter().all(|&id| buf.get_ref(id).state[0] >= 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct UniformReplay {
    store: TransitionStore,
}

impl UniformReplay {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self {
            store: TransitionStore::new(capacity),
        }
    }
}

impl Replay for UniformReplay {
    fn push(&mut self, transition: impl AsTransition) {
        self.store.push(transition.view());
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
        indices.clear();
        for _ in 0..batch {
            indices.push(rng.gen_range(0..self.store.len()) as u64);
        }
        weights.clear();
        weights.resize(batch, 1.0);
    }

    fn update_priorities(&mut self, _indices: &[u64], _td_errors: &[f32]) {
        // Uniform replay has no priorities.
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

    #[test]
    fn fills_up_to_capacity() {
        let mut buf = UniformReplay::new(3);
        assert!(buf.is_empty());
        for i in 0..3 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), 3);
    }

    #[test]
    fn evicts_oldest_first() {
        let mut buf = UniformReplay::new(2);
        buf.push(t(0.0));
        buf.push(t(1.0));
        buf.push(t(2.0)); // evicts 0.0
        let stored: Vec<f32> = (0..2).map(|i| buf.get_ref(i).reward).collect();
        assert!(stored.contains(&1.0));
        assert!(stored.contains(&2.0));
        assert!(!stored.contains(&0.0));
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut buf = UniformReplay::new(5);
        for i in 0..100 {
            buf.push(t(i as f32));
            assert!(buf.len() <= 5);
        }
        assert_eq!(buf.store().total_pushed(), 100);
    }

    #[test]
    fn sample_returns_unit_weights() {
        let mut buf = UniformReplay::new(4);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let (mut ids, mut weights) = (Vec::new(), Vec::new());
        buf.sample_into(8, &mut rng, &mut ids, &mut weights);
        assert_eq!(ids.len(), 8);
        assert!(weights.iter().all(|&w| w == 1.0));
    }

    #[test]
    fn sample_covers_buffer_eventually() {
        let mut buf = UniformReplay::new(4);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        let (mut ids, mut weights) = (Vec::new(), Vec::new());
        for _ in 0..50 {
            buf.sample_into(4, &mut rng, &mut ids, &mut weights);
            for &id in &ids {
                seen[buf.get_ref(id).reward as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn storage_grows_with_use() {
        let mut buf = UniformReplay::new(50_000);
        for i in 0..100 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 100);
        // One chunk each of records, states and the side ring (every next
        // state differs from the following state); no masks.
        assert_eq!(buf.store().chunks_allocated(), 3);
    }

    #[test]
    #[should_panic(expected = "empty replay")]
    fn sampling_empty_panics() {
        let mut buf = UniformReplay::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        buf.sample_into(1, &mut rng, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = UniformReplay::new(0);
    }
}
