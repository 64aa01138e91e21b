//! Experience replay buffers.
//!
//! Two samplers, matching the DQN lineage, over one storage,
//! [`TransitionStore`]:
//!
//! * [`UniformReplay`] — the original DQN ring buffer with uniform sampling.
//! * [`PrioritizedReplay`] — proportional prioritized experience replay
//!   (Schaul et al. 2016) backed by a [`sumtree::SumTree`], with
//!   importance-sampling weight correction.

pub mod prioritized;
pub mod store;
pub mod sumtree;
pub mod uniform;

pub use prioritized::{PerConfig, PrioritizedReplay};
pub use store::{TransitionStore, CHUNK_ROWS};
pub use uniform::UniformReplay;

use crate::transition::{AsTransition, TransitionRef};
use rand::Rng;

/// Common interface over replay buffers for code that is generic in the
/// replay strategy (the DQN agent).
pub trait Replay {
    /// Copies a transition in, evicting the oldest when full.
    fn push(&mut self, transition: impl AsTransition);

    /// The transitions, stored.
    fn store(&self) -> &TransitionStore;

    /// Number of stored transitions.
    fn len(&self) -> usize {
        self.store().len()
    }

    /// Whether the buffer is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum capacity.
    fn capacity(&self) -> usize {
        self.store().capacity()
    }

    /// Samples `batch` transition ids into caller-owned buffers (cleared
    /// first), with their importance-sampling weights (all `1.0` for
    /// uniform replay). Callers read the sampled transitions in place via
    /// [`Replay::get_ref`]; nothing is cloned out.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty or `batch == 0`.
    fn sample_into<R: Rng + ?Sized>(
        &mut self,
        batch: usize,
        rng: &mut R,
        indices: &mut Vec<u64>,
        weights: &mut Vec<f32>,
    );

    /// Borrowed view of the transition behind a sampled id (a terminal
    /// one reads back with an empty next state).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to an occupied slot.
    fn get_ref(&self, id: u64) -> TransitionRef<'_> {
        self.store().get(id as usize)
    }

    /// Reports new TD-error magnitudes for previously sampled indices
    /// (no-op for uniform replay).
    fn update_priorities(&mut self, indices: &[u64], td_errors: &[f32]);
}
