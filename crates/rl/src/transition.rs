//! Experience transitions stored by replay buffers.

/// One `(s, a, r, s', done)` experience tuple, plus the action mask that
/// applies in `s'` so that bootstrapped targets never flow through invalid
/// actions.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Observation before the action.
    pub state: Vec<f32>,
    /// Action taken.
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// Observation after the action.
    pub next_state: Vec<f32>,
    /// Whether the episode ended with this transition.
    pub done: bool,
    /// Valid-action mask in `next_state`; empty means "all valid".
    pub next_mask: Vec<bool>,
}

impl Transition {
    /// Creates a transition with an all-valid next-state mask.
    pub fn new(
        state: Vec<f32>,
        action: usize,
        reward: f32,
        next_state: Vec<f32>,
        done: bool,
    ) -> Self {
        Self {
            state,
            action,
            reward,
            next_state,
            done,
            next_mask: Vec::new(),
        }
    }

    /// Creates a transition carrying an explicit next-state action mask.
    pub fn with_mask(
        state: Vec<f32>,
        action: usize,
        reward: f32,
        next_state: Vec<f32>,
        done: bool,
        next_mask: Vec<bool>,
    ) -> Self {
        Self {
            state,
            action,
            reward,
            next_state,
            done,
            next_mask,
        }
    }

    /// The next-state mask as a slice, or `None` when all actions are valid.
    pub fn next_mask(&self) -> Option<&[bool]> {
        if self.next_mask.is_empty() {
            None
        } else {
            Some(&self.next_mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask_means_all_valid() {
        let t = Transition::new(vec![0.0], 1, 0.5, vec![1.0], false);
        assert!(t.next_mask().is_none());
    }

    #[test]
    fn explicit_mask_round_trips() {
        let t = Transition::with_mask(vec![0.0], 0, 1.0, vec![1.0], true, vec![true, false]);
        assert_eq!(t.next_mask(), Some(&[true, false][..]));
    }
}
