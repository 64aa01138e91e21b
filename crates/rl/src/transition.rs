//! Experience transitions: the borrowed form a replay stores from and
//! hands out, and the owned form tests build.

/// One `(s, a, r, s', done)` experience tuple, plus the action mask that
/// applies in `s'` so that bootstrapped targets never flow through invalid
/// actions. The owned form: replays store from and hand out the borrowed
/// [`TransitionRef`], and never hold one of these.
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
}

/// A transition over borrowed buffers: what [`Replay::push`] copies from
/// and [`Replay::get_ref`] returns. A replay stores no next state for a
/// terminal transition (nothing bootstraps from it), so a stored terminal
/// transition reads back with an empty `next_state`.
///
/// [`Replay::push`]: crate::replay::Replay::push
/// [`Replay::get_ref`]: crate::replay::Replay::get_ref
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionRef<'a> {
    /// Observation before the action.
    pub state: &'a [f32],
    /// Action taken.
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// Observation after the action.
    pub next_state: &'a [f32],
    /// Whether the episode ended with this transition.
    pub done: bool,
    /// Valid-action mask in `next_state`; empty means "all valid".
    pub next_mask: &'a [bool],
}

impl<'a> TransitionRef<'a> {
    /// The next-state mask as a slice, or `None` when all actions are valid.
    pub fn next_mask(&self) -> Option<&'a [bool]> {
        if self.next_mask.is_empty() {
            None
        } else {
            Some(self.next_mask)
        }
    }
}

impl From<TransitionRef<'_>> for Transition {
    fn from(t: TransitionRef<'_>) -> Self {
        Transition::with_mask(
            t.state.to_vec(),
            t.action,
            t.reward,
            t.next_state.to_vec(),
            t.done,
            t.next_mask.to_vec(),
        )
    }
}

/// What a replay stores from: an owned [`Transition`] or a borrowed
/// [`TransitionRef`], both read through one borrowed view, so a caller
/// holding its buffers elsewhere stores them without cloning.
pub trait AsTransition {
    /// The transition as borrowed slices.
    fn view(&self) -> TransitionRef<'_>;
}

impl AsTransition for Transition {
    fn view(&self) -> TransitionRef<'_> {
        TransitionRef {
            state: &self.state,
            action: self.action,
            reward: self.reward,
            next_state: &self.next_state,
            done: self.done,
            next_mask: &self.next_mask,
        }
    }
}

impl AsTransition for TransitionRef<'_> {
    fn view(&self) -> TransitionRef<'_> {
        *self
    }
}

impl<T: AsTransition + ?Sized> AsTransition for &T {
    fn view(&self) -> TransitionRef<'_> {
        (**self).view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask_means_all_valid() {
        let t = Transition::new(vec![0.0], 1, 0.5, vec![1.0], false);
        assert!(t.view().next_mask().is_none());
    }

    #[test]
    fn explicit_mask_round_trips() {
        let t = Transition::with_mask(vec![0.0], 0, 1.0, vec![1.0], true, vec![true, false]);
        assert_eq!(t.view().next_mask(), Some(&[true, false][..]));
        assert_eq!(Transition::from(t.view()), t);
    }
}
