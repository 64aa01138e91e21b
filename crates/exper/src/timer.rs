//! Decision timing for the cells that keep it. The engine reads no clock,
//! so a cell that reports `mean_decision_time_us` (the scalability figure)
//! runs its policy inside [`DecisionTimer`], which times each `decide` and
//! each `greedy_batch` row and writes the mean into the cell's summary.

use mano::policy::Matrix;
use mano::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;

/// Forwards every [`PlacementPolicy`] method to `inner`, timing `decide`
/// and `greedy_batch` (one decision per batch row).
struct DecisionTimer<'p> {
    inner: &'p mut dyn PlacementPolicy,
    ns: u128,
    decisions: u64,
}

impl PlacementPolicy for DecisionTimer<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        let started = Instant::now();
        let action = self.inner.decide(ctx, rng);
        self.ns += started.elapsed().as_nanos();
        self.decisions += 1;
        action
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.inner.observe(feedback, rng);
    }

    fn supports_greedy_batch(&self) -> bool {
        self.inner.supports_greedy_batch()
    }

    fn greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        let started = Instant::now();
        self.inner.greedy_batch(states, masks, out);
        self.ns += started.elapsed().as_nanos();
        self.decisions += states.rows() as u64;
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }

    fn reads_state(&self) -> bool {
        self.inner.reads_state()
    }

    fn is_learning(&self) -> bool {
        self.inner.is_learning()
    }
}

/// Runs `evaluate` on `policy`. With `keep_decision_time` the policy runs
/// inside a [`DecisionTimer`] and the result's `mean_decision_time_us` is
/// the timer's mean; without it the policy runs bare and the field stays
/// the engine's 0.
pub(crate) fn evaluate_timed(
    policy: &mut dyn PlacementPolicy,
    keep_decision_time: bool,
    evaluate: impl FnOnce(&mut dyn PlacementPolicy) -> PolicyResult,
) -> PolicyResult {
    if !keep_decision_time {
        return evaluate(policy);
    }
    let mut timer = DecisionTimer {
        inner: policy,
        ns: 0,
        decisions: 0,
    };
    let mut result = evaluate(&mut timer);
    if timer.decisions > 0 {
        result.summary.mean_decision_time_us = timer.ns as f64 / timer.decisions as f64 / 1000.0;
    }
    result
}
