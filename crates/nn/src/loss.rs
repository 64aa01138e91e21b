//! The DQN's temporal-difference loss, returning the scalar loss and the
//! gradient with respect to the prediction.
//!
//! DQN training regresses only the Q-value of the *taken* action, so loss
//! and gradient are computed on one selected column per row, leaving every
//! other entry with zero gradient.

use crate::tensor::Matrix;

/// Loss function selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loss {
    /// Huber loss with the given `delta`; quadratic near zero, linear in the
    /// tails. The standard DQN choice (`delta = 1.0`) — bounds gradient
    /// magnitude against outlier TD errors.
    Huber(f32),
}

impl Loss {
    /// Loss and gradient on one selected column per row, the gradient
    /// written into a caller-owned buffer (allocation-free once the buffer
    /// is warm). Returns the loss.
    ///
    /// `selected[r]` is the column of row `r` that participates; all other
    /// entries of the gradient are zero. `targets[r]` is the regression
    /// target for that entry. This is exactly the DQN update, where the
    /// selected column is the action taken in the transition. The gradient
    /// is normalized by the number of rows (batch size) so that learning
    /// rates are batch-size independent.
    ///
    /// Optional `weights` (importance-sampling weights from prioritized
    /// replay) scale each row's loss and gradient.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the batch size, a column index is out
    /// of range, or the batch is empty.
    pub fn evaluate_selected_into(
        self,
        prediction: &Matrix,
        selected: &[usize],
        targets: &[f32],
        weights: Option<&[f32]>,
        grad: &mut Matrix,
    ) -> f32 {
        let n = prediction.rows();
        assert!(n > 0, "loss on empty batch");
        assert_eq!(selected.len(), n, "selected length must equal batch size");
        assert_eq!(targets.len(), n, "targets length must equal batch size");
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "weights length must equal batch size");
        }
        let mut total = 0.0f64;
        grad.reset_zeroed(n, prediction.cols());
        for r in 0..n {
            let c = selected[r];
            assert!(
                c < prediction.cols(),
                "selected column {c} out of range in row {r}"
            );
            let w = weights.map_or(1.0, |w| w[r]);
            let e = prediction.get(r, c) - targets[r];
            let (l, g) = self.pointwise(e);
            total += (w * l) as f64;
            grad.set(r, c, w * g / n as f32);
        }
        (total / n as f64) as f32
    }

    /// Per-element loss value and dL/de for error `e = pred - target`.
    #[inline]
    pub fn pointwise(self, e: f32) -> (f32, f32) {
        let Loss::Huber(delta) = self;
        debug_assert!(delta > 0.0, "huber delta must be positive");
        if e.abs() <= delta {
            (0.5 * e * e, e)
        } else {
            (delta * (e.abs() - 0.5 * delta), delta * e.signum())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The selected-output Huber(1.0) gradient of `prediction`.
    fn grad(
        prediction: &Matrix,
        selected: &[usize],
        targets: &[f32],
        weights: Option<&[f32]>,
    ) -> (f32, Matrix) {
        let mut grad = Matrix::default();
        let l = Loss::Huber(1.0)
            .evaluate_selected_into(prediction, selected, targets, weights, &mut grad);
        (l, grad)
    }

    #[test]
    fn huber_matches_mse_inside_delta() {
        // Inside δ the loss is the squared error's half and its gradient the
        // error itself.
        let (l, g) = Loss::Huber(1.0).pointwise(0.5);
        assert_eq!(l, 0.5 * 0.5 * 0.5);
        assert_eq!(g, 0.5);
    }

    #[test]
    fn huber_gradient_is_clipped_outside_delta() {
        let (_, g) = Loss::Huber(1.0).pointwise(10.0);
        assert_eq!(g, 1.0);
        let (_, g) = Loss::Huber(1.0).pointwise(-10.0);
        assert_eq!(g, -1.0);
    }

    #[test]
    fn huber_is_continuous_at_delta() {
        let delta = 1.0;
        let (inside, _) = Loss::Huber(delta).pointwise(delta - 1e-4);
        let (outside, _) = Loss::Huber(delta).pointwise(delta + 1e-4);
        assert!((inside - outside).abs() < 1e-3);
    }

    #[test]
    fn selected_loss_only_grads_chosen_column() {
        let p = Matrix::from_rows(&[&[1.0, 5.0, 3.0], &[2.0, 0.0, -1.0]]);
        let (_, grad) = grad(&p, &[1, 2], &[4.0, 0.0], None);
        // Row 0: only column 1 non-zero; row 1: only column 2 non-zero.
        assert_eq!(grad.get(0, 0), 0.0);
        assert!(grad.get(0, 1) != 0.0);
        assert_eq!(grad.get(0, 2), 0.0);
        assert_eq!(grad.get(1, 0), 0.0);
        assert_eq!(grad.get(1, 1), 0.0);
        assert!(grad.get(1, 2) != 0.0);
    }

    #[test]
    fn selected_loss_batch_normalization() {
        // Two identical rows should give same loss as one row.
        let p1 = Matrix::from_rows(&[&[2.0, 0.0]]);
        let p2 = Matrix::from_rows(&[&[2.0, 0.0], &[2.0, 0.0]]);
        let (l1, _) = grad(&p1, &[0], &[0.0], None);
        let (l2, _) = grad(&p2, &[0, 0], &[0.0, 0.0], None);
        assert!((l1 - l2).abs() < 1e-6);
    }

    #[test]
    fn importance_weights_scale_gradient() {
        let p = Matrix::from_rows(&[&[2.0]]);
        let (_, g_unweighted) = grad(&p, &[0], &[0.0], None);
        let (_, g_weighted) = grad(&p, &[0], &[0.0], Some(&[0.5]));
        assert!((g_weighted.get(0, 0) - 0.5 * g_unweighted.get(0, 0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "must equal batch size")]
    fn shape_mismatch_panics() {
        let _ = grad(&Matrix::zeros(2, 1), &[0, 0], &[0.0], None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn selected_column_out_of_range_panics() {
        let p = Matrix::zeros(1, 2);
        let _ = grad(&p, &[5], &[0.0], None);
    }
}
