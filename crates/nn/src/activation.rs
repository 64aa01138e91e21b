//! Element-wise activation functions and their derivatives.

use crate::tensor::Matrix;

/// An element-wise activation function.
///
/// Derivatives are expressed in terms of the *pre-activation* input `z`,
/// which is what the MLP caches during the forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Activation {
    /// `f(z) = z` — used on output layers (Q-values are unbounded).
    Identity,
    /// `f(z) = max(0, z)`.
    #[default]
    Relu,
}

impl Activation {
    /// Applies the activation to one scalar — the same expression per
    /// variant as [`Activation::apply_into`], so fused kernels built on it
    /// are bit-identical to the unfused pass.
    #[inline]
    pub fn apply_scalar(self, v: f32) -> f32 {
        match self {
            Activation::Identity => v,
            Activation::Relu => {
                if v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
        }
    }

    /// Applies the activation into `out`, reusing `out`'s allocation and
    /// leaving the pre-activation `z` intact (the training forward pass
    /// needs both). Fused single pass: `f(z)` writes straight into `out`
    /// instead of copy-then-transform.
    pub fn apply_into(self, z: &Matrix, out: &mut Matrix) {
        out.reset_for_overwrite(z.rows(), z.cols());
        let zs = z.as_slice();
        let os = out.as_mut_slice();
        match self {
            Activation::Identity => os.copy_from_slice(zs),
            Activation::Relu => {
                for (o, &v) in os.iter_mut().zip(zs.iter()) {
                    *o = if v > 0.0 { v } else { 0.0 };
                }
            }
        }
    }

    /// Writes `upstream ⊙ f'(z)` into `out` — the fused first step of the
    /// backward pass, replacing the old materialize-derivative-then-hadamard
    /// pair. Each element computes the identical `upstream * f'(z)` product,
    /// so results are bit-identical to the two-step form.
    ///
    /// # Panics
    ///
    /// Panics if `z` and `upstream` shapes differ.
    pub fn derivative_mul_into(self, z: &Matrix, upstream: &Matrix, out: &mut Matrix) {
        assert_eq!(
            z.shape(),
            upstream.shape(),
            "derivative_mul_into shape mismatch"
        );
        out.reset_for_overwrite(z.rows(), z.cols());
        let zs = z.as_slice();
        let us = upstream.as_slice();
        let os = out.as_mut_slice();
        match self {
            Activation::Identity => {
                for (o, &u) in os.iter_mut().zip(us.iter()) {
                    *o = u * 1.0;
                }
            }
            Activation::Relu => {
                for ((o, &u), &zv) in os.iter_mut().zip(us.iter()).zip(zs.iter()) {
                    *o = u * if zv > 0.0 { 1.0 } else { 0.0 };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let z = Matrix::row_vector(&[-2.0, 0.0, 3.0]);
        let mut out = Matrix::default();
        Activation::Relu.apply_into(&z, &mut out);
        assert_eq!(out, Matrix::row_vector(&[0.0, 0.0, 3.0]));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        // Away from the ReLU kink at 0, where the derivative is undefined.
        let eps = 1e-3f32;
        for (act, points) in [
            (Activation::Identity, &[-1.0f32, 0.5, 2.0][..]),
            (Activation::Relu, &[-1.5, -0.3, 0.4, 2.0][..]),
        ] {
            for &p in points {
                let mut analytic = Matrix::default();
                let (z, one) = (Matrix::row_vector(&[p]), Matrix::row_vector(&[1.0]));
                act.derivative_mul_into(&z, &one, &mut analytic);
                let numeric = (act.apply_scalar(p + eps) - act.apply_scalar(p - eps)) / (2.0 * eps);
                assert!(
                    (analytic.get(0, 0) - numeric).abs() < 1e-2,
                    "{act:?}: derivative at {p} analytic={} numeric={numeric}",
                    analytic.get(0, 0)
                );
            }
        }
    }

    #[test]
    fn identity_derivative_is_one() {
        let z = Matrix::row_vector(&[5.0, -5.0]);
        let ones = Matrix::row_vector(&[1.0, 1.0]);
        let mut out = Matrix::default();
        Activation::Identity.derivative_mul_into(&z, &ones, &mut out);
        assert_eq!(out, ones);
    }
}
