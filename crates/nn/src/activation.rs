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
    /// `f(z) = max(alpha * z, z)` for small positive `alpha`.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation element-wise.
    pub fn apply(self, z: &Matrix) -> Matrix {
        match self {
            Activation::Identity => z.clone(),
            Activation::Relu => z.map(|v| if v > 0.0 { v } else { 0.0 }),
            Activation::LeakyRelu(alpha) => z.map(move |v| if v > 0.0 { v } else { alpha * v }),
            Activation::Tanh => z.map(f32::tanh),
            Activation::Sigmoid => z.map(sigmoid),
        }
    }

    /// Applies the activation to one scalar — the same expression per
    /// variant as the matrix forms, so fused kernels built on it are
    /// bit-identical to `apply`/`apply_assign`.
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
            Activation::LeakyRelu(alpha) => {
                if v > 0.0 {
                    v
                } else {
                    alpha * v
                }
            }
            Activation::Tanh => v.tanh(),
            Activation::Sigmoid => sigmoid(v),
        }
    }

    /// Applies the activation element-wise in place (no allocation).
    pub fn apply_assign(self, z: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => z.map_assign(|v| if v > 0.0 { v } else { 0.0 }),
            Activation::LeakyRelu(alpha) => {
                z.map_assign(move |v| if v > 0.0 { v } else { alpha * v })
            }
            Activation::Tanh => z.map_assign(f32::tanh),
            Activation::Sigmoid => z.map_assign(sigmoid),
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
            Activation::LeakyRelu(alpha) => {
                for (o, &v) in os.iter_mut().zip(zs.iter()) {
                    *o = if v > 0.0 { v } else { alpha * v };
                }
            }
            Activation::Tanh => {
                for (o, &v) in os.iter_mut().zip(zs.iter()) {
                    *o = v.tanh();
                }
            }
            Activation::Sigmoid => {
                for (o, &v) in os.iter_mut().zip(zs.iter()) {
                    *o = sigmoid(v);
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
            Activation::LeakyRelu(alpha) => {
                for ((o, &u), &zv) in os.iter_mut().zip(us.iter()).zip(zs.iter()) {
                    *o = u * if zv > 0.0 { 1.0 } else { alpha };
                }
            }
            Activation::Tanh => {
                for ((o, &u), &zv) in os.iter_mut().zip(us.iter()).zip(zs.iter()) {
                    let t = zv.tanh();
                    *o = u * (1.0 - t * t);
                }
            }
            Activation::Sigmoid => {
                for ((o, &u), &zv) in os.iter_mut().zip(us.iter()).zip(zs.iter()) {
                    let s = sigmoid(zv);
                    *o = u * (s * (1.0 - s));
                }
            }
        }
    }

    /// Derivative `f'(z)` element-wise, given the pre-activation `z`.
    pub fn derivative(self, z: &Matrix) -> Matrix {
        match self {
            Activation::Identity => Matrix::full(z.rows(), z.cols(), 1.0),
            Activation::Relu => z.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::LeakyRelu(alpha) => z.map(move |v| if v > 0.0 { 1.0 } else { alpha }),
            Activation::Tanh => z.map(|v| {
                let t = v.tanh();
                1.0 - t * t
            }),
            Activation::Sigmoid => z.map(|v| {
                let s = sigmoid(v);
                s * (1.0 - s)
            }),
        }
    }

    /// Short lowercase name (used in config summaries).
    pub fn name(self) -> &'static str {
        match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::LeakyRelu(_) => "leaky_relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
        }
    }
}

#[inline]
fn sigmoid(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        // Numerically stable branch for large negative v.
        let e = v.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_derivative_numerically(act: Activation, points: &[f32]) {
        let eps = 1e-3f32;
        for &p in points {
            let z = Matrix::row_vector(&[p]);
            let analytic = act.derivative(&z).get(0, 0);
            let plus = act.apply(&Matrix::row_vector(&[p + eps])).get(0, 0);
            let minus = act.apply(&Matrix::row_vector(&[p - eps])).get(0, 0);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "{}: derivative at {p} analytic={analytic} numeric={numeric}",
                act.name()
            );
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let z = Matrix::row_vector(&[-2.0, 0.0, 3.0]);
        assert_eq!(
            Activation::Relu.apply(&z),
            Matrix::row_vector(&[0.0, 0.0, 3.0])
        );
    }

    #[test]
    fn leaky_relu_keeps_small_slope() {
        let z = Matrix::row_vector(&[-10.0, 10.0]);
        let out = Activation::LeakyRelu(0.01).apply(&z);
        assert!((out.get(0, 0) + 0.1).abs() < 1e-6);
        assert!((out.get(0, 1) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_saturates_and_is_stable() {
        let z = Matrix::row_vector(&[-100.0, 0.0, 100.0]);
        let out = Activation::Sigmoid.apply(&z);
        assert!(out.get(0, 0) < 1e-6);
        assert!((out.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(out.get(0, 2) > 1.0 - 1e-6);
        assert!(!out.has_non_finite());
    }

    #[test]
    fn tanh_is_odd() {
        let z = Matrix::row_vector(&[1.3]);
        let nz = Matrix::row_vector(&[-1.3]);
        let a = Activation::Tanh.apply(&z).get(0, 0);
        let b = Activation::Tanh.apply(&nz).get(0, 0);
        assert!((a + b).abs() < 1e-6);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        // Avoid the ReLU kink at 0 where the derivative is undefined.
        check_derivative_numerically(Activation::Identity, &[-1.0, 0.5, 2.0]);
        check_derivative_numerically(Activation::Relu, &[-1.5, -0.3, 0.4, 2.0]);
        check_derivative_numerically(Activation::LeakyRelu(0.05), &[-1.5, 0.7]);
        check_derivative_numerically(Activation::Tanh, &[-2.0, -0.1, 0.0, 1.0]);
        check_derivative_numerically(Activation::Sigmoid, &[-3.0, 0.0, 3.0]);
    }

    #[test]
    fn identity_derivative_is_one() {
        let z = Matrix::row_vector(&[5.0, -5.0]);
        assert_eq!(
            Activation::Identity.derivative(&z),
            Matrix::row_vector(&[1.0, 1.0])
        );
    }
}
