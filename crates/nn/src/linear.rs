//! Fully-connected (dense) layer with cached forward pass for backprop.

use crate::activation::Activation;
use crate::tensor::Matrix;
use rand::Rng;

/// A dense layer computing `a = act(x · W + b)`.
///
/// `W` is `in_dim x out_dim`, `b` is `1 x out_dim`, and inputs are batched
/// row-wise (`batch x in_dim`).
///
/// All per-call tensors of the training loop — the forward cache, the
/// gradient accumulators, and the backward intermediates — live in
/// long-lived buffers owned by the layer, so a steady-state
/// forward/backward/update cycle performs no heap allocation.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
    /// Gradient accumulators, same shape as the parameters. Allocated once
    /// at construction and never dropped; their contents mean something
    /// only while `has_grads` is set (see [`Dense::settle_grads`]).
    grad_weights: Matrix,
    grad_bias: Matrix,
    /// Whether the accumulators hold gradients from a backward pass.
    has_grads: bool,
    /// Persistent forward tensors (transposed input and pre-activation),
    /// overwritten in place by every [`Dense::forward_train_into`].
    cache: ForwardCache,
    /// Whether `cache` holds tensors a backward pass may consume.
    cache_armed: bool,
    /// Backward-pass intermediates, reused across calls.
    scratch: BackwardScratch,
}

#[derive(Debug, Clone, Default)]
struct ForwardCache {
    /// The layer input, stored transposed (`in_dim x batch`): its only
    /// reader is dL/dW = xᵀ · dL/dz, which then runs on the row-streaming
    /// matmul kernel with no further copy.
    input_t: Matrix,
    pre_activation: Matrix,
}

#[derive(Debug, Clone, Default)]
struct BackwardScratch {
    grad_z: Matrix,
    /// Transposed weights, re-materialized per backward pass: `grad · Wᵀ`
    /// through the row-streaming matmul kernel beats the dot-product form
    /// by far, and the accumulation order (ascending `k`) is unchanged.
    w_t: Matrix,
}

impl Dense {
    /// Creates a layer with He-uniform weights (every weight drawn from
    /// `[-limit, limit]`, `limit = sqrt(6 / in_dim)`, row by row) and a
    /// zero bias: the initialization of every network the system trains.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let limit = (6.0 / in_dim as f32).sqrt();
        let weights = Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-limit..=limit));
        Self::from_parameters(weights, Matrix::zeros(1, out_dim), activation)
    }

    /// Creates a layer from explicit parameters (used by tests and loaders).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x weights.cols()`.
    pub fn from_parameters(weights: Matrix, bias: Matrix, activation: Activation) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(
            bias.cols(),
            weights.cols(),
            "bias width must match weight columns"
        );
        let grad_weights = Matrix::zeros(weights.rows(), weights.cols());
        let grad_bias = Matrix::zeros(1, bias.cols());
        Self {
            weights,
            bias,
            activation,
            grad_weights,
            grad_bias,
            has_grads: false,
            cache: ForwardCache::default(),
            cache_armed: false,
            scratch: BackwardScratch::default(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Immutable view of the bias vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Inference forward pass into a caller-owned buffer: matmul, bias
    /// broadcast, and activation all land in `out` with no allocation,
    /// through the fused kernel — bias and activation are applied at the
    /// one store of each output element, while its strip is still in
    /// registers, sparing the decision path two full memory passes over
    /// the output. Identical per-element arithmetic in identical order to
    /// the unfused matmul → broadcast → activate sequence, so results are
    /// bit-identical (pinned by the golden scratch tests). Each activation
    /// gets a monomorphized epilogue.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != in_dim`.
    pub fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        let (w, b) = (&self.weights, &self.bias);
        match self.activation {
            Activation::Identity => input.matmul_bias_map_into(w, b, |z| z, out),
            Activation::Relu => {
                input.matmul_bias_map_into(w, b, |z| if z > 0.0 { z } else { 0.0 }, out)
            }
        }
    }

    /// Training forward pass into a caller-owned buffer, caching what a
    /// subsequent [`Dense::backward_into`] needs: the (transposed) input
    /// and the pre-activation land in the layer's persistent cache,
    /// so the whole call is allocation-free at steady state. The bias joins
    /// the pre-activation at the kernel's store, as in
    /// [`Dense::forward_into`].
    pub fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) {
        input.transpose_into(&mut self.cache.input_t);
        let pre_activation = &mut self.cache.pre_activation;
        input.matmul_bias_map_into(&self.weights, &self.bias, |z| z, pre_activation);
        self.activation.apply_into(&self.cache.pre_activation, out);
        self.cache_armed = true;
    }

    /// Backward pass. `grad_output` is dL/da for this layer's output; dL/dx
    /// for the layer's input lands in a caller-owned buffer, and the
    /// parameter gradients accumulate in the layer (summed across calls
    /// until an update clears them; read them with [`Dense::gradients`]).
    /// dL/dz and Wᵀ live in the layer's reusable scratch.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`Dense::forward_train_into`].
    pub fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        self.backward_params(grad_output);
        // dL/dx = dL/dz · Wᵀ, via a materialized transpose so the product
        // runs on the vectorized row-streaming kernel (same ascending-`k`
        // accumulation as the dot-product form — bit-identical).
        let BackwardScratch { grad_z, w_t, .. } = &mut self.scratch;
        self.weights.transpose_into(w_t);
        grad_z.matmul_into(w_t, grad_input);
    }

    /// Backward pass that accumulates parameter gradients but skips
    /// dL/dx entirely — for the network's first layer, whose input
    /// gradient no caller consumes (it saves the largest matmul of the
    /// backward chain).
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`Dense::forward_train_into`].
    pub fn backward_params_only(&mut self, grad_output: &Matrix) {
        self.backward_params(grad_output);
    }

    /// Shared core: dL/dz into scratch, dL/dW and dL/db into the
    /// accumulators.
    fn backward_params(&mut self, grad_output: &Matrix) {
        assert!(
            self.cache_armed,
            "Dense::backward called without a cached forward_train pass"
        );
        self.cache_armed = false;
        let grad_z = &mut self.scratch.grad_z;
        // dL/dz = dL/da ⊙ f'(z), fused.
        self.activation
            .derivative_mul_into(&self.cache.pre_activation, grad_output, grad_z);
        // dL/dW = xᵀ · dL/dz, xᵀ packed by the forward pass (ascending
        // batch row per element, as the transpose-free form accumulated —
        // bit-identical) ; dL/db = column-sum(dL/dz). Both overwrite the
        // accumulators when nothing is pending, which is every backward of
        // a training loop; summing several backward passes before one
        // update goes through temporaries.
        let input_t = &self.cache.input_t;
        if self.has_grads {
            self.grad_weights
                .add_scaled_assign(&input_t.matmul(grad_z), 1.0);
            self.grad_bias.add_scaled_assign(&grad_z.col_sum(), 1.0);
        } else {
            input_t.matmul_into(grad_z, &mut self.grad_weights);
            grad_z.col_sum_into(&mut self.grad_bias);
            self.has_grads = true;
        }
    }

    /// Peeks at accumulated gradients without clearing them.
    pub fn gradients(&self) -> Option<(&Matrix, &Matrix)> {
        if self.has_grads {
            Some((&self.grad_weights, &self.grad_bias))
        } else {
            None
        }
    }

    /// Makes the accumulators say what is pending. With no backward pass
    /// since they were last cleared that is a zero gradient, while their
    /// contents are the previous step's: zero-fill them at the parameters'
    /// shapes. Call before [`Dense::grad_slices`],
    /// [`Dense::grads_mut`] or [`Dense::params_grads`].
    pub(crate) fn settle_grads(&mut self) {
        if !self.has_grads {
            self.grad_weights
                .reset_zeroed(self.weights.rows(), self.weights.cols());
            self.grad_bias.reset_zeroed(1, self.bias.cols());
        }
    }

    /// The settled accumulators as flat slices, `[dW, db]`.
    pub(crate) fn grad_slices(&self) -> [&[f32]; 2] {
        [self.grad_weights.as_slice(), self.grad_bias.as_slice()]
    }

    /// Mutable access to both settled accumulators for in-place gradient
    /// clipping.
    pub(crate) fn grads_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.grad_weights, &mut self.grad_bias)
    }

    /// Parameters and settled accumulators together, for in-place
    /// optimizer updates: `(weights, bias, grad_weights, grad_bias)`.
    pub(crate) fn params_grads(&mut self) -> (&mut Matrix, &mut Matrix, &Matrix, &Matrix) {
        (
            &mut self.weights,
            &mut self.bias,
            &self.grad_weights,
            &self.grad_bias,
        )
    }

    /// Drops what is pending. Nothing is zero-filled: the next
    /// backward pass overwrites every element, and a reader without one
    /// goes through [`Dense::settle_grads`].
    pub(crate) fn clear_grads(&mut self) {
        self.has_grads = false;
    }

    /// Hard copy of `other`'s parameters (target-network sync), into the
    /// existing allocations. Nothing but weights and bias is copied:
    /// `other`'s forward cache, gradient accumulators and backward scratch
    /// are training state a target network never uses.
    ///
    /// # Panics
    ///
    /// Panics if the layers have different shapes.
    pub fn copy_parameters_from(&mut self, other: &Dense) {
        assert_eq!(
            self.weights.shape(),
            other.weights.shape(),
            "parameter copy shape mismatch"
        );
        self.weights.copy_from(&other.weights);
        self.bias.copy_from(&other.bias);
    }

    /// Mutable parameter access for optimizers: `(weights, bias)`.
    pub(crate) fn parameters_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.weights, &mut self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_2x3() -> Dense {
        Dense::from_parameters(
            Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 1.0, 0.5]]),
            Matrix::row_vector(&[0.1, -0.1, 0.0]),
            Activation::Identity,
        )
    }

    /// `forward_train_into` then `backward_into`, returning dL/dx.
    fn step(layer: &mut Dense, x: &Matrix, grad_out: &Matrix) -> Matrix {
        layer.forward_train_into(x, &mut Matrix::default());
        let mut grad_in = Matrix::default();
        layer.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    fn forward(layer: &Dense, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        layer.forward_into(x, &mut out);
        out
    }

    #[test]
    fn forward_matches_manual_computation() {
        let layer = layer_2x3();
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let out = forward(&layer, &x);
        // z = [1*1+2*2, 1*0+2*1, 1*-1+2*0.5] + b = [5.1, 1.9, 0.0]
        assert!((out.get(0, 0) - 5.1).abs() < 1e-6);
        assert!((out.get(0, 1) - 1.9).abs() < 1e-6);
        assert!((out.get(0, 2) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn backward_produces_expected_shapes() {
        let mut layer = layer_2x3();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0]]);
        let grad_in = step(&mut layer, &x, &Matrix::full(2, 3, 1.0));
        assert_eq!(grad_in.shape(), (2, 2));
        let shapes = layer.gradients().map(|(gw, gb)| (gw.shape(), gb.shape()));
        assert_eq!(shapes, Some(((2, 3), (1, 3))));
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut layer = layer_2x3();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let g = Matrix::full(1, 3, 1.0);
        step(&mut layer, &x, &g);
        let twice_once = layer.gradients().map(|(gw, _)| gw.scale(2.0));
        assert!(twice_once.is_some());
        step(&mut layer, &x, &g);
        assert_eq!(layer.gradients().map(|(gw, _)| gw.clone()), twice_once);
        // Nothing pending once cleared.
        layer.clear_grads();
        assert!(layer.gradients().is_none());
    }

    #[test]
    #[should_panic(expected = "without a cached forward_train")]
    fn backward_without_forward_panics() {
        let mut layer = layer_2x3();
        layer.backward_into(&Matrix::full(1, 3, 1.0), &mut Matrix::default());
    }

    #[test]
    fn identity_layer_backward_is_linear_map() {
        // With identity activation: grad_in = grad_out · Wᵀ exactly.
        let mut layer = layer_2x3();
        let x = Matrix::from_rows(&[&[0.3, -0.7]]);
        let g = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let grad_in = step(&mut layer, &x, &g);
        let expected = g.matmul_t(layer.weights());
        assert_eq!(grad_in, expected);
    }

    #[test]
    fn copy_parameters_leaves_training_state_behind() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut online = Dense::new(5, 4, Activation::Relu, &mut rng);
        let mut target = Dense::new(5, 4, Activation::Relu, &mut rng);
        let x = Matrix::full(3, 5, 0.25);
        step(&mut online, &x, &Matrix::full(3, 4, 1.0));
        let weights_at = target.weights().as_slice().as_ptr();
        let bias_at = target.bias().as_slice().as_ptr();

        target.copy_parameters_from(&online);

        assert_eq!(target.weights(), online.weights());
        assert_eq!(target.bias(), online.bias());
        assert_eq!(forward(&target, &x), forward(&online, &x));
        // Copied into the allocations the target already had ...
        assert_eq!(target.weights().as_slice().as_ptr(), weights_at);
        assert_eq!(target.bias().as_slice().as_ptr(), bias_at);
        // ... and none of the online layer's cache, gradients or scratch.
        assert!(target.cache.input_t.is_empty() && target.cache.pre_activation.is_empty());
        assert!(target.scratch.grad_z.is_empty() && target.scratch.w_t.is_empty());
        assert!(target.gradients().is_none() && !target.cache_armed);
    }

    #[test]
    #[should_panic(expected = "parameter copy shape mismatch")]
    fn copy_parameters_rejects_other_shape() {
        let mut a = layer_2x3();
        let b = Dense::from_parameters(
            Matrix::zeros(3, 3),
            Matrix::zeros(1, 3),
            Activation::Identity,
        );
        a.copy_parameters_from(&b);
    }

    #[test]
    fn random_init_respects_dims() {
        let mut rng = StdRng::seed_from_u64(7);
        let layer = Dense::new(4, 8, Activation::Relu, &mut rng);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 8);
        assert_eq!(layer.param_count(), 4 * 8 + 8);
    }

    #[test]
    fn he_uniform_within_limit() {
        let limit = (6.0f32 / 64.0).sqrt();
        let layer = Dense::new(64, 32, Activation::Relu, &mut StdRng::seed_from_u64(1));
        let weights = layer.weights().as_slice();
        assert!(weights.iter().all(|&v| v.abs() <= limit));
        // Should not collapse to a constant.
        assert!(weights.iter().any(|&v| v != weights[0]));
    }

    #[test]
    fn bias_defaults_to_zero() {
        let layer = Dense::new(16, 8, Activation::Relu, &mut StdRng::seed_from_u64(3));
        assert!(layer.bias().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Dense::new(5, 5, Activation::Relu, &mut StdRng::seed_from_u64(42));
        let b = Dense::new(5, 5, Activation::Relu, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_fan_in_panics() {
        let _ = Dense::new(0, 4, Activation::Relu, &mut StdRng::seed_from_u64(0));
    }
}
