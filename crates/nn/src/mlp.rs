//! Multi-layer perceptron: the function approximator used by every deep-RL
//! agent in this workspace.

use crate::activation::Activation;
use crate::linear::Dense;
use crate::loss::Loss;
use crate::optimizer::Optimizer;
use crate::tensor::Matrix;
use rand::Rng;

/// Declarative MLP architecture: ReLU hidden layers with He-uniform
/// weights and zero biases, the shape of every network the system trains.
///
/// # Examples
///
/// ```
/// use nn::mlp::{Mlp, MlpConfig};
/// use rand::SeedableRng;
///
/// let config = MlpConfig::new(4, &[16, 16], 2);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Mlp::new(&config, &mut rng);
/// assert_eq!(net.output_dim(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths, in order.
    pub hidden: Vec<usize>,
    /// Output dimension.
    pub output_dim: usize,
    /// Activation for the output layer (identity for Q-values).
    pub output_activation: Activation,
}

impl MlpConfig {
    /// Config with ReLU hidden layers and an identity output.
    pub fn new(input_dim: usize, hidden: &[usize], output_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: hidden.to_vec(),
            output_dim,
            output_activation: Activation::Identity,
        }
    }

    /// Sets the output-layer activation.
    pub fn output_activation(mut self, act: Activation) -> Self {
        self.output_activation = act;
        self
    }

    /// Sequence of `(in, out, activation)` for each layer.
    fn layer_specs(&self) -> Vec<(usize, usize, Activation)> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(self.input_dim);
        dims.extend_from_slice(&self.hidden);
        dims.push(self.output_dim);
        let mut specs = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                self.output_activation
            } else {
                Activation::Relu
            };
            specs.push((dims[i], dims[i + 1], act));
        }
        specs
    }
}

/// Reusable inference buffers for [`Mlp::forward_into`] /
/// [`Mlp::forward_one_into`].
///
/// The network ping-pongs layer outputs between two matrices (plus a
/// staging row for single-state inference), so a workspace that has seen
/// its steady-state shapes makes every subsequent forward pass
/// allocation-free. Workspaces are owned by callers (agents own one per
/// network they evaluate) because inference takes `&self` — e.g. a DQN's
/// online and target networks are borrowed simultaneously during a learn
/// step and cannot own their own mutable scratch.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    input: Matrix,
    a: Matrix,
    b: Matrix,
}

impl Workspace {
    /// An empty workspace; buffers take shape on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Training-pass scratch owned by the network (forward/backward ping-pong
/// buffers, the loss gradient and the gradient norm's per-matrix sums),
/// reused across steps.
#[derive(Debug, Clone, Default)]
struct TrainScratch {
    fwd_a: Matrix,
    fwd_b: Matrix,
    grad_a: Matrix,
    grad_b: Matrix,
    loss_grad: Matrix,
    norm_order: Vec<usize>,
    norm_sums: Vec<f32>,
}

/// Sums of squares a [`sums_of_squares_lockstep`] pass advances side by
/// side: enough independent chains to hide the latency of one scalar add,
/// few enough to stay in registers.
const LOCKSTEP: usize = 4;

/// `sums[i] = slice(i).iter().map(|v| v * v).sum::<f32>()` for every `i`,
/// bit for bit: each sum starts at `-0.0` (what `Sum` starts from, and what
/// it returns for an empty slice) and takes its squares in ascending index
/// order, the arithmetic of [`Matrix::frobenius_norm`] before the root. A
/// single such sum is one dependency chain as long as its slice, and one
/// chain after another costs the total length. The chains are independent
/// of each other, so they advance in lockstep instead: in order of slice
/// length, every slice that reaches into a segment of indices moves
/// through it together with the others, and the whole pass costs about
/// the longest slice. `order` is scratch.
fn sums_of_squares_lockstep<'a>(
    slice: impl Fn(usize) -> &'a [f32],
    order: &mut Vec<usize>,
    sums: &mut [f32],
) {
    fn advance<'a, const N: usize>(
        which: [usize; N],
        segment: std::ops::Range<usize>,
        slice: &impl Fn(usize) -> &'a [f32],
        sums: &mut [f32],
    ) {
        let rows = which.map(|i| &slice(i)[segment.clone()]);
        let mut acc = which.map(|i| sums[i]);
        for t in 0..segment.len() {
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc += row[t] * row[t];
            }
        }
        for (i, acc) in which.into_iter().zip(acc) {
            sums[i] = acc;
        }
    }

    sums.fill(-0.0);
    order.clear();
    order.extend(0..sums.len());
    order.sort_unstable_by_key(|&i| slice(i).len());
    let mut start = 0;
    for shortest in 0..order.len() {
        let end = slice(order[shortest]).len();
        if end == start {
            continue;
        }
        for group in order[shortest..].chunks(LOCKSTEP) {
            match *group {
                [a] => advance([a], start..end, &slice, sums),
                [a, b] => advance([a, b], start..end, &slice, sums),
                [a, b, c] => advance([a, b, c], start..end, &slice, sums),
                [a, b, c, d] => advance([a, b, c, d], start..end, &slice, sums),
                _ => unreachable!("chunks of at most LOCKSTEP"),
            }
        }
        start = end;
    }
}

/// Lanes of [`wide_sum_of_squares`]: four `zmm` registers, enough
/// independent adds in flight to hide the latency of one.
const WIDE_LANES: usize = 64;

/// `Σ x²` over every slice, each lane taking every `WIDE_LANES`-th square
/// of a slice, then one fold of the lanes. The additions run in another
/// order than [`sums_of_squares_lockstep`]'s, so the result may differ
/// from the clip norm's square in its last bits; [`norm_certainly_within`]
/// bounds by how much.
fn wide_sum_of_squares<'a>(slices: impl Iterator<Item = &'a [f32]>) -> f32 {
    let mut lanes = [0.0f32; WIDE_LANES];
    for slice in slices {
        let (chunks, tail) = slice.as_chunks::<WIDE_LANES>();
        for chunk in chunks {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                *lane += x * x;
            }
        }
        for (lane, &x) in lanes.iter_mut().zip(tail) {
            *lane += x * x;
        }
    }
    lanes.iter().sum()
}

/// `true` only if the clip norm ν that [`Mlp::apply_gradients`] would take
/// exactly is at most `limit`, given `wide`, the [`wide_sum_of_squares`]
/// of the same `entries` floats in `matrices` matrices. Then the clip
/// cannot fire, and skipping the exact norm changes no bit.
///
/// The bound. Let `T` be the real sum of the squares, `u = 2⁻²⁴` and
/// `k = entries + matrices + 8`. An `f32` operation rounds to nearest:
/// `fl(a ∘ b) = (a ∘ b)(1 + δ) + η` with `|δ| ≤ u`, and `|η| ≤ 2⁻¹⁵⁰`
/// only for a product with a sub-normal result (a sum or a root is then
/// exact or normal). Every term is non-negative, so in any order of
/// additions a square passes through at most as many roundings as there
/// are terms (Higham, *Accuracy and Stability of Numerical Algorithms*,
/// §4.2): `entries + 1` in the wide sum, and in the exact path its own
/// rounding, its matrix's additions, the per-matrix root and re-square,
/// the fold over `matrices` sums and the final root (squared), fewer than
/// `k`. With `γ = ku / (1 − ku)` and `ku ≤ 1/64`:
///
/// ```text
/// wide ≥ (1 − γ)·T − 1.02·entries·2⁻¹⁵⁰
/// ν²   ≤ (1 + γ)·T + 1.02·(entries + matrices)·2⁻¹⁵⁰
/// ν²   ≤ (1 + γ)/(1 − γ)·wide + 2.2·(entries + matrices)·2⁻¹⁵⁰
///      ≤ (1 + 4ku)·wide + k·2⁻¹⁴⁸ = B
/// ```
///
/// since `(1 + γ)/(1 − γ) ≤ 1 + 2.07ku`. `B` is evaluated in `f64`,
/// where `wide`, `limit²` and `k·2⁻¹⁴⁸` are exact and the slack left in
/// `4ku` covers the two roundings. `B ≤ limit²` gives `ν ≤ limit`, and
/// `B ≤ f32::MAX` keeps every partial sum of the exact path finite, the
/// bound's premise. A NaN or infinite `wide` (a non-finite gradient, or
/// squares that overflow) decides nothing, nor does a gradient so long
/// that `ku > 1/64` (over 262,000 floats).
fn norm_certainly_within(wide: f32, entries: usize, matrices: usize, limit: f32) -> bool {
    let unit = f64::from(f32::EPSILON) / 2.0;
    let k = (entries + matrices + 8) as f64;
    if !wide.is_finite() || k * unit > 1.0 / 64.0 {
        return false;
    }
    let bound = f64::from(wide) * (1.0 + 4.0 * k * unit) + k * 2f64.powi(-148);
    bound <= f64::from(limit) * f64::from(limit) && bound <= f64::from(f32::MAX)
}

/// A feed-forward network of dense layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    config: MlpConfig,
    /// Reusable training buffers (not part of the model's state).
    scratch: TrainScratch,
}

impl Mlp {
    /// Builds a network with freshly initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if any dimension in the config is zero.
    pub fn new<R: Rng + ?Sized>(config: &MlpConfig, rng: &mut R) -> Self {
        assert!(config.input_dim > 0, "input_dim must be positive");
        assert!(config.output_dim > 0, "output_dim must be positive");
        assert!(
            config.hidden.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
        let layers = config
            .layer_specs()
            .into_iter()
            .map(|(i, o, a)| Dense::new(i, o, a, rng))
            .collect();
        Self {
            layers,
            config: config.clone(),
            scratch: TrainScratch::default(),
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.config.input_dim
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.config.output_dim
    }

    /// Number of layers (hidden + output).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Inference forward pass through a caller-owned [`Workspace`]; returns
    /// a reference into the workspace, valid until its next use. With a
    /// warm workspace the whole pass is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != input_dim`.
    pub fn forward_into<'w>(&self, input: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        assert_eq!(input.cols(), self.config.input_dim, "input width mismatch");
        let Workspace { a, b, .. } = ws;
        let (first, rest) = self.layers.split_first().expect("mlp has layers");
        first.forward_into(input, a);
        for layer in rest {
            layer.forward_into(&*a, b);
            std::mem::swap(a, b);
        }
        &*a
    }

    /// Single-state inference through a caller-owned [`Workspace`]; the
    /// decision hot path. Returns the output row, valid until the
    /// workspace's next use.
    pub fn forward_one_into<'w>(&self, input: &[f32], ws: &'w mut Workspace) -> &'w [f32] {
        ws.input.set_row_vector(input);
        let Workspace { input, a, b } = ws;
        assert_eq!(input.cols(), self.config.input_dim, "input width mismatch");
        let (first, rest) = self.layers.split_first().expect("mlp has layers");
        first.forward_into(&*input, a);
        for layer in rest {
            layer.forward_into(&*a, b);
            std::mem::swap(a, b);
        }
        a.row(0)
    }

    /// Training forward pass through the network-owned scratch, caching
    /// per-layer tensors for backprop; returns a reference to the output,
    /// valid until the next training call.
    /// Per-layer caches land in each layer's persistent buffers, so a warm
    /// network performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != input_dim`.
    pub fn forward_train_scratch(&mut self, input: &Matrix) -> &Matrix {
        assert_eq!(input.cols(), self.config.input_dim, "input width mismatch");
        let TrainScratch { fwd_a, fwd_b, .. } = &mut self.scratch;
        fwd_a.copy_from(input);
        for layer in self.layers.iter_mut() {
            layer.forward_train_into(&*fwd_a, fwd_b);
            std::mem::swap(fwd_a, fwd_b);
        }
        &*fwd_a
    }

    /// Backpropagates `grad_output` (dL/d output) through the network,
    /// accumulating parameter gradients. Returns dL/d input (what a
    /// network feeding this one backpropagates next), a reference into the
    /// network-owned scratch valid until the next training call.
    ///
    /// # Panics
    ///
    /// Panics if no [`Mlp::forward_train_scratch`] preceded this call.
    pub fn backward(&mut self, grad_output: &Matrix) -> &Matrix {
        let TrainScratch { grad_a, grad_b, .. } = &mut self.scratch;
        grad_a.copy_from(grad_output);
        for layer in self.layers.iter_mut().rev() {
            layer.backward_into(&*grad_a, grad_b);
            std::mem::swap(grad_a, grad_b);
        }
        &*grad_a
    }

    /// Backpropagates through the network-owned scratch, accumulating
    /// parameter gradients without materializing dL/d input for the caller
    /// (the input gradient is discarded — no placement agent consumes it,
    /// so the first layer skips that matmul entirely).
    ///
    /// # Panics
    ///
    /// Panics if no [`Mlp::forward_train_scratch`] preceded this call.
    pub fn backward_scratch(&mut self, grad_output: &Matrix) {
        let TrainScratch { grad_a, grad_b, .. } = &mut self.scratch;
        grad_a.copy_from(grad_output);
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            if idx == 0 {
                layer.backward_params_only(&*grad_a);
            } else {
                layer.backward_into(&*grad_a, grad_b);
                std::mem::swap(grad_a, grad_b);
            }
        }
    }

    /// Applies accumulated gradients via `optimizer`, optionally clipping
    /// the global gradient norm first. Clears the accumulators in place
    /// (their allocations are retained for the next step).
    ///
    /// The clip is [`clip_global_norm`](crate::optimizer::clip_global_norm)'s
    /// bit for bit: when the exact global norm exceeds the limit, every
    /// gradient is scaled by `limit / norm`. That exact norm (per-matrix
    /// sums of squares in index order, folded in order W, b, W, b, ...) is
    /// a long chain of dependent adds, so it is taken only when a wide sum
    /// of squares and its proven error bound (`norm_certainly_within`)
    /// cannot rule the clip out; a training step whose norm sits well
    /// below the limit never takes it.
    ///
    /// Returns the exact pre-clip norm when it was taken, and `None` when
    /// the bound decided or there is no limit.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not positive.
    pub fn apply_gradients(
        &mut self,
        optimizer: &mut Optimizer,
        max_grad_norm: Option<f32>,
    ) -> Option<f32> {
        optimizer.begin_step();
        self.apply_gradients_in_step(optimizer, 0, max_grad_norm)
    }

    /// [`Mlp::apply_gradients`] inside an optimizer step the caller has
    /// begun ([`Optimizer::begin_step`]), through optimizer slots
    /// `slot_base + 2*layer` (weights) and `slot_base + 2*layer + 1`
    /// (bias): several networks (a dueling Q-network's trunk and heads)
    /// can then share one step on disjoint slots, each clipped on its own
    /// norm. The same clip, update and return as `apply_gradients`.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not positive.
    pub fn apply_gradients_in_step(
        &mut self,
        optimizer: &mut Optimizer,
        slot_base: usize,
        max_grad_norm: Option<f32>,
    ) -> Option<f32> {
        for layer in self.layers.iter_mut() {
            layer.settle_grads();
        }
        let norm = max_grad_norm.and_then(|limit| self.clip_gradients(limit));
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (w, b, gw, gb) = layer.params_grads();
            optimizer.update(slot_base + 2 * i, w, gw);
            optimizer.update(slot_base + 2 * i + 1, b, gb);
        }
        for layer in self.layers.iter_mut() {
            layer.clear_grads();
        }
        norm
    }

    /// Scales the settled gradients by `limit / norm` when their exact
    /// global norm exceeds `limit`; returns that norm when it was taken
    /// ([`Mlp::apply_gradients`]).
    fn clip_gradients(&mut self, limit: f32) -> Option<f32> {
        assert!(limit > 0.0, "max_norm must be positive");
        let layers = &self.layers;
        let wide = wide_sum_of_squares(layers.iter().flat_map(Dense::grad_slices));
        if norm_certainly_within(wide, self.param_count(), 2 * layers.len(), limit) {
            return None;
        }
        // Global norm in one pass over the layers, scale in a second: the
        // arithmetic of `clip_global_norm` (per-matrix norms squared and
        // summed in order W, b, W, b, ...) without its `Vec` of borrows,
        // and with the per-matrix sums advanced side by side.
        let TrainScratch {
            norm_order,
            norm_sums,
            ..
        } = &mut self.scratch;
        norm_sums.resize(2 * layers.len(), 0.0);
        sums_of_squares_lockstep(
            |i| layers[i / 2].grad_slices()[i % 2],
            norm_order,
            norm_sums,
        );
        let mut sum_sq = 0.0f32;
        for sum in norm_sums.iter() {
            let n = sum.sqrt();
            sum_sq += n * n;
        }
        let norm = sum_sq.sqrt();
        if norm > limit {
            let scale = limit / norm;
            for layer in self.layers.iter_mut() {
                let (gw, gb) = layer.grads_mut();
                gw.scale_assign(scale);
                gb.scale_assign(scale);
            }
        }
        Some(norm)
    }

    /// One Q-learning style step: regress `prediction[r, selected[r]]`
    /// toward `targets[r]`, with optional per-row importance weights.
    ///
    /// Returns `(loss, td_errors)` where `td_errors[r] = pred - target`
    /// (used by prioritized replay to update priorities).
    #[allow(clippy::too_many_arguments)] // the update's inputs and its three settings
    pub fn train_selected(
        &mut self,
        input: &Matrix,
        selected: &[usize],
        targets: &[f32],
        weights: Option<&[f32]>,
        loss: Loss,
        optimizer: &mut Optimizer,
        max_grad_norm: Option<f32>,
    ) -> (f32, Vec<f32>) {
        // Forward, TD errors, the loss gradient, backward and the clipped
        // update all run inside network- and layer-owned buffers; the
        // returned TD vector is a warm step's only allocation. The loss
        // gradient leaves the scratch for the backward pass that reads it.
        let mut loss_grad = std::mem::take(&mut self.scratch.loss_grad);
        let pred = self.forward_train_scratch(input);
        let td: Vec<f32> = selected
            .iter()
            .zip(targets.iter())
            .enumerate()
            .map(|(r, (&c, &t))| pred.get(r, c) - t)
            .collect();
        let l = loss.evaluate_selected_into(pred, selected, targets, weights, &mut loss_grad);
        self.backward_scratch(&loss_grad);
        self.scratch.loss_grad = loss_grad;
        self.apply_gradients(optimizer, max_grad_norm);
        (l, td)
    }

    /// Applies externally supplied `(dW, db)` gradients, one pair per layer,
    /// through `optimizer`, using optimizer slots
    /// `slot_base + 2*layer` / `slot_base + 2*layer + 1`.
    ///
    /// The caller is responsible for [`Optimizer::begin_step`]; this makes it
    /// possible for several sub-networks (e.g. a dueling Q-network's trunk
    /// and heads) to share one optimizer step with disjoint slot ranges.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != layer_count()` or shapes mismatch.
    pub fn apply_external_gradients(
        &mut self,
        grads: &[(Matrix, Matrix)],
        optimizer: &mut Optimizer,
        slot_base: usize,
    ) {
        assert_eq!(
            grads.len(),
            self.layers.len(),
            "gradient count must match layer count"
        );
        for (i, (layer, (gw, gb))) in self.layers.iter_mut().zip(grads.iter()).enumerate() {
            let (w, b) = layer.parameters_mut();
            optimizer.update(slot_base + 2 * i, w, gw);
            optimizer.update(slot_base + 2 * i + 1, b, gb);
        }
    }

    /// Hard copy of parameters from `other` (target-network sync).
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn copy_parameters_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.config, other.config,
            "cannot copy parameters between different architectures"
        );
        for (mine, theirs) in self.layers.iter_mut().zip(other.layers.iter()) {
            mine.copy_parameters_from(theirs);
        }
    }

    /// `true` if any parameter is NaN/inf — a cheap divergence tripwire.
    pub fn has_non_finite_params(&self) -> bool {
        self.layers
            .iter()
            .any(|l| l.weights().has_non_finite() || l.bias().has_non_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    /// The network's output on `x`, through a fresh workspace.
    fn forward(net: &Mlp, x: &Matrix) -> Matrix {
        net.forward_into(x, &mut Workspace::new()).clone()
    }

    #[test]
    fn shapes_and_param_count() {
        let config = MlpConfig::new(3, &[5, 7], 2);
        let net = Mlp::new(&config, &mut rng());
        assert_eq!(net.layer_count(), 3);
        assert_eq!(net.param_count(), (3 * 5 + 5) + (5 * 7 + 7) + (7 * 2 + 2));
        let out = forward(&net, &Matrix::zeros(4, 3));
        assert_eq!(out.shape(), (4, 2));
    }

    #[test]
    fn forward_one_matches_batched_forward() {
        let config = MlpConfig::new(3, &[8], 2);
        let net = Mlp::new(&config, &mut rng());
        let x = [0.1, -0.2, 0.3];
        let single = net.forward_one_into(&x, &mut Workspace::new()).to_vec();
        let batched = forward(&net, &Matrix::row_vector(&x));
        assert_eq!(single, batched.row(0).to_vec());
    }

    /// `train_selected` on a one-output network: a supervised step.
    fn fit_step(net: &mut Mlp, x: &Matrix, y: &Matrix, optimizer: &mut Optimizer) -> f32 {
        let selected = vec![0; x.rows()];
        let (loss, _) = net.train_selected(
            x,
            &selected,
            y.as_slice(),
            None,
            Loss::Huber(1.0),
            optimizer,
            None,
        );
        loss
    }

    #[test]
    fn learns_linear_function() {
        // y = 2*x0 - x1; an MLP should fit this almost exactly.
        let config = MlpConfig::new(2, &[16], 1);
        let mut net = Mlp::new(&config, &mut rng());
        let mut opt = OptimizerConfig::adam(0.01).build();
        let mut r = rng();
        use rand::Rng as _;
        let mut final_loss = f32::MAX;
        for _ in 0..1500 {
            let x = Matrix::from_fn(16, 2, |_, _| r.gen_range(-1.0..1.0));
            let y = Matrix::from_fn(16, 1, |i, _| 2.0 * x.get(i, 0) - x.get(i, 1));
            final_loss = fit_step(&mut net, &x, &y, &mut opt);
        }
        assert!(final_loss < 5e-3, "final loss {final_loss}");
    }

    #[test]
    fn learns_xor() {
        // Non-linearly-separable target proves backprop flows through depth.
        let config = MlpConfig::new(2, &[8, 8], 1);
        let mut net = Mlp::new(&config, &mut rng());
        let mut opt = OptimizerConfig::adam(0.02).build();
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut loss = f32::MAX;
        for _ in 0..2000 {
            loss = fit_step(&mut net, &x, &y, &mut opt);
        }
        assert!(loss < 1e-2, "xor loss {loss}");
        let pred = forward(&net, &x);
        assert!(pred.get(0, 0) < 0.3 && pred.get(1, 0) > 0.7);
    }

    #[test]
    fn train_selected_only_moves_chosen_outputs() {
        let config = MlpConfig::new(2, &[], 3); // single linear layer
        let mut net = Mlp::new(&config, &mut rng());
        let mut opt = OptimizerConfig::sgd(0.5).build();
        let x = Matrix::from_rows(&[&[1.0, 0.0]]);
        let before = forward(&net, &x);
        // Push output 1 toward a big value; outputs 0 and 2 share input
        // weights but their columns should not change.
        let (_, td) = net.train_selected(
            &x,
            &[1],
            &[before.get(0, 1) + 1.0],
            None,
            Loss::Huber(1.0),
            &mut opt,
            None,
        );
        assert!((td[0] + 1.0).abs() < 1e-5);
        let after = forward(&net, &x);
        assert!((after.get(0, 0) - before.get(0, 0)).abs() < 1e-6);
        assert!((after.get(0, 2) - before.get(0, 2)).abs() < 1e-6);
        assert!(after.get(0, 1) > before.get(0, 1));
    }

    #[test]
    fn copy_parameters_reproduces_outputs() {
        let config = MlpConfig::new(2, &[4], 2);
        let mut a = Mlp::new(&config, &mut rng());
        let b = Mlp::new(&config, &mut StdRng::seed_from_u64(999));
        let x = Matrix::from_rows(&[&[0.5, -0.5]]);
        a.copy_parameters_from(&b);
        assert_eq!(forward(&a, &x), forward(&b, &x));
    }

    #[test]
    fn gradient_clip_bounds_update() {
        let config = MlpConfig::new(1, &[], 1);
        let mut net = Mlp::new(&config, &mut rng());
        let mut opt = OptimizerConfig::sgd(1.0).build();
        let x = Matrix::from_rows(&[&[1000.0]]);
        let before = net.layers()[0].weights().get(0, 0);
        // Huge input would explode without clipping.
        net.train_selected(
            &x,
            &[0],
            &[0.0],
            None,
            Loss::Huber(1.0),
            &mut opt,
            Some(0.1),
        );
        let after = net.layers()[0].weights().get(0, 0);
        assert!((after - before).abs() <= 0.1 + 1e-4);
    }

    /// Every layer's pending `(dW, db)`, copied out (`apply_external_gradients`
    /// rejects the list if a layer had none).
    fn pending_gradients(net: &Mlp) -> Vec<(Matrix, Matrix)> {
        net.layers()
            .iter()
            .filter_map(Dense::gradients)
            .map(|(gw, gb)| (gw.clone(), gb.clone()))
            .collect()
    }

    /// One `apply_gradients(Some(limit))` after a backward of `grad` on
    /// `x`, against `clip_global_norm` and `Optimizer::update` on the same
    /// gradients copied out, both with Adam: every parameter is compared
    /// through `to_bits`, and so is the norm when `apply_gradients` took
    /// it. Returns `(apply_gradients's norm, clip_global_norm's norm)`.
    fn clip_against_staged(net: &Mlp, x: &Matrix, grad: &Matrix, limit: f32) -> (Option<f32>, f32) {
        let mut fused = net.clone();
        fused.forward_train_scratch(x);
        fused.backward(grad);
        let mut opt = OptimizerConfig::adam(0.01).build();
        let norm = fused.apply_gradients(&mut opt, Some(limit));

        let mut staged = net.clone();
        staged.forward_train_scratch(x);
        staged.backward(grad);
        let mut grads = pending_gradients(&staged);
        let mut refs: Vec<&mut Matrix> = Vec::new();
        for (gw, gb) in grads.iter_mut() {
            refs.push(gw);
            refs.push(gb);
        }
        let expected_norm = crate::optimizer::clip_global_norm(&mut refs, limit);
        let mut opt = OptimizerConfig::adam(0.01).build();
        opt.begin_step();
        staged.apply_external_gradients(&grads, &mut opt, 0);

        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, b) in fused.layers().iter().zip(staged.layers().iter()) {
            assert_eq!(bits(a.weights()), bits(b.weights()), "limit {limit}");
            assert_eq!(bits(a.bias()), bits(b.bias()), "limit {limit}");
        }
        if let Some(norm) = norm {
            assert_eq!(norm.to_bits(), expected_norm.to_bits(), "limit {limit}");
        }
        (norm, expected_norm)
    }

    #[test]
    fn apply_gradients_clips_like_clip_global_norm_bitwise() {
        // Limits far from the norm, which the bound decides, and limits
        // within four ulps of it on both sides, which it cannot. The first
        // layer has 240 weights: whole 64-lane chunks and a tail.
        let config = MlpConfig::new(3, &[80, 5], 2);
        let net = Mlp::new(&config, &mut rng());
        let x = Matrix::from_rows(&[&[0.5, -1.5, 2.0], &[1.0, 0.25, -0.75]]);
        let grad = Matrix::from_rows(&[&[3.0, -2.0], &[0.5, 4.0]]);
        let (_, norm) = clip_against_staged(&net, &x, &grad, f32::MAX);
        assert!(norm.is_finite() && norm > 0.0, "norm {norm}");

        for limit in [norm * 0.05, norm * 0.5] {
            let (taken, _) = clip_against_staged(&net, &x, &grad, limit);
            assert_eq!(taken, Some(norm), "the clip fires at {limit}");
        }
        for limit in [norm * 1.5, norm * 20.0, f32::MAX, f32::INFINITY] {
            let (taken, _) = clip_against_staged(&net, &x, &grad, limit);
            assert_eq!(taken, None, "the bound decides at {limit}");
        }
        for ulps in -4i32..=4 {
            let limit = f32::from_bits(norm.to_bits().wrapping_add_signed(ulps));
            let (taken, _) = clip_against_staged(&net, &x, &grad, limit);
            assert_eq!(taken, Some(norm), "{ulps} ulps from the norm");
        }
    }

    #[test]
    fn apply_gradients_clips_zero_and_non_finite_gradients_like_clip_global_norm() {
        // All-zero gradients: the bound decides, no clip. A NaN, an
        // infinity of either sign, or finite gradients whose squares
        // overflow: the wide sum is not finite, so the exact path runs and
        // clips (by `limit / inf = 0`) or not (a NaN norm) as before. The
        // single layer's positive inputs keep an infinity from meeting its
        // opposite on the way to the gradients.
        let net = Mlp::new(&MlpConfig::new(3, &[], 2), &mut rng());
        let x = Matrix::from_rows(&[&[0.5, 1.5, 2.0], &[1.0, 0.25, 0.75]]);
        let cases = [
            (0.0, 0.0, None),
            (f32::NAN, 1.0, Some(f32::NAN)),
            (f32::INFINITY, 1.0, Some(f32::INFINITY)),
            (f32::NEG_INFINITY, 1.0, Some(f32::INFINITY)),
            (1e30, 1e30, Some(f32::INFINITY)),
        ];
        for (first, rest, expected) in cases {
            let grad = Matrix::from_rows(&[&[first, rest], &[rest, 0.0]]);
            for limit in [1e-3, 1.0, f32::MAX] {
                let (taken, norm) = clip_against_staged(&net, &x, &grad, limit);
                let same = |a: Option<f32>| a.map(|n| (n.is_nan(), n.is_nan() || n == norm));
                assert_eq!(
                    same(taken),
                    same(expected),
                    "gradient {first}, limit {limit}"
                );
                if expected.is_none() {
                    assert_eq!(norm, 0.0);
                }
            }
        }
    }

    #[test]
    fn apply_gradients_without_backward_is_a_zero_gradient_step() {
        // One real step leaves its gradients behind in the accumulators
        // (nothing zero-fills them); an update with no backward pass since
        // must read zeros, not those.
        let config = MlpConfig::new(3, &[6], 2);
        let mut net = Mlp::new(&config, &mut rng());
        let mut opt = OptimizerConfig::sgd(0.5).build();
        let x = Matrix::from_rows(&[&[0.5, -1.5, 2.0], &[1.0, 0.25, -0.75]]);
        net.train_selected(
            &x,
            &[0, 1],
            &[1.0, 2.0],
            None,
            Loss::Huber(1.0),
            &mut opt,
            None,
        );
        let before = net.clone();

        let norm = net.apply_gradients(&mut opt, Some(1.0));

        // Zero gradients: the bound rules the clip out, so no exact norm
        // is taken.
        assert_eq!(norm, None);
        for (a, b) in net.layers().iter().zip(before.layers().iter()) {
            assert_eq!(a.weights(), b.weights());
            assert_eq!(a.bias(), b.bias());
        }
        assert!(net.layers().iter().all(|l| l.gradients().is_none()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn lockstep_sums_equal_the_per_matrix_norm_fold_bitwise(
            shapes in proptest::collection::vec((0usize..=300, 0usize..=300), 1..6),
            seed in 0u64..10_000,
        ) {
            // One (weights, bias) pair of flat gradients per layer, zeros
            // mixed in, lengths free of each other, and one empty matrix
            // whatever the draw.
            use rand::Rng as _;
            let mut r = StdRng::seed_from_u64(seed);
            let grads: Vec<Matrix> = shapes
                .iter()
                .flat_map(|&(w, b)| [w, b])
                .chain([0])
                .map(|len| {
                    Matrix::from_fn(1, len, |_, _| {
                        if r.gen_bool(0.3) { 0.0 } else { r.gen_range(-3.0f32..3.0) }
                    })
                })
                .collect();
            let mut sums = vec![f32::NAN; grads.len()];
            sums_of_squares_lockstep(|i| grads[i].as_slice(), &mut Vec::new(), &mut sums);

            // Equal terms, so `apply_gradients` folds them to the total
            // `clip_global_norm` folds from `frobenius_norm`.
            for (sum, g) in sums.iter().zip(&grads) {
                proptest::prop_assert_eq!(sum.sqrt().to_bits(), g.frobenius_norm().to_bits());
            }
        }

        #[test]
        fn the_bound_never_rules_out_a_clip_that_fires(
            lens in proptest::collection::vec(0usize..=300, 1..7),
            seed in 0u64..10_000,
            scale in -80i32..50,
            ulps in -3_000i32..3_000,
        ) {
            // Gradients at one scale from squares that underflow to ones
            // near 2¹⁰⁰, and limits up to 3,000 ulps either side of the
            // exact norm (the bound's slack is a few hundred): wherever
            // the bound decides, the exact path would not have clipped.
            use rand::Rng as _;
            let mut r = StdRng::seed_from_u64(seed);
            let unit = 2f32.powi(scale);
            let grads: Vec<Vec<f32>> = lens
                .iter()
                .map(|&len| {
                    (0..len)
                        .map(|_| if r.gen_bool(0.3) { 0.0 } else { r.gen_range(-1.0f32..1.0) * unit })
                        .collect()
                })
                .collect();
            let mut sums = vec![0.0; grads.len()];
            sums_of_squares_lockstep(|i| grads[i].as_slice(), &mut Vec::new(), &mut sums);
            let mut sum_sq = 0.0f32;
            for sum in &sums {
                let n = sum.sqrt();
                sum_sq += n * n;
            }
            let norm = sum_sq.sqrt();
            let wide = wide_sum_of_squares(grads.iter().map(Vec::as_slice));
            let entries = lens.iter().sum::<usize>();
            let limit = f32::from_bits(norm.to_bits().saturating_add_signed(ulps))
                .max(f32::from_bits(1));
            if norm_certainly_within(wide, entries, grads.len(), limit) {
                proptest::prop_assert!(norm <= limit, "norm {norm} > limit {limit}");
            }
            // And it decides where the squares are well clear of the
            // sub-normal range, whose absolute slack it also carries.
            if norm > 1e-15 {
                proptest::prop_assert!(norm_certainly_within(wide, entries, grads.len(), norm * 1.01));
            }
        }
    }

    #[test]
    fn parameter_round_trip_preserves_outputs() {
        // Export every layer's parameters and rebuild the layers from them;
        // the reconstructed stack must be output-identical. (Weights have no
        // on-disk form, so the round trip is exercised at the parameter
        // level.)
        let config = MlpConfig::new(3, &[6], 2);
        let net = Mlp::new(&config, &mut rng());
        let restored: Vec<Dense> = net
            .layers()
            .iter()
            .map(|l| Dense::from_parameters(l.weights().clone(), l.bias().clone(), l.activation()))
            .collect();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3]]);
        let mut manual = x.clone();
        for layer in &restored {
            let mut out = Matrix::default();
            layer.forward_into(&manual, &mut out);
            manual = out;
        }
        assert_eq!(forward(&net, &x), manual);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let net = Mlp::new(&MlpConfig::new(3, &[4], 1), &mut rng());
        let _ = forward(&net, &Matrix::zeros(1, 5));
    }
}
