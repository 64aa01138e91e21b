//! First-order gradient optimizers (plain SGD and Adam).
//!
//! Optimizers keep per-parameter state keyed by a stable slot index supplied
//! by the network (two slots per dense layer: weights then bias). This keeps
//! the optimizer decoupled from network structure.

use crate::tensor::Matrix;

/// Optimizer configuration (the algorithm and its hyperparameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerConfig {
    /// Plain stochastic gradient descent: `p ← p − lr·g`.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Adam (Kingma & Ba).
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical-stability constant.
        eps: f32,
    },
}

impl OptimizerConfig {
    /// Adam with standard defaults and the given learning rate.
    pub fn adam(lr: f32) -> Self {
        OptimizerConfig::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Plain SGD with the given learning rate.
    pub fn sgd(lr: f32) -> Self {
        OptimizerConfig::Sgd { lr }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        match *self {
            OptimizerConfig::Sgd { lr } | OptimizerConfig::Adam { lr, .. } => lr,
        }
    }

    /// Builds the stateful optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not positive or decay factors are out
    /// of range.
    pub fn build(self) -> Optimizer {
        match self {
            OptimizerConfig::Sgd { lr } => {
                assert!(lr > 0.0, "learning rate must be positive");
            }
            OptimizerConfig::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                assert!(lr > 0.0, "learning rate must be positive");
                assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0,1)");
                assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0,1)");
                assert!(eps > 0.0, "eps must be positive");
            }
        }
        Optimizer {
            config: self,
            slots: Vec::new(),
            step: 0,
        }
    }
}

/// Stateful optimizer; one instance per trained network.
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: OptimizerConfig,
    slots: Vec<SlotState>,
    step: u64,
}

/// Moments of one parameter; empty until the slot's first update.
#[derive(Debug, Clone, Default)]
struct SlotState {
    /// First moment (unused by SGD).
    m: Matrix,
    /// Second moment (unused by SGD).
    v: Matrix,
}

impl Optimizer {
    /// The optimizer's configuration.
    pub fn config(&self) -> OptimizerConfig {
        self.config
    }

    /// Number of update steps applied so far (per [`Optimizer::begin_step`]).
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Marks the start of an update step; call once per batch before
    /// updating the slots of that batch. Required for Adam bias correction.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Computes and applies the update for parameter `slot` in place.
    ///
    /// # Panics
    ///
    /// Panics if `param` and `grad` shapes differ, or if a slot is reused
    /// with a different shape.
    pub fn update(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(
            param.shape(),
            grad.shape(),
            "optimizer update shape mismatch"
        );
        // Slot indices may be sparse (a dueling network's sub-networks sit
        // 100 apart) and first used in any order: the indices skipped on
        // the way carry no state, and a slot takes its parameter's shape
        // at its own first update.
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, SlotState::default);
        }
        let state = &mut self.slots[slot];
        if state.m.is_empty() {
            state.m.reset_zeroed(param.rows(), param.cols());
            state.v.reset_zeroed(param.rows(), param.cols());
        }
        assert_eq!(
            state.m.shape(),
            param.shape(),
            "optimizer slot {slot} shape changed"
        );
        match self.config {
            OptimizerConfig::Sgd { lr } => param.add_scaled_assign(grad, -lr),
            OptimizerConfig::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let t = self.step.max(1) as f32;
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                let adam = AdamStep {
                    lr,
                    beta1,
                    beta2,
                    eps,
                    bc1,
                    bc2,
                };
                let (p, g) = (param.as_mut_slice(), grad.as_slice());
                let (m, v) = (state.m.as_mut_slice(), state.v.as_mut_slice());
                // `1 − βᵗ` rounds to exactly 1.0 once βᵗ ≤ 2⁻²⁵: from step
                // 165 for β = 0.9, 17,321 for β = 0.999. Dividing by it
                // then changes no bit (`x / 1.0 == x`, NaN payloads
                // included), so the loop is chosen once per update and
                // drops each division that has become one.
                match (bc1 != 1.0, bc2 != 1.0) {
                    (true, true) => adam.apply::<true, true>(p, g, m, v),
                    (true, false) => adam.apply::<true, false>(p, g, m, v),
                    (false, true) => adam.apply::<false, true>(p, g, m, v),
                    (false, false) => adam.apply::<false, false>(p, g, m, v),
                }
            }
        }
    }
}

/// One Adam update's scalars: the hyperparameters and this step's bias
/// corrections `bc1 = 1 − β1ᵗ`, `bc2 = 1 − β2ᵗ`.
struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
}

impl AdamStep {
    /// Updates every parameter and its moments; `DIV1`/`DIV2` say whether
    /// the step still divides by `bc1`/`bc2`.
    #[inline(never)]
    fn apply<const DIV1: bool, const DIV2: bool>(
        &self,
        params: &mut [f32],
        grads: &[f32],
        ms: &mut [f32],
        vs: &mut [f32],
    ) {
        let AdamStep {
            lr,
            beta1,
            beta2,
            eps,
            bc1,
            bc2,
        } = *self;
        // Lockstep iterators instead of indexing: the bounds checks on four
        // distinct slices defeated auto-vectorization of the sqrt/div
        // pipeline. The iterator form changes no arithmetic; the only
        // deliberate numeric change in this optimizer is the sub-normal
        // moment flush (see `flush_subnormal`).
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(ms.iter_mut())
            .zip(vs.iter_mut())
        {
            *m = flush_subnormal(beta1 * *m + (1.0 - beta1) * g);
            *v = flush_subnormal(beta2 * *v + (1.0 - beta2) * g * g);
            let m_hat = if DIV1 { *m / bc1 } else { *m };
            let v_hat = if DIV2 { *v / bc2 } else { *v };
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

/// Flushes sub-normal moment values to zero (NaN/inf pass through).
///
/// Zero-gradient parameters — ReLU-dead units, unselected action columns —
/// decay their moments geometrically (`m ← β·m`), and once `m` drops below
/// `f32::MIN_POSITIVE` every subsequent multiply hits the CPU's sub-normal
/// microcode path, slowing the whole update by an order of magnitude
/// (measured 20-30x on long training runs). Flushing is deterministic and
/// value-safe: a sub-normal moment contributes at most
/// `lr · 1.2e-38 / eps ≈ 1e-33` to a parameter update, far below half an
/// ulp of any parameter a training run produces.
#[inline]
fn flush_subnormal(x: f32) -> f32 {
    if x.abs() < f32::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

/// Scales a set of gradients in place so their global L2 norm does not
/// exceed `max_norm`. Returns the pre-clip norm.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_global_norm(grads: &mut [&mut Matrix], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let total: f32 = grads
        .iter()
        .map(|g| {
            let n = g.frobenius_norm();
            n * n
        })
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for g in grads.iter_mut() {
            g.scale_assign(scale);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descend(config: OptimizerConfig, iterations: usize) -> f32 {
        // Minimize f(x) = x^2 starting from x=5; gradient 2x.
        let mut opt = config.build();
        let mut x = Matrix::row_vector(&[5.0]);
        for _ in 0..iterations {
            let grad = x.scale(2.0);
            opt.begin_step();
            opt.update(0, &mut x, &grad);
        }
        x.get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = quadratic_descend(OptimizerConfig::sgd(0.1), 100);
        assert!(x.abs() < 1e-3, "sgd final x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = quadratic_descend(OptimizerConfig::adam(0.2), 300);
        assert!(x.abs() < 1e-2, "adam final x = {x}");
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, Adam's first step is ≈ lr regardless of
        // gradient scale.
        let mut opt = OptimizerConfig::adam(0.1).build();
        let mut x = Matrix::row_vector(&[1.0]);
        let grad = Matrix::row_vector(&[1234.0]);
        opt.begin_step();
        opt.update(0, &mut x, &grad);
        assert!((x.get(0, 0) - (1.0 - 0.1)).abs() < 1e-3);
    }

    #[test]
    fn adam_matches_the_divide_always_form_bitwise() {
        // 300 steps pass both bias corrections' switch to exactly 1.0 when
        // β2 = 0.5 (bc2 from step 25, bc1 from step 165), and bc1's alone
        // when β2 = 0.999: all four loops run. The gradients mix signs,
        // zeros of both signs, sub-normal-bound moments, a NaN with a
        // payload and both infinities; parameters and moments are compared
        // through `to_bits`.
        for (beta1, beta2) in [(0.9f32, 0.5f32), (0.9, 0.999)] {
            let (lr, eps) = (1e-3f32, 1e-8f32);
            let mut opt = OptimizerConfig::Adam {
                lr,
                beta1,
                beta2,
                eps,
            }
            .build();
            let n = 37;
            let mut param = Matrix::from_fn(1, n, |_, j| (j as f32 - 18.0) * 0.0625);
            let mut expected = param.as_slice().to_vec();
            let (mut m, mut v) = (vec![0.0f32; n], vec![0.0f32; n]);
            let payload_nan = f32::from_bits(0x7fc0_1234);
            for step in 1..=300u64 {
                let grad = Matrix::from_fn(1, n, |_, j| match j {
                    0 => payload_nan,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    // Nonzero once, then zero: its moments decay into the
                    // sub-normal range and are flushed.
                    5 if step == 1 => 1e-3,
                    5 => 0.0,
                    _ => ((j as u64 * 7 + step * 13) % 23) as f32 * 0.125 - 1.375,
                });
                opt.begin_step();
                opt.update(0, &mut param, &grad);

                let t = step as f32;
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                for (j, &g) in grad.as_slice().iter().enumerate() {
                    m[j] = flush_subnormal(beta1 * m[j] + (1.0 - beta1) * g);
                    v[j] = flush_subnormal(beta2 * v[j] + (1.0 - beta2) * g * g);
                    let m_hat = m[j] / bc1;
                    let v_hat = v[j] / bc2;
                    expected[j] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let state = &opt.slots[0];
                assert_eq!(
                    bits(param.as_slice()),
                    bits(&expected),
                    "β2 {beta2}, step {step}"
                );
                assert_eq!(
                    bits(state.m.as_slice()),
                    bits(&m),
                    "β2 {beta2}, step {step}"
                );
                assert_eq!(
                    bits(state.v.as_slice()),
                    bits(&v),
                    "β2 {beta2}, step {step}"
                );
            }
            assert_eq!(1.0 - beta1.powf(300.0), 1.0);
            assert_eq!(1.0 - beta2.powf(300.0) == 1.0, beta2 == 0.5);
            assert!(param.as_slice()[0].is_nan() && param.as_slice()[6].is_finite());
        }
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = OptimizerConfig::adam(0.1).build();
        let mut a = Matrix::row_vector(&[1.0]);
        let mut b = Matrix::row_vector(&[1.0]);
        let ga = Matrix::row_vector(&[1.0]);
        let gb = Matrix::row_vector(&[0.0]);
        opt.begin_step();
        opt.update(0, &mut a, &ga);
        opt.update(1, &mut b, &gb);
        assert!(a.get(0, 0) < 1.0);
        assert_eq!(b.get(0, 0), 1.0); // zero grad, zero moments -> unchanged
    }

    #[test]
    fn sparse_slots_take_their_shape_on_first_use_in_any_order() {
        // Descending first use with a different shape per slot: padding
        // the skipped indices with state shaped like slot 200's parameter
        // made slot 100's first update a "shape changed" panic.
        let shapes = [(200usize, (3usize, 4usize)), (100, (2, 5)), (0, (1, 7))];
        let mut sparse = OptimizerConfig::adam(0.01).build();
        let mut packed = OptimizerConfig::adam(0.01).build();
        let mut params: Vec<(Matrix, Matrix)> = shapes
            .iter()
            .map(|&(_, (r, c))| {
                let p = Matrix::from_fn(r, c, |i, j| (i * c + j) as f32 * 0.125 - 0.5);
                (p.clone(), p)
            })
            .collect();
        for step in 0..3 {
            sparse.begin_step();
            packed.begin_step();
            for (i, (&(slot, (r, c)), (a, b))) in shapes.iter().zip(params.iter_mut()).enumerate() {
                let grad = Matrix::from_fn(r, c, |x, y| (x + 2 * y + step) as f32 * 0.25 - 1.0);
                sparse.update(slot, a, &grad);
                // Slots are independent, so the same parameter on a packed
                // index is the reference.
                packed.update(i, b, &grad);
                assert_eq!(a, b, "slot {slot}, step {step}");
            }
        }
        // 201 slots, three with moments; the rest hold nothing.
        assert_eq!(sparse.slots.len(), 201);
        let used = sparse.slots.iter().filter(|s| !s.m.is_empty()).count();
        assert_eq!(used, 3);
        assert!(sparse.slots[150].v.is_empty());
    }

    #[test]
    #[should_panic(expected = "optimizer slot 1 shape changed")]
    fn slot_reused_with_other_shape_panics() {
        let mut opt = OptimizerConfig::adam(0.01).build();
        opt.begin_step();
        opt.update(1, &mut Matrix::zeros(2, 2), &Matrix::zeros(2, 2));
        opt.update(1, &mut Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn clip_reduces_large_gradients() {
        let mut g1 = Matrix::row_vector(&[3.0, 0.0]);
        let mut g2 = Matrix::row_vector(&[0.0, 4.0]);
        let pre = clip_global_norm(&mut [&mut g1, &mut g2], 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post = (g1.frobenius_norm().powi(2) + g2.frobenius_norm().powi(2)).sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut g = Matrix::row_vector(&[0.1, 0.1]);
        let before = g.clone();
        clip_global_norm(&mut [&mut g], 10.0);
        assert_eq!(g, before);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let _ = OptimizerConfig::sgd(0.0).build();
    }
}
