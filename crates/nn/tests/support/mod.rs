//! Numerical gradient checking.
//!
//! Backprop bugs are silent — the network still trains, just badly. The
//! networks the system trains (ReLU hidden layers, an identity or a ReLU
//! output, the selected-output Huber loss) are validated against central
//! finite differences, both in the unit tests below and in
//! `proptest_nn.rs`.
//!
//! ReLU and Huber have kinks: at a pre-activation of zero, and where a
//! selected error crosses `|e| = δ`. A finite-difference window that
//! straddles one measures a slope from both sides and legitimately
//! disagrees with the analytic derivative, so such entries are skipped and
//! counted ([`GradCheckReport::skipped`]); callers bound their share.

use nn::activation::Activation;
use nn::loss::Loss;
use nn::mlp::{Mlp, Workspace};
use nn::optimizer::OptimizerConfig;
use nn::tensor::Matrix;

/// Result of comparing analytic and numeric gradients.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference across all checked parameters.
    pub max_abs_diff: f32,
    /// Largest relative difference (`|a-n| / max(1e-6, |a|+|n|)`).
    pub max_rel_diff: f32,
    /// Number of parameters checked.
    pub checked: usize,
    /// Number of parameters skipped because their finite-difference window
    /// crosses a ReLU kink or `|e| = δ`.
    pub skipped: usize,
}

impl GradCheckReport {
    /// `true` if both error measures are below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_diff < tol || self.max_rel_diff < tol
    }

    /// Skipped entries as a share of all the entries visited.
    pub fn skipped_share(&self) -> f64 {
        self.skipped as f64 / (self.checked + self.skipped).max(1) as f64
    }
}

/// The DQN's loss on `net`: `selected[r]` of row `r` regressed toward
/// `targets[r]`, unweighted.
#[derive(Debug, Clone, Copy)]
pub struct Selected<'a> {
    /// The output column each row regresses.
    pub selected: &'a [usize],
    /// Its target.
    pub targets: &'a [f32],
    /// The loss.
    pub loss: Loss,
}

/// Compares analytic parameter gradients of `net` against central finite
/// differences for the scalar loss `loss(net(x))`, evaluated through
/// [`Loss::evaluate_selected_into`]. The analytic gradients are the
/// layers' pending ones ([`nn::linear::Dense::gradients`]) after one
/// `forward_train_scratch` and `backward`.
///
/// Checks every parameter if the network is small, otherwise a strided
/// subset (bounded work for property tests).
///
/// # Panics
///
/// Panics on shape mismatches between `x`, the selection and the network.
pub fn check_mlp_gradients(
    net: &mut Mlp,
    x: &Matrix,
    loss: Selected<'_>,
    eps: f32,
) -> GradCheckReport {
    // Analytic pass.
    let mut grad_out = Matrix::default();
    let pred = net.forward_train_scratch(x);
    loss.loss
        .evaluate_selected_into(pred, loss.selected, loss.targets, None, &mut grad_out);
    net.backward(&grad_out);
    let analytic: Vec<(Matrix, Matrix)> = net
        .layers()
        .iter()
        .map(|l| {
            let (gw, gb) = l
                .gradients()
                .expect("backward left gradients in every layer");
            (gw.clone(), gb.clone())
        })
        .collect();

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let mut checked = 0usize;
    let mut skipped = 0usize;

    let total_params: usize = net.param_count();
    let stride = (total_params / 512).max(1);
    let mut flat_index = 0usize;
    let base = kink_sides(net, x, loss);

    for (layer_idx, grads) in analytic.iter().enumerate() {
        for (which, grad) in [&grads.0, &grads.1].into_iter().enumerate() {
            for r in 0..grad.rows() {
                for c in 0..grad.cols() {
                    flat_index += 1;
                    if !flat_index.is_multiple_of(stride) {
                        continue;
                    }
                    let at = (layer_idx, which, r, c);
                    let (plus, plus_sides) = perturbed_loss(net, at, eps, x, loss);
                    let (minus, minus_sides) = perturbed_loss(net, at, -eps, x, loss);
                    if plus_sides != base || minus_sides != base {
                        skipped += 1;
                        continue;
                    }
                    let a = grad.get(r, c);
                    let numeric = (plus - minus) / (2.0 * eps);
                    let abs = (a - numeric).abs();
                    let rel = abs / (a.abs() + numeric.abs()).max(1e-6);
                    max_abs = max_abs.max(abs);
                    max_rel = max_rel.max(rel);
                    checked += 1;
                }
            }
        }
    }
    GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
        checked,
        skipped,
    }
}

/// Which side of every kink the loss of `net` on `x` sits: the sign of
/// each ReLU pre-activation, layer by layer, then whether each row's
/// selected error lies within δ.
pub fn kink_sides(net: &Mlp, x: &Matrix, loss: Selected<'_>) -> Vec<bool> {
    let mut sides = Vec::new();
    let mut a = x.clone();
    for layer in net.layers() {
        let z = a.matmul(layer.weights()).add_row_broadcast(layer.bias());
        a = match layer.activation() {
            Activation::Identity => z,
            Activation::Relu => {
                sides.extend(z.as_slice().iter().map(|&v| v > 0.0));
                z.map(|v| v.max(0.0))
            }
        };
    }
    let Loss::Huber(delta) = loss.loss;
    for (r, (&c, &t)) in loss.selected.iter().zip(loss.targets).enumerate() {
        sides.push((a.get(r, c) - t).abs() <= delta);
    }
    sides
}

/// The loss with one parameter moved by `eps` (`at` = layer, weights if 0
/// else bias, row, column), and which side of every kink it sits on.
fn perturbed_loss(
    net: &mut Mlp,
    at: (usize, usize, usize, usize),
    eps: f32,
    x: &Matrix,
    loss: Selected<'_>,
) -> (f32, Vec<bool>) {
    perturb(net, at, eps);
    let mut ws = Workspace::new();
    let pred = net.forward_into(x, &mut ws);
    let l = loss.loss.evaluate_selected_into(
        pred,
        loss.selected,
        loss.targets,
        None,
        &mut Matrix::default(),
    );
    let sides = kink_sides(net, x, loss);
    perturb(net, at, -eps);
    (l, sides)
}

/// Adds `delta` to one parameter scalar (`at` = layer, weights if 0 else
/// bias, row, column) through the network's public update path: plain SGD
/// at rate 1 on a one-hot gradient of `-delta` computes
/// `p - 1·(-delta) = p + delta` exactly, and its zeros leave every other
/// parameter as it was (`p + -0.0` is `p` bit for bit, `-0.0` included).
fn perturb(net: &mut Mlp, (layer, which, r, c): (usize, usize, usize, usize), delta: f32) {
    let mut grads: Vec<(Matrix, Matrix)> = net
        .layers()
        .iter()
        .map(|l| {
            let ((wr, wc), (br, bc)) = (l.weights().shape(), l.bias().shape());
            (Matrix::zeros(wr, wc), Matrix::zeros(br, bc))
        })
        .collect();
    let (gw, gb) = &mut grads[layer];
    match which {
        0 => gw.set(r, c, -delta),
        _ => gb.set(r, c, -delta),
    }
    let mut sgd = OptimizerConfig::sgd(1.0).build();
    sgd.begin_step();
    net.apply_external_gradients(&grads, &mut sgd, 0);
}

mod tests {
    use super::*;
    use nn::mlp::MlpConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// At most this share of the entries may sit on a kink: beyond it the
    /// check would say little about the rest.
    const MAX_SKIPPED_SHARE: f64 = 0.2;

    /// Gradient-checks `config` on three rows, each regressing output
    /// `r % output_dim` under Huber(1.0): toward a target drawn from
    /// `±1`, or, given `errors`, toward the target that makes row `r`'s
    /// error `errors[r]`.
    fn check(config: MlpConfig, errors: Option<[f32; 3]>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&config, &mut rng);
        let x = Matrix::from_fn(3, config.input_dim, |_, _| rng.gen_range(-1.0..1.0));
        let selected: Vec<usize> = (0..3).map(|r| r % config.output_dim).collect();
        let pred = net.forward_into(&x, &mut Workspace::new()).clone();
        let targets: Vec<f32> = (0..3)
            .map(|r| match errors {
                Some(e) => pred.get(r, selected[r]) - e[r],
                None => rng.gen_range(-1.0..1.0),
            })
            .collect();
        let loss = Selected {
            selected: &selected,
            targets: &targets,
            loss: Loss::Huber(1.0),
        };
        let report = check_mlp_gradients(&mut net, &x, loss, 1e-2);
        assert!(
            report.passes(2e-2),
            "gradcheck failed for {config:?}: {report:?}"
        );
        assert!(report.checked > 0);
        assert!(
            report.skipped_share() <= MAX_SKIPPED_SHARE,
            "{report:?}: too many entries on a kink"
        );
    }

    #[test]
    fn relu_huber_gradients_match() {
        check(MlpConfig::new(5, &[10], 4), None, 3);
    }

    #[test]
    fn relu_output_gradients_match() {
        // The dueling trunk's shape: every layer ReLU.
        check(
            MlpConfig::new(4, &[8], 6).output_activation(Activation::Relu),
            None,
            6,
        );
    }

    #[test]
    fn linear_net_gradients_match() {
        check(MlpConfig::new(4, &[], 2), None, 4);
    }

    #[test]
    fn deep_network_gradients_match() {
        check(MlpConfig::new(3, &[6, 6, 6, 6], 2), None, 5);
    }

    #[test]
    fn huber_both_sides_of_delta_gradients_match() {
        // One error inside δ, one above it and one below -δ, each well
        // clear of |e| = δ.
        check(MlpConfig::new(4, &[8, 6], 3), Some([0.4, 2.5, -1.8]), 1);
    }
}
