//! Q-value networks: standard MLP head and the dueling decomposition.

use nn::prelude::*;
use nn::tensor::Matrix;
use rand::Rng;

/// Architecture of a Q-network.
#[derive(Debug, Clone, PartialEq)]
pub enum QNetworkConfig {
    /// Plain MLP: `state -> hidden -> Q(s, ·)`.
    Standard {
        /// Hidden layer widths.
        hidden: Vec<usize>,
    },
    /// Dueling (Wang et al. 2016): shared trunk, then separate value and
    /// advantage heads combined as `Q = V + A - mean(A)`.
    Dueling {
        /// Shared trunk widths.
        trunk: Vec<usize>,
        /// Width of each head's hidden layer (one layer per head).
        head: usize,
    },
}

impl Default for QNetworkConfig {
    fn default() -> Self {
        QNetworkConfig::Standard {
            hidden: vec![64, 64],
        }
    }
}

/// Reusable inference buffers for a [`QNetwork`]: one MLP [`Workspace`]
/// per sub-network plus staging/combine matrices for the dueling head.
/// Owned by callers (the DQN agent keeps one per network it evaluates), so
/// a warm workspace makes batched and single-state inference
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct QNetWorkspace {
    input: Matrix,
    trunk: Workspace,
    value: Workspace,
    advantage: Workspace,
    q: Matrix,
}

impl QNetWorkspace {
    /// An empty workspace; buffers take shape on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The dueling learn step's buffers, reused across steps: the combined
/// Q-values, their loss gradient, the two heads' output gradients and the
/// trunk's output gradient (their sum after the heads' backward passes).
#[derive(Debug, Clone, Default)]
pub struct DuelingScratch {
    q: Matrix,
    grad_q: Matrix,
    grad_v: Matrix,
    grad_a: Matrix,
    grad_t: Matrix,
}

/// A trainable state-action value function `Q(s, ·)` over discrete actions.
// The dueling variant inlines three MLPs (each carrying its own training
// scratch); boxing them would put an indirection on the hottest forward
// path for no measurable memory win — agents hold exactly one or two
// QNetworks.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum QNetwork {
    /// Plain MLP variant.
    Standard(Mlp),
    /// Dueling variant with shared trunk and two heads.
    Dueling {
        /// Shared representation trunk.
        trunk: Mlp,
        /// State-value head (`1` output).
        value: Mlp,
        /// Advantage head (`action_count` outputs).
        advantage: Mlp,
        /// Learn-step buffers (not part of the model's state).
        scratch: DuelingScratch,
    },
}

impl QNetwork {
    /// Builds a Q-network for `state_dim` inputs and `action_count` outputs.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or a dueling trunk is empty.
    pub fn new<R: Rng + ?Sized>(
        config: &QNetworkConfig,
        state_dim: usize,
        action_count: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            state_dim > 0 && action_count > 0,
            "network dimensions must be positive"
        );
        match config {
            QNetworkConfig::Standard { hidden } => QNetwork::Standard(Mlp::new(
                &MlpConfig::new(state_dim, hidden, action_count),
                rng,
            )),
            QNetworkConfig::Dueling { trunk, head } => {
                assert!(
                    !trunk.is_empty(),
                    "dueling trunk must have at least one layer"
                );
                assert!(*head > 0, "dueling head width must be positive");
                let trunk_out = *trunk.last().expect("non-empty trunk");
                // Trunk ends with an activated hidden layer; heads are small
                // MLPs on top of it.
                let trunk_cfg = MlpConfig::new(state_dim, &trunk[..trunk.len() - 1], trunk_out)
                    .output_activation(Activation::Relu);
                let value_cfg = MlpConfig::new(trunk_out, &[*head], 1);
                let adv_cfg = MlpConfig::new(trunk_out, &[*head], action_count);
                QNetwork::Dueling {
                    trunk: Mlp::new(&trunk_cfg, rng),
                    value: Mlp::new(&value_cfg, rng),
                    advantage: Mlp::new(&adv_cfg, rng),
                    scratch: DuelingScratch::default(),
                }
            }
        }
    }

    /// Number of actions (output width).
    pub fn action_count(&self) -> usize {
        match self {
            QNetwork::Standard(net) => net.output_dim(),
            QNetwork::Dueling { advantage, .. } => advantage.output_dim(),
        }
    }

    /// State input dimension.
    pub fn state_dim(&self) -> usize {
        match self {
            QNetwork::Standard(net) => net.input_dim(),
            QNetwork::Dueling { trunk, .. } => trunk.input_dim(),
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            QNetwork::Standard(net) => net.param_count(),
            QNetwork::Dueling {
                trunk,
                value,
                advantage,
                ..
            } => trunk.param_count() + value.param_count() + advantage.param_count(),
        }
    }

    /// Batched Q-values (`batch x action_count`) through a caller-owned
    /// workspace; returns a reference into the workspace, valid until its
    /// next use.
    /// Allocation-free once the workspace is warm.
    pub fn forward_into<'w>(&self, states: &Matrix, ws: &'w mut QNetWorkspace) -> &'w Matrix {
        let QNetWorkspace {
            trunk,
            value,
            advantage,
            q,
            ..
        } = ws;
        self.forward_parts(states, trunk, value, advantage, q)
    }

    fn forward_parts<'w>(
        &self,
        states: &Matrix,
        trunk_ws: &'w mut Workspace,
        value_ws: &'w mut Workspace,
        advantage_ws: &'w mut Workspace,
        q: &'w mut Matrix,
    ) -> &'w Matrix {
        match self {
            QNetwork::Standard(net) => net.forward_into(states, trunk_ws),
            QNetwork::Dueling {
                trunk,
                value,
                advantage,
                ..
            } => {
                let t = trunk.forward_into(states, trunk_ws);
                let v = value.forward_into(t, value_ws);
                let a = advantage.forward_into(t, advantage_ws);
                combine_dueling_into(v, a, q);
                &*q
            }
        }
    }

    /// Single-state inference through a caller-owned workspace; the action
    /// hot path. Returns the Q-value row, valid until the workspace's next
    /// use.
    pub fn q_values_into<'w>(&self, state: &[f32], ws: &'w mut QNetWorkspace) -> &'w [f32] {
        ws.input.set_row_vector(state);
        let QNetWorkspace {
            input,
            trunk,
            value,
            advantage,
            q,
        } = ws;
        self.forward_parts(&*input, trunk, value, advantage, q)
            .row(0)
    }

    /// Training step regressing `Q(s, selected)` toward `targets`.
    ///
    /// Returns `(loss, td_errors)`.
    #[allow(clippy::too_many_arguments)]
    pub fn train_selected(
        &mut self,
        states: &Matrix,
        selected: &[usize],
        targets: &[f32],
        weights: Option<&[f32]>,
        loss: Loss,
        optimizer: &mut Optimizer,
        max_grad_norm: Option<f32>,
    ) -> (f32, Vec<f32>) {
        match self {
            QNetwork::Standard(net) => net.train_selected(
                states,
                selected,
                targets,
                weights,
                loss,
                optimizer,
                max_grad_norm,
            ),
            QNetwork::Dueling {
                trunk,
                value,
                advantage,
                scratch,
            } => {
                // Forward with caches, every tensor in a network-owned
                // buffer: the returned TD vector is a warm step's only
                // allocation, as for a standard network.
                let DuelingScratch {
                    q,
                    grad_q,
                    grad_v,
                    grad_a,
                    grad_t,
                } = scratch;
                let t = trunk.forward_train_scratch(states);
                let v = value.forward_train_scratch(t);
                let a = advantage.forward_train_scratch(t);
                combine_dueling_into(v, a, q);

                let td: Vec<f32> = selected
                    .iter()
                    .zip(targets.iter())
                    .enumerate()
                    .map(|(r, (&c, &tgt))| q.get(r, c) - tgt)
                    .collect();
                let l = loss.evaluate_selected_into(q, selected, targets, weights, grad_q);

                // Q_{r,c} = V_r + A_{r,c} - mean_k A_{r,k}
                // dL/dV_r = Σ_c dL/dQ_{r,c}
                // dL/dA_{r,c} = dL/dQ_{r,c} - (1/K) Σ_k dL/dQ_{r,k}
                let k = grad_q.cols() as f32;
                grad_v.reset_for_overwrite(grad_q.rows(), 1);
                grad_a.reset_for_overwrite(grad_q.rows(), grad_q.cols());
                for r in 0..grad_q.rows() {
                    let row_sum: f32 = grad_q.row(r).iter().sum();
                    grad_v.set(r, 0, row_sum);
                    for (ga, &gq) in grad_a.row_mut(r).iter_mut().zip(grad_q.row(r)) {
                        *ga = gq - row_sum / k;
                    }
                }
                // dL/dtrunk output = the value head's input gradient plus
                // the advantage head's (`1.0 · x` is `x`, so these are the
                // bits of an element-wise add).
                grad_t.copy_from(value.backward(grad_v));
                grad_t.add_scaled_assign(advantage.backward(grad_a), 1.0);
                trunk.backward_scratch(grad_t);

                // Apply all three sub-networks under one optimizer step
                // using disjoint slot ranges (layer indices offset per
                // subnet). Each sub-network is clipped on its own norm, so
                // `max_grad_norm` bounds three norms, not the whole
                // network's as for a standard network: that is the update
                // the dueling rows of the convergence and ablation figures
                // (fig1, fig9) were produced with, and one global clip
                // would move their bytes.
                optimizer.begin_step();
                trunk.apply_gradients_in_step(optimizer, 0, max_grad_norm);
                value.apply_gradients_in_step(optimizer, 100, max_grad_norm);
                advantage.apply_gradients_in_step(optimizer, 200, max_grad_norm);
                (l, td)
            }
        }
    }

    /// Hard parameter copy (target-network sync).
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn copy_parameters_from(&mut self, other: &QNetwork) {
        match (self, other) {
            (QNetwork::Standard(a), QNetwork::Standard(b)) => a.copy_parameters_from(b),
            (
                QNetwork::Dueling {
                    trunk: t1,
                    value: v1,
                    advantage: a1,
                    ..
                },
                QNetwork::Dueling {
                    trunk: t2,
                    value: v2,
                    advantage: a2,
                    ..
                },
            ) => {
                t1.copy_parameters_from(t2);
                v1.copy_parameters_from(v2);
                a1.copy_parameters_from(a2);
            }
            _ => panic!("cannot copy parameters between different Q-network variants"),
        }
    }

    /// `true` if any parameter is NaN/inf.
    pub fn has_non_finite_params(&self) -> bool {
        match self {
            QNetwork::Standard(net) => net.has_non_finite_params(),
            QNetwork::Dueling {
                trunk,
                value,
                advantage,
                ..
            } => {
                trunk.has_non_finite_params()
                    || value.has_non_finite_params()
                    || advantage.has_non_finite_params()
            }
        }
    }
}

/// `Q = V + A - mean(A)` with the mean subtracted per row
/// (identifiability), into a reusable buffer. The per-row mean is computed
/// once (bit-identical to recomputing it per column: the summation order
/// is unchanged).
fn combine_dueling_into(v: &Matrix, a: &Matrix, out: &mut Matrix) {
    assert_eq!(v.rows(), a.rows(), "dueling heads batch mismatch");
    assert_eq!(v.cols(), 1, "value head must have one output");
    let k = a.cols() as f32;
    out.reset_for_overwrite(a.rows(), a.cols());
    for r in 0..a.rows() {
        let mean: f32 = a.row(r).iter().sum::<f32>() / k;
        let vr = v.get(r, 0);
        for (o, &av) in out.row_mut(r).iter_mut().zip(a.row(r).iter()) {
            *o = vr + av - mean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    /// Q-values of one state, through a fresh workspace.
    fn q_values(net: &QNetwork, state: &[f32]) -> Vec<f32> {
        net.q_values_into(state, &mut QNetWorkspace::new()).to_vec()
    }

    #[test]
    fn standard_shapes() {
        let net = QNetwork::new(
            &QNetworkConfig::Standard { hidden: vec![8] },
            4,
            3,
            &mut rng(),
        );
        assert_eq!(net.state_dim(), 4);
        assert_eq!(net.action_count(), 3);
        assert_eq!(q_values(&net, &[0.0; 4]).len(), 3);
    }

    #[test]
    fn dueling_shapes() {
        let net = QNetwork::new(
            &QNetworkConfig::Dueling {
                trunk: vec![16, 8],
                head: 8,
            },
            5,
            4,
            &mut rng(),
        );
        assert_eq!(net.state_dim(), 5);
        assert_eq!(net.action_count(), 4);
        assert!(net.param_count() > 0);
    }

    #[test]
    fn dueling_combine_is_mean_centered() {
        let v = Matrix::from_rows(&[&[2.0]]);
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut q = Matrix::default();
        combine_dueling_into(&v, &a, &mut q);
        // mean(A) = 2 → Q = 2 + [-1, 0, 1]
        assert_eq!(q, Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        // Mean of Q equals V.
        assert!((q.row(0).iter().sum::<f32>() / 3.0 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn standard_training_reduces_td_error() {
        let mut net = QNetwork::new(
            &QNetworkConfig::Standard { hidden: vec![16] },
            3,
            2,
            &mut rng(),
        );
        let mut opt = OptimizerConfig::adam(0.01).build();
        let states = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let selected = [0usize, 1usize];
        let targets = [1.0f32, -1.0f32];
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..200 {
            let (l, _) = net.train_selected(
                &states,
                &selected,
                &targets,
                None,
                Loss::Huber(1.0),
                &mut opt,
                None,
            );
            if i == 0 {
                first = l;
            }
            last = l;
        }
        assert!(last < first * 0.05, "loss {first} -> {last}");
    }

    #[test]
    fn dueling_training_reduces_td_error() {
        let mut net = QNetwork::new(
            &QNetworkConfig::Dueling {
                trunk: vec![16],
                head: 8,
            },
            3,
            2,
            &mut rng(),
        );
        let mut opt = OptimizerConfig::adam(0.01).build();
        let states = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let selected = [0usize, 1usize];
        let targets = [1.0f32, -1.0f32];
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..300 {
            let (l, _) = net.train_selected(
                &states,
                &selected,
                &targets,
                None,
                Loss::Huber(1.0),
                &mut opt,
                None,
            );
            if i == 0 {
                first = l;
            }
            last = l;
        }
        assert!(last < first * 0.1, "dueling loss {first} -> {last}");
    }

    #[test]
    fn copy_parameters_aligns_outputs() {
        let config = QNetworkConfig::Dueling {
            trunk: vec![8],
            head: 4,
        };
        let a = QNetwork::new(&config, 3, 2, &mut rng());
        let mut b = QNetwork::new(&config, 3, 2, &mut StdRng::seed_from_u64(1));
        b.copy_parameters_from(&a);
        let s = [0.3, -0.2, 0.9];
        assert_eq!(q_values(&a, &s), q_values(&b, &s));
    }

    #[test]
    #[should_panic(expected = "different Q-network variants")]
    fn copy_between_variants_panics() {
        let a = QNetwork::new(
            &QNetworkConfig::Standard { hidden: vec![4] },
            2,
            2,
            &mut rng(),
        );
        let mut b = QNetwork::new(
            &QNetworkConfig::Dueling {
                trunk: vec![4],
                head: 2,
            },
            2,
            2,
            &mut rng(),
        );
        b.copy_parameters_from(&a);
    }
}
