//! REINFORCE (Monte-Carlo policy gradient, Williams 1992) with a
//! moving-average baseline and masked softmax policies.
//!
//! The extension manager: where DQN learns action values, REINFORCE learns
//! the placement distribution directly. Included for the algorithm
//! comparison experiment and as the natural "future work" extension of a
//! DQN-based paper.

use crate::env::masked_argmax;
use nn::prelude::*;
use nn::tensor::Matrix;
use rand::Rng;

/// Large negative logit standing in for −∞ on masked actions.
const MASKED_LOGIT: f32 = -1e9;

/// REINFORCE hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ReinforceConfig {
    /// Hidden layer widths of the policy network.
    pub hidden: Vec<usize>,
    /// Discount factor γ for within-episode returns.
    pub gamma: f32,
    /// Optimizer.
    pub optimizer: OptimizerConfig,
    /// Global gradient-norm clip.
    pub max_grad_norm: Option<f32>,
    /// Exponential-moving-average coefficient of the return baseline in
    /// `[0, 1)`; `0` disables the baseline.
    pub baseline_ema: f32,
    /// Entropy-bonus coefficient: keeps the softmax from collapsing onto a
    /// single action before the return signal is informative. `0` disables.
    pub entropy_coef: f32,
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        Self {
            hidden: vec![128, 128],
            gamma: 0.95,
            optimizer: OptimizerConfig::adam(3e-4),
            max_grad_norm: Some(10.0),
            baseline_ema: 0.99,
            entropy_coef: 0.01,
        }
    }
}

impl ReinforceConfig {
    /// Validates hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.gamma), "gamma must be in [0,1]");
        assert!(
            (0.0..1.0).contains(&self.baseline_ema),
            "baseline_ema must be in [0,1)"
        );
        assert!(
            self.entropy_coef >= 0.0,
            "entropy_coef must be non-negative"
        );
    }
}

/// One step of the in-flight episode.
#[derive(Debug, Clone)]
struct EpisodeStep {
    state: Vec<f32>,
    mask: Vec<bool>,
    action: usize,
    reward: f32,
}

/// Reusable hot-path buffers: the inference workspace, the per-decision
/// probability vector, and the episode-update tensors.
#[derive(Clone, Default)]
struct PgScratch {
    ws: Workspace,
    probs: Vec<f32>,
    returns: Vec<f32>,
    states: Matrix,
    grad: Matrix,
}

/// A REINFORCE agent over vectorized states and masked discrete actions.
#[derive(Clone)]
pub struct ReinforceAgent {
    config: ReinforceConfig,
    net: Mlp,
    optimizer: Optimizer,
    episode: Vec<EpisodeStep>,
    /// EMA of episode returns (the variance-reduction baseline).
    baseline: f32,
    baseline_initialized: bool,
    episodes_trained: u64,
    /// Reusable hot-path buffers (no behavioral state).
    scratch: PgScratch,
}

impl std::fmt::Debug for ReinforceAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReinforceAgent")
            .field("state_dim", &self.net.input_dim())
            .field("action_count", &self.net.output_dim())
            .field("episodes_trained", &self.episodes_trained)
            .finish()
    }
}

impl ReinforceAgent {
    /// Builds an agent for `state_dim` observations and `action_count`
    /// actions.
    ///
    /// # Panics
    ///
    /// Panics on invalid config or zero dimensions.
    pub fn new<R: Rng + ?Sized>(
        config: ReinforceConfig,
        state_dim: usize,
        action_count: usize,
        rng: &mut R,
    ) -> Self {
        config.validate();
        let net_config = MlpConfig::new(state_dim, &config.hidden, action_count);
        let net = Mlp::new(&net_config, rng);
        let optimizer = config.optimizer.build();
        Self {
            config,
            net,
            optimizer,
            episode: Vec::new(),
            baseline: 0.0,
            baseline_initialized: false,
            episodes_trained: 0,
            scratch: PgScratch::default(),
        }
    }

    /// Episodes completed with a gradient update.
    pub fn episodes_trained(&self) -> u64 {
        self.episodes_trained
    }

    /// Masked action probabilities for a state.
    ///
    /// Takes `&mut self` to route inference through the agent-owned
    /// workspace; the result is a pure function of the network.
    ///
    /// # Panics
    ///
    /// Panics if every action is masked or lengths mismatch.
    pub fn action_probabilities(&mut self, state: &[f32], mask: &[bool]) -> Vec<f32> {
        self.probabilities_scratch(state, mask);
        self.scratch.probs.clone()
    }

    /// Fills `self.scratch.probs` with the masked policy for `state`
    /// without allocating.
    fn probabilities_scratch(&mut self, state: &[f32], mask: &[bool]) {
        let PgScratch { ws, probs, .. } = &mut self.scratch;
        let logits = self.net.forward_one_into(state, ws);
        masked_softmax_into(logits, mask, probs);
    }

    /// Samples an action from the current policy.
    ///
    /// # Panics
    ///
    /// Panics if every action is masked.
    pub fn act<R: Rng + ?Sized>(&mut self, state: &[f32], mask: &[bool], rng: &mut R) -> usize {
        self.probabilities_scratch(state, mask);
        let probs = &self.scratch.probs;
        let mut u: f32 = rng.gen();
        for (i, &p) in probs.iter().enumerate() {
            if u < p {
                return i;
            }
            u -= p;
        }
        // Numerical fallback: the most probable valid action.
        masked_argmax(probs, mask).expect("act called with fully-masked action set")
    }

    /// The policy mode (most probable action) for evaluation.
    ///
    /// # Panics
    ///
    /// Panics if every action is masked.
    pub fn act_greedy(&mut self, state: &[f32], mask: &[bool]) -> usize {
        self.probabilities_scratch(state, mask);
        masked_argmax(&self.scratch.probs, mask)
            .expect("act_greedy called with fully-masked action set")
    }

    /// Greedy (mode) actions for a whole batch of decisions: `states`
    /// holds one encoded state per row, `masks` is the row-major
    /// valid-action mask (`masks[r * action_count + c]`), and `out`
    /// receives one action per row (cleared first).
    ///
    /// One batched forward produces every row's logits, then each row goes
    /// through the exact masked softmax + argmax that
    /// [`ReinforceAgent::act_greedy`] applies, so the selected actions are
    /// bit-identical to the per-state path (rows are independent under the
    /// kernels) — pinned by the batch-parity test suite.
    ///
    /// # Panics
    ///
    /// Panics if `masks.len() != states.rows() * action_count` or any row
    /// is fully masked.
    pub fn act_greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        let actions = self.net.output_dim();
        assert_eq!(
            masks.len(),
            states.rows() * actions,
            "masks length {} != rows*actions {}",
            masks.len(),
            states.rows() * actions
        );
        let PgScratch { ws, probs, .. } = &mut self.scratch;
        let logits = self.net.forward_into(states, ws);
        out.clear();
        out.reserve(logits.rows());
        for r in 0..logits.rows() {
            let mask = &masks[r * actions..(r + 1) * actions];
            masked_softmax_into(logits.row(r), mask, probs);
            out.push(
                masked_argmax(probs, mask)
                    .expect("act_greedy_batch called with a fully-masked action set row"),
            );
        }
    }

    /// Records one step of the in-flight episode.
    pub fn record_step(&mut self, state: Vec<f32>, mask: Vec<bool>, action: usize, reward: f32) {
        self.episode.push(EpisodeStep {
            state,
            mask,
            action,
            reward,
        });
    }

    /// Ends the episode: computes discounted returns, subtracts the
    /// baseline, and applies one policy-gradient update. Returns the
    /// undiscounted episode return, or `None` for an empty episode.
    pub fn end_episode(&mut self) -> Option<f32> {
        if self.episode.is_empty() {
            return None;
        }
        let steps = std::mem::take(&mut self.episode);
        let n = steps.len();

        // Discounted return-to-go per step (into the reusable buffer).
        let returns = &mut self.scratch.returns;
        returns.clear();
        returns.resize(n, 0.0);
        let mut acc = 0.0f32;
        for i in (0..n).rev() {
            acc = steps[i].reward + self.config.gamma * acc;
            returns[i] = acc;
        }
        let episode_return: f32 = steps.iter().map(|s| s.reward).sum();

        // Baseline update (EMA of the episode's mean return-to-go).
        let mean_return = returns.iter().sum::<f32>() / n as f32;
        if self.baseline_initialized {
            let ema = self.config.baseline_ema;
            self.baseline = ema * self.baseline + (1.0 - ema) * mean_return;
        } else if self.config.baseline_ema > 0.0 {
            self.baseline = mean_return;
            self.baseline_initialized = true;
        }

        // Batched forward over the episode, manual ∇ log π gradient:
        // dL/dlogits_i = A · (π_i − 1{i = a}) / n for the chosen action a.
        // Everything runs in reusable buffers: the episode states gather
        // into one long-lived matrix, logits live in the network's training
        // scratch, and the gradient/probability buffers are agent-owned.
        let state_dim = self.net.input_dim();
        {
            let PgScratch {
                returns,
                states,
                grad,
                probs,
                ..
            } = &mut self.scratch;
            states.begin_rows(n, state_dim);
            for s in steps.iter() {
                states.push_row(&s.state);
            }
            let logits = self.net.forward_train_scratch(&*states);
            grad.reset_for_overwrite(n, logits.cols());
            for (r, step) in steps.iter().enumerate() {
                let advantage = returns[r]
                    - if self.baseline_initialized {
                        self.baseline
                    } else {
                        0.0
                    };
                masked_softmax_into(logits.row(r), &step.mask, probs);
                // Entropy of the masked policy at this state (for the bonus).
                let entropy: f32 = probs
                    .iter()
                    .filter(|&&p| p > 0.0)
                    .map(|&p| -p * p.ln())
                    .sum();
                for (c, &p) in probs.iter().enumerate() {
                    let indicator = if c == step.action { 1.0 } else { 0.0 };
                    // Policy-gradient term plus entropy-bonus term
                    // (dH/dlogit_c = p_c·(−ln p_c − H); we *ascend* entropy).
                    let pg = advantage * (p - indicator);
                    let ent = if p > 0.0 {
                        -self.config.entropy_coef * p * (-p.ln() - entropy)
                    } else {
                        0.0
                    };
                    grad.set(r, c, (pg + ent) / n as f32);
                }
            }
        }
        self.net.backward_scratch(&self.scratch.grad);
        self.net
            .apply_gradients(&mut self.optimizer, self.config.max_grad_norm);
        self.episodes_trained += 1;
        Some(episode_return)
    }

    /// Discards the in-flight episode without learning (evaluation mode).
    pub fn abandon_episode(&mut self) {
        self.episode.clear();
    }
}

/// Softmax over `logits` with masked entries forced to probability zero.
///
/// # Panics
///
/// Panics if lengths differ or every action is masked.
pub fn masked_softmax(logits: &[f32], mask: &[bool]) -> Vec<f32> {
    let mut out = Vec::new();
    masked_softmax_into(logits, mask, &mut out);
    out
}

/// [`masked_softmax`] into a caller-owned buffer (cleared first) — the
/// allocation-free decision-loop form. Identical arithmetic in identical
/// order, so results match [`masked_softmax`] bit for bit.
///
/// # Panics
///
/// Panics if lengths differ or every action is masked.
pub fn masked_softmax_into(logits: &[f32], mask: &[bool], out: &mut Vec<f32>) {
    assert_eq!(logits.len(), mask.len(), "logits/mask length mismatch");
    assert!(
        mask.iter().any(|&m| m),
        "masked_softmax with fully-masked action set"
    );
    out.clear();
    out.extend(
        logits
            .iter()
            .zip(mask.iter())
            .map(|(&l, &ok)| if ok { l } else { MASKED_LOGIT }),
    );
    let max = out.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in out.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for v in out.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn masked_softmax_zeroes_invalid() {
        let p = masked_softmax(&[1.0, 2.0, 3.0], &[true, false, true]);
        assert!(p[1] < 1e-6);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p[2] > p[0]);
    }

    #[test]
    fn masked_softmax_uniform_for_equal_logits() {
        let p = masked_softmax(&[0.5, 0.5], &[true, true]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "fully-masked")]
    fn fully_masked_softmax_panics() {
        let _ = masked_softmax(&[1.0], &[false]);
    }

    #[test]
    fn empty_episode_is_noop() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = ReinforceAgent::new(ReinforceConfig::default(), 2, 2, &mut rng);
        assert_eq!(agent.end_episode(), None);
        assert_eq!(agent.episodes_trained(), 0);
    }

    #[test]
    fn act_respects_mask() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = ReinforceAgent::new(ReinforceConfig::default(), 2, 3, &mut rng);
        for _ in 0..50 {
            let a = agent.act(&[0.1, 0.2], &[false, true, false], &mut rng);
            assert_eq!(a, 1);
        }
    }

    #[test]
    fn batch_greedy_matches_sequential_bitwise() {
        use nn::tensor::Matrix;
        let mut rng = StdRng::seed_from_u64(21);
        let config = ReinforceConfig {
            hidden: vec![16],
            ..ReinforceConfig::default()
        };
        let mut agent = ReinforceAgent::new(config, 3, 4, &mut rng);
        let rows = 5;
        let mut states = Matrix::default();
        states.begin_rows(rows, 3);
        let mut masks = Vec::new();
        for r in 0..rows {
            states.push_row(&[0.2 * r as f32, 1.0 - r as f32 * 0.1, -0.4]);
            for c in 0..4 {
                masks.push(c == 3 || (r + c) % 2 == 0);
            }
        }
        let mut batch_actions = Vec::new();
        agent.act_greedy_batch(&states, &masks, &mut batch_actions);
        for r in 0..rows {
            let mask: Vec<bool> = masks[r * 4..(r + 1) * 4].to_vec();
            assert_eq!(batch_actions[r], agent.act_greedy(states.row(r), &mask));
        }
    }

    #[test]
    #[should_panic(expected = "fully-masked")]
    fn batch_greedy_fully_masked_row_panics() {
        use nn::tensor::Matrix;
        let mut rng = StdRng::seed_from_u64(22);
        let mut agent = ReinforceAgent::new(ReinforceConfig::default(), 2, 2, &mut rng);
        let states = Matrix::from_rows(&[&[0.0, 0.0]]);
        let mut out = Vec::new();
        agent.act_greedy_batch(&states, &[false, false], &mut out);
    }

    #[test]
    fn abandon_discards_without_training() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut agent = ReinforceAgent::new(ReinforceConfig::default(), 2, 2, &mut rng);
        agent.record_step(vec![0.0, 0.0], vec![true, true], 0, 1.0);
        agent.abandon_episode();
        assert_eq!(agent.end_episode(), None);
    }
}
