//! Deep Q-Network agent (Mnih et al. 2015) with the standard extensions:
//! Double DQN (van Hasselt et al. 2016), Dueling networks (Wang et al. 2016)
//! and prioritized experience replay (Schaul et al. 2016) — each
//! independently switchable for the ablation experiments.

use crate::env::{masked_argmax, masked_max};
use crate::qnet::{QNetWorkspace, QNetwork, QNetworkConfig};
use crate::replay::{PerConfig, PrioritizedReplay, Replay, TransitionStore, UniformReplay};
use crate::schedule::EpsilonSchedule;
use crate::transition::AsTransition;
use nn::prelude::*;
use nn::tensor::Matrix;
use rand::Rng;

/// Full DQN hyperparameter set.
///
/// Defaults reproduce a conservative small-scale DQN suitable for the VNF
/// placement MDP; every ablation knob is explicit.
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// Q-network architecture.
    pub network: QNetworkConfig,
    /// Discount factor γ.
    pub gamma: f32,
    /// Optimizer (Adam by default).
    pub optimizer: OptimizerConfig,
    /// Loss (Huber by default).
    pub loss: Loss,
    /// Global gradient-norm clip; `None` disables clipping.
    pub max_grad_norm: Option<f32>,
    /// Replay capacity. A capacity of 1 with `batch_size` 1 effectively
    /// disables experience replay (online Q-learning) — the ablation case.
    pub replay_capacity: usize,
    /// Minibatch size per learn step.
    pub batch_size: usize,
    /// Steps observed before learning starts.
    pub learn_start: usize,
    /// Learn every `train_every` environment steps.
    pub train_every: usize,
    /// Hard target sync period in learn steps; `0` disables the separate
    /// target network (the ablation case: targets from the online network).
    pub target_sync_every: u64,
    /// Double-DQN action selection for bootstrapped targets.
    pub double: bool,
    /// Prioritized replay configuration; `None` = uniform replay.
    pub prioritized: Option<PerConfig>,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            network: QNetworkConfig::default(),
            gamma: 0.99,
            optimizer: OptimizerConfig::adam(1e-3),
            loss: Loss::Huber(1.0),
            max_grad_norm: Some(10.0),
            replay_capacity: 50_000,
            batch_size: 32,
            learn_start: 500,
            train_every: 1,
            target_sync_every: 500,
            double: true,
            prioritized: None,
            epsilon: EpsilonSchedule::default(),
        }
    }
}

impl DqnConfig {
    /// Validates hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.gamma), "gamma must be in [0,1]");
        assert!(self.replay_capacity > 0, "replay capacity must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.train_every > 0, "train_every must be positive");
        self.epsilon.validate();
        if let Some(per) = &self.prioritized {
            per.validate();
        }
    }
}

/// The replay sampler, chosen at construction; both keep their
/// transitions in a [`TransitionStore`].
#[derive(Debug, Clone)]
enum ReplayStore {
    Uniform(UniformReplay),
    Prioritized(PrioritizedReplay),
}

impl Replay for ReplayStore {
    fn push(&mut self, t: impl AsTransition) {
        match self {
            ReplayStore::Uniform(b) => b.push(t),
            ReplayStore::Prioritized(b) => b.push(t),
        }
    }

    fn store(&self) -> &TransitionStore {
        match self {
            ReplayStore::Uniform(b) => b.store(),
            ReplayStore::Prioritized(b) => b.store(),
        }
    }

    fn sample_into<R: Rng + ?Sized>(
        &mut self,
        batch: usize,
        rng: &mut R,
        indices: &mut Vec<u64>,
        weights: &mut Vec<f32>,
    ) {
        match self {
            ReplayStore::Uniform(b) => b.sample_into(batch, rng, indices, weights),
            ReplayStore::Prioritized(b) => b.sample_into(batch, rng, indices, weights),
        }
    }

    fn update_priorities(&mut self, indices: &[u64], td: &[f32]) {
        match self {
            ReplayStore::Uniform(b) => b.update_priorities(indices, td),
            ReplayStore::Prioritized(b) => b.update_priorities(indices, td),
        }
    }
}

/// Telemetry from one learn step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnStats {
    /// Minibatch loss.
    pub loss: f32,
    /// Mean |TD error| over the minibatch.
    pub mean_abs_td: f32,
    /// Current ε.
    pub epsilon: f32,
}

/// Long-lived buffers for the agent's decision and learn hot paths:
/// per-network inference workspaces, the two gathered minibatch matrices,
/// and every per-step vector the old code rebuilt on each call.
#[derive(Clone, Default)]
struct DqnScratch {
    /// Online-network inference workspace (actions and Double-DQN
    /// selection).
    online_ws: QNetWorkspace,
    /// Bootstrap-network inference workspace (target evaluation).
    target_ws: QNetWorkspace,
    /// Gathered minibatch of states (`batch x state_dim`).
    states: Matrix,
    /// Gathered next states of the minibatch's non-terminal transitions,
    /// in minibatch order (`non-terminal x state_dim`).
    next_states: Matrix,
    /// Sampled replay ids.
    indices: Vec<u64>,
    /// Importance-sampling weights for the sampled batch.
    weights: Vec<f32>,
    /// Actions taken in the sampled transitions.
    actions: Vec<usize>,
    /// Bootstrapped regression targets.
    targets: Vec<f32>,
    /// Cached all-valid action mask (for transitions without one).
    all_valid: Vec<bool>,
    /// Per-row selection results of the batched greedy path.
    batch_choice: Vec<Option<usize>>,
}

/// A DQN agent over vectorized states and discrete (maskable) actions.
#[derive(Clone)]
pub struct DqnAgent {
    config: DqnConfig,
    online: QNetwork,
    target: Option<QNetwork>,
    optimizer: Optimizer,
    replay: ReplayStore,
    /// Environment steps observed (drives ε and learn cadence).
    env_steps: u64,
    /// Learn steps performed (drives target syncs).
    learn_steps: u64,
    /// Reusable hot-path buffers (no behavioral state).
    scratch: DqnScratch,
}

impl std::fmt::Debug for DqnAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DqnAgent")
            .field("state_dim", &self.online.state_dim())
            .field("action_count", &self.online.action_count())
            .field("env_steps", &self.env_steps)
            .field("learn_steps", &self.learn_steps)
            .field("replay_len", &self.replay.len())
            .finish()
    }
}

impl DqnAgent {
    /// Builds an agent for `state_dim` observations and `action_count`
    /// discrete actions.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or dimensions are zero.
    pub fn new<R: Rng + ?Sized>(
        config: DqnConfig,
        state_dim: usize,
        action_count: usize,
        rng: &mut R,
    ) -> Self {
        config.validate();
        let online = QNetwork::new(&config.network, state_dim, action_count, rng);
        let target = if config.target_sync_every > 0 {
            let mut t = QNetwork::new(&config.network, state_dim, action_count, rng);
            t.copy_parameters_from(&online);
            Some(t)
        } else {
            None
        };
        let replay = match &config.prioritized {
            Some(per) => {
                ReplayStore::Prioritized(PrioritizedReplay::new(config.replay_capacity, *per))
            }
            None => ReplayStore::Uniform(UniformReplay::new(config.replay_capacity)),
        };
        let optimizer = config.optimizer.build();
        let scratch = DqnScratch {
            all_valid: vec![true; action_count],
            ..DqnScratch::default()
        };
        Self {
            config,
            online,
            target,
            optimizer,
            replay,
            env_steps: 0,
            learn_steps: 0,
            scratch,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        self.config.epsilon.value(self.env_steps)
    }

    /// Environment steps observed so far.
    pub fn env_steps(&self) -> u64 {
        self.env_steps
    }

    /// Learn steps performed so far.
    pub fn learn_steps(&self) -> u64 {
        self.learn_steps
    }

    /// Read-only view of the online Q-network.
    pub fn online_network(&self) -> &QNetwork {
        &self.online
    }

    /// Number of stored transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// The replay's stored transitions.
    pub fn replay_store(&self) -> &TransitionStore {
        self.replay.store()
    }

    /// ε-greedy action for `state` under `mask`.
    ///
    /// Takes `&mut self` to route inference through the agent-owned
    /// workspace; the decision itself is a pure function of the network.
    ///
    /// # Panics
    ///
    /// Panics if every action is masked.
    pub fn act<R: Rng + ?Sized>(&mut self, state: &[f32], mask: &[bool], rng: &mut R) -> usize {
        let eps = self.epsilon();
        if rng.gen::<f32>() < eps {
            // Uniform draw over valid actions without materializing them:
            // count, draw the same `gen_range(0..count)` the old collected
            // form drew, then walk to the chosen one.
            let valid_count = mask.iter().filter(|&&ok| ok).count();
            assert!(valid_count > 0, "act called with fully-masked action set");
            let pick = rng.gen_range(0..valid_count);
            mask.iter()
                .enumerate()
                .filter_map(|(i, &ok)| ok.then_some(i))
                .nth(pick)
                .expect("pick is within the valid count")
        } else {
            self.act_greedy(state, mask)
        }
    }

    /// Greedy (evaluation) action for `state` under `mask`.
    ///
    /// Takes `&mut self` to route inference through the agent-owned
    /// workspace (allocation-free); the decision itself is a pure function
    /// of the network.
    ///
    /// # Panics
    ///
    /// Panics if every action is masked.
    pub fn act_greedy(&mut self, state: &[f32], mask: &[bool]) -> usize {
        let q = self
            .online
            .q_values_into(state, &mut self.scratch.online_ws);
        masked_argmax(q, mask).expect("act_greedy called with fully-masked action set")
    }

    /// Batched Q-values for `states` (one encoded state per row) through
    /// the agent-owned online workspace: ONE forward pass instead of
    /// `rows` single-state calls. Rows are independent under the kernels,
    /// so row `r` of the result is bit-identical to
    /// `q_values_into(states.row(r))`. The returned reference is valid
    /// until the workspace's next use.
    pub fn q_values_batch_into(&mut self, states: &Matrix) -> &Matrix {
        self.online
            .forward_into(states, &mut self.scratch.online_ws)
    }

    /// Greedy actions for a whole batch of decisions: `states` holds one
    /// encoded state per row, `masks` is the row-major valid-action mask
    /// (`masks[r * action_count + c]` gates action `c` of row `r`), and
    /// `out` receives one action index per row (cleared first).
    ///
    /// Runs a single batched forward plus a mask-aware per-row argmax, so
    /// the selected actions (and the underlying Q-rows) are bit-identical
    /// to calling [`DqnAgent::act_greedy`] once per row — pinned by the
    /// batch-parity test suite.
    ///
    /// # Panics
    ///
    /// Panics if `masks.len() != states.rows() * action_count` or any row
    /// is fully masked.
    pub fn act_greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        let DqnScratch {
            online_ws,
            batch_choice,
            ..
        } = &mut self.scratch;
        let q = self.online.forward_into(states, online_ws);
        q.masked_argmax_rows_into(masks, batch_choice);
        out.clear();
        out.extend(batch_choice.iter().map(|choice| {
            choice.expect("act_greedy_batch called with a fully-masked action set row")
        }));
    }

    /// Copies a transition into replay and, if due, performs a learn step.
    /// A borrowed [`TransitionRef`](crate::transition::TransitionRef) is
    /// stored without an intermediate copy.
    ///
    /// Returns learn-step telemetry when a gradient update happened.
    pub fn observe<R: Rng + ?Sized>(
        &mut self,
        transition: impl AsTransition,
        rng: &mut R,
    ) -> Option<LearnStats> {
        self.replay.push(transition);
        self.env_steps += 1;
        let due = self.env_steps as usize >= self.config.learn_start
            && self
                .env_steps
                .is_multiple_of(self.config.train_every as u64)
            && self.replay.len() >= self.config.batch_size;
        if due {
            Some(self.learn(rng))
        } else {
            None
        }
    }

    /// One gradient update from replay.
    ///
    /// # Panics
    ///
    /// Panics if the buffer holds fewer than `batch_size` transitions.
    pub fn learn<R: Rng + ?Sized>(&mut self, rng: &mut R) -> LearnStats {
        let n = self.config.batch_size;
        let state_dim = self.online.state_dim();

        // Sample ids, then assemble the minibatch by gathering transition
        // rows straight out of the buffer into two long-lived matrices —
        // no per-step transition clones, no fresh matrices. A terminal
        // transition bootstraps nothing, so its next state is not gathered;
        // both reservations are for the whole batch, so a step with more
        // non-terminal rows than the last never reallocates.
        {
            let DqnScratch {
                indices, weights, ..
            } = &mut self.scratch;
            self.replay.sample_into(n, rng, indices, weights);
        }
        {
            let DqnScratch {
                indices,
                states,
                next_states,
                actions,
                ..
            } = &mut self.scratch;
            states.begin_rows(n, state_dim);
            next_states.begin_rows(n, state_dim);
            actions.clear();
            for &id in indices.iter() {
                let t = self.replay.get_ref(id);
                states.push_row(t.state);
                if !t.done {
                    next_states.push_row(t.next_state);
                }
                actions.push(t.action);
            }
        }

        // Bootstrapped targets, evaluated through the per-network
        // workspaces on the non-terminal rows only, and not at all when
        // every row is terminal. Rows are independent under the kernels, so
        // each kept row's Q-values are bit-identical to what a forward of
        // the whole batch gives it.
        {
            let DqnScratch {
                online_ws,
                target_ws,
                next_states,
                indices,
                targets,
                all_valid,
                ..
            } = &mut self.scratch;
            let bootstrap_net = self.target.as_ref().unwrap_or(&self.online);
            let (q_next_target, q_next_online) = if next_states.rows() == 0 {
                (None, None)
            } else {
                let q_next_target = bootstrap_net.forward_into(&*next_states, target_ws);
                let q_next_online = self
                    .config
                    .double
                    .then(|| self.online.forward_into(&*next_states, online_ws));
                (Some(q_next_target), q_next_online)
            };
            targets.clear();
            // The `next_states` row of the next non-terminal transition.
            let mut next_row = 0;
            for &id in indices.iter() {
                let t = self.replay.get_ref(id);
                let future = match q_next_target {
                    Some(q_next_target) if !t.done => {
                        let r = next_row;
                        next_row += 1;
                        let mask = t.next_mask().unwrap_or(all_valid.as_slice());
                        match &q_next_online {
                            Some(online_next) => {
                                // Double DQN: select with online net, evaluate
                                // with target net.
                                match masked_argmax(online_next.row(r), mask) {
                                    Some(a_star) => q_next_target.get(r, a_star),
                                    None => 0.0, // terminal-by-masking
                                }
                            }
                            None => masked_max(q_next_target.row(r), mask).unwrap_or(0.0),
                        }
                    }
                    _ => 0.0,
                };
                targets.push(t.reward + self.config.gamma * future);
            }
        }

        let prioritized = matches!(self.replay, ReplayStore::Prioritized(_));
        let (loss, td) = {
            let DqnScratch {
                states,
                actions,
                targets,
                weights,
                ..
            } = &mut self.scratch;
            self.online.train_selected(
                &*states,
                actions,
                targets,
                prioritized.then_some(weights.as_slice()),
                self.config.loss,
                &mut self.optimizer,
                self.config.max_grad_norm,
            )
        };
        self.replay.update_priorities(&self.scratch.indices, &td);
        self.learn_steps += 1;

        // Hard target sync (a target network exists iff the period is > 0).
        if let Some(target) = &mut self.target {
            if self
                .learn_steps
                .is_multiple_of(self.config.target_sync_every)
            {
                target.copy_parameters_from(&self.online);
            }
        }

        let mean_abs_td = td.iter().map(|e| e.abs()).sum::<f32>() / n as f32;
        LearnStats {
            loss,
            mean_abs_td,
            epsilon: self.epsilon(),
        }
    }

    /// Forces a hard target sync (used by tests).
    pub fn sync_target(&mut self) {
        if let Some(t) = &mut self.target {
            t.copy_parameters_from(&self.online);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::Transition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_config() -> DqnConfig {
        DqnConfig {
            network: QNetworkConfig::Standard { hidden: vec![16] },
            replay_capacity: 100,
            batch_size: 8,
            learn_start: 8,
            target_sync_every: 10,
            epsilon: EpsilonSchedule::Constant(0.1),
            ..DqnConfig::default()
        }
    }

    /// Q-values of one state, through a fresh workspace.
    fn q_values(net: &QNetwork, state: &[f32]) -> Vec<f32> {
        net.q_values_into(state, &mut QNetWorkspace::new()).to_vec()
    }

    fn push_n(agent: &mut DqnAgent, n: usize, rng: &mut StdRng) {
        for i in 0..n {
            let s = vec![(i % 3) as f32, 1.0];
            let t = Transition::new(s.clone(), i % 2, 0.5, s, i % 7 == 0);
            agent.observe(t, rng);
        }
    }

    #[test]
    fn act_respects_mask_greedy_and_random() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = DqnConfig {
            epsilon: EpsilonSchedule::Constant(1.0),
            ..tiny_config()
        };
        let mut agent = DqnAgent::new(config, 2, 4, &mut rng);
        let mask = [false, true, false, false];
        for _ in 0..50 {
            assert_eq!(agent.act(&[0.0, 0.0], &mask, &mut rng), 1);
        }
        assert_eq!(agent.act_greedy(&[0.0, 0.0], &mask), 1);
    }

    #[test]
    fn learn_starts_only_after_learn_start() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = DqnAgent::new(tiny_config(), 2, 2, &mut rng);
        let s = vec![0.0, 0.0];
        for i in 0..7 {
            let stats = agent.observe(
                Transition::new(s.clone(), 0, 0.0, s.clone(), false),
                &mut rng,
            );
            assert!(stats.is_none(), "learned too early at step {i}");
        }
        let stats = agent.observe(Transition::new(s.clone(), 0, 0.0, s, false), &mut rng);
        assert!(stats.is_some());
    }

    #[test]
    fn learning_reduces_td_on_constant_reward() {
        // Single state, single action, reward 1, episodic: Q should approach
        // 1.0 (done=true ⇒ no bootstrap).
        let mut rng = StdRng::seed_from_u64(2);
        let config = DqnConfig {
            network: QNetworkConfig::Standard { hidden: vec![8] },
            replay_capacity: 64,
            batch_size: 8,
            learn_start: 8,
            optimizer: OptimizerConfig::adam(5e-3),
            epsilon: EpsilonSchedule::Constant(0.0),
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(config, 1, 1, &mut rng);
        for _ in 0..300 {
            agent.observe(
                Transition::new(vec![1.0], 0, 1.0, vec![1.0], true),
                &mut rng,
            );
        }
        let q = q_values(agent.online_network(), &[1.0])[0];
        assert!((q - 1.0).abs() < 0.1, "Q = {q}, expected ≈ 1.0");
    }

    #[test]
    fn double_and_single_targets_both_learn() {
        for double in [false, true] {
            let mut rng = StdRng::seed_from_u64(3);
            let config = DqnConfig {
                double,
                ..tiny_config()
            };
            let mut agent = DqnAgent::new(config, 2, 2, &mut rng);
            push_n(&mut agent, 100, &mut rng);
            assert!(agent.learn_steps() > 0);
            assert!(!agent.online_network().has_non_finite_params());
        }
    }

    #[test]
    fn no_target_network_mode_works() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = DqnConfig {
            target_sync_every: 0,
            ..tiny_config()
        };
        let mut agent = DqnAgent::new(config, 2, 2, &mut rng);
        push_n(&mut agent, 60, &mut rng);
        assert!(agent.learn_steps() > 0);
    }

    #[test]
    fn prioritized_mode_learns_and_updates_priorities() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = DqnConfig {
            prioritized: Some(PerConfig::default()),
            ..tiny_config()
        };
        let mut agent = DqnAgent::new(config, 2, 2, &mut rng);
        push_n(&mut agent, 100, &mut rng);
        assert!(agent.learn_steps() > 0);
    }

    #[test]
    fn masked_next_state_excluded_from_bootstrap() {
        // Next state has only action 1 valid; with a target net initialized
        // equal to online, the bootstrap must use Q(s', 1), not max over all.
        let mut rng = StdRng::seed_from_u64(8);
        let config = DqnConfig {
            network: QNetworkConfig::Standard { hidden: vec![] },
            replay_capacity: 4,
            batch_size: 1,
            learn_start: 1,
            train_every: 1,
            epsilon: EpsilonSchedule::Constant(0.0),
            optimizer: OptimizerConfig::sgd(1e-9), // negligible updates
            double: false,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(config, 1, 2, &mut rng);
        let t = Transition::with_mask(vec![1.0], 0, 0.0, vec![1.0], false, vec![false, true]);
        let stats = agent.observe(t, &mut rng).expect("learned");
        // TD target = γ * Q(s',1). With lr≈0 the TD error equals
        // Q(s,0) - γ Q(s',1) exactly; just assert it is finite and the agent
        // didn't pick the masked max (which would differ when Q(s',0) is the
        // global max). Compute both to verify.
        let q = q_values(agent.online_network(), &[1.0]);
        let expected_td = q[0] - agent.config().gamma * q[1];
        assert!((stats.mean_abs_td - expected_td.abs()).abs() < 1e-3);
    }

    /// A hard sync copies the online parameters *into* the target: the
    /// target then answers bit for bit like the online network, from the
    /// very buffers it held before (same address and length — nothing was
    /// reallocated, and nothing of the online net's training state came
    /// along to be reallocated). Both network variants.
    #[test]
    fn target_sync_matches_online_bitwise_in_place() {
        fn parameter_buffers(net: &QNetwork) -> Vec<(*const f32, usize)> {
            let subnets: Vec<&Mlp> = match net {
                QNetwork::Standard(mlp) => vec![mlp],
                QNetwork::Dueling {
                    trunk,
                    value,
                    advantage,
                    ..
                } => vec![trunk, value, advantage],
            };
            subnets
                .iter()
                .flat_map(|mlp| mlp.layers())
                .flat_map(|l| [l.weights().as_slice(), l.bias().as_slice()])
                .map(|p| (p.as_ptr(), p.len()))
                .collect()
        }
        for network in [
            QNetworkConfig::Standard { hidden: vec![16] },
            QNetworkConfig::Dueling {
                trunk: vec![16],
                head: 8,
            },
        ] {
            let mut rng = StdRng::seed_from_u64(12);
            let config = DqnConfig {
                network,
                target_sync_every: 1_000_000, // only the forced sync below
                ..tiny_config()
            };
            let mut agent = DqnAgent::new(config, 2, 2, &mut rng);
            push_n(&mut agent, 60, &mut rng);
            assert!(agent.learn_steps() > 0);

            let states = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]);
            let (mut ws_online, mut ws_target) = (QNetWorkspace::new(), QNetWorkspace::new());
            let target = agent.target.as_ref().expect("hard-sync agent has a target");
            assert_ne!(
                target.forward_into(&states, &mut ws_target),
                agent.online.forward_into(&states, &mut ws_online),
                "training moved the online network away from the target"
            );
            let before = parameter_buffers(target);

            agent.sync_target();

            let target = agent.target.as_ref().expect("hard-sync agent has a target");
            assert_eq!(
                target.forward_into(&states, &mut ws_target),
                agent.online.forward_into(&states, &mut ws_online)
            );
            assert_eq!(parameter_buffers(target), before);
        }
    }

    /// Every target of one learn step, against a per-row computation on
    /// the networks as they were before it: a terminal row's target is its
    /// reward; any other row bootstraps from single-row forwards, which the
    /// kept rows' batched forwards match bit for bit. Minibatches with every
    /// row terminal, with none, and mixed; both networks, double on and off,
    /// target network on and off.
    #[test]
    fn learn_bootstraps_exactly_the_non_terminal_rows() {
        for network in [
            QNetworkConfig::Standard { hidden: vec![16] },
            QNetworkConfig::Dueling {
                trunk: vec![16],
                head: 8,
            },
        ] {
            for double in [false, true] {
                for target_sync_every in [0, 10] {
                    for terminal_every in [1, 0, 3] {
                        let mut rng = StdRng::seed_from_u64(21);
                        let config = DqnConfig {
                            network: network.clone(),
                            double,
                            target_sync_every,
                            learn_start: usize::MAX,
                            ..tiny_config()
                        };
                        let mut agent = DqnAgent::new(config, 3, 4, &mut rng);
                        for i in 0..24 {
                            let s = vec![(i % 5) as f32 - 2.0, 0.0, (i % 3) as f32];
                            let next = vec![0.5, (i % 4) as f32, -1.0];
                            let done = terminal_every > 0 && i % terminal_every == 0;
                            let mask = vec![i % 2 == 0, true, i % 3 != 0, false];
                            let t =
                                Transition::with_mask(s, i % 4, i as f32 - 7.5, next, done, mask);
                            assert!(agent.observe(t, &mut rng).is_none());
                        }
                        let before = agent.clone();
                        agent.learn(&mut rng);

                        let bootstrap = before.target.as_ref().unwrap_or(&before.online);
                        let gamma = before.config.gamma;
                        let mut terminal = 0;
                        for (&id, &target) in
                            agent.scratch.indices.iter().zip(&agent.scratch.targets)
                        {
                            let t = before.replay.get_ref(id);
                            if t.done {
                                terminal += 1;
                                assert_eq!(target, t.reward);
                                continue;
                            }
                            let mask = t.next_mask().unwrap_or(&before.scratch.all_valid);
                            let q_target = q_values(bootstrap, t.next_state);
                            let future = if double {
                                let q_online = q_values(&before.online, t.next_state);
                                masked_argmax(&q_online, mask).map_or(0.0, |a| q_target[a])
                            } else {
                                masked_max(&q_target, mask).unwrap_or(0.0)
                            };
                            assert_eq!(target, t.reward + gamma * future);
                        }
                        let n = agent.scratch.indices.len();
                        match terminal_every {
                            1 => assert_eq!(terminal, n),
                            0 => assert_eq!(terminal, 0),
                            _ => assert!(terminal > 0 && terminal < n),
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fully-masked")]
    fn fully_masked_act_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut agent = DqnAgent::new(tiny_config(), 2, 2, &mut rng);
        let _ = agent.act_greedy(&[0.0, 0.0], &[false, false]);
    }

    /// One batched forward must select exactly what per-state calls do,
    /// Q-rows included, for both network variants.
    #[test]
    fn batch_greedy_matches_sequential_bitwise() {
        for network in [
            QNetworkConfig::Standard {
                hidden: vec![16, 8],
            },
            QNetworkConfig::Dueling {
                trunk: vec![16],
                head: 8,
            },
        ] {
            let mut rng = StdRng::seed_from_u64(12);
            let config = DqnConfig {
                network,
                ..tiny_config()
            };
            let mut agent = DqnAgent::new(config, 3, 4, &mut rng);
            let rows = 6;
            let mut states = Matrix::default();
            states.begin_rows(rows, 3);
            let mut masks = Vec::new();
            for r in 0..rows {
                states.push_row(&[r as f32 * 0.3 - 1.0, (r % 2) as f32, 0.5]);
                for c in 0..4 {
                    // Vary the masks; keep the last action always valid.
                    masks.push(c == 3 || (r + c) % 3 != 0);
                }
            }
            let mut batch_actions = Vec::new();
            agent.act_greedy_batch(&states, &masks, &mut batch_actions);
            let q_batch = agent.q_values_batch_into(&states).clone();
            for r in 0..rows {
                let mask: Vec<bool> = masks[r * 4..(r + 1) * 4].to_vec();
                assert_eq!(batch_actions[r], agent.act_greedy(states.row(r), &mask));
                assert_eq!(
                    q_batch.row(r),
                    q_values(agent.online_network(), states.row(r))
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "fully-masked")]
    fn batch_greedy_fully_masked_row_panics() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut agent = DqnAgent::new(tiny_config(), 2, 2, &mut rng);
        let states = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let masks = [true, true, false, false];
        let mut out = Vec::new();
        agent.act_greedy_batch(&states, &masks, &mut out);
    }
}
