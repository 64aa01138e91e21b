//! Experiment runners: train the DRL manager, evaluate any policy, and
//! produce comparable summaries.

use crate::config::Scenario;
use crate::drl::{DrlManagerConfig, DrlPolicy};
use crate::metrics::RunSummary;
use crate::policy::PlacementPolicy;
use crate::reward::RewardConfig;
use crate::sim::{DecisionSemantics, RunInput, RunOptions, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc::chain::ChainCatalog;
use sfc::vnf::VnfCatalog;

/// A labelled evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// Policy name (table row).
    pub policy: String,
    /// Aggregated run metrics.
    pub summary: RunSummary,
}

/// Evaluates `policy` on a fresh simulation of `scenario`.
///
/// `seed_offset` selects the workload realization; use the same offset to
/// compare policies on identical traces.
pub fn evaluate_policy(
    scenario: &Scenario,
    reward: RewardConfig,
    policy: &mut dyn PlacementPolicy,
    seed_offset: u64,
) -> PolicyResult {
    evaluate_policy_with_semantics(
        scenario,
        reward,
        policy,
        seed_offset,
        DecisionSemantics::Sequential,
    )
}

/// [`evaluate_policy`] under explicit decision semantics (the snapshot
/// figure columns and the serving harness evaluate with
/// [`DecisionSemantics::SlotSnapshot`]).
pub fn evaluate_policy_with_semantics(
    scenario: &Scenario,
    reward: RewardConfig,
    policy: &mut dyn PlacementPolicy,
    seed_offset: u64,
    semantics: DecisionSemantics,
) -> PolicyResult {
    policy.set_training(false);
    let mut sim = Simulation::new(scenario, reward);
    let summary = sim.drive(
        RunInput::Generated,
        policy,
        RunOptions::new()
            .with_seed_offset(seed_offset)
            .with_semantics(semantics),
    );
    PolicyResult {
        policy: policy.name(),
        summary,
    }
}

/// Evaluates every policy in `policies` on the *same* workload trace.
pub fn compare_policies(
    scenario: &Scenario,
    reward: RewardConfig,
    policies: &mut [Box<dyn PlacementPolicy>],
    seed_offset: u64,
) -> Vec<PolicyResult> {
    policies
        .iter_mut()
        .map(|p| evaluate_policy(scenario, reward, p.as_mut(), seed_offset))
        .collect()
}

/// Outcome of training a manager: the kept checkpoint plus learning
/// curves.
pub struct Trained<P> {
    /// The trained policy (switched to evaluation mode).
    pub policy: P,
    /// Per-placement-episode returns across all training passes.
    pub episode_returns: Vec<f32>,
    /// Per-pass run summaries during training.
    pub pass_summaries: Vec<RunSummary>,
}

/// The outcome of [`train_drl`].
pub type TrainedDrl = Trained<DrlPolicy>;

impl<P> std::fmt::Debug for Trained<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trained")
            .field("episodes", &self.episode_returns.len())
            .field("passes", &self.pass_summaries.len())
            .finish()
    }
}

/// Splits an outcome into `(policy, episode_returns, pass_summaries)`.
impl<P> From<Trained<P>> for (P, Vec<f32>, Vec<RunSummary>) {
    fn from(t: Trained<P>) -> Self {
        (t.policy, t.episode_returns, t.pass_summaries)
    }
}

/// The training loop both managers share: `passes` traversals of the
/// horizon, pass `i` on the trace realisation at seed offset `i`. The
/// simulation *state* (instances, flows) is rebuilt per pass — the agent,
/// its replay buffer and exploration schedule persist.
///
/// The agent is built by `build` from the observation width, the action
/// count and an RNG seeded by `scenario.seed × agent_seed`;
/// `take_returns` drains the episode returns it recorded.
///
/// Validation-based model selection: with more than one pass, each pass
/// ends with the frozen greedy policy on a held-out trace, and the
/// checkpoint with the lowest combined objective is kept. Training can
/// drift late (over-fitting the replay distribution); selecting the best
/// checkpoint is the standard remedy. A single pass is the only
/// checkpoint, so it skips the validation run (FAST smoke runs hit this
/// path on every training).
///
/// # Panics
///
/// Panics if `passes == 0` or the scenario is invalid.
pub(crate) fn train<P: PlacementPolicy + Clone>(
    scenario: &Scenario,
    reward: RewardConfig,
    passes: usize,
    (vnfs, chains): (&VnfCatalog, &ChainCatalog),
    agent_seed: u64,
    build: impl FnOnce(usize, usize, &mut StdRng) -> P,
    take_returns: fn(&mut P) -> Vec<f32>,
) -> Trained<P> {
    assert!(passes > 0, "need at least one training pass");
    let simulation = || Simulation::with_catalogs(scenario, reward, vnfs.clone(), chains.clone());
    // A probe simulation sizes the observation and action spaces.
    let probe = simulation();
    let (state_dim, action_count) = (probe.encoder.dim(), probe.action_space.len());
    drop(probe);

    let mut agent_rng = StdRng::seed_from_u64(scenario.seed.wrapping_mul(agent_seed));
    let mut policy = build(state_dim, action_count, &mut agent_rng);
    policy.set_training(true);

    const VALIDATION_OFFSET: u64 = 0xA11CE;
    let mut best: Option<(f64, P)> = None;
    let mut episode_returns = Vec::new();
    let mut pass_summaries = Vec::with_capacity(passes);
    for pass in 0..passes {
        let summary = simulation().drive(
            RunInput::Generated,
            &mut policy,
            RunOptions::new().with_seed_offset(pass as u64),
        );
        episode_returns.extend(take_returns(&mut policy));
        pass_summaries.push(summary);

        if passes > 1 {
            policy.set_training(false);
            let val = simulation().drive(
                RunInput::Generated,
                &mut policy,
                RunOptions::new().with_seed_offset(VALIDATION_OFFSET),
            );
            take_returns(&mut policy); // validation episodes don't belong in the curve
            policy.set_training(true);
            let objective =
                val.combined_objective(reward.alpha_latency as f64, reward.beta_cost as f64);
            if best.as_ref().is_none_or(|(b, _)| objective < *b) {
                best = Some((objective, policy.clone()));
            }
        }
    }
    let mut policy = best.map(|(_, p)| p).unwrap_or(policy);
    policy.set_training(false);
    Trained {
        policy,
        episode_returns,
        pass_summaries,
    }
}

/// Trains a DRL manager on `scenario` for `passes` full traversals of the
/// horizon, each on a fresh trace realisation, keeping the agent, its
/// replay buffer and exploration schedule across passes. With more than
/// one pass, the checkpoint that scores best on a held-out trace is kept.
pub fn train_drl(
    scenario: &Scenario,
    reward: RewardConfig,
    config: DrlManagerConfig,
    passes: usize,
) -> TrainedDrl {
    let vnfs = VnfCatalog::standard();
    let chains = ChainCatalog::standard(&vnfs);
    train_drl_with_catalogs(scenario, reward, config, passes, &vnfs, &chains)
}

/// [`train_drl`] over custom VNF/chain catalogs.
///
/// # Panics
///
/// Panics if `passes == 0` or the scenario is invalid.
pub fn train_drl_with_catalogs(
    scenario: &Scenario,
    reward: RewardConfig,
    config: DrlManagerConfig,
    passes: usize,
    vnfs: &VnfCatalog,
    chains: &ChainCatalog,
) -> TrainedDrl {
    train(
        scenario,
        reward,
        passes,
        (vnfs, chains),
        0x5851_F42D,
        |state_dim, action_count, rng| DrlPolicy::new(config, state_dim, action_count, rng),
        DrlPolicy::take_episode_returns,
    )
}

/// Evaluates `policy` on a simulation built with custom catalogs.
pub fn evaluate_policy_with_catalogs(
    scenario: &Scenario,
    reward: RewardConfig,
    policy: &mut dyn PlacementPolicy,
    seed_offset: u64,
    vnfs: &VnfCatalog,
    chains: &ChainCatalog,
) -> PolicyResult {
    policy.set_training(false);
    let mut sim = Simulation::with_catalogs(scenario, reward, vnfs.clone(), chains.clone());
    let summary = sim.drive(
        RunInput::Generated,
        policy,
        RunOptions::new().with_seed_offset(seed_offset),
    );
    PolicyResult {
        policy: policy.name(),
        summary,
    }
}

/// Smoothes a curve with a trailing moving average of width `window`
/// (plot helper for convergence figures).
pub fn moving_average(values: &[f32], window: usize) -> Vec<f32> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(values.len());
    let mut sum = 0.0f64;
    for (i, &v) in values.iter().enumerate() {
        sum += v as f64;
        if i >= window {
            sum -= values[i - window] as f64;
        }
        let n = (i + 1).min(window);
        out.push((sum / n as f64) as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{FirstFitPolicy, GreedyLatencyPolicy};
    use rl::dqn::DqnConfig;
    use rl::qnet::QNetworkConfig;
    use rl::schedule::EpsilonSchedule;

    fn fast_drl_config() -> DrlManagerConfig {
        DrlManagerConfig {
            dqn: DqnConfig {
                network: QNetworkConfig::Standard { hidden: vec![32] },
                replay_capacity: 4_000,
                batch_size: 16,
                learn_start: 32,
                train_every: 2,
                target_sync_every: 100,
                epsilon: EpsilonSchedule::Linear {
                    start: 1.0,
                    end: 0.05,
                    steps: 1_500,
                },
                ..DqnConfig::default()
            },
            label: "drl-test".into(),
        }
    }

    #[test]
    fn evaluate_policy_labels_results() {
        let scenario = Scenario::small_test();
        let mut policy = FirstFitPolicy;
        let result = evaluate_policy(&scenario, RewardConfig::default(), &mut policy, 0);
        assert_eq!(result.policy, "first-fit");
        assert!(result.summary.total_arrivals > 0);
    }

    #[test]
    fn compare_policies_share_the_trace() {
        let scenario = Scenario::small_test();
        let mut policies: Vec<Box<dyn PlacementPolicy>> =
            vec![Box::new(FirstFitPolicy), Box::new(GreedyLatencyPolicy)];
        let results = compare_policies(&scenario, RewardConfig::default(), &mut policies, 3);
        assert_eq!(results.len(), 2);
        // Identical traces → identical arrival counts.
        assert_eq!(
            results[0].summary.total_arrivals,
            results[1].summary.total_arrivals
        );
    }

    #[test]
    fn train_drl_learns_and_reports_curves() {
        let mut scenario = Scenario::small_test();
        scenario.horizon_slots = 40;
        let trained = train_drl(&scenario, RewardConfig::default(), fast_drl_config(), 2);
        assert_eq!(trained.pass_summaries.len(), 2);
        assert!(!trained.episode_returns.is_empty());
        assert!(
            trained.policy.agent().learn_steps() > 0,
            "agent actually trained"
        );
    }

    #[test]
    fn trained_policy_evaluates_deterministically() {
        let mut scenario = Scenario::small_test();
        scenario.horizon_slots = 30;
        let mut trained = train_drl(&scenario, RewardConfig::default(), fast_drl_config(), 1);
        let a = evaluate_policy(&scenario, RewardConfig::default(), &mut trained.policy, 99);
        let b = evaluate_policy(&scenario, RewardConfig::default(), &mut trained.policy, 99);
        assert_eq!(a.summary, b.summary, "greedy evaluation is deterministic");
    }

    #[test]
    fn moving_average_smooths() {
        let values = [0.0, 2.0, 4.0, 6.0];
        let ma = moving_average(&values, 2);
        assert_eq!(ma, vec![0.0, 1.0, 3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = moving_average(&[1.0], 0);
    }
}
