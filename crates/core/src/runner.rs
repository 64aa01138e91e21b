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

/// Outcome of DRL training: the trained policy plus learning curves.
pub struct TrainedDrl {
    /// The trained policy (switched to evaluation mode).
    pub policy: DrlPolicy,
    /// Per-placement-episode returns across all training passes.
    pub episode_returns: Vec<f32>,
    /// Per-pass run summaries during training.
    pub pass_summaries: Vec<RunSummary>,
}

impl std::fmt::Debug for TrainedDrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedDrl")
            .field("episodes", &self.episode_returns.len())
            .field("passes", &self.pass_summaries.len())
            .finish()
    }
}

/// Trains a DRL manager on `scenario` for `passes` full traversals of the
/// horizon, each on a fresh trace realization, keeping learned state and
/// the network across passes.
///
/// The simulation *state* (instances, flows) is rebuilt per pass — the
/// agent, replay buffer and exploration schedule persist.
pub fn train_drl(
    scenario: &Scenario,
    reward: RewardConfig,
    config: DrlManagerConfig,
    passes: usize,
) -> TrainedDrl {
    let vnfs = sfc::vnf::VnfCatalog::standard();
    let chains = sfc::chain::ChainCatalog::standard(&vnfs);
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
    vnfs: &sfc::vnf::VnfCatalog,
    chains: &sfc::chain::ChainCatalog,
) -> TrainedDrl {
    assert!(passes > 0, "need at least one training pass");
    // Build a probe simulation to size the observation/action spaces.
    let probe = Simulation::with_catalogs(scenario, reward, vnfs.clone(), chains.clone());
    let state_dim = probe.encoder.dim();
    let action_count = probe.action_space.len();
    drop(probe);

    let mut agent_rng = StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x5851_F42D));
    let mut policy = DrlPolicy::new(config, state_dim, action_count, &mut agent_rng);
    policy.set_training(true);

    // Validation-based model selection: after each pass, evaluate the
    // frozen greedy policy on a held-out trace and keep the best network.
    // DQN training can drift late (over-fitting the replay distribution);
    // selecting the best checkpoint is the standard remedy.
    const VALIDATION_OFFSET: u64 = 0xA11CE;
    let mut best: Option<(f64, DrlPolicy)> = None;

    let mut episode_returns = Vec::new();
    let mut pass_summaries = Vec::with_capacity(passes);
    for pass in 0..passes {
        let mut sim = Simulation::with_catalogs(scenario, reward, vnfs.clone(), chains.clone());
        let summary = sim.drive(
            RunInput::Generated,
            &mut policy,
            RunOptions::new().with_seed_offset(pass as u64),
        );
        episode_returns.extend(policy.take_episode_returns());
        pass_summaries.push(summary);

        // Checkpoint selection needs at least two candidates; with a
        // single pass the only checkpoint wins unconditionally, so the
        // held-out validation run would be pure wasted work (FAST smoke
        // runs hit this path on every training).
        if passes > 1 {
            policy.set_training(false);
            let mut val_sim =
                Simulation::with_catalogs(scenario, reward, vnfs.clone(), chains.clone());
            let val = val_sim.drive(
                RunInput::Generated,
                &mut policy,
                RunOptions::new().with_seed_offset(VALIDATION_OFFSET),
            );
            policy.take_episode_returns(); // validation episodes don't belong in the curve
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
    TrainedDrl {
        policy,
        episode_returns,
        pass_summaries,
    }
}

/// Evaluates `policy` on a simulation built with custom catalogs.
pub fn evaluate_policy_with_catalogs(
    scenario: &Scenario,
    reward: RewardConfig,
    policy: &mut dyn PlacementPolicy,
    seed_offset: u64,
    vnfs: &sfc::vnf::VnfCatalog,
    chains: &sfc::chain::ChainCatalog,
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
