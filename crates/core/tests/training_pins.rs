//! Both DRL managers train deterministically: two runs of `train_drl` and
//! of `train_pg` on the same scenario agree bit for bit on every episode
//! return, every pass summary and a greedy evaluation of the kept
//! checkpoint, and the sums of the returns and the evaluation's accepted
//! count are pinned to literals. With two passes the held-out validation
//! and checkpoint selection run too.

use mano::prelude::*;
use rl::dqn::DqnConfig;
use rl::qnet::QNetworkConfig;
use rl::reinforce::ReinforceConfig;
use rl::schedule::EpsilonSchedule;

const PASSES: usize = 2;
const EVAL_SEED: u64 = 77;

fn scenario() -> Scenario {
    let mut s = Scenario::small_test();
    s.horizon_slots = 40;
    s
}

fn dqn() -> DrlManagerConfig {
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
        label: "drl-pin".into(),
    }
}

fn pg() -> PgManagerConfig {
    PgManagerConfig {
        reinforce: ReinforceConfig {
            hidden: vec![32],
            optimizer: nn::prelude::OptimizerConfig::adam(2e-3),
            ..ReinforceConfig::default()
        },
        label: "pg-pin".into(),
    }
}

/// What one training run leaves behind, with every float as its bits.
#[derive(Debug, PartialEq)]
struct Run {
    returns: Vec<u32>,
    return_sum: u32,
    pass_summaries: Vec<String>,
    evaluation: String,
    accepted: u64,
}

fn run_of<P: PlacementPolicy>(
    mut policy: P,
    returns: Vec<f32>,
    pass_summaries: Vec<RunSummary>,
) -> Run {
    let evaluation = evaluate_policy(&scenario(), RewardConfig::default(), &mut policy, EVAL_SEED);
    // `{:?}` prints every f64 in its shortest round-trip form, so equal
    // text is equal bits.
    Run {
        returns: returns.iter().map(|r| r.to_bits()).collect(),
        return_sum: returns.iter().sum::<f32>().to_bits(),
        pass_summaries: pass_summaries.iter().map(|s| format!("{s:?}")).collect(),
        evaluation: format!("{:?}", evaluation.summary),
        accepted: evaluation.summary.total_accepted,
    }
}

fn train_dqn_run() -> Run {
    let trained = train_drl(&scenario(), RewardConfig::default(), dqn(), PASSES);
    run_of(
        trained.policy,
        trained.episode_returns,
        trained.pass_summaries,
    )
}

fn train_pg_run() -> Run {
    let (policy, returns, pass_summaries): (PgPolicy, Vec<f32>, Vec<RunSummary>) =
        train_pg(&scenario(), RewardConfig::default(), pg(), PASSES).into();
    run_of(policy, returns, pass_summaries)
}

#[test]
fn dqn_training_is_deterministic_and_pinned() {
    let first = train_dqn_run();
    assert_eq!(first, train_dqn_run());
    assert_eq!(first.pass_summaries.len(), PASSES);
    assert_eq!((first.return_sum, first.accepted), (0xc4169de2, 86));
}

#[test]
fn pg_training_is_deterministic_and_pinned() {
    let first = train_pg_run();
    assert_eq!(first, train_pg_run());
    assert_eq!(first.pass_summaries.len(), PASSES);
    assert_eq!((first.return_sum, first.accepted), (0xc30fac2e, 86));
}
