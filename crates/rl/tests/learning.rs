//! The learning stack end to end: the DQN and REINFORCE agents must reach
//! the known optimal returns of the validation environments in
//! `support`. A regression in backprop, target computation, masking or
//! replay fails here before it can silently degrade the VNF experiments.

mod support;

use nn::prelude::OptimizerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::dqn::{DqnAgent, DqnConfig};
use rl::qnet::QNetworkConfig;
use rl::reinforce::{ReinforceAgent, ReinforceConfig};
use rl::schedule::EpsilonSchedule;
use support::{
    evaluate_dqn, train_dqn, BanditEnv, ChainEnv, Environment, GridWorld, TrainingHistory,
};

fn fast_config() -> DqnConfig {
    DqnConfig {
        network: QNetworkConfig::Standard { hidden: vec![32] },
        gamma: 0.95,
        optimizer: OptimizerConfig::adam(3e-3),
        replay_capacity: 4_000,
        batch_size: 32,
        learn_start: 64,
        train_every: 1,
        target_sync_every: 100,
        epsilon: EpsilonSchedule::Linear {
            start: 1.0,
            end: 0.02,
            steps: 2_000,
        },
        ..DqnConfig::default()
    }
}

#[test]
fn dqn_solves_contextual_bandit() {
    let mut rng = StdRng::seed_from_u64(100);
    let mut env = BanditEnv::new(3, 3);
    let mut agent = DqnAgent::new(fast_config(), env.state_dim(), env.action_count(), &mut rng);
    train_dqn(&mut agent, &mut env, 1_500, 1, &mut rng);
    let mean = evaluate_dqn(&mut agent, &mut env, 200, 1, &mut rng);
    assert!(mean > 0.95, "bandit mean reward {mean}");
}

#[test]
fn dqn_solves_chain() {
    let mut rng = StdRng::seed_from_u64(101);
    let mut env = ChainEnv::new(6, 0.01);
    let mut agent = DqnAgent::new(fast_config(), env.state_dim(), env.action_count(), &mut rng);
    train_dqn(&mut agent, &mut env, 250, 60, &mut rng);
    let mean = evaluate_dqn(&mut agent, &mut env, 20, 60, &mut rng);
    // Optimal: 5 steps right → 1 - 0.05 = 0.95.
    assert!(mean > 0.9, "chain mean return {mean}");
}

#[test]
fn dqn_solves_gridworld_with_mask() {
    let mut rng = StdRng::seed_from_u64(102);
    let mut env = GridWorld::new(4);
    let mut agent = DqnAgent::new(fast_config(), env.state_dim(), env.action_count(), &mut rng);
    train_dqn(&mut agent, &mut env, 400, 64, &mut rng);
    let mean = evaluate_dqn(&mut agent, &mut env, 10, 64, &mut rng);
    let optimal = env.optimal_return().unwrap();
    assert!(
        mean > optimal - 0.1,
        "gridworld mean return {mean}, optimal {optimal}"
    );
}

#[test]
fn history_trailing_mean() {
    let history = TrainingHistory {
        returns: (0..10).map(|i| i as f32).collect(),
    };
    assert!((history.trailing_mean_return(2) - 8.5).abs() < 1e-6);
    assert_eq!(history.returns.len(), 10);
}

#[test]
fn evaluate_on_empty_history_is_zero() {
    let h = TrainingHistory { returns: vec![] };
    assert_eq!(h.trailing_mean_return(5), 0.0);
}

fn run_episodes(
    agent: &mut ReinforceAgent,
    env: &mut impl Environment,
    episodes: usize,
    rng: &mut StdRng,
) {
    let cap = env.max_episode_steps().unwrap_or(100);
    for _ in 0..episodes {
        let mut state = env.reset(rng);
        for _ in 0..cap {
            let mask = env.action_mask();
            let action = agent.act(&state, &mask, rng);
            let outcome = env.step(action, rng);
            agent.record_step(state, mask, action, outcome.reward);
            state = outcome.next_state;
            if outcome.done {
                break;
            }
        }
        agent.end_episode();
    }
}

fn greedy_return(
    agent: &mut ReinforceAgent,
    env: &mut impl Environment,
    episodes: usize,
    rng: &mut StdRng,
) -> f32 {
    let cap = env.max_episode_steps().unwrap_or(100);
    let mut total = 0.0;
    for _ in 0..episodes {
        let mut state = env.reset(rng);
        for _ in 0..cap {
            let action = agent.act_greedy(&state, &env.action_mask());
            let outcome = env.step(action, rng);
            total += outcome.reward;
            state = outcome.next_state;
            if outcome.done {
                break;
            }
        }
    }
    total / episodes as f32
}

#[test]
fn reinforce_solves_contextual_bandit() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut env = BanditEnv::new(3, 3);
    let config = ReinforceConfig {
        hidden: vec![32],
        optimizer: OptimizerConfig::adam(5e-3),
        ..Default::default()
    };
    let mut agent = ReinforceAgent::new(config, env.state_dim(), env.action_count(), &mut rng);
    run_episodes(&mut agent, &mut env, 1_500, &mut rng);
    let mean = greedy_return(&mut agent, &mut env, 200, &mut rng);
    assert!(mean > 0.95, "bandit mean reward {mean}");
}

#[test]
fn reinforce_solves_chain() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut env = ChainEnv::new(5, 0.01);
    let config = ReinforceConfig {
        hidden: vec![32],
        optimizer: OptimizerConfig::adam(5e-3),
        ..Default::default()
    };
    let mut agent = ReinforceAgent::new(config, env.state_dim(), env.action_count(), &mut rng);
    run_episodes(&mut agent, &mut env, 600, &mut rng);
    let mean = greedy_return(&mut agent, &mut env, 20, &mut rng);
    // Optimal: 4 steps right → 1 − 0.04 = 0.96.
    assert!(mean > 0.85, "chain mean return {mean}");
}
