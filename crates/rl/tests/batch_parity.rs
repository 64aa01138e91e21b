//! Batched vs sequential decision parity: `act_greedy_batch` (one forward
//! pass for N gathered states, mask-aware per-row argmax) must return
//! bit-identical actions — and Q-rows — to N per-state `act_greedy` calls,
//! across random network shapes, random masks, and warm-buffer
//! interleavings that reshape the shared inference workspace between
//! batched and single-state use. The engine's per-slot batched decision
//! loop is built on exactly this guarantee.

use nn::tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::dqn::{DqnAgent, DqnConfig};
use rl::env::{masked_argmax, masked_max};
use rl::qnet::{QNetWorkspace, QNetwork, QNetworkConfig};
use rl::reinforce::{ReinforceAgent, ReinforceConfig};
use rl::schedule::EpsilonSchedule;

/// Q-values of one state, through a fresh workspace.
fn q_values(net: &QNetwork, state: &[f32]) -> Vec<f32> {
    net.q_values_into(state, &mut QNetWorkspace::new()).to_vec()
}

/// Random batch of states plus row-major masks (last action always valid,
/// mirroring the engine's always-valid reject action).
fn random_batch(
    rng: &mut StdRng,
    rows: usize,
    state_dim: usize,
    actions: usize,
) -> (Matrix, Vec<bool>) {
    let mut states = Matrix::default();
    states.begin_rows(rows, state_dim);
    let mut row = vec![0.0f32; state_dim];
    let mut masks = Vec::with_capacity(rows * actions);
    for _ in 0..rows {
        for v in row.iter_mut() {
            // One-hot-heavy, like encoder states: half the entries zero.
            *v = if rng.gen::<f32>() < 0.5 {
                0.0
            } else {
                rng.gen::<f32>() * 2.0 - 1.0
            };
        }
        states.push_row(&row);
        for a in 0..actions {
            masks.push(a + 1 == actions || rng.gen::<f32>() < 0.6);
        }
    }
    (states, masks)
}

/// The serving shape, 74 -> 128 -> 128 -> 11, at the row counts a served
/// wave hands the kernel: one row, 7, 9, 14 (the mean tick) and 37 (the
/// widest tick on record). The kernel takes a batch row by row, so every
/// Q-row of the batched forward must equal the single-row forward bit for
/// bit, for both network variants.
#[test]
fn served_wave_q_rows_equal_single_row_forwards() {
    let (state_dim, actions) = (74, 11);
    for network in [
        QNetworkConfig::Standard {
            hidden: vec![128, 128],
        },
        QNetworkConfig::Dueling {
            trunk: vec![128],
            head: 128,
        },
    ] {
        let mut rng = StdRng::seed_from_u64(2026);
        let config = DqnConfig {
            network,
            epsilon: EpsilonSchedule::Constant(0.0),
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(config, state_dim, actions, &mut rng);
        for rows in [1usize, 7, 9, 14, 37] {
            let (states, masks) = random_batch(&mut rng, rows, state_dim, actions);
            let q_batch = agent.q_values_batch_into(&states).clone();
            assert_eq!(q_batch.shape(), (rows, actions));
            let mut batch_actions = Vec::new();
            agent.act_greedy_batch(&states, &masks, &mut batch_actions);
            for r in 0..rows {
                assert_eq!(
                    q_batch.row(r),
                    q_values(agent.online_network(), states.row(r)),
                    "Q-row {r} of {rows}"
                );
                let mask = &masks[r * actions..(r + 1) * actions];
                assert_eq!(
                    batch_actions[r],
                    agent.act_greedy(states.row(r), mask),
                    "action {r} of {rows}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dqn_batch_selection_is_bit_identical(
        seed in 0u64..1_000,
        state_dim in 2usize..8,
        actions in 2usize..7,
        rows in 1usize..12,
        dueling in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = if dueling == 1 {
            QNetworkConfig::Dueling { trunk: vec![8], head: 4 }
        } else {
            QNetworkConfig::Standard { hidden: vec![8, 6] }
        };
        let config = DqnConfig {
            network,
            epsilon: EpsilonSchedule::Constant(0.0),
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(config, state_dim, actions, &mut rng);
        let (states, masks) = random_batch(&mut rng, rows, state_dim, actions);

        // Warm-buffer interleaving: single-state calls reshape the shared
        // workspace before and between batched calls.
        let probe_mask = vec![true; actions];
        let _ = agent.act_greedy(states.row(0), &probe_mask);

        let mut batch_actions = Vec::new();
        agent.act_greedy_batch(&states, &masks, &mut batch_actions);
        prop_assert_eq!(batch_actions.len(), rows);

        for r in 0..rows {
            let mask = &masks[r * actions..(r + 1) * actions];
            let q_single = q_values(agent.online_network(), states.row(r));
            let single = agent.act_greedy(states.row(r), mask);
            prop_assert_eq!(batch_actions[r], single, "row {} action diverged", r);
            // Q-rows of the batched forward must match the single-state
            // forward bit for bit (rows are independent under the kernels).
            let q_batch = agent.q_values_batch_into(&states).row(r).to_vec();
            prop_assert_eq!(&q_batch, &q_single, "row {} Q diverged", r);
        }

        // Second batched call after the single-state interleaving: the
        // reshaped workspace must not perturb selection.
        let mut second = Vec::new();
        agent.act_greedy_batch(&states, &masks, &mut second);
        prop_assert_eq!(batch_actions, second);
    }

    #[test]
    fn reinforce_batch_selection_is_bit_identical(
        seed in 0u64..1_000,
        state_dim in 2usize..8,
        actions in 2usize..7,
        rows in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(77));
        let config = ReinforceConfig { hidden: vec![8], ..ReinforceConfig::default() };
        let mut agent = ReinforceAgent::new(config, state_dim, actions, &mut rng);
        let (states, masks) = random_batch(&mut rng, rows, state_dim, actions);

        let probe_mask = vec![true; actions];
        let _ = agent.act_greedy(states.row(0), &probe_mask);

        let mut batch_actions = Vec::new();
        agent.act_greedy_batch(&states, &masks, &mut batch_actions);
        for r in 0..rows {
            let mask = &masks[r * actions..(r + 1) * actions];
            prop_assert_eq!(
                batch_actions[r],
                agent.act_greedy(states.row(r), mask),
                "row {} action diverged", r
            );
        }
    }

    #[test]
    fn nn_row_reductions_match_env_masked_argmax(
        seed in 0u64..1_000,
        rows in 1usize..10,
        cols in 1usize..9,
    ) {
        // The nn helpers the batch path selects through must agree with
        // rl's per-row masked_argmax/masked_max on every input, ties and
        // fully-masked rows included.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3));
        let values = Matrix::from_fn(rows, cols, |_, _| {
            // Coarse quantization provokes ties.
            (rng.gen::<f32>() * 4.0).floor()
        });
        let masks: Vec<bool> = (0..rows * cols).map(|_| rng.gen::<f32>() < 0.5).collect();
        let mut arg = Vec::new();
        values.masked_argmax_rows_into(&masks, &mut arg);
        let mut max = Vec::new();
        values.masked_max_rows_into(&masks, &mut max);
        for r in 0..rows {
            let mask = &masks[r * cols..(r + 1) * cols];
            prop_assert_eq!(arg[r], masked_argmax(values.row(r), mask), "row {}", r);
            prop_assert_eq!(max[r], masked_max(values.row(r), mask), "row {}", r);
        }
    }
}
