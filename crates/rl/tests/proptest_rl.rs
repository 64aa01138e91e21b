//! Property tests for the RL toolkit: replay-buffer capacity/recency,
//! sum-tree consistency, schedule bounds and masked-argmax correctness.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::prelude::*;
use rl::replay::sumtree::SumTree;

fn t(v: f32) -> Transition {
    Transition::new(vec![v], 0, v, vec![v], false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uniform_replay_never_exceeds_capacity(
        capacity in 1usize..64,
        pushes in 0usize..300,
    ) {
        let mut buf = UniformReplay::new(capacity);
        for i in 0..pushes {
            buf.push(t(i as f32));
            prop_assert!(buf.len() <= capacity);
        }
        prop_assert_eq!(buf.len(), pushes.min(capacity));
    }

    #[test]
    fn uniform_replay_keeps_most_recent(capacity in 1usize..32, extra in 1usize..50) {
        let mut buf = UniformReplay::new(capacity);
        let total = capacity + extra;
        for i in 0..total {
            buf.push(t(i as f32));
        }
        // Everything still stored must be from the most recent `capacity`.
        let mut rng = StdRng::seed_from_u64(0);
        let sample = buf.sample(64.min(buf.len() * 4), &mut rng);
        for tr in sample.transitions {
            prop_assert!(tr.reward as usize >= total - capacity);
        }
    }

    #[test]
    fn prioritized_replay_capacity_and_weights(
        capacity in 1usize..48,
        pushes in 1usize..200,
        batch in 1usize..16,
    ) {
        let mut buf = PrioritizedReplay::new(capacity, PerConfig::default());
        for i in 0..pushes {
            buf.push(t(i as f32));
        }
        prop_assert_eq!(buf.len(), pushes.min(capacity));
        let mut rng = StdRng::seed_from_u64(1);
        let sample = buf.sample(batch, &mut rng);
        prop_assert_eq!(sample.transitions.len(), batch);
        for &w in &sample.weights {
            prop_assert!(w > 0.0 && w <= 1.0 + 1e-5, "IS weight {w} out of (0,1]");
        }
    }

    #[test]
    fn sum_tree_total_equals_leaf_sum(
        priorities in proptest::collection::vec(0.0f32..100.0, 1..64)
    ) {
        let mut tree = SumTree::new(priorities.len());
        for (i, &p) in priorities.iter().enumerate() {
            tree.set(i, p);
        }
        let manual: f64 = priorities.iter().map(|&p| p as f64).sum();
        prop_assert!((tree.total() - manual).abs() < 1e-3);
        // Overwrites keep the invariant.
        let mut tree2 = tree.clone();
        for (i, &p) in priorities.iter().enumerate() {
            tree2.set(i, p * 0.5);
        }
        prop_assert!((tree2.total() - manual * 0.5).abs() < 1e-3);
    }

    #[test]
    fn sum_tree_prefix_lands_on_positive_leaf(
        priorities in proptest::collection::vec(0.0f32..10.0, 2..32),
        frac in 0.0f64..1.0,
    ) {
        prop_assume!(priorities.iter().any(|&p| p > 0.0));
        let mut tree = SumTree::new(priorities.len());
        for (i, &p) in priorities.iter().enumerate() {
            tree.set(i, p);
        }
        let idx = tree.find_prefix(frac * tree.total());
        prop_assert!(idx < priorities.len());
        prop_assert!(priorities[idx] > 0.0, "sampled a zero-priority leaf");
    }

    #[test]
    fn epsilon_schedules_always_in_unit_interval(
        start in 0.0f32..=1.0,
        end in 0.0f32..=1.0,
        steps in 1u64..100_000,
        probe in 0u64..1_000_000,
    ) {
        let schedules = [
            EpsilonSchedule::Constant(start),
            EpsilonSchedule::Linear { start, end, steps },
            EpsilonSchedule::Exponential { start, end, tau: steps as f64 },
        ];
        for s in schedules {
            let v = s.value(probe);
            prop_assert!((0.0..=1.0).contains(&v), "{s:?} -> {v}");
        }
    }

    #[test]
    fn masked_argmax_always_respects_mask(
        values in proptest::collection::vec(-100.0f32..100.0, 1..20),
        mask_seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(mask_seed);
        use rand::Rng as _;
        let mask: Vec<bool> = values.iter().map(|_| rng.gen_bool(0.7)).collect();
        match masked_argmax(&values, &mask) {
            Some(i) => {
                prop_assert!(mask[i]);
                for (j, (&v, &ok)) in values.iter().zip(mask.iter()).enumerate() {
                    if ok {
                        prop_assert!(values[i] >= v || i <= j);
                    }
                }
            }
            None => prop_assert!(mask.iter().all(|&m| !m)),
        }
    }
}
