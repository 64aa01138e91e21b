//! Property tests for the RL toolkit: replay-buffer capacity/recency, the
//! transition store against a plain ring of owned transitions, sum-tree
//! consistency, schedule bounds and masked-argmax correctness.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::prelude::*;
use rl::replay::sumtree::SumTree;

fn t(v: f32) -> Transition {
    Transition::new(vec![v], 0, v, vec![v], false)
}

/// The reference the store must match: the ring of owned transitions the
/// replays kept before they shared state rows.
struct ReferenceRing {
    slots: Vec<Transition>,
    capacity: usize,
    head: usize,
}

impl ReferenceRing {
    fn push(&mut self, t: Transition) {
        if self.slots.len() < self.capacity {
            self.slots.push(t);
        } else {
            self.slots[self.head] = t;
        }
        self.head = (self.head + 1) % self.capacity;
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `view` is `expected` bit for bit, but for a terminal transition's next
/// state, which is not stored.
fn same_transition(view: TransitionRef<'_>, expected: &Transition) -> bool {
    let next_state: &[f32] = if expected.done {
        &[]
    } else {
        &expected.next_state
    };
    bits(view.state) == bits(&expected.state)
        && view.action == expected.action
        && view.reward.to_bits() == expected.reward.to_bits()
        && bits(view.next_state) == bits(next_state)
        && view.done == expected.done
        && view.next_mask == expected.next_mask.as_slice()
}

/// A value from a small set, so that neighbouring states often differ in
/// one entry only, and `0.0` and `-0.0` (equal, not bitwise) both occur.
fn entry(rng: &mut StdRng) -> f32 {
    const ENTRIES: [f32; 5] = [0.0, -0.0, 1.0, -1.5, 0.25];
    ENTRIES[rng.gen_range(0..ENTRIES.len())]
}

/// A stream of `n` transitions of `width`-float states, about a third
/// terminal, whose non-terminal next states are the following state about
/// two times in three (as the engine feeds them) and otherwise a state of
/// their own, possibly equal to the following one only up to signed zeros.
fn stream(seed: u64, width: usize, actions: usize, n: usize) -> Vec<Transition> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut states: Vec<Vec<f32>> = (0..=n)
        .map(|_| (0..width).map(|_| entry(&mut rng)).collect())
        .collect();
    (0..n)
        .map(|i| {
            let done = rng.gen_bool(0.3);
            let next_state = match rng.gen_range(0..3) {
                0 => (0..width).map(|_| entry(&mut rng)).collect(),
                1 => states[i + 1]
                    .iter()
                    .map(|&v| if v == 0.0 { -v } else { v })
                    .collect(),
                _ => states[i + 1].clone(),
            };
            let next_mask = if rng.gen_bool(0.5) {
                Vec::new()
            } else {
                (0..actions).map(|a| a == 0 || rng.gen_bool(0.5)).collect()
            };
            Transition::with_mask(
                std::mem::take(&mut states[i]),
                rng.gen_range(0..actions),
                entry(&mut rng),
                next_state,
                done,
                next_mask,
            )
        })
        .collect()
}

/// Pushes `stream` into `replay` and the reference side by side; after
/// every push, every occupied slot and every sampled id must read back as
/// the reference's transition in that slot.
fn check_against_reference<R: Replay>(
    replay: &mut R,
    stream: &[Transition],
    capacity: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut reference = ReferenceRing {
        slots: Vec::new(),
        capacity,
        head: 0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut indices, mut weights) = (Vec::new(), Vec::new());
    for t in stream {
        replay.push(t);
        reference.push(t.clone());
        prop_assert_eq!(replay.len(), reference.slots.len());
        for (slot, expected) in reference.slots.iter().enumerate() {
            prop_assert!(
                same_transition(replay.get_ref(slot as u64), expected),
                "slot {slot}: {:?} != {expected:?}",
                replay.get_ref(slot as u64)
            );
        }
        replay.sample_into(5, &mut rng, &mut indices, &mut weights);
        for &id in &indices {
            prop_assert!(same_transition(
                replay.get_ref(id),
                &reference.slots[id as usize]
            ));
        }
        replay.update_priorities(&indices, &weights);
    }
    Ok(())
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
        let (mut ids, mut weights) = (Vec::new(), Vec::new());
        buf.sample_into(64.min(buf.len() * 4), &mut rng, &mut ids, &mut weights);
        for &id in &ids {
            prop_assert!(buf.get_ref(id).reward as usize >= total - capacity);
        }
    }

    #[test]
    fn the_store_reads_back_a_plain_ring_bit_for_bit(
        seed in 0u64..1_000_000,
        capacity in 1usize..=8,
        width in 1usize..=5,
        actions in 1usize..=4,
        pushes in 0usize..=30,
    ) {
        let stream = stream(seed, width, actions, pushes);
        check_against_reference(&mut UniformReplay::new(capacity), &stream, capacity, seed)?;
        check_against_reference(
            &mut PrioritizedReplay::new(capacity, PerConfig::default()),
            &stream,
            capacity,
            seed,
        )?;
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
        let (mut ids, mut weights) = (Vec::new(), Vec::new());
        buf.sample_into(batch, &mut rng, &mut ids, &mut weights);
        prop_assert_eq!(ids.len(), batch);
        for &w in &weights {
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
