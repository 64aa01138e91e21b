//! Pins what a warm `DqnAgent::learn` and `DqnAgent::observe` allocate, as
//! counts. At the headline shape (74 → 128 → 128 → 10, batch 32, double
//! DQN) with a third of the stored transitions terminal, a learn step
//! allocates exactly once, for the TD-error vector
//! `QNetwork::train_selected` returns. Every matrix it touches (the two
//! gathered minibatches, both networks' workspaces, the gradients and the
//! Adam moments) is reused at its steady-state size, so storage that
//! re-aligned or reallocated on every step, or a bootstrap minibatch whose
//! reservation followed its varying row count, fails here. The dueling
//! network (the same single allocation) and `observe` have a case each
//! below.
//!
//! The counting `#[global_allocator]` is the one
//! `crates/core/tests/decision_allocs.rs` uses; an integration test file is
//! its own binary, so it touches no other suite. Allocations are counted per
//! thread, so the test harness's own threads cannot disturb the count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::dqn::{DqnAgent, DqnConfig};
use rl::qnet::QNetworkConfig;
use rl::replay::CHUNK_ROWS;
use rl::transition::{Transition, TransitionRef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; its allocations
        // are not the test's.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was returned by `alloc` above for this `layout`.
        unsafe { System.dealloc(p, layout) };
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const STATE_DIM: usize = 74;
const ACTIONS: usize = 10;

/// An encoder-like state: about half its entries zero.
fn state(rng: &mut StdRng) -> Vec<f32> {
    (0..STATE_DIM)
        .map(|_| {
            if rng.gen::<f32>() < 0.5 {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect()
}

#[test]
fn a_warm_learn_step_allocates_only_its_td_vector() {
    let mut rng = StdRng::seed_from_u64(2026);
    let config = DqnConfig {
        network: QNetworkConfig::Standard {
            hidden: vec![128, 128],
        },
        batch_size: 32,
        double: true,
        // Learn only when called below.
        learn_start: usize::MAX,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(config, STATE_DIM, ACTIONS, &mut rng);
    for i in 0..600 {
        let mask: Vec<bool> = (0..ACTIONS).map(|a| a == 0 || (i + a) % 3 != 0).collect();
        let t = Transition::with_mask(
            state(&mut rng),
            i % ACTIONS,
            rng.gen_range(-1.0..0.0),
            state(&mut rng),
            i % 3 == 0,
            mask,
        );
        assert!(agent.observe(t, &mut rng).is_none());
    }

    // Warm-up: first-touch sizing of every scratch matrix and the Adam
    // moments, and the bootstrap minibatch's largest row count so far.
    for _ in 0..50 {
        agent.learn(&mut rng);
    }
    let steps = 200;
    let before = allocations();
    for _ in 0..steps {
        agent.learn(&mut rng);
    }
    let allocated = allocations() - before;
    println!(
        "allocations per warm learn step: {:.2}",
        allocated as f64 / steps as f64
    );
    assert_eq!(
        allocated, steps,
        "a warm learn step allocates only its TD vector"
    );
}

/// The dueling Q-network's learn step, at 74 → (128 → 64) → (32 → 1,
/// 32 → 10): exactly one allocation, the TD vector, as for a standard
/// network. The three sub-networks' activations and input gradients live
/// in their own training scratch, and the combined Q, its loss gradient,
/// the two heads' output gradients and the trunk's in the dueling
/// network's (12 allocations per step when the dueling forward and
/// backward built each of them as a fresh matrix). No parameter gradient
/// is copied: each sub-network is clipped and updated in place (18 more
/// allocations per step when the update drained and cloned them).
#[test]
fn a_warm_dueling_learn_step_allocates_no_gradient_copies() {
    let mut rng = StdRng::seed_from_u64(2027);
    let config = DqnConfig {
        network: QNetworkConfig::Dueling {
            trunk: vec![128, 64],
            head: 32,
        },
        batch_size: 32,
        double: true,
        learn_start: usize::MAX,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(config, STATE_DIM, ACTIONS, &mut rng);
    for i in 0..600 {
        let mask: Vec<bool> = (0..ACTIONS).map(|a| a == 0 || (i + a) % 3 != 0).collect();
        let t = Transition::with_mask(
            state(&mut rng),
            i % ACTIONS,
            rng.gen_range(-1.0..0.0),
            state(&mut rng),
            i % 3 == 0,
            mask,
        );
        assert!(agent.observe(t, &mut rng).is_none());
    }
    for _ in 0..50 {
        agent.learn(&mut rng);
    }
    let steps = 200;
    let before = allocations();
    for _ in 0..steps {
        agent.learn(&mut rng);
    }
    let allocated = allocations() - before;
    println!(
        "allocations per warm dueling learn step: {:.2}",
        allocated as f64 / steps as f64
    );
    assert_eq!(
        allocated, steps,
        "a warm dueling learn step allocates only its TD vector"
    );
}

/// What `DqnAgent::observe` allocates when it does not learn: at most one
/// allocation per arena chunk the replay opens (its records, states, next
/// masks and side ring each come in chunks of `CHUNK_ROWS` slots), so at
/// most 4 × ⌈capacity / CHUNK_ROWS⌉ over the ring's first pass, and none
/// once the ring is full. The transitions are borrowed from buffers built
/// before counting, the way the engine's feedback is: the next state is
/// the following transition's state, except every seventh, which spills.
#[test]
fn a_warm_observe_allocates_at_most_once_per_arena_chunk() {
    let mut rng = StdRng::seed_from_u64(2028);
    let capacity = 1_000;
    let config = DqnConfig {
        replay_capacity: capacity,
        learn_start: usize::MAX,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(config, STATE_DIM, ACTIONS, &mut rng);
    let pushes = 2 * capacity + 300;
    let states: Vec<Vec<f32>> = (0..=pushes).map(|_| state(&mut rng)).collect();
    let detour = state(&mut rng);
    let masks: Vec<Vec<bool>> = (0..pushes)
        .map(|i| (0..ACTIONS).map(|a| a == 0 || (i + a) % 3 != 0).collect())
        .collect();
    let mut observe = |agent: &mut DqnAgent, i: usize| {
        let t = TransitionRef {
            state: &states[i],
            action: i % ACTIONS,
            reward: -0.5,
            next_state: if i % 7 == 6 { &detour } else { &states[i + 1] },
            done: i % 4 == 3,
            next_mask: &masks[i],
        };
        assert!(agent.observe(t, &mut rng).is_none());
    };
    // The first observe sizes the pending next-state buffer, once.
    observe(&mut agent, 0);

    let chunks = agent.replay_store().chunks_allocated();
    let before = allocations();
    for i in 1..capacity {
        observe(&mut agent, i);
    }
    let allocated = allocations() - before;
    let opened = agent.replay_store().chunks_allocated() - chunks;
    println!(
        "{allocated} allocations over {} observes, {opened} chunks opened",
        capacity - 1
    );
    assert!(agent.replay_store().spilled() > 0);
    assert!(opened <= 4 * capacity.div_ceil(CHUNK_ROWS));
    assert!(
        allocated <= opened as u64,
        "{allocated} allocations for {opened} chunks"
    );

    let before = allocations();
    for i in capacity..pushes {
        observe(&mut agent, i);
    }
    assert_eq!(allocations() - before, 0, "a full ring allocates nothing");
}
