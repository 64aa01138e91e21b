//! Pins what one warm `DqnAgent::learn` allocates, as a count: at the
//! headline shape (74 → 128 → 128 → 10, batch 32, double DQN) with a third
//! of the stored transitions terminal, a learn step allocates exactly once,
//! for the TD-error vector `QNetwork::train_selected` returns. Every matrix
//! it touches (the two gathered minibatches, both networks' workspaces, the
//! gradients and the Adam moments) is reused at its steady-state size, so
//! storage that re-aligned or reallocated on every step, or a bootstrap
//! minibatch whose reservation followed its varying row count, fails here.
//!
//! The counting `#[global_allocator]` is the one
//! `crates/core/tests/decision_allocs.rs` uses; an integration test file is
//! its own binary, so it touches no other suite. Allocations are counted per
//! thread, so the test harness's own threads cannot disturb the count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::dqn::{DqnAgent, DqnConfig};
use rl::qnet::QNetworkConfig;
use rl::transition::Transition;
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
