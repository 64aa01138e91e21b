//! A std-only fork-join pool for embarrassingly parallel experiment
//! cells: no networked crates, just scoped threads pulling indices off a
//! shared atomic counter (self-balancing — a worker that finishes a cheap
//! cell immediately steals the next unclaimed one).
//!
//! Swap-out path: when crates.io access exists, `run_indexed` is exactly
//! `rayon`'s `(0..n).into_par_iter().map(job).collect()` with a pool
//! sized by [`thread_count`]; nothing else in the engine would change.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "EXPER_THREADS";

/// Worker threads to use: `EXPER_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism.
///
/// Precedence, highest first:
///
/// 1. An explicit `ExperimentGrid::threads(n)` — the grid never calls
///    this function at all (tests pin thread counts without touching the
///    process environment).
/// 2. `EXPER_THREADS` (this function) — set per process, e.g.
///    `EXPER_THREADS=1` to check that a grid's bytes do not depend on its
///    thread count (`./verify.sh search-smoke` does).
/// 3. `std::thread::available_parallelism()`, the fallback.
pub fn thread_count() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("[exper] ignoring invalid {THREADS_ENV}={v:?}");
                default_thread_count()
            }
        },
        Err(_) => default_thread_count(),
    }
}

fn default_thread_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the shared poison flag if its worker unwinds, so sibling workers
/// stop claiming new indices instead of running the rest of the grid.
struct PanicGuard<'a>(&'a AtomicBool);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs `job(0..n)` on `threads` workers and returns the results in index
/// order. The output is a pure function of `job` — identical for any
/// `threads` value — because every result is routed back to its index's
/// slot, never to an arrival-order position.
///
/// # Panics
///
/// If a cell panics, the remaining workers stop claiming new cells and
/// this function panics once they drain (the worker's own panic message
/// reaches stderr via the panic hook first).
pub fn run_indexed<R, F>(n: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed_with(n, threads, || (), |(), index| job(index))
}

/// [`run_indexed`] with worker-local state: every worker thread builds
/// one `init()` value and threads it mutably through all the cells it
/// claims. The fan-out primitive for jobs that carry warm reusable
/// buffers — a greedy evaluation fleet clones its policy (and therefore
/// its inference `Workspace`) once per *worker*, not once per cell.
///
/// Determinism contract: `job` must produce the same result for an index
/// regardless of which cells the worker's state served before (reusable
/// buffers, not behavioral state). Under that contract the output is
/// identical for any `threads` value, index-keyed exactly like
/// [`run_indexed`].
///
/// # Panics
///
/// Same poisoning behavior as [`run_indexed`]: one panicking cell stops
/// the fleet and re-panics after the workers drain.
pub fn run_indexed_with<S, R, I, F>(n: usize, threads: usize, init: I, job: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if n == 0 {
        return Vec::new();
    }
    // The sequential path runs the identical job closure in index order;
    // keeping it free of thread plumbing makes `EXPER_THREADS=1` the
    // obvious reference run for determinism checks.
    if threads == 1 || n == 1 {
        let mut state = init();
        return (0..n).map(|i| job(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let workers = threads.min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let poisoned = &poisoned;
            let init = &init;
            let job = &job;
            scope.spawn(move || {
                let _guard = PanicGuard(poisoned);
                let mut state = init();
                loop {
                    if poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    // A send can only fail if the receiver was dropped,
                    // which cannot happen while this scope is alive.
                    tx.send((index, job(&mut state, index)))
                        .expect("receiver alive");
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (index, result) in rx {
            slots[index] = Some(result);
        }
        // The channel closes only after every worker exited, so the flag
        // is final here.
        assert!(
            !poisoned.load(Ordering::Relaxed),
            "a grid cell panicked; see the worker's panic message above"
        );
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("cell {i} produced no result")))
            .collect()
    })
}

/// Parallel map over a slice with engine-default thread selection:
/// `job(index, &items[index])` for every element, results in input order.
/// The generic fan-out used by training-heavy experiment phases where the
/// unit of work is not a (scenario, policy, seed) cell.
pub fn parallel_map<T, R, F>(items: &[T], job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed(items.len(), thread_count(), |i| job(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 4, 8] {
            let out = run_indexed(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let seq = run_indexed(64, 1, |i| (i, i as u64 * 3));
        let par = run_indexed(64, 8, |i| (i, i as u64 * 3));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        assert_eq!(run_indexed(2, 32, |i| i), vec![0, 1]);
    }

    #[test]
    fn worker_state_is_warm_scratch_not_behavior() {
        // The state is a reusable buffer: the job's result is a pure
        // function of the index, so any thread count agrees.
        let job = |buf: &mut Vec<usize>, i: usize| {
            buf.clear(); // warm reuse across the worker's cells
            buf.extend(0..=i);
            buf.iter().sum::<usize>()
        };
        let seq = run_indexed_with(23, 1, Vec::new, job);
        let par = run_indexed_with(23, 8, Vec::new, job);
        assert_eq!(seq, par);
        assert_eq!(seq[3], 6);
    }

    #[test]
    fn parallel_map_passes_items() {
        let items = ["a", "bb", "ccc"];
        let out = parallel_map(&items, |i, s| (i, s.len()));
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = run_indexed(1, 0, |i| i);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(8, 4, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
