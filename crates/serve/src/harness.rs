//! Concurrent-simulation harness: N simulations, one policy server.
//!
//! Each worker thread gets its own [`ServedPolicy`] client and runs its
//! evaluation cells through the ordinary engine; every greedy query
//! crosses the ring to the shared server, where queries from concurrent
//! simulations fuse into wide forwards. Results are index-keyed: the
//! summaries come back in cell order and are bit-identical to the same
//! cells evaluated in-process, for any worker count (the serving layer's
//! determinism contract, pinned by the parity tests).

use crate::client::ServedPolicy;
use crate::server::{PolicyServer, ServeConfig, ServeStats};
use exper::eval::EvalCell;
use exper::pool::run_indexed_with;
use mano::prelude::*;

/// Evaluates every cell through one policy server, fanning the cells out
/// over `threads` concurrent simulations (defaults to one thread per
/// cell, capped at 8). Returns the per-cell summaries (in cell order;
/// the engine reads no clock, so no decision time) and the server's fusion
/// counters.
pub fn serve_evaluations<P>(
    policy: P,
    config: ServeConfig,
    reward: RewardConfig,
    cells: &[EvalCell],
    threads: Option<usize>,
    semantics: DecisionSemantics,
) -> (Vec<BenchCell>, ServeStats)
where
    P: PlacementPolicy + Send + 'static,
{
    let threads = threads.unwrap_or_else(|| cells.len().clamp(1, 8)).max(1);
    let server = PolicyServer::spawn(policy, config);
    let results = run_indexed_with(
        cells.len(),
        threads,
        || ServedPolicy::new(&server),
        |client, index| {
            let cell = &cells[index];
            let result = evaluate_policy_with_semantics(
                &cell.scenario,
                reward,
                client,
                cell.seed,
                semantics,
            );
            BenchCell {
                scenario: cell.label.clone(),
                policy: "served".to_string(),
                x: cell.x,
                seed: cell.seed,
                summary: result.summary,
            }
        },
    );
    let stats = server.shutdown();
    (results, stats)
}
