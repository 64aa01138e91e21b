//! Parallel greedy-evaluation fan-out: N evaluation cells of ONE frozen
//! policy, executed with one policy clone — and therefore one warm
//! inference `nn::mlp::Workspace` — per worker thread.
//!
//! The experiment grid clones its policies once per *cell* (factories keep
//! cells fully independent). That is the right default for mixed policy
//! rosters, but for the common "evaluate this trained manager across a
//! seed × scenario plane" shape it rebuilds the agent's scratch buffers
//! over and over. `parallel_eval` instead hands each worker a single
//! clone and threads it mutably through every cell the worker claims:
//! the clone's workspaces stay warm, and since a frozen policy's
//! evaluation is a pure function of (scenario, seed) — reusable buffers,
//! not behavioral state, pinned by the warm-buffer golden tests — the
//! results stay index-keyed deterministic for any thread count.

use crate::pool::{run_indexed_with, thread_count};
use crate::timer::evaluate_timed;
use mano::prelude::*;

/// One greedy evaluation cell: a labelled scenario coordinate plus the
/// workload seed offset.
#[derive(Debug, Clone)]
pub struct EvalCell {
    /// Scenario label recorded in the report cells (`sites=8`, …).
    pub label: String,
    /// Numeric sweep coordinate for CSV/plot axes.
    pub x: f64,
    /// The scenario to evaluate on.
    pub scenario: Scenario,
    /// Workload seed offset.
    pub seed: u64,
}

/// Convenience: the (scenario × seeds) cross-product as evaluation cells.
pub fn cells_for_seeds(label: &str, x: f64, scenario: &Scenario, seeds: &[u64]) -> Vec<EvalCell> {
    seeds
        .iter()
        .map(|&seed| EvalCell {
            label: label.to_string(),
            x,
            scenario: scenario.clone(),
            seed,
        })
        .collect()
}

/// Evaluates `policy` on every cell, fanning out over the std scoped
/// thread pool with one policy clone per worker. Results come back in
/// cell order (index-keyed, bit-identical for any thread count). With
/// `keep_decision_time` each cell runs its policy inside a decision timer
/// that fills `mean_decision_time_us`; without it nothing is timed and the
/// field stays 0 (timings are measurement noise that would break
/// byte-identical outputs).
///
/// `threads = None` uses the engine default (`EXPER_THREADS` override or
/// available parallelism).
pub fn parallel_eval<P>(
    policy: &P,
    policy_label: &str,
    reward: RewardConfig,
    cells: &[EvalCell],
    threads: Option<usize>,
    keep_decision_time: bool,
) -> Vec<BenchCell>
where
    P: PlacementPolicy + Clone + Sync,
{
    parallel_eval_semantics(
        policy,
        policy_label,
        reward,
        cells,
        threads,
        keep_decision_time,
        DecisionSemantics::Sequential,
    )
}

/// [`parallel_eval`] under explicit decision semantics: the snapshot
/// figure columns fan out with [`DecisionSemantics::SlotSnapshot`].
/// Index-keyed determinism holds exactly as for `parallel_eval` — a
/// frozen policy's snapshot evaluation is still a pure function of
/// (scenario, seed, semantics).
#[allow(clippy::too_many_arguments)]
pub fn parallel_eval_semantics<P>(
    policy: &P,
    policy_label: &str,
    reward: RewardConfig,
    cells: &[EvalCell],
    threads: Option<usize>,
    keep_decision_time: bool,
    semantics: DecisionSemantics,
) -> Vec<BenchCell>
where
    P: PlacementPolicy + Clone + Sync,
{
    let threads = threads.unwrap_or_else(thread_count);
    run_indexed_with(
        cells.len(),
        threads,
        || policy.clone(),
        |worker, index| {
            let cell = &cells[index];
            let result = evaluate_timed(worker, keep_decision_time, |policy| {
                evaluate_policy_with_semantics(&cell.scenario, reward, policy, cell.seed, semantics)
            });
            BenchCell {
                scenario: cell.label.clone(),
                policy: policy_label.to_string(),
                x: cell.x,
                seed: cell.seed,
                summary: result.summary,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_for_seeds_expands_the_seed_axis() {
        let cells = cells_for_seeds("s", 2.0, &Scenario::small_test(), &[5, 6, 7]);
        assert_eq!(cells.len(), 3);
        assert!(cells.iter().all(|c| c.label == "s" && c.x == 2.0));
        assert_eq!(
            cells.iter().map(|c| c.seed).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
    }

    #[test]
    fn parallel_eval_matches_per_cell_evaluation() {
        let scenario = Scenario::small_test();
        let cells = cells_for_seeds("small", 1.0, &scenario, &[1, 2]);
        let got = parallel_eval(
            &FirstFitPolicy,
            "first-fit",
            RewardConfig::default(),
            &cells,
            Some(2),
            false,
        );
        assert_eq!(got.len(), 2);
        for (cell, spec) in got.iter().zip(cells.iter()) {
            let mut policy = FirstFitPolicy;
            let expected =
                evaluate_policy(&scenario, RewardConfig::default(), &mut policy, spec.seed);
            assert_eq!(cell.summary, expected.summary);
            assert_eq!(cell.policy, "first-fit");
        }
    }
}
