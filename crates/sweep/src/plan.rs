//! Deterministic shard planning over global grid-cell indices.
//!
//! A plan is a pure function of `(cell_count, shard_of)`: contiguous
//! balanced blocks, the first `cell_count % shard_of` shards one cell
//! longer. The plan is recomputed from the registry grid wherever it is
//! needed, so there is no coordinator state and no plan document.

/// Version stamp of the sweep protocol's on-disk artifact, the output
/// fragment. Bump on breaking changes so stale fragments are rejected by
/// the merge instead of silently mis-merged.
pub const SWEEP_SCHEMA_VERSION: u64 = 1;

/// A half-open range `[start, end)` of global grid-cell indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRange {
    /// First global cell index of the range.
    pub start: usize,
    /// One past the last global cell index of the range.
    pub end: usize,
}

impl CellRange {
    /// Number of cells in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range covers no cells.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The work order for one shard of a grid: which grid, and which global
/// cells to run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Registry name of the grid (`BENCH_<name>.json`).
    pub grid_name: String,
    /// Structural fingerprint of the grid (`ExperimentGrid::auto_fingerprint`);
    /// the merge rejects fragments whose fingerprint differs.
    pub grid_fingerprint: String,
    /// This shard's id, `0..shard_of`.
    pub shard_id: usize,
    /// Total number of shards in the plan.
    pub shard_of: usize,
    /// The global cell indices this shard executes. The planner emits at
    /// most one contiguous range per shard; the contract allows several
    /// (e.g. a striding planner later) and the merge never assumes
    /// contiguity.
    pub cell_ranges: Vec<CellRange>,
}

impl ShardPlan {
    /// All global cell indices of this shard, ascending within each range.
    pub fn cell_indices(&self) -> Vec<usize> {
        self.cell_ranges
            .iter()
            .flat_map(|r| r.start..r.end)
            .collect()
    }

    /// Number of cells this shard executes.
    pub fn cell_count(&self) -> usize {
        self.cell_ranges.iter().map(CellRange::len).sum()
    }
}

/// Plans `cell_count` cells across `shard_of` shards: contiguous balanced
/// blocks in grid-index order, deterministically — same inputs, same
/// plan. Shards beyond the cell count get an empty range list (they run
/// nothing but still write a fragment, so the merge's coverage check
/// stays uniform).
///
/// # Panics
///
/// Panics if `shard_of == 0`.
pub fn plan(
    grid_name: &str,
    grid_fingerprint: &str,
    cell_count: usize,
    shard_of: usize,
) -> Vec<ShardPlan> {
    assert!(shard_of > 0, "need at least one shard");
    let base = cell_count / shard_of;
    let extra = cell_count % shard_of;
    let mut start = 0usize;
    (0..shard_of)
        .map(|shard_id| {
            let len = base + usize::from(shard_id < extra);
            let range = CellRange {
                start,
                end: start + len,
            };
            start = range.end;
            ShardPlan {
                grid_name: grid_name.to_string(),
                grid_fingerprint: grid_fingerprint.to_string(),
                shard_id,
                shard_of,
                cell_ranges: if range.is_empty() {
                    vec![]
                } else {
                    vec![range]
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_every_cell_exactly_once() {
        for (cells, shards) in [(0, 1), (1, 4), (7, 3), (24, 4), (10, 10), (5, 8)] {
            let plans = plan("g", "fp", cells, shards);
            assert_eq!(plans.len(), shards);
            let mut seen = vec![false; cells];
            for (k, p) in plans.iter().enumerate() {
                assert_eq!(p.shard_id, k);
                assert_eq!(p.shard_of, shards);
                for i in p.cell_indices() {
                    assert!(!seen[i], "cell {i} planned twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "plan left cells unassigned");
        }
    }

    #[test]
    fn plan_is_balanced_within_one_cell() {
        let plans = plan("g", "fp", 23, 5);
        let counts: Vec<usize> = plans.iter().map(ShardPlan::cell_count).collect();
        assert_eq!(counts, vec![5, 5, 5, 4, 4]);
    }

    #[test]
    fn plan_is_deterministic() {
        assert_eq!(plan("g", "fp", 17, 4), plan("g", "fp", 17, 4));
    }

    #[test]
    fn oversharded_plan_has_empty_tail_shards() {
        let plans = plan("g", "fp", 2, 5);
        assert_eq!(plans[0].cell_count(), 1);
        assert_eq!(plans[1].cell_count(), 1);
        for p in &plans[2..] {
            assert_eq!(p.cell_count(), 0);
            assert!(p.cell_ranges.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = plan("g", "fp", 4, 0);
    }
}
