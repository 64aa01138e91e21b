//! The sharded sweep's core guarantee, tested end to end in one process:
//! for ANY partition of a grid's cells into shard fragments — any shard
//! count, any per-fragment cell order, any fragment completion order —
//! the merged report's canonical JSON is byte-identical to the
//! `ExperimentGrid::run` output. The fragments take the same
//! plan → run_cells → fragment → write/load → merge path that `perf/`'s
//! `grid_sweep` workload measures.

use exper::prelude::*;
use mano::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::{Config, TestCaseError};
use rand::rngs::StdRng;
use rand::Rng;
use sweep::prelude::*;

/// Canonical-form bytes of a report — the comparison currency of the
/// whole protocol.
fn canonical_bytes(report: &BenchReport) -> String {
    serde_json::to_string_pretty(&report.canonical_json())
}

/// Shards a grid through the real plan → run_cells → fragment → merge
/// pipeline and returns the merged report.
fn shard_and_merge(grid: &ExperimentGrid, shards: usize) -> BenchReport {
    let plans = plan(
        grid.grid_name(),
        grid.grid_fingerprint(),
        grid.cell_count(),
        shards,
    );
    let fragments: Vec<ShardFragment> = plans
        .iter()
        .map(|p| {
            fragment(
                grid.grid_name(),
                grid.grid_fingerprint(),
                p.shard_id,
                p.shard_of,
                grid.run_cells(&p.cell_indices()),
            )
        })
        .collect();
    merge_fragments(
        grid.grid_name(),
        grid.grid_fingerprint(),
        grid.cell_count(),
        &fragments,
    )
    .expect("complete fragment set merges")
}

/// Pins the acceptance criterion on the registry figure grids: shard
/// counts {1, 2, 4} reproduce the unsharded bytes exactly.
fn assert_grid_shards_identically(name: &str) {
    std::env::set_var("FAST", "1");
    let grid = bench::sweep_grids::build_sweep_grid(name)
        .expect("registry grid")
        .threads(2);
    let reference = canonical_bytes(&grid.run());
    for shards in [1, 2, 4] {
        let merged = canonical_bytes(&shard_and_merge(&grid, shards));
        assert_eq!(
            merged, reference,
            "{name} sharded {shards} ways must be byte-identical to one process"
        );
    }
}

#[test]
fn fig2_load_merges_byte_identically_for_1_2_4_shards() {
    assert_grid_shards_identically("fig2_load");
}

#[test]
fn fig6_chains_merges_byte_identically_for_1_2_4_shards() {
    assert_grid_shards_identically("fig6_chains");
}

/// A tiny two-scenario grid for the partition property: cheap enough to
/// run once and then merge hundreds of ways.
fn tiny_grid() -> ExperimentGrid {
    let grid = ExperimentGrid::new("tiny")
        .scenario("a", 1.0, Scenario::small_test())
        .scenario("b", 2.0, Scenario::small_test())
        .policy("first-fit", || Box::new(FirstFitPolicy))
        .policy("cloud-only", || Box::new(CloudOnlyPolicy))
        .seeds(&[3, 7, 11])
        .threads(2);
    let fp = grid.auto_fingerprint();
    grid.fingerprint(fp)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[test]
fn any_partition_any_order_merges_byte_identically() {
    let grid = tiny_grid();
    let reference = grid.run();
    let reference_bytes = canonical_bytes(&reference);
    let n = grid.cell_count();
    let indexed: Vec<(usize, BenchCell)> = reference.cells.iter().cloned().enumerate().collect();

    proptest::test_runner::run(
        Config::with_cases(64),
        "any_partition_merges_identically",
        |rng| {
            // An arbitrary (not necessarily contiguous, not necessarily
            // balanced) assignment of every cell to one of 1..=5 shards.
            let shard_of = (1usize..=5).generate(rng);
            let mut shards: Vec<Vec<(usize, BenchCell)>> = vec![Vec::new(); shard_of];
            for (index, cell) in &indexed {
                shards[rng.gen_range(0..shard_of)].push((*index, cell.clone()));
            }
            // Any order inside each fragment, any completion order.
            let mut fragments: Vec<ShardFragment> = shards
                .into_iter()
                .enumerate()
                .map(|(shard_id, mut cells)| {
                    shuffle(&mut cells, rng);
                    fragment(
                        grid.grid_name(),
                        grid.grid_fingerprint(),
                        shard_id,
                        shard_of,
                        cells,
                    )
                })
                .collect();
            shuffle(&mut fragments, rng);

            let merged = merge_fragments(grid.grid_name(), grid.grid_fingerprint(), n, &fragments)
                .map_err(|e| TestCaseError::fail(format!("merge refused: {e}")))?;
            let merged_bytes = canonical_bytes(&merged);
            if merged_bytes != reference_bytes {
                return Err(TestCaseError::fail(format!(
                    "partition into {shard_of} shards changed the canonical bytes"
                )));
            }
            Ok(())
        },
    );
}

/// The disk round-trip preserves the bytes too: write fragments, load
/// them back, merge, compare.
#[test]
fn fragments_survive_the_disk_roundtrip_byte_identically() {
    let grid = tiny_grid();
    let reference_bytes = canonical_bytes(&grid.run());
    let dir = std::env::temp_dir().join(format!("sweep_det_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let plans = plan(
        grid.grid_name(),
        grid.grid_fingerprint(),
        grid.cell_count(),
        3,
    );
    for p in &plans {
        fragment(
            grid.grid_name(),
            grid.grid_fingerprint(),
            p.shard_id,
            p.shard_of,
            grid.run_cells(&p.cell_indices()),
        )
        .write_to(&dir)
        .expect("write fragment");
    }
    let fragments: Vec<ShardFragment> = (0..3)
        .map(|k| {
            load_fragment(&shards_dir(&dir).join(fragment_file_name(grid.grid_name(), k, 3)))
                .expect("fragment loads back")
        })
        .collect();
    let merged = merge_fragments(
        grid.grid_name(),
        grid.grid_fingerprint(),
        grid.cell_count(),
        &fragments,
    )
    .expect("merge");
    assert_eq!(canonical_bytes(&merged), reference_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
