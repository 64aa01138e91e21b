//! The deterministic merge: fragments in, a byte-identical report out.
//!
//! Validation is strict — a merge that silently tolerated a stale or
//! foreign fragment would produce a *plausible* report with wrong cells,
//! which is worse than no report. Every fragment must carry the current
//! schema version and the expected grid name + fingerprint, and the
//! fragments together must cover every global cell index exactly once.

use crate::fragment::ShardFragment;
use crate::plan::SWEEP_SCHEMA_VERSION;
use mano::report::{BenchCell, BenchReport};

/// Why a set of fragments cannot be merged.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// A fragment was produced by a different protocol version.
    SchemaVersion {
        /// The offending fragment's shard id.
        shard_id: usize,
        /// The version it carries.
        found: u64,
    },
    /// A fragment belongs to a different grid.
    GridName {
        /// The offending fragment's shard id.
        shard_id: usize,
        /// The grid name it carries.
        found: String,
    },
    /// A fragment was executed against a structurally different grid
    /// (stale registry, different FAST mode, different seeds, …).
    Fingerprint {
        /// The offending fragment's shard id.
        shard_id: usize,
        /// The fingerprint it carries.
        found: String,
    },
    /// Fragments disagree on the total shard count.
    ShardCount {
        /// The offending fragment's shard id.
        shard_id: usize,
        /// The shard count it carries.
        found: usize,
        /// The shard count of the first fragment.
        expected: usize,
    },
    /// A cell index lies outside the grid.
    CellOutOfRange {
        /// The offending global cell index.
        index: usize,
        /// The grid's cell count.
        cell_count: usize,
    },
    /// Two fragments (or one fragment twice) delivered the same cell.
    DuplicateCell {
        /// The duplicated global cell index.
        index: usize,
    },
    /// Coverage is incomplete — some shards are missing or ran short.
    MissingCells {
        /// How many global indices no fragment delivered.
        missing: usize,
        /// The grid's cell count.
        cell_count: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::SchemaVersion { shard_id, found } => write!(
                f,
                "shard {shard_id}: schema version {found} != expected {SWEEP_SCHEMA_VERSION}"
            ),
            MergeError::GridName { shard_id, found } => {
                write!(f, "shard {shard_id}: fragment belongs to grid {found:?}")
            }
            MergeError::Fingerprint { shard_id, found } => write!(
                f,
                "shard {shard_id}: grid fingerprint {found:?} does not match the \
                 current grid (stale fragment? different FAST mode?)"
            ),
            MergeError::ShardCount {
                shard_id,
                found,
                expected,
            } => write!(
                f,
                "shard {shard_id}: claims {found} total shards, other fragments claim {expected}"
            ),
            MergeError::CellOutOfRange { index, cell_count } => {
                write!(f, "cell index {index} outside grid of {cell_count} cells")
            }
            MergeError::DuplicateCell { index } => {
                write!(f, "cell index {index} delivered by more than one fragment")
            }
            MergeError::MissingCells {
                missing,
                cell_count,
            } => write!(
                f,
                "{missing} of {cell_count} cells missing — not every shard landed"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges shard fragments back into one [`BenchReport`] whose canonical
/// JSON is byte-identical to the `ExperimentGrid::run` output — for any
/// partition of the cells into fragments, delivered in any order, with
/// any internal cell order.
///
/// Cells land in index-addressed slots (the sharded form of the grid
/// run's index-keyed reduction) and become a report through the same
/// [`BenchReport::from_cells`] an unsharded run uses. Measurement
/// metadata (`threads`, `wall_clock_secs`, `throughput_slots_per_sec`)
/// is set to zero — the canonical form; whoever wants wall-clock numbers
/// reads them from the caller's own log/series, not from the merged
/// deterministic payload.
///
/// # Errors
///
/// Rejects mismatched schema versions, grid names, fingerprints and
/// shard counts, and any coverage defect (out-of-range, duplicate, or
/// missing cells). See [`MergeError`].
pub fn merge_fragments(
    grid_name: &str,
    grid_fingerprint: &str,
    cell_count: usize,
    fragments: &[ShardFragment],
) -> Result<BenchReport, MergeError> {
    let expected_shards = fragments.first().map(|f| f.shard_of);
    let mut slots: Vec<Option<BenchCell>> = (0..cell_count).map(|_| None).collect();
    for frag in fragments {
        if frag.schema_version != SWEEP_SCHEMA_VERSION {
            return Err(MergeError::SchemaVersion {
                shard_id: frag.shard_id,
                found: frag.schema_version,
            });
        }
        if frag.grid_name != grid_name {
            return Err(MergeError::GridName {
                shard_id: frag.shard_id,
                found: frag.grid_name.clone(),
            });
        }
        if frag.grid_fingerprint != grid_fingerprint {
            return Err(MergeError::Fingerprint {
                shard_id: frag.shard_id,
                found: frag.grid_fingerprint.clone(),
            });
        }
        if let Some(expected) = expected_shards {
            if frag.shard_of != expected {
                return Err(MergeError::ShardCount {
                    shard_id: frag.shard_id,
                    found: frag.shard_of,
                    expected,
                });
            }
        }
        for (index, cell) in &frag.cells {
            let slot = slots.get_mut(*index).ok_or(MergeError::CellOutOfRange {
                index: *index,
                cell_count,
            })?;
            if slot.is_some() {
                return Err(MergeError::DuplicateCell { index: *index });
            }
            *slot = Some(cell.clone());
        }
    }
    let missing = slots.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        return Err(MergeError::MissingCells {
            missing,
            cell_count,
        });
    }
    // Every slot is filled: missing cells were refused above.
    let cells: Vec<BenchCell> = slots.into_iter().flatten().collect();
    Ok(BenchReport::from_cells(
        grid_name,
        grid_fingerprint,
        0,
        0.0,
        cells,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::fragment;
    use mano::metrics::RunSummary;

    fn cell(index: usize) -> (usize, BenchCell) {
        (
            index,
            BenchCell {
                scenario: "s0".into(),
                policy: format!("p{}", index / 2),
                x: 1.0,
                seed: index as u64,
                summary: RunSummary {
                    slots: 10,
                    total_arrivals: 100,
                    total_accepted: 90,
                    total_rejected: 10,
                    acceptance_ratio: 0.9,
                    sla_violation_ratio: 0.05,
                    mean_admission_latency_ms: 25.0 + index as f64,
                    p50_admission_latency_ms: 20.0,
                    p95_admission_latency_ms: 60.0,
                    total_cost_usd: 5.0,
                    mean_slot_cost_usd: 0.5,
                    mean_utilization: 0.4,
                    mean_active_flows: 30.0,
                    mean_live_instances: 12.0,
                    mean_decision_time_us: 0.0,
                    flows_disrupted: 3,
                    replacement_success_rate: 2.0 / 3.0,
                    downtime_slots: 7,
                },
            },
        )
    }

    #[test]
    fn merge_rekeys_any_delivery_order() {
        let a = fragment("g", "fp", 1, 2, vec![cell(3), cell(2)]);
        let b = fragment("g", "fp", 0, 2, vec![cell(1), cell(0)]);
        let merged = merge_fragments("g", "fp", 4, &[a, b]).unwrap();
        assert_eq!(merged.cells.len(), 4);
        let lats: Vec<f64> = merged
            .cells
            .iter()
            .map(|c| c.summary.mean_admission_latency_ms)
            .collect();
        assert_eq!(lats, vec![25.0, 26.0, 27.0, 28.0]);
        assert_eq!(merged.aggregates.len(), 2, "recomputed per (policy) group");
        assert_eq!(merged.slots_simulated, 40);
        assert_eq!(merged.threads, 0, "canonical metadata");
        assert_eq!(merged.wall_clock_secs, 0.0);
    }

    #[test]
    fn schema_version_mismatch_rejected() {
        let mut f = fragment("g", "fp", 0, 1, vec![cell(0)]);
        f.schema_version = SWEEP_SCHEMA_VERSION + 1;
        assert_eq!(
            merge_fragments("g", "fp", 1, &[f]),
            Err(MergeError::SchemaVersion {
                shard_id: 0,
                found: SWEEP_SCHEMA_VERSION + 1
            })
        );
    }

    #[test]
    fn fingerprint_and_name_mismatches_rejected() {
        let f = fragment("g", "stale-fp", 0, 1, vec![cell(0)]);
        assert!(matches!(
            merge_fragments("g", "fp", 1, std::slice::from_ref(&f)),
            Err(MergeError::Fingerprint { .. })
        ));
        assert!(matches!(
            merge_fragments("other", "stale-fp", 1, &[f]),
            Err(MergeError::GridName { .. })
        ));
    }

    #[test]
    fn coverage_defects_rejected() {
        let dup = vec![
            fragment("g", "fp", 0, 2, vec![cell(0), cell(1)]),
            fragment("g", "fp", 1, 2, vec![cell(1)]),
        ];
        assert_eq!(
            merge_fragments("g", "fp", 2, &dup),
            Err(MergeError::DuplicateCell { index: 1 })
        );
        let short = vec![fragment("g", "fp", 0, 2, vec![cell(0)])];
        assert_eq!(
            merge_fragments("g", "fp", 3, &short),
            Err(MergeError::MissingCells {
                missing: 2,
                cell_count: 3
            })
        );
        let oob = vec![fragment("g", "fp", 0, 1, vec![cell(5)])];
        assert_eq!(
            merge_fragments("g", "fp", 2, &oob),
            Err(MergeError::CellOutOfRange {
                index: 5,
                cell_count: 2
            })
        );
        let counts = vec![
            fragment("g", "fp", 0, 2, vec![cell(0)]),
            fragment("g", "fp", 1, 3, vec![cell(1)]),
        ];
        assert!(matches!(
            merge_fragments("g", "fp", 2, &counts),
            Err(MergeError::ShardCount { .. })
        ));
    }

    #[test]
    fn errors_render_human_messages() {
        let e = MergeError::MissingCells {
            missing: 2,
            cell_count: 8,
        };
        assert!(e.to_string().contains("2 of 8 cells missing"));
    }
}
