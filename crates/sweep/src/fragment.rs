//! Partitioned output fragments: one shard's share of a grid run.
//!
//! A shard's cells are written as ONE fragment —
//! `shards/BENCH_<name>.shard<K>of<N>.json` under the results directory —
//! carrying `(global index, cell)` pairs plus the schema version and grid
//! fingerprint the merge validates. The file name alone identifies the
//! (grid, shard) coordinate.

use crate::plan::SWEEP_SCHEMA_VERSION;
use mano::report::{cell_json, BenchCell};
use serde_json::{Error as JsonError, FromJson, Value};
use std::io;
use std::path::{Path, PathBuf};

/// One shard's executed cells, keyed by global grid index.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFragment {
    /// Protocol version ([`SWEEP_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Registry name of the grid.
    pub grid_name: String,
    /// Structural fingerprint of the grid the shard was run from.
    pub grid_fingerprint: String,
    /// Which shard this fragment is, `0..shard_of`.
    pub shard_id: usize,
    /// Total shards of the run this fragment belongs to.
    pub shard_of: usize,
    /// `(global cell index, cell)` pairs. Order inside the fragment is
    /// irrelevant — the merge re-keys by index.
    pub cells: Vec<(usize, BenchCell)>,
}

/// The partitioned file name of a fragment:
/// `BENCH_<name>.shard<K>of<N>.json` (shard ids are zero-based).
pub fn fragment_file_name(grid_name: &str, shard_id: usize, shard_of: usize) -> String {
    format!("BENCH_{grid_name}.shard{shard_id}of{shard_of}.json")
}

/// The shard-fragment directory under a results directory.
pub fn shards_dir(results_dir: &Path) -> PathBuf {
    results_dir.join("shards")
}

impl ShardFragment {
    /// This fragment's [`fragment_file_name`].
    pub fn file_name(&self) -> String {
        fragment_file_name(&self.grid_name, self.shard_id, self.shard_of)
    }

    /// Serializes the fragment (the on-disk form).
    pub fn to_json(&self) -> Value {
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|(index, cell)| {
                let mut m = serde_json::Map::new();
                m.insert("index", Value::from(*index as u64));
                m.insert("cell", cell_json(cell));
                Value::Object(m)
            })
            .collect();
        let mut m = serde_json::Map::new();
        m.insert("schema_version", Value::from(self.schema_version));
        m.insert("grid_name", Value::from(self.grid_name.as_str()));
        m.insert(
            "grid_fingerprint",
            Value::from(self.grid_fingerprint.as_str()),
        );
        m.insert("shard_id", Value::from(self.shard_id as u64));
        m.insert("shard_of", Value::from(self.shard_of as u64));
        m.insert("cells", Value::Array(cells));
        Value::Object(m)
    }

    /// Loads one fragment file.
    ///
    /// # Errors
    ///
    /// I/O, syntax and shape failures, naming the file.
    pub fn load(path: &Path) -> Result<Self, JsonError> {
        serde_json::from_file(path)
    }

    /// Writes the fragment into `shards/` under `results_dir` (created if
    /// missing) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, results_dir: &Path) -> io::Result<PathBuf> {
        let path = shards_dir(results_dir).join(self.file_name());
        mano::report::write_lines(&path, &[serde_json::to_string_pretty(&self.to_json())])?;
        Ok(path)
    }
}

/// Reads [`ShardFragment::to_json`] output. The round trip is exact
/// (cells carry `f64` bit patterns through the deterministic writer),
/// which is what lets a merged report match an in-process run byte for
/// byte. The schema version is read, not checked: the merge refuses a
/// stale one with [`crate::merge::MergeError::SchemaVersion`].
impl FromJson for ShardFragment {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            schema_version: v.req("schema_version")?,
            grid_name: v.req("grid_name")?,
            grid_fingerprint: v.req("grid_fingerprint")?,
            shard_id: v.req("shard_id")?,
            shard_of: v.req("shard_of")?,
            cells: v
                .req::<Vec<IndexedCell>>("cells")?
                .into_iter()
                .map(|IndexedCell(index, cell)| (index, cell))
                .collect(),
        })
    }
}

/// One `{index, cell}` member of a fragment's `cells`.
struct IndexedCell(usize, BenchCell);

impl FromJson for IndexedCell {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self(v.req("index")?, v.req("cell")?))
    }
}

/// Builds a fragment around executed cells, stamped with the current
/// protocol version.
pub fn fragment(
    grid_name: impl Into<String>,
    grid_fingerprint: impl Into<String>,
    shard_id: usize,
    shard_of: usize,
    cells: Vec<(usize, BenchCell)>,
) -> ShardFragment {
    ShardFragment {
        schema_version: SWEEP_SCHEMA_VERSION,
        grid_name: grid_name.into(),
        grid_fingerprint: grid_fingerprint.into(),
        shard_id,
        shard_of,
        cells,
    }
}

/// [`ShardFragment::load`] without the reason. Kept only because the
/// `perf/` benchmark calls it; everything else calls `load`.
pub fn load_fragment(path: &Path) -> Option<ShardFragment> {
    ShardFragment::load(path).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mano::metrics::RunSummary;

    fn cell(index: usize) -> (usize, BenchCell) {
        (
            index,
            BenchCell {
                scenario: format!("s{}", index / 4),
                policy: format!("p{}", index % 2),
                x: 1.5 + index as f64,
                seed: 100 + index as u64,
                summary: RunSummary {
                    slots: 10,
                    total_arrivals: 40 + index as u64,
                    total_accepted: 30,
                    total_rejected: 10 + index as u64,
                    acceptance_ratio: 0.75,
                    sla_violation_ratio: 0.05,
                    mean_admission_latency_ms: 25.0 + index as f64 * 0.125,
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
    fn file_name_is_the_partitioned_key() {
        assert_eq!(
            fragment_file_name("fig2_load", 1, 4),
            "BENCH_fig2_load.shard1of4.json"
        );
    }

    #[test]
    fn json_roundtrip_is_exact() -> Result<(), JsonError> {
        let f = fragment("unit", "unit-feed", 2, 3, vec![cell(5), cell(3)]);
        let text = serde_json::to_string_pretty(&f.to_json());
        assert_eq!(ShardFragment::from_json(&serde_json::from_str(&text)?)?, f);
        Ok(())
    }

    #[test]
    fn write_and_load_under_shards_dir() -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join(format!("sweep_fragment_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = fragment("unit", "unit-feed", 0, 2, vec![cell(0)]);
        let path = f.write_to(&dir)?;
        assert!(path.starts_with(shards_dir(&dir)));
        assert_eq!(ShardFragment::load(&path)?, f);
        assert_eq!(load_fragment(&dir.join("missing.json")), None);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn truncated_fragment_names_its_file_and_byte() -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join(format!("sweep_truncated_{}", std::process::id()));
        let path = dir.join("BENCH_unit.shard0of1.json");
        let text =
            serde_json::to_string_pretty(&fragment("unit", "fp", 0, 1, vec![cell(0)]).to_json());
        mano::report::write_lines(&path, &[text[..text.len() / 2].to_string()])?;
        let e = ShardFragment::load(&path).unwrap_err();
        assert_eq!(e.file.as_deref(), Some(path.as_path()));
        assert_eq!(e.found, "end of input");
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn mistyped_fragment_cell_is_named_by_its_path() -> Result<(), JsonError> {
        let f = fragment("unit", "fp", 0, 1, vec![cell(0), cell(1)]);
        let text = serde_json::to_string(&f.to_json())
            .replace(r#""total_arrivals":41"#, r#""total_arrivals":4.5"#);
        let e = ShardFragment::from_json(&serde_json::from_str(&text)?).unwrap_err();
        assert_eq!(e.path, "cells[1].cell.summary.total_arrivals");
        assert_eq!(e.found, "4.5");
        Ok(())
    }
}
