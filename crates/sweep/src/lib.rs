//! # sweep — the sharded sweep protocol
//!
//! `exper` runs a (scenario × policy × seed) grid on threads; this crate
//! cuts the same grid into shards whose outputs are written, read back and
//! merged without giving up the byte-identical-output guarantee. It holds
//! only protocol types and pure functions, and nothing in the tree spawns
//! a process to run a shard: `perf/`'s `grid_sweep` workload drives the
//! whole protocol in one process.
//!
//! * [`plan`] — pure, deterministic shard planning over global cell
//!   indices: [`plan::ShardPlan`] carries the grid's structural
//!   fingerprint, the `shard_id`/`shard_of` coordinate and its half-open
//!   [`plan::CellRange`]s. Plans are recomputed from the grid, never
//!   written down.
//! * [`fragment`] — the partitioned output contract: one shard's run is
//!   one `BENCH_<name>.shard<K>of<N>.json` [`fragment::ShardFragment`]
//!   holding its `(global index, cell)` pairs plus the protocol version
//!   and the same fingerprint, and [`fragment::ShardFragment::load`]
//!   reads it back with a reason on failure.
//! * [`merge`] — [`merge::merge_fragments`]: validates versions and
//!   fingerprints, re-keys every cell by global index, recomputes the
//!   aggregates through the same reduction as an unsharded run, and
//!   returns a report whose canonical JSON is **byte-identical** to the
//!   `ExperimentGrid::run` output for *any* partition and any completion
//!   order.
//!
//! # Determinism contract
//!
//! A cell is a pure function of (scenario, policy factory, seed), and the
//! merge is keyed by global grid index — never by shard id, completion
//! order, or fragment-internal order. Sharding therefore adds nothing
//! observable: `merge(fragments).canonical_json()` equals
//! `grid.run().canonical_json()` byte for byte (measurement metadata —
//! wall clock, threads, derived throughput — is scrubbed to zero in the
//! canonical form on both sides). See `docs/sweep.md`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fragment;
pub mod merge;
pub mod plan;

/// Convenient glob-import of the protocol surface.
pub mod prelude {
    pub use crate::fragment::{
        fragment, fragment_file_name, load_fragment, shards_dir, ShardFragment,
    };
    pub use crate::merge::{merge_fragments, MergeError};
    pub use crate::plan::{plan, CellRange, ShardPlan, SWEEP_SCHEMA_VERSION};
}
