//! # sweep — the sharded sweep execution protocol
//!
//! `exper` fans a (scenario × policy × seed) grid across *threads*; this
//! crate is the contract that fans it across *processes* (and, later,
//! hosts) without giving up the byte-identical-output guarantee. It holds
//! only protocol types and pure functions — no process spawning, no
//! event loops — mirroring the serverless-sweep split where the runtime
//! (local `Command` fleet today, remote workers tomorrow) stays out of
//! the core crate:
//!
//! * [`plan`] — pure, deterministic shard planning over global cell
//!   indices: [`plan::ShardPlan`] carries the grid's structural
//!   fingerprint, the `shard_id`/`shard_of` coordinate and its half-open
//!   [`plan::CellRange`]s. Every worker plans locally; plans are never
//!   written down.
//! * [`fragment`] — the partitioned output contract: one worker writes
//!   one `BENCH_<name>.shard<K>of<N>.json` [`fragment::ShardFragment`]
//!   holding its `(global index, cell)` pairs plus the protocol version
//!   and the same fingerprint, and [`fragment::ShardFragment::load`]
//!   reads it back with a reason on failure.
//! * [`merge`] — [`merge::merge_fragments`]: validates versions and
//!   fingerprints, re-keys every cell by global index, recomputes the
//!   aggregates through the same reduction as an in-process run, and
//!   returns a report whose canonical JSON is **byte-identical** to the
//!   single-process `ExperimentGrid::run` output for *any* partition and
//!   any completion order.
//!
//! # Determinism contract
//!
//! A cell is a pure function of (scenario, policy factory, seed), and the
//! merge is keyed by global grid index — never by shard id, completion
//! order, or fragment-internal order. Process boundaries therefore add
//! nothing observable: `merge(fragments).canonical_json()` equals
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
