//! # perfbench — the repository's one benchmark
//!
//! Five end-to-end workloads over the public API of the `drl-vnf-edge`
//! stack, each measured with tracing off (end-to-end metrics) or with
//! spans recorded at the crates' public boundaries from this package's
//! own files (per-layer metrics). See `README.md` beside this package
//! for what each workload exercises and which numbers it should move.

#![deny(missing_docs)]

pub mod alloc;
pub mod metrics;
pub mod replay;
pub mod stamp;
pub mod stats;
pub mod trace;
pub mod workloads;
