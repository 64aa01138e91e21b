//! # sfc — service function chains and VNF lifecycle model
//!
//! The objects the paper's manager orchestrates: a catalog of VNF types
//! (resource footprint, M/M/1 service rate, fixed processing latency),
//! service chains with latency SLAs, user requests, live instances with
//! flow/load accounting, and end-to-end latency evaluation of chain
//! placements over an [`edgenet`] topology.
//!
//! # Examples
//!
//! ```
//! use sfc::prelude::*;
//! use edgenet::prelude::*;
//!
//! let vnfs = VnfCatalog::standard();
//! let chains = ChainCatalog::standard(&vnfs);
//!
//! // Spawn the VoIP chain (nat → firewall) on one node and measure latency.
//! let topo = TopologyBuilder::default().metro(3);
//! let routes = RoutingTable::build(&topo);
//! let mut pool = InstancePool::new();
//! let voip = chains.get(ChainId(1)).clone();
//! let instances: Vec<_> = voip.vnfs.iter()
//!     .map(|&v| pool.spawn(v, NodeId(0), 0))
//!     .collect();
//! let assignment = ChainAssignment { request: RequestId(1), instances };
//! let latency = assignment_latency(&assignment, &voip, NodeId(0), &pool, &vnfs, &routes).unwrap();
//! assert!(latency.total_ms() < voip.latency_budget_ms);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod delay;
pub mod idmap;
pub mod instance;
pub mod placement;
pub mod request;
pub mod vnf;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::chain::{ChainCatalog, ChainId, ChainSpec};
    pub use crate::delay::{admits_load, mm1_sojourn_ms, mm1_utilization};
    pub use crate::instance::{Instance, InstanceError, InstanceId, InstancePool};
    pub use crate::placement::{
        assignment_latency, hypothetical_latency_ms, validate_assignment, AssignmentError,
        ChainAssignment, LatencyBreakdown,
    };
    pub use crate::request::{Request, RequestId};
    pub use crate::vnf::{VnfCatalog, VnfType, VnfTypeId};
}
