//! # edgenet — geo-distributed edge network simulator substrate
//!
//! Models the infrastructure the VNF manager operates on: compute nodes
//! (edge micro-datacenters plus a remote cloud) placed at real geographic
//! locations, links whose latencies derive from great-circle propagation
//! delay, latency-weighted shortest-path routing, per-node capacities,
//! and energy/price models for the operator's cost function.
//! [`view::NetworkView`] wraps topology + routes + capacity into one API
//! that stays consistent under dynamic [`view::NetworkEvent`]s (node
//! failure/recovery, link latency shifts, capacity degradation): an event
//! that changes liveness or a link's latency rebuilds every route.
//!
//! The paper's evaluation is simulation-only; this crate is the faithful
//! synthetic substitute — the relative latency/cost structure (edge close
//! but scarce, cloud far but cheap and abundant) is what drives every
//! result shape, and that structure is preserved here.
//!
//! # Examples
//!
//! ```
//! use edgenet::prelude::*;
//!
//! // 6 US/EU metro edge sites + a cloud, fully meshed.
//! let topo = TopologyBuilder::default().metro(6);
//! assert!(topo.is_connected());
//!
//! let routes = RoutingTable::build(&topo);
//! let edges = topo.edge_nodes();
//! let rtt = 2.0 * routes.latency_ms(edges[0], edges[1]);
//! assert!(rtt > 0.0);
//!
//! // Capacities; what runs on a node is the caller's to report.
//! let ledger = CapacityLedger::for_topology(&topo);
//! let used = Resources::new(4.0, 8.0);
//! assert!(ledger.utilization_of(edges[0], &used) > 0.0);
//! assert!(ledger.fits(edges[0], &used, &Resources::new(1.0, 1.0)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod energy;
pub mod geo;
pub mod link;
pub mod node;
pub mod price;
pub mod routing;
pub mod topology;
pub mod view;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::capacity::{CapacityError, CapacityLedger};
    pub use crate::energy::EnergyModel;
    pub use crate::geo::{metro_catalog, GeoPoint};
    pub use crate::link::Link;
    pub use crate::node::{Node, NodeBuilder, NodeId, NodeKind, Resources};
    pub use crate::price::PriceModel;
    pub use crate::routing::{dijkstra_filtered, RoutingTable};
    pub use crate::topology::{Topology, TopologyBuilder};
    pub use crate::view::{NetworkEvent, NetworkHealth, NetworkView};
}
