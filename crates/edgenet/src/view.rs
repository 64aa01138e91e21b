//! A mutable view of the network: topology + routes + capacity behind
//! one API, kept consistent under dynamic [`NetworkEvent`]s.
//!
//! [`NetworkView`] owns the `Topology`, its `RoutingTable` and the
//! `CapacityLedger`, and is the only place allowed to mutate them, so
//! every consumer observes the same degraded network: dead nodes vanish
//! from the routes, degraded links stretch every path crossing them, and
//! shrunken nodes stop admitting new instances. The view owns what each
//! node *can* host; what runs there is the instance pool's to know, and
//! the view never sees it.
//!
//! An event that changes a node's liveness or a link's latency rebuilds
//! the whole table with [`RoutingTable::build_filtered`] over the live
//! nodes. Events are rare (a resilience run sees tens, a rebuild costs
//! microseconds at the topology sizes here), so nothing is patched.

use crate::capacity::CapacityLedger;
use crate::node::{NodeId, NodeKind};
use crate::routing::RoutingTable;
use crate::topology::Topology;

/// A dynamic change to the network, applied between slots.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkEvent {
    /// The node fails: it stops hosting instances and routing traffic.
    NodeDown {
        /// The failing node.
        node: NodeId,
    },
    /// The node recovers at full (baseline) capacity.
    NodeUp {
        /// The recovering node.
        node: NodeId,
    },
    /// The link between `a` and `b` shifts to `factor ×` its *base*
    /// latency (congestion when `> 1`, an upgrade when `< 1`). Factors do
    /// not compound: a later shift replaces the earlier one.
    LinkLatencyShift {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Multiplier on the link's base latency, `> 0`.
        factor: f64,
    },
    /// The node's capacity shrinks to `factor ×` its baseline (partial
    /// hardware failure). Running instances keep their allocations; the
    /// node just stops fitting new ones until usage drains or the node
    /// recovers.
    CapacityDegrade {
        /// The degraded node.
        node: NodeId,
        /// Multiplier on baseline capacity, in `(0, 1]`.
        factor: f64,
    },
}

impl NetworkEvent {
    /// The node this event takes down, if it is a failure.
    pub fn downed_node(&self) -> Option<NodeId> {
        match *self {
            NetworkEvent::NodeDown { node } => Some(node),
            _ => None,
        }
    }
}

/// Aggregate degradation signals for policy observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkHealth {
    /// Fraction of all nodes currently alive, in `[0, 1]`.
    pub live_node_fraction: f64,
    /// Fraction of baseline *edge* CPU capacity currently unavailable
    /// (down nodes count in full, degraded nodes partially), in `[0, 1]`.
    pub capacity_loss_fraction: f64,
}

impl NetworkHealth {
    /// A fully healthy network: every node up at baseline capacity.
    pub fn healthy() -> Self {
        Self {
            live_node_fraction: 1.0,
            capacity_loss_fraction: 0.0,
        }
    }
}

/// Topology + routing table + capacity ledger behind one mutable API.
/// A node's baseline capacity is its topology entry's; the ledger holds
/// the current one.
#[derive(Debug, Clone)]
pub struct NetworkView {
    topology: Topology,
    routes: RoutingTable,
    ledger: CapacityLedger,
    alive: Vec<bool>,
    /// Per-link latency multiplier relative to base latency.
    link_factor: Vec<f64>,
}

impl NetworkView {
    /// Wraps a topology into a fully healthy view: routes built fresh,
    /// every node alive at baseline capacity.
    pub fn new(topology: Topology) -> Self {
        let mut view = Self {
            routes: RoutingTable::default(),
            ledger: CapacityLedger::for_topology(&topology),
            alive: vec![true; topology.node_count()],
            link_factor: vec![1.0; topology.link_count()],
            topology,
        };
        view.reroute();
        view
    }

    /// The underlying topology (immutable; liveness is tracked here, not
    /// by removing nodes).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current routes over the live part of the network. Entries touching
    /// a dead node are `INFINITY`.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// Every node's current capacity (event-driven through
    /// [`NetworkView::apply`]).
    pub fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    /// `true` if `node` is currently alive.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.alive[node.0]
    }

    /// Number of currently dead nodes.
    pub fn down_node_count(&self) -> usize {
        self.alive.iter().filter(|&&a| !a).count()
    }

    /// Effective latency of link `li` (base × current shift factor).
    pub fn link_latency_ms(&self, li: usize) -> f64 {
        self.topology.link(li).latency_ms * self.link_factor[li]
    }

    /// Aggregate health signals for policy observations.
    pub fn health(&self) -> NetworkHealth {
        let n = self.topology.node_count();
        let live = self.alive.iter().filter(|&&a| a).count();
        let mut base_edge_cpu = 0.0;
        let mut live_edge_cpu = 0.0;
        for node in self.topology.nodes() {
            if node.kind != NodeKind::Edge {
                continue;
            }
            base_edge_cpu += node.capacity.cpu;
            if self.alive[node.id.0] {
                live_edge_cpu += self.ledger.capacity_of(node.id).map_or(0.0, |c| c.cpu);
            }
        }
        NetworkHealth {
            live_node_fraction: live as f64 / n as f64,
            capacity_loss_fraction: if base_edge_cpu > 0.0 {
                (1.0 - live_edge_cpu / base_edge_cpu).clamp(0.0, 1.0)
            } else {
                0.0
            },
        }
    }

    /// Recomputes every route over the live nodes at the current link
    /// latencies: the one place the routing table is written.
    fn reroute(&mut self) {
        self.routes = RoutingTable::build_filtered(&self.topology, &self.alive, &|li| {
            self.link_latency_ms(li)
        });
    }

    /// Applies one event. An event that changes liveness or a link's
    /// latency rebuilds every route; one that changes nothing (a
    /// `NodeDown` on a dead node, a shift to the link's current factor)
    /// leaves them as they are.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node ids, a `LinkLatencyShift` naming a
    /// non-existent link, or a non-positive factor.
    pub fn apply(&mut self, event: &NetworkEvent) {
        let n = self.topology.node_count();
        let routes_changed = match *event {
            NetworkEvent::NodeDown { node } => {
                assert!(node.0 < n, "event node {node} out of range");
                std::mem::replace(&mut self.alive[node.0], false)
            }
            NetworkEvent::NodeUp { node } => {
                assert!(node.0 < n, "event node {node} out of range");
                if self.alive[node.0] {
                    false
                } else {
                    self.alive[node.0] = true;
                    // Recovered hardware rejoins at full baseline capacity.
                    self.ledger
                        .set_capacity(node, self.topology.node(node).capacity);
                    true
                }
            }
            NetworkEvent::LinkLatencyShift { a, b, factor } => {
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "latency factor must be positive, got {factor}"
                );
                let li = self
                    .topology
                    .links()
                    .iter()
                    .position(|l| l.connects(a, b))
                    .unwrap_or_else(|| panic!("no link between {a} and {b}"));
                std::mem::replace(&mut self.link_factor[li], factor) != factor
            }
            NetworkEvent::CapacityDegrade { node, factor } => {
                assert!(node.0 < n, "event node {node} out of range");
                assert!(
                    factor.is_finite() && factor > 0.0 && factor <= 1.0,
                    "capacity factor must be in (0, 1], got {factor}"
                );
                let base = self.topology.node(node).capacity;
                self.ledger.set_capacity(node, base.scaled(factor));
                false
            }
        };
        if routes_changed {
            self.reroute();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn view(sites: usize) -> NetworkView {
        NetworkView::new(TopologyBuilder::default().metro(sites))
    }

    #[test]
    fn fresh_view_is_healthy_and_matches_plain_build() {
        let v = view(5);
        assert_eq!(v.health(), NetworkHealth::healthy());
        assert_eq!(v.down_node_count(), 0);
        let plain = RoutingTable::build(v.topology());
        let n = v.topology().node_count();
        for s in (0..n).map(NodeId) {
            for d in (0..n).map(NodeId) {
                assert_eq!(
                    v.routes().latency_ms(s, d).to_bits(),
                    plain.latency_ms(s, d).to_bits(),
                    "route {s}->{d}"
                );
            }
        }
    }

    #[test]
    fn node_down_cuts_routes_and_up_restores_them() {
        let mut v = view(5);
        let before = v.routes().latency_ms(NodeId(0), NodeId(1));
        v.apply(&NetworkEvent::NodeDown { node: NodeId(1) });
        assert!(!v.node_alive(NodeId(1)));
        assert!(v.routes().latency_ms(NodeId(0), NodeId(1)).is_infinite());
        assert!(v.routes().latency_ms(NodeId(1), NodeId(0)).is_infinite());
        // Idempotent.
        v.apply(&NetworkEvent::NodeDown { node: NodeId(1) });
        assert_eq!(v.down_node_count(), 1);

        v.apply(&NetworkEvent::NodeUp { node: NodeId(1) });
        assert_eq!(v.routes().latency_ms(NodeId(0), NodeId(1)), before);
    }

    #[test]
    fn ring_failure_forces_the_long_way_round() {
        // On a ring, killing a neighbour reroutes traffic the other way.
        let mut v = NetworkView::new(
            TopologyBuilder {
                with_cloud: false,
                ..Default::default()
            }
            .ring(6),
        );
        let direct = v.routes().latency_ms(NodeId(0), NodeId(2));
        v.apply(&NetworkEvent::NodeDown { node: NodeId(1) });
        let detour = v.routes().latency_ms(NodeId(0), NodeId(2));
        assert!(detour > direct, "path must detour around the dead node");
        // Killing node 3 as well splits {2} off from {0, 5, 4}.
        v.apply(&NetworkEvent::NodeDown { node: NodeId(3) });
        assert!(v.routes().latency_ms(NodeId(0), NodeId(2)).is_infinite());
    }

    #[test]
    fn link_shift_stretches_and_restores_paths() {
        let mut v = view(4);
        let before = v.routes().latency_ms(NodeId(0), NodeId(1));
        v.apply(&NetworkEvent::LinkLatencyShift {
            a: NodeId(0),
            b: NodeId(1),
            factor: 10.0,
        });
        let after = v.routes().latency_ms(NodeId(0), NodeId(1));
        assert!(after > before, "direct link now 10x: path must worsen");
        // Factors replace, not compound: back to 1.0 restores exactly.
        v.apply(&NetworkEvent::LinkLatencyShift {
            a: NodeId(0),
            b: NodeId(1),
            factor: 1.0,
        });
        assert_eq!(v.routes().latency_ms(NodeId(0), NodeId(1)), before);
    }

    #[test]
    fn capacity_degrade_shrinks_ledger_and_recovery_restores() {
        let mut v = view(3);
        let base = v.ledger().capacity_of(NodeId(0)).unwrap();
        v.apply(&NetworkEvent::CapacityDegrade {
            node: NodeId(0),
            factor: 0.5,
        });
        let degraded = v.ledger().capacity_of(NodeId(0)).unwrap();
        assert!((degraded.cpu - base.cpu * 0.5).abs() < 1e-9);
        assert!(v.health().capacity_loss_fraction > 0.0);
        // Down-then-up resets the degradation.
        v.apply(&NetworkEvent::NodeDown { node: NodeId(0) });
        v.apply(&NetworkEvent::NodeUp { node: NodeId(0) });
        assert_eq!(v.ledger().capacity_of(NodeId(0)).unwrap(), base);
        assert_eq!(v.health(), NetworkHealth::healthy());
    }

    #[test]
    fn health_tracks_down_nodes() {
        let mut v = view(4); // 4 edge + cloud = 5 nodes
        v.apply(&NetworkEvent::NodeDown { node: NodeId(2) });
        let h = v.health();
        assert!((h.live_node_fraction - 4.0 / 5.0).abs() < 1e-9);
        assert!((h.capacity_loss_fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no link between")]
    fn shift_on_missing_link_panics() {
        // Ring: nodes 0 and 2 are not adjacent.
        let mut v = NetworkView::new(
            TopologyBuilder {
                with_cloud: false,
                ..Default::default()
            }
            .ring(5),
        );
        v.apply(&NetworkEvent::LinkLatencyShift {
            a: NodeId(0),
            b: NodeId(2),
            factor: 2.0,
        });
    }
}
