//! Latency-weighted shortest-path routing (Dijkstra) with an all-pairs
//! cache sized for the simulator's hot loop.

use crate::node::NodeId;
use crate::topology::Topology;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; ties broken by node id for determinism.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source Dijkstra over a possibly degraded network. Returns the
/// latency to every node; unreachable nodes have `f64::INFINITY`. Nodes
/// with `alive[i] == false` are skipped entirely (a dead node neither
/// originates, terminates nor forwards traffic) and each link's effective
/// latency comes from `link_latency(link_index)`. A dead source yields an
/// all-`INFINITY` row.
///
/// # Panics
///
/// Panics if `source` is out of range or `alive` does not cover the
/// topology.
pub fn dijkstra_filtered(
    topology: &Topology,
    source: NodeId,
    alive: &[bool],
    link_latency: &dyn Fn(usize) -> f64,
) -> Vec<f64> {
    let n = topology.node_count();
    assert!(source.0 < n, "source {source} out of range");
    assert_eq!(alive.len(), n, "alive mask must cover every node");
    let mut dist = vec![f64::INFINITY; n];
    if !alive[source.0] {
        return dist;
    }
    dist[source.0] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node.0] {
            continue; // stale entry
        }
        for &(next, li) in topology.neighbours(node) {
            if !alive[next.0] {
                continue;
            }
            let candidate = cost + link_latency(li);
            if candidate < dist[next.0] {
                dist[next.0] = candidate;
                heap.push(HeapEntry {
                    cost: candidate,
                    node: next,
                });
            }
        }
    }
    dist
}

/// All-pairs routing table: the shortest-path latency matrix. The
/// `Default` table covers no nodes.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    n: usize,
    /// `latency[s * n + d]`, `INFINITY` if unreachable.
    latency: Vec<f64>,
}

impl RoutingTable {
    /// Computes all-pairs shortest paths by running Dijkstra from every
    /// node (`O(n · (m + n) log n)` — fine for the topology sizes here).
    pub fn build(topology: &Topology) -> Self {
        let alive = vec![true; topology.node_count()];
        Self::build_filtered(topology, &alive, &|li| topology.link(li).latency_ms)
    }

    /// All-pairs shortest paths over a degraded network: dead nodes are
    /// excluded (their rows and columns are `INFINITY`) and link latencies
    /// come from `link_latency(link_index)`. See [`dijkstra_filtered`].
    ///
    /// # Panics
    ///
    /// Panics if `alive` does not cover the topology.
    pub fn build_filtered(
        topology: &Topology,
        alive: &[bool],
        link_latency: &dyn Fn(usize) -> f64,
    ) -> Self {
        let n = topology.node_count();
        let mut latency = Vec::with_capacity(n * n);
        for s in 0..n {
            latency.extend(dijkstra_filtered(topology, NodeId(s), alive, link_latency));
        }
        Self { n, latency }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// One-way latency from `s` to `d` in milliseconds; `INFINITY` if
    /// unreachable. Zero when `s == d`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn latency_ms(&self, s: NodeId, d: NodeId) -> f64 {
        assert!(s.0 < self.n && d.0 < self.n, "routing lookup out of range");
        self.latency[s.0 * self.n + d.0]
    }

    /// `true` if `d` is reachable from `s`.
    pub fn reachable(&self, s: NodeId, d: NodeId) -> bool {
        self.latency_ms(s, d).is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn ring(n: usize) -> Topology {
        TopologyBuilder {
            with_cloud: false,
            ..Default::default()
        }
        .ring(n)
    }

    #[test]
    fn self_latency_is_zero() {
        let topo = ring(5);
        let table = RoutingTable::build(&topo);
        for i in 0..5 {
            assert_eq!(table.latency_ms(NodeId(i), NodeId(i)), 0.0);
        }
    }

    #[test]
    fn latency_is_symmetric_on_undirected_graph() {
        let topo = TopologyBuilder::default().metro(6);
        let table = RoutingTable::build(&topo);
        for a in 0..topo.node_count() {
            for b in 0..topo.node_count() {
                let ab = table.latency_ms(NodeId(a), NodeId(b));
                let ba = table.latency_ms(NodeId(b), NodeId(a));
                assert!((ab - ba).abs() < 1e-9, "asymmetry {a}->{b}");
            }
        }
    }

    #[test]
    fn ring_path_takes_shorter_arc() {
        let topo = ring(6);
        let table = RoutingTable::build(&topo);
        let link = |a: usize, b: usize| {
            let li = topo
                .links()
                .iter()
                .position(|l| l.connects(NodeId(a), NodeId(b)))
                .expect("ring neighbours are linked");
            topo.link(li).latency_ms
        };
        // From 0 to 2: two hops forward (0-1-2) vs four hops back.
        let forward = link(0, 1) + link(1, 2);
        let back = link(0, 5) + link(5, 4) + link(4, 3) + link(3, 2);
        assert!(forward < back);
        assert_eq!(table.latency_ms(NodeId(0), NodeId(2)), forward);
    }

    #[test]
    fn triangle_inequality_holds() {
        let topo = TopologyBuilder::default().metro(8);
        let table = RoutingTable::build(&topo);
        let n = topo.node_count();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    let direct = table.latency_ms(NodeId(a), NodeId(c));
                    let via = table.latency_ms(NodeId(a), NodeId(b))
                        + table.latency_ms(NodeId(b), NodeId(c));
                    assert!(direct <= via + 1e-9, "triangle violated {a}->{b}->{c}");
                }
            }
        }
    }

    #[test]
    fn dijkstra_direct_matches_table() {
        let topo = ring(7);
        let table = RoutingTable::build(&topo);
        let alive = vec![true; topo.node_count()];
        let from_zero = dijkstra_filtered(&topo, NodeId(0), &alive, &|li| topo.link(li).latency_ms);
        for (d, latency) in from_zero.iter().enumerate() {
            assert!((latency - table.latency_ms(NodeId(0), NodeId(d))).abs() < 1e-12);
        }
    }
}
