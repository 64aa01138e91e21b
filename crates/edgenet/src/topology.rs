//! Topology container and generators for geo-distributed edge networks.
//!
//! Generators cover the shapes used across the experiment suite:
//!
//! * [`TopologyBuilder::metro`] — N real metro sites (+ optional cloud),
//!   fully meshed with propagation-delay latencies. The headline topology.
//! * [`TopologyBuilder::ring`] — edge sites in a ring (sparse connectivity,
//!   stresses multi-hop routing).
//! * [`TopologyBuilder::waxman`] — the classic Waxman random graph over a
//!   square region (scalability sweeps with N up to ~100).

use crate::geo::{metro_catalog, GeoPoint};
use crate::link::Link;
use crate::node::{Node, NodeBuilder, NodeId, NodeKind, Resources};
use rand::Rng;

/// An immutable network topology: nodes plus undirected links.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[n] = list of (neighbour, link index).
    adjacency: Vec<Vec<(NodeId, usize)>>,
}

impl Topology {
    /// Builds a topology from parts, validating ids and connectivity
    /// structures.
    ///
    /// # Panics
    ///
    /// Panics if node ids are not dense `0..n`, a link references an
    /// unknown node, or a duplicate link exists.
    pub fn new(nodes: Vec<Node>, links: Vec<Link>) -> Self {
        assert!(!nodes.is_empty(), "topology needs at least one node");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.id.0, i, "node ids must be dense 0..n in order");
        }
        let n = nodes.len();
        let mut adjacency = vec![Vec::new(); n];
        for (li, link) in links.iter().enumerate() {
            assert!(link.a.0 < n && link.b.0 < n, "link endpoint out of range");
            assert!(
                !links[..li].iter().any(|l| l.connects(link.a, link.b)),
                "duplicate link between {} and {}",
                link.a,
                link.b
            );
            adjacency[link.a.0].push((link.b, li));
            adjacency[link.b.0].push((link.a, li));
        }
        Self {
            nodes,
            links,
            adjacency,
        }
    }

    /// All nodes, ordered by id.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node by id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Neighbours of `id` as `(neighbour, link_index)` pairs.
    pub fn neighbours(&self, id: NodeId) -> &[(NodeId, usize)] {
        &self.adjacency[id.0]
    }

    /// Link by index.
    pub fn link(&self, index: usize) -> &Link {
        &self.links[index]
    }

    /// Ids of all edge (non-cloud) nodes.
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Edge)
            .map(|n| n.id)
            .collect()
    }

    /// Id of the first cloud node, if any.
    pub fn cloud_node(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.kind == NodeKind::Cloud)
            .map(|n| n.id)
    }

    /// `true` if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(node) = stack.pop() {
            for &(next, _) in self.neighbours(node) {
                if !seen[next.0] {
                    seen[next.0] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Total CPU capacity across edge nodes.
    pub fn total_edge_cpu(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Edge)
            .map(|n| n.capacity.cpu)
            .sum()
    }
}

/// Parameters shared by the topology generators.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyBuilder {
    /// Capacity given to each edge node.
    pub edge_capacity: Resources,
    /// Bandwidth for generated links (Mbps).
    pub link_bandwidth_mbps: f64,
    /// Fixed per-hop forwarding latency added to propagation (ms).
    pub forwarding_latency_ms: f64,
    /// Whether to attach a remote cloud node linked to every edge site.
    pub with_cloud: bool,
    /// Extra one-way latency from any edge to the cloud (ms), added to
    /// propagation.
    pub cloud_extra_latency_ms: f64,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self {
            edge_capacity: Resources::new(64.0, 256.0),
            link_bandwidth_mbps: 10_000.0,
            forwarding_latency_ms: 0.25,
            with_cloud: true,
            cloud_extra_latency_ms: 20.0,
        }
    }
}

impl TopologyBuilder {
    /// Full mesh over the first `n` metro sites from the catalog, with
    /// latencies from great-circle propagation delay. The cloud (when
    /// enabled) sits at a synthetic central-US location.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the catalog size.
    pub fn metro(&self, n: usize) -> Topology {
        let catalog = metro_catalog();
        assert!(n >= 1, "need at least one metro site");
        assert!(
            n <= catalog.len(),
            "metro preset supports up to {} sites",
            catalog.len()
        );
        let mut nodes: Vec<Node> = catalog[..n]
            .iter()
            .enumerate()
            .map(|(i, (name, point))| {
                NodeBuilder::edge(*name, *point)
                    .capacity(self.edge_capacity)
                    .build(NodeId(i))
            })
            .collect();
        let mut links = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let lat = nodes[i].location.propagation_delay_ms(&nodes[j].location)
                    + self.forwarding_latency_ms;
                links.push(Link::new(
                    NodeId(i),
                    NodeId(j),
                    lat,
                    self.link_bandwidth_mbps,
                ));
            }
        }
        if self.with_cloud {
            let cloud_id = NodeId(n);
            let cloud_loc = GeoPoint::new(39.0, -98.0); // central US
            nodes.push(NodeBuilder::cloud("cloud", cloud_loc).build(cloud_id));
            for (i, node) in nodes.iter().take(n).enumerate() {
                let lat = node.location.propagation_delay_ms(&cloud_loc)
                    + self.forwarding_latency_ms
                    + self.cloud_extra_latency_ms;
                links.push(Link::new(
                    NodeId(i),
                    cloud_id,
                    lat,
                    self.link_bandwidth_mbps,
                ));
            }
        }
        Topology::new(nodes, links)
    }

    /// `n` edge sites evenly spaced on a geographic circle, each linked to
    /// its two ring neighbours (sparse; forces multi-hop paths).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(&self, n: usize) -> Topology {
        assert!(n >= 3, "ring needs at least 3 nodes");
        let mut nodes = Vec::with_capacity(n + 1);
        for i in 0..n {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            // ~300 km radius circle centred on a reference point.
            let lat = 40.0 + 2.7 * angle.sin();
            let lon = -95.0 + 2.7 * angle.cos() / (40.0f64).to_radians().cos();
            nodes.push(
                NodeBuilder::edge(format!("ring-{i}"), GeoPoint::new(lat, lon))
                    .capacity(self.edge_capacity)
                    .build(NodeId(i)),
            );
        }
        let mut links = Vec::with_capacity(n);
        for i in 0..n {
            let j = (i + 1) % n;
            let lat = nodes[i].location.propagation_delay_ms(&nodes[j].location)
                + self.forwarding_latency_ms;
            links.push(Link::new(
                NodeId(i),
                NodeId(j),
                lat,
                self.link_bandwidth_mbps,
            ));
        }
        if self.with_cloud {
            let cloud_id = NodeId(n);
            let cloud_loc = GeoPoint::new(39.0, -98.0);
            nodes.push(NodeBuilder::cloud("cloud", cloud_loc).build(cloud_id));
            for (i, node) in nodes.iter().take(n).enumerate() {
                let lat = node.location.propagation_delay_ms(&cloud_loc)
                    + self.forwarding_latency_ms
                    + self.cloud_extra_latency_ms;
                links.push(Link::new(
                    NodeId(i),
                    cloud_id,
                    lat,
                    self.link_bandwidth_mbps,
                ));
            }
        }
        Topology::new(nodes, links)
    }

    /// Waxman random graph: `n` edge sites uniformly placed in a
    /// `side_km x side_km` square; an edge between u,v exists with
    /// probability `alpha * exp(-d(u,v) / (beta * L))` where `L` is the
    /// maximum distance. A spanning chain guarantees connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or parameters are out of `(0, 1]`.
    pub fn waxman<R: Rng>(
        &self,
        n: usize,
        side_km: f64,
        alpha: f64,
        beta: f64,
        rng: &mut R,
    ) -> Topology {
        assert!(n >= 2, "waxman needs at least 2 nodes");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0,1]");
        // Place nodes around a reference point; convert km offsets to degrees.
        let base = GeoPoint::new(40.0, -95.0);
        let km_per_deg_lat = 111.0;
        let km_per_deg_lon = 111.0 * base.lat.to_radians().cos();
        let mut nodes = Vec::with_capacity(n + 1);
        for i in 0..n {
            let dx: f64 = rng.gen_range(0.0..side_km);
            let dy: f64 = rng.gen_range(0.0..side_km);
            let point = GeoPoint::new(
                base.lat + dy / km_per_deg_lat,
                base.lon + dx / km_per_deg_lon,
            );
            nodes.push(
                NodeBuilder::edge(format!("wax-{i}"), point)
                    .capacity(self.edge_capacity)
                    .build(NodeId(i)),
            );
        }
        let max_d = (2.0f64).sqrt() * side_km;
        let mut links = Vec::new();
        let mut connected = vec![false; n];
        for i in 0..n {
            for j in i + 1..n {
                let d = nodes[i].location.distance_km(&nodes[j].location);
                let p = alpha * (-d / (beta * max_d)).exp();
                if rng.gen::<f64>() < p {
                    let lat = nodes[i].location.propagation_delay_ms(&nodes[j].location)
                        + self.forwarding_latency_ms;
                    links.push(Link::new(
                        NodeId(i),
                        NodeId(j),
                        lat,
                        self.link_bandwidth_mbps,
                    ));
                    connected[i] = true;
                    connected[j] = true;
                }
            }
        }
        // Spanning chain i -> i+1 where missing, to guarantee connectivity.
        for i in 0..n - 1 {
            if !links.iter().any(|l| l.connects(NodeId(i), NodeId(i + 1))) {
                let lat = nodes[i]
                    .location
                    .propagation_delay_ms(&nodes[i + 1].location)
                    + self.forwarding_latency_ms;
                links.push(Link::new(
                    NodeId(i),
                    NodeId(i + 1),
                    lat.max(0.01),
                    self.link_bandwidth_mbps,
                ));
            }
        }
        if self.with_cloud {
            let cloud_id = NodeId(n);
            let cloud_loc = GeoPoint::new(39.0, -98.0);
            nodes.push(NodeBuilder::cloud("cloud", cloud_loc).build(cloud_id));
            for (i, node) in nodes.iter().take(n).enumerate() {
                let lat = node.location.propagation_delay_ms(&cloud_loc)
                    + self.forwarding_latency_ms
                    + self.cloud_extra_latency_ms;
                links.push(Link::new(
                    NodeId(i),
                    cloud_id,
                    lat,
                    self.link_bandwidth_mbps,
                ));
            }
        }
        Topology::new(nodes, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn metro_topology_is_connected_full_mesh() {
        let topo = TopologyBuilder::default().metro(6);
        assert_eq!(topo.node_count(), 7); // 6 edges + cloud
        assert!(topo.is_connected());
        // Full mesh among 6 + 6 cloud links.
        assert_eq!(topo.link_count(), 6 * 5 / 2 + 6);
        assert!(topo.cloud_node().is_some());
        assert_eq!(topo.edge_nodes().len(), 6);
    }

    #[test]
    fn metro_without_cloud() {
        let builder = TopologyBuilder {
            with_cloud: false,
            ..Default::default()
        };
        let topo = builder.metro(4);
        assert_eq!(topo.node_count(), 4);
        assert!(topo.cloud_node().is_none());
    }

    #[test]
    fn ring_is_sparse_and_connected() {
        let builder = TopologyBuilder {
            with_cloud: false,
            ..Default::default()
        };
        let topo = builder.ring(8);
        assert_eq!(topo.link_count(), 8);
        assert!(topo.is_connected());
        // Each node has exactly 2 neighbours.
        for n in topo.nodes() {
            assert_eq!(topo.neighbours(n.id).len(), 2);
        }
    }

    #[test]
    fn waxman_is_connected_by_construction() {
        let mut rng = StdRng::seed_from_u64(5);
        let builder = TopologyBuilder {
            with_cloud: false,
            ..Default::default()
        };
        for n in [5, 20, 50] {
            let topo = builder.waxman(n, 500.0, 0.8, 0.3, &mut rng);
            assert!(topo.is_connected(), "waxman n={n} disconnected");
            assert_eq!(topo.node_count(), n);
        }
    }

    #[test]
    fn waxman_is_deterministic_per_seed() {
        let builder = TopologyBuilder {
            with_cloud: false,
            ..Default::default()
        };
        let a = builder.waxman(10, 300.0, 0.7, 0.4, &mut StdRng::seed_from_u64(9));
        let b = builder.waxman(10, 300.0, 0.7, 0.4, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn cloud_links_have_extra_latency() {
        let topo = TopologyBuilder::default().metro(3);
        let cloud = topo.cloud_node().unwrap();
        for &(_, li) in topo.neighbours(cloud) {
            assert!(topo.link(li).latency_ms >= 20.0);
        }
    }

    #[test]
    fn neighbours_are_symmetric() {
        let topo = TopologyBuilder::default().metro(5);
        for node in topo.nodes() {
            for &(nb, _) in topo.neighbours(node.id) {
                assert!(topo.neighbours(nb).iter().any(|&(x, _)| x == node.id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_rejected() {
        let nodes = vec![
            NodeBuilder::edge("a", GeoPoint::new(0.0, 0.0)).build(NodeId(0)),
            NodeBuilder::edge("b", GeoPoint::new(1.0, 1.0)).build(NodeId(1)),
        ];
        let links = vec![
            Link::new(NodeId(0), NodeId(1), 1.0, 100.0),
            Link::new(NodeId(1), NodeId(0), 2.0, 100.0),
        ];
        let _ = Topology::new(nodes, links);
    }

    #[test]
    #[should_panic(expected = "dense 0..n")]
    fn non_dense_ids_rejected() {
        let nodes = vec![NodeBuilder::edge("a", GeoPoint::new(0.0, 0.0)).build(NodeId(3))];
        let _ = Topology::new(nodes, vec![]);
    }
}
