//! Property tests for the edgenet substrate: routing optimality, routes
//! under network events.

use edgenet::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The routes of `topo` with every dead node removed (survivors renumbered
/// densely, in id order) and each link's latency scaled by its factor,
/// plus each original id's new id. `None` when no node is alive.
fn without_dead_nodes(
    topo: &Topology,
    alive: &[bool],
    factor: &[f64],
) -> Option<(RoutingTable, Vec<NodeId>)> {
    let mut id = vec![NodeId(usize::MAX); alive.len()];
    let mut nodes = Vec::new();
    for node in topo.nodes().iter().filter(|node| alive[node.id.0]) {
        id[node.id.0] = NodeId(nodes.len());
        nodes.push(Node {
            id: NodeId(nodes.len()),
            ..node.clone()
        });
    }
    if nodes.is_empty() {
        return None;
    }
    let links = topo
        .links()
        .iter()
        .zip(factor)
        .filter(|(l, _)| alive[l.a.0] && alive[l.b.0])
        .map(|(l, f)| Link::new(id[l.a.0], id[l.b.0], l.latency_ms * f, l.bandwidth_mbps))
        .collect();
    Some((RoutingTable::build(&Topology::new(nodes, links)), id))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn waxman_topologies_always_connected(n in 2usize..30, seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TopologyBuilder { with_cloud: seed % 2 == 0, ..Default::default() }
            .waxman(n, 400.0, 0.7, 0.3, &mut rng);
        prop_assert!(topo.is_connected());
    }

    #[test]
    fn shortest_path_beats_every_two_hop_detour(n in 4usize..12, seed in 0u64..5_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TopologyBuilder { with_cloud: false, ..Default::default() }
            .waxman(n, 300.0, 0.8, 0.4, &mut rng);
        let table = RoutingTable::build(&topo);
        for s in 0..n {
            for d in 0..n {
                let direct = table.latency_ms(NodeId(s), NodeId(d));
                for via in 0..n {
                    let detour = table.latency_ms(NodeId(s), NodeId(via))
                        + table.latency_ms(NodeId(via), NodeId(d));
                    prop_assert!(direct <= detour + 1e-9);
                }
            }
        }
    }

    #[test]
    fn routes_after_events_equal_routes_without_the_dead_nodes(
        n in 4usize..12,
        seed in 0u64..5_000,
        ops in proptest::collection::vec((0u8..4, 0usize..12, 0usize..12), 1..24),
    ) {
        // After any fail → recover → shift → degrade sequence, the view's
        // routes must be those of a network in which the dead nodes never
        // existed and every link carries its shifted latency.
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TopologyBuilder { with_cloud: seed % 2 == 0, ..Default::default() }
            .waxman(n, 400.0, 0.7, 0.3, &mut rng);
        let total = topo.node_count();
        let mut alive = vec![true; total];
        let mut factor = vec![1.0; topo.link_count()];
        let mut view = NetworkView::new(topo.clone());
        for (kind, i, j) in ops {
            let node = NodeId(i % total);
            let li = i % topo.link_count();
            let event = match kind {
                0 => NetworkEvent::NodeDown { node },
                1 => NetworkEvent::NodeUp { node },
                2 => {
                    let link = topo.link(li);
                    // Alternate stretches and shrinks, including repeats
                    // of the same factor (no-op path).
                    let factor = [0.5, 1.0, 3.0, 8.0][j % 4];
                    NetworkEvent::LinkLatencyShift { a: link.a, b: link.b, factor }
                }
                _ => NetworkEvent::CapacityDegrade {
                    node,
                    factor: [0.25, 0.5, 1.0][j % 3],
                },
            };
            view.apply(&event);
            match event {
                NetworkEvent::NodeDown { .. } => alive[node.0] = false,
                NetworkEvent::NodeUp { .. } => alive[node.0] = true,
                NetworkEvent::LinkLatencyShift { factor: f, .. } => factor[li] = f,
                NetworkEvent::CapacityDegrade { .. } => {}
            }
            let absent = without_dead_nodes(&topo, &alive, &factor);
            for s in 0..total {
                for d in 0..total {
                    let got = view.routes().latency_ms(NodeId(s), NodeId(d));
                    match (&absent, alive[s] && alive[d]) {
                        (Some((routes, id)), true) => {
                            let want = routes.latency_ms(id[s], id[d]);
                            prop_assert!(
                                got == want || (got - want).abs() < 1e-9,
                                "after {event:?}: route {s}->{d} is {got}, without the dead nodes {want}"
                            );
                        }
                        _ => prop_assert!(
                            got == f64::INFINITY,
                            "after {event:?}: route {s}->{d} touches a dead node but is {got}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn haversine_triangle_inequality(
        (lat1, lon1) in (-80.0f64..80.0, -170.0f64..170.0),
        (lat2, lon2) in (-80.0f64..80.0, -170.0f64..170.0),
        (lat3, lon3) in (-80.0f64..80.0, -170.0f64..170.0),
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let c = GeoPoint::new(lat3, lon3);
        prop_assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-6);
    }
}
