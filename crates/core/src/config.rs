//! Scenario configuration: one struct describes everything an experiment
//! needs — topology, workload, pricing, SLA handling and timing.

use edgenet::energy::EnergyModel;
use edgenet::node::{NodeId, Resources};
use edgenet::price::PriceModel;
use edgenet::topology::{Topology, TopologyBuilder};
use edgenet::view::NetworkEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use workload::trace::WorkloadSpec;

/// Which topology the scenario runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// `n` real metro sites, fully meshed, plus a cloud.
    Metro {
        /// Number of edge sites (≤ 16).
        sites: usize,
    },
    /// `n` edge sites in a ring plus a cloud.
    Ring {
        /// Number of edge sites.
        sites: usize,
    },
    /// Waxman random graph (scalability sweeps).
    Waxman {
        /// Number of edge sites.
        sites: usize,
        /// Square side in km.
        side_km: f64,
        /// Waxman α.
        alpha: f64,
        /// Waxman β.
        beta: f64,
    },
}

impl TopologySpec {
    /// Materializes the topology. Waxman uses `rng`; the other presets are
    /// deterministic.
    pub fn build<R: Rng>(&self, builder: &TopologyBuilder, rng: &mut R) -> Topology {
        match *self {
            TopologySpec::Metro { sites } => builder.metro(sites),
            TopologySpec::Ring { sites } => builder.ring(sites),
            TopologySpec::Waxman {
                sites,
                side_km,
                alpha,
                beta,
            } => builder.waxman(sites, side_km, alpha, beta, rng),
        }
    }

    /// Number of edge sites requested.
    pub fn site_count(&self) -> usize {
        match *self {
            TopologySpec::Metro { sites }
            | TopologySpec::Ring { sites }
            | TopologySpec::Waxman { sites, .. } => sites,
        }
    }
}

/// A network event pinned to a simulation slot.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Slot at which the event fires (applied at slot start, after
    /// departures, before arrivals).
    pub slot: u64,
    /// The event itself.
    pub event: NetworkEvent,
}

/// Stochastic failure/repair process for edge nodes: each live edge node
/// fails independently per slot; a failed node recovers after a
/// geometrically distributed downtime. The cloud never fails.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureModel {
    /// Per-slot failure probability of each live edge node, in `[0, 1)`.
    pub failure_rate: f64,
    /// Mean downtime in slots (geometric, minimum 1).
    pub mean_downtime_slots: f64,
    /// Cap on simultaneously failed nodes (keeps the network usable).
    pub max_concurrent_down: usize,
}

impl FailureModel {
    /// Validates the model.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.failure_rate),
            "failure rate must be in [0, 1)"
        );
        assert!(
            self.mean_downtime_slots >= 1.0,
            "mean downtime must be at least one slot"
        );
        assert!(
            self.max_concurrent_down >= 1,
            "max concurrent failures must be at least 1 (0 silences the process)"
        );
    }
}

/// The scenario's network-event timeline: what happens to the network
/// itself (as opposed to the workload) over the horizon.
#[derive(Debug, Clone, PartialEq)]
pub enum EventSchedule {
    /// Static network: no events (the classic experiments).
    None,
    /// Explicit, hand-written timeline (targeted what-if scenarios).
    Timeline(Vec<TimedEvent>),
    /// Seeded stochastic failure/repair process (resilience sweeps). The
    /// realized timeline is a pure function of the scenario seed, so two
    /// simulations of the same scenario see identical failures even when
    /// their workload seeds differ — failure variance and workload
    /// variance stay separable.
    Stochastic(FailureModel),
}

impl EventSchedule {
    /// `true` when the schedule can emit at least one event.
    pub fn is_dynamic(&self) -> bool {
        match self {
            EventSchedule::None => false,
            EventSchedule::Timeline(events) => !events.is_empty(),
            EventSchedule::Stochastic(model) => model.failure_rate > 0.0,
        }
    }

    /// Validates schedule parameters (node references are checked against
    /// the concrete topology in [`EventSchedule::materialize`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        if let EventSchedule::Stochastic(model) = self {
            model.validate();
        }
    }

    /// Realizes the schedule against a concrete topology as a slot-keyed
    /// event map. Deterministic: the stochastic variant draws from an RNG
    /// derived only from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if an explicit event references a node outside the topology.
    pub fn materialize(
        &self,
        topology: &Topology,
        horizon_slots: u64,
        seed: u64,
    ) -> BTreeMap<u64, Vec<NetworkEvent>> {
        let mut timeline: BTreeMap<u64, Vec<NetworkEvent>> = BTreeMap::new();
        match self {
            EventSchedule::None => {}
            EventSchedule::Timeline(events) => {
                let n = topology.node_count();
                for te in events {
                    let in_range = |node: NodeId| {
                        assert!(
                            node.0 < n,
                            "event at slot {} references {node} outside the {n}-node topology",
                            te.slot
                        );
                    };
                    match te.event {
                        NetworkEvent::NodeDown { node }
                        | NetworkEvent::NodeUp { node }
                        | NetworkEvent::CapacityDegrade { node, .. } => in_range(node),
                        NetworkEvent::LinkLatencyShift { a, b, .. } => {
                            in_range(a);
                            in_range(b);
                        }
                    }
                    timeline.entry(te.slot).or_default().push(te.event.clone());
                }
            }
            EventSchedule::Stochastic(model) => {
                model.validate();
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32) ^ 0xFA17_0E55);
                let edges = topology.edge_nodes();
                // node -> recovery slot for currently-down nodes.
                let mut down: BTreeMap<NodeId, u64> = BTreeMap::new();
                for slot in 0..horizon_slots {
                    let recovered: Vec<NodeId> = down
                        .iter()
                        .filter(|&(_, &at)| at == slot)
                        .map(|(&node, _)| node)
                        .collect();
                    for node in recovered {
                        down.remove(&node);
                        timeline
                            .entry(slot)
                            .or_default()
                            .push(NetworkEvent::NodeUp { node });
                    }
                    for &node in &edges {
                        if down.contains_key(&node) || down.len() >= model.max_concurrent_down {
                            continue;
                        }
                        if rng.gen::<f64>() < model.failure_rate {
                            // Geometric downtime with the given mean.
                            let p = (1.0 / model.mean_downtime_slots).clamp(f64::MIN_POSITIVE, 1.0);
                            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                            let downtime =
                                (u.ln() / (1.0 - p).max(f64::MIN_POSITIVE).ln()).floor() as u64 + 1;
                            down.insert(node, slot + downtime);
                            timeline
                                .entry(slot)
                                .or_default()
                                .push(NetworkEvent::NodeDown { node });
                        }
                    }
                }
            }
        }
        timeline
    }
}

/// Full scenario: the unit of experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Topology to build.
    pub topology: TopologySpec,
    /// Topology-builder knobs (capacities, cloud latency…).
    pub topology_builder: TopologyBuilder,
    /// Workload specification.
    pub workload: WorkloadSpec,
    /// Simulation horizon in slots.
    pub horizon_slots: u64,
    /// Wall-clock duration of one slot, in seconds.
    pub slot_seconds: f64,
    /// Pricing model.
    pub prices: PriceModel,
    /// Energy model.
    pub energy: EnergyModel,
    /// Maximum M/M/1 utilization an instance may reach when admitting a
    /// new flow (headroom against bursts), in `(0, 1]`.
    pub max_instance_utilization: f64,
    /// Idle instances older than this many slots are retired at slot end.
    pub idle_retire_slots: u64,
    /// Network-event timeline (failures, recoveries, link shifts).
    pub events: EventSchedule,
    /// Base RNG seed; every run derives sub-seeds from it.
    pub seed: u64,
}

impl Scenario {
    /// The default evaluation scenario: 8 metro sites + cloud, Poisson
    /// arrivals at a moderate rate, 5-second slots, one simulated hour.
    pub fn default_metro() -> Self {
        Self {
            topology: TopologySpec::Metro { sites: 8 },
            topology_builder: TopologyBuilder::default(),
            workload: WorkloadSpec::poisson(4.0, 4, 12.0),
            horizon_slots: 720,
            slot_seconds: 5.0,
            prices: PriceModel::default(),
            energy: EnergyModel::default(),
            max_instance_utilization: 0.9,
            idle_retire_slots: 6,
            events: EventSchedule::None,
            seed: 42,
        }
    }

    /// A small scenario for tests: 4 metro sites, short horizon.
    pub fn small_test() -> Self {
        Self {
            topology: TopologySpec::Metro { sites: 4 },
            workload: WorkloadSpec::poisson(2.0, 4, 6.0),
            horizon_slots: 60,
            ..Self::default_metro()
        }
    }

    /// Validates all components.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        self.workload.validate();
        self.prices.validate();
        self.energy.validate();
        self.events.validate();
        assert!(self.horizon_slots > 0, "horizon must be positive");
        assert!(self.slot_seconds > 0.0, "slot duration must be positive");
        assert!(
            self.max_instance_utilization > 0.0 && self.max_instance_utilization <= 1.0,
            "max instance utilization must be in (0,1]"
        );
        assert!(
            self.topology.site_count() >= 1,
            "need at least one edge site"
        );
    }

    /// Returns a copy with a different arrival-rate constant (for λ sweeps).
    /// Only meaningful when the pattern is `Constant`.
    pub fn with_arrival_rate(&self, rate: f64) -> Self {
        let mut s = self.clone();
        s.workload.pattern = workload::pattern::LoadPattern::Constant { rate };
        s
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut s = self.clone();
        s.seed = seed;
        s
    }

    /// Returns a copy with uniformly scaled edge capacity.
    pub fn with_edge_capacity(&self, capacity: Resources) -> Self {
        let mut s = self.clone();
        s.topology_builder.edge_capacity = capacity;
        s
    }

    /// Returns a copy with a seeded stochastic failure/repair process
    /// (`failure_rate` per edge node per slot, geometric downtimes with
    /// the given mean, at most half the edge sites down at once).
    pub fn with_failures(&self, failure_rate: f64, mean_downtime_slots: f64) -> Self {
        let mut s = self.clone();
        s.events = EventSchedule::Stochastic(FailureModel {
            failure_rate,
            mean_downtime_slots,
            max_concurrent_down: (self.topology.site_count() / 2).max(1),
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_scenario_validates() {
        Scenario::default_metro().validate();
        Scenario::small_test().validate();
    }

    #[test]
    fn topology_spec_builds_requested_sites() {
        let mut rng = StdRng::seed_from_u64(0);
        let builder = TopologyBuilder::default();
        let metro = TopologySpec::Metro { sites: 5 }.build(&builder, &mut rng);
        assert_eq!(metro.edge_nodes().len(), 5);
        let ring = TopologySpec::Ring { sites: 6 }.build(&builder, &mut rng);
        assert_eq!(ring.edge_nodes().len(), 6);
        let wax = TopologySpec::Waxman {
            sites: 7,
            side_km: 300.0,
            alpha: 0.8,
            beta: 0.4,
        }
        .build(&builder, &mut rng);
        assert_eq!(wax.edge_nodes().len(), 7);
    }

    #[test]
    fn with_arrival_rate_changes_pattern_only() {
        let s = Scenario::default_metro().with_arrival_rate(9.0);
        assert_eq!(
            s.workload.pattern,
            workload::pattern::LoadPattern::Constant { rate: 9.0 }
        );
        assert_eq!(s.horizon_slots, Scenario::default_metro().horizon_slots);
    }

    #[test]
    fn stochastic_schedule_is_deterministic_and_respects_caps() {
        let topo = TopologyBuilder::default().metro(6);
        let schedule = EventSchedule::Stochastic(FailureModel {
            failure_rate: 0.05,
            mean_downtime_slots: 10.0,
            max_concurrent_down: 2,
        });
        let a = schedule.materialize(&topo, 400, 7);
        let b = schedule.materialize(&topo, 400, 7);
        assert_eq!(a, b, "same seed must realize the same timeline");
        assert_ne!(
            a,
            schedule.materialize(&topo, 400, 8),
            "different seeds should (overwhelmingly) differ"
        );
        assert!(!a.is_empty(), "5% over 400 slots should fail something");
        // Replay the timeline: the down-set never exceeds the cap, only
        // edge nodes fail, and every failure eventually pairs with at most
        // one recovery.
        let cloud = topo.cloud_node().unwrap();
        let mut down = std::collections::BTreeSet::new();
        for events in a.values() {
            for event in events {
                match *event {
                    NetworkEvent::NodeDown { node } => {
                        assert_ne!(node, cloud, "the cloud never fails");
                        assert!(down.insert(node), "double failure of {node}");
                    }
                    NetworkEvent::NodeUp { node } => {
                        assert!(down.remove(&node), "recovery of a live node");
                    }
                    _ => panic!("stochastic schedule only emits node events"),
                }
            }
            assert!(down.len() <= 2, "concurrent-failure cap violated");
        }
    }

    #[test]
    fn explicit_timeline_groups_by_slot() {
        let topo = TopologyBuilder::default().metro(3);
        let schedule = EventSchedule::Timeline(vec![
            TimedEvent {
                slot: 5,
                event: NetworkEvent::NodeDown {
                    node: edgenet::node::NodeId(1),
                },
            },
            TimedEvent {
                slot: 5,
                event: NetworkEvent::CapacityDegrade {
                    node: edgenet::node::NodeId(0),
                    factor: 0.5,
                },
            },
            TimedEvent {
                slot: 9,
                event: NetworkEvent::NodeUp {
                    node: edgenet::node::NodeId(1),
                },
            },
        ]);
        let timeline = schedule.materialize(&topo, 20, 0);
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[&5].len(), 2);
        assert_eq!(timeline[&9].len(), 1);
        assert!(schedule.is_dynamic());
        assert!(!EventSchedule::None.is_dynamic());
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn timeline_event_on_unknown_node_rejected() {
        let topo = TopologyBuilder::default().metro(3);
        EventSchedule::Timeline(vec![TimedEvent {
            slot: 0,
            event: NetworkEvent::NodeDown {
                node: edgenet::node::NodeId(99),
            },
        }])
        .materialize(&topo, 10, 0);
    }

    #[test]
    #[should_panic(expected = "failure rate")]
    fn invalid_failure_rate_rejected() {
        let s = Scenario::small_test().with_failures(1.5, 10.0);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let mut s = Scenario::small_test();
        s.horizon_slots = 0;
        s.validate();
    }
}
