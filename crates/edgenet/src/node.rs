//! Compute nodes (edge micro-datacenters and the remote cloud) and their
//! resource vectors.

use crate::geo::GeoPoint;

/// Identifier of a node within a topology (dense, `0..node_count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A two-dimensional resource vector: CPU (vCPU) and memory (GB).
///
/// All capacity accounting in the workspace uses this type; bandwidth is
/// tracked separately on links.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// Virtual CPUs.
    pub cpu: f64,
    /// Memory in GB.
    pub mem: f64,
}

impl Resources {
    /// Creates a resource vector.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or non-finite.
    pub fn new(cpu: f64, mem: f64) -> Self {
        assert!(
            cpu.is_finite() && cpu >= 0.0,
            "cpu must be non-negative, got {cpu}"
        );
        assert!(
            mem.is_finite() && mem >= 0.0,
            "mem must be non-negative, got {mem}"
        );
        Self { cpu, mem }
    }

    /// The zero vector.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &Resources) -> Resources {
        Resources {
            cpu: self.cpu + other.cpu,
            mem: self.mem + other.mem,
        }
    }

    /// Component-wise difference; clamps at zero to guard rounding noise.
    pub fn minus_saturating(&self, other: &Resources) -> Resources {
        Resources {
            cpu: (self.cpu - other.cpu).max(0.0),
            mem: (self.mem - other.mem).max(0.0),
        }
    }

    /// Scales both components.
    pub fn scaled(&self, factor: f64) -> Resources {
        Resources {
            cpu: self.cpu * factor,
            mem: self.mem * factor,
        }
    }

    /// `true` if `demand` fits inside `self` (component-wise ≤, with a tiny
    /// epsilon for floating-point accumulation).
    pub fn fits(&self, demand: &Resources) -> bool {
        const EPS: f64 = 1e-9;
        demand.cpu <= self.cpu + EPS && demand.mem <= self.mem + EPS
    }

    /// The dominant (max) utilization fraction of `used` against `self`
    /// as capacity. Zero-capacity components count as fully utilized when
    /// any demand exists.
    pub fn dominant_utilization(&self, used: &Resources) -> f64 {
        let frac = |u: f64, c: f64| {
            if c <= 0.0 {
                if u > 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                u / c
            }
        };
        frac(used.cpu, self.cpu).max(frac(used.mem, self.mem))
    }
}

/// Role of a node in the infrastructure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Resource-constrained edge site close to users.
    Edge,
    /// Remote cloud datacenter: effectively unconstrained but far away.
    Cloud,
}

/// A compute node in the geo-distributed infrastructure.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Dense identifier within the topology.
    pub id: NodeId,
    /// Human-readable name.
    pub name: String,
    /// Geographic location.
    pub location: GeoPoint,
    /// Edge or cloud.
    pub kind: NodeKind,
    /// Total resource capacity.
    pub capacity: Resources,
    /// Price per vCPU-hour for instances running here (USD).
    pub cpu_price_per_hour: f64,
    /// Idle power draw in watts (energy model input).
    pub idle_power_w: f64,
    /// Peak power draw in watts at full utilization.
    pub peak_power_w: f64,
}

impl Node {
    /// `true` for cloud nodes.
    pub fn is_cloud(&self) -> bool {
        self.kind == NodeKind::Cloud
    }
}

/// Builder for [`Node`] with sensible edge-site defaults.
#[derive(Debug, Clone)]
pub struct NodeBuilder {
    name: String,
    location: GeoPoint,
    kind: NodeKind,
    capacity: Resources,
    cpu_price_per_hour: f64,
    idle_power_w: f64,
    peak_power_w: f64,
}

impl NodeBuilder {
    /// Starts a builder for an edge node at `location`.
    pub fn edge(name: impl Into<String>, location: GeoPoint) -> Self {
        Self {
            name: name.into(),
            location,
            kind: NodeKind::Edge,
            // A typical micro-datacenter rack.
            capacity: Resources::new(64.0, 256.0),
            cpu_price_per_hour: 0.08,
            idle_power_w: 300.0,
            peak_power_w: 1000.0,
        }
    }

    /// Starts a builder for a cloud node at `location`.
    pub fn cloud(name: impl Into<String>, location: GeoPoint) -> Self {
        Self {
            name: name.into(),
            location,
            kind: NodeKind::Cloud,
            // Effectively unconstrained relative to edge workloads.
            capacity: Resources::new(4096.0, 16384.0),
            cpu_price_per_hour: 0.04,
            idle_power_w: 0.0, // cloud energy is priced into cpu_price
            peak_power_w: 0.0,
        }
    }

    /// Sets the capacity.
    pub fn capacity(mut self, capacity: Resources) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the per-vCPU-hour price.
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn cpu_price_per_hour(mut self, price: f64) -> Self {
        assert!(price >= 0.0, "price must be non-negative");
        self.cpu_price_per_hour = price;
        self
    }

    /// Sets the idle/peak power envelope in watts.
    ///
    /// # Panics
    ///
    /// Panics if `idle > peak` or either is negative.
    pub fn power_envelope(mut self, idle_w: f64, peak_w: f64) -> Self {
        assert!(idle_w >= 0.0 && peak_w >= idle_w, "need 0 <= idle <= peak");
        self.idle_power_w = idle_w;
        self.peak_power_w = peak_w;
        self
    }

    /// Finalizes the node with the given id.
    pub fn build(self, id: NodeId) -> Node {
        Node {
            id,
            name: self.name,
            location: self.location,
            kind: self.kind,
            capacity: self.capacity,
            cpu_price_per_hour: self.cpu_price_per_hour,
            idle_power_w: self.idle_power_w,
            peak_power_w: self.peak_power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> GeoPoint {
        GeoPoint::new(0.0, 0.0)
    }

    #[test]
    fn resources_fit() {
        let cap = Resources::new(8.0, 16.0);
        assert!(cap.fits(&Resources::new(8.0, 16.0)));
        assert!(cap.fits(&Resources::new(0.0, 0.0)));
        assert!(!cap.fits(&Resources::new(8.1, 1.0)));
        assert!(!cap.fits(&Resources::new(1.0, 16.1)));
    }

    #[test]
    fn resources_arithmetic() {
        let a = Resources::new(4.0, 8.0);
        let b = Resources::new(1.0, 2.0);
        assert_eq!(a.plus(&b), Resources::new(5.0, 10.0));
        assert_eq!(a.minus_saturating(&b), Resources::new(3.0, 6.0));
        assert_eq!(b.minus_saturating(&a), Resources::zero());
        assert_eq!(b.scaled(2.0), Resources::new(2.0, 4.0));
    }

    #[test]
    fn dominant_utilization_takes_max() {
        let cap = Resources::new(10.0, 100.0);
        let used = Resources::new(5.0, 90.0);
        assert!((cap.dominant_utilization(&used) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_with_demand_is_full() {
        let cap = Resources::new(0.0, 10.0);
        assert_eq!(cap.dominant_utilization(&Resources::new(1.0, 0.0)), 1.0);
        assert_eq!(cap.dominant_utilization(&Resources::zero()), 0.0);
    }

    #[test]
    fn builder_defaults() {
        let edge = NodeBuilder::edge("e", point()).build(NodeId(0));
        assert_eq!(edge.kind, NodeKind::Edge);
        assert!(!edge.is_cloud());
        let cloud = NodeBuilder::cloud("c", point()).build(NodeId(1));
        assert!(cloud.is_cloud());
        assert!(cloud.capacity.cpu > edge.capacity.cpu);
        assert!(cloud.cpu_price_per_hour < edge.cpu_price_per_hour);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_resources_panic() {
        let _ = Resources::new(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "idle <= peak")]
    fn bad_power_envelope_panics() {
        let _ = NodeBuilder::edge("e", point()).power_envelope(500.0, 100.0);
    }
}
