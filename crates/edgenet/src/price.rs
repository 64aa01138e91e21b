//! Monetary cost model for the operator: instance running cost,
//! deployment (instantiation) cost, and inter-node traffic cost.

use crate::node::Node;

/// Pricing parameters shared across an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceModel {
    /// One-time cost of instantiating a VNF instance (image pull, boot),
    /// in USD.
    pub deployment_cost: f64,
    /// Cost per GB transferred between two *different* nodes (WAN traffic).
    pub wan_traffic_per_gb: f64,
    /// Cost per GB to/from the cloud (typically higher than edge-to-edge).
    pub cloud_traffic_per_gb: f64,
}

impl Default for PriceModel {
    fn default() -> Self {
        Self {
            deployment_cost: 0.02,
            wan_traffic_per_gb: 0.01,
            cloud_traffic_per_gb: 0.05,
        }
    }
}

impl PriceModel {
    /// Validates all prices are non-negative.
    ///
    /// # Panics
    ///
    /// Panics on negative prices.
    pub fn validate(&self) {
        assert!(
            self.deployment_cost >= 0.0,
            "deployment cost must be non-negative"
        );
        assert!(
            self.wan_traffic_per_gb >= 0.0,
            "wan traffic price must be non-negative"
        );
        assert!(
            self.cloud_traffic_per_gb >= 0.0,
            "cloud traffic price must be non-negative"
        );
    }

    /// Running cost in USD for `vcpus` virtual CPUs on `node` for
    /// `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if inputs are negative.
    pub fn compute_cost_usd(&self, node: &Node, vcpus: f64, duration_s: f64) -> f64 {
        assert!(
            vcpus >= 0.0 && duration_s >= 0.0,
            "inputs must be non-negative"
        );
        node.cpu_price_per_hour * vcpus * duration_s / 3600.0
    }

    /// Traffic cost in USD for moving `gb` gigabytes between `src` and
    /// `dst`. Same-node traffic is free; traffic touching a cloud node is
    /// billed at the cloud rate.
    ///
    /// # Panics
    ///
    /// Panics if `gb < 0`.
    pub fn traffic_cost_usd(&self, src: &Node, dst: &Node, gb: f64) -> f64 {
        assert!(gb >= 0.0, "traffic volume must be non-negative");
        if src.id == dst.id {
            return 0.0;
        }
        let rate = if src.is_cloud() || dst.is_cloud() {
            self.cloud_traffic_per_gb
        } else {
            self.wan_traffic_per_gb
        };
        rate * gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::node::{NodeBuilder, NodeId};

    fn edge(id: usize) -> Node {
        NodeBuilder::edge(format!("e{id}"), GeoPoint::new(0.0, 0.0))
            .cpu_price_per_hour(0.10)
            .build(NodeId(id))
    }

    fn cloud(id: usize) -> Node {
        NodeBuilder::cloud("c", GeoPoint::new(1.0, 1.0)).build(NodeId(id))
    }

    #[test]
    fn compute_cost_prorates_by_time() {
        let m = PriceModel::default();
        let n = edge(0);
        // 2 vCPU for 30 minutes at $0.10/vCPU-hr = $0.10.
        let cost = m.compute_cost_usd(&n, 2.0, 1800.0);
        assert!((cost - 0.10).abs() < 1e-9);
    }

    #[test]
    fn same_node_traffic_is_free() {
        let m = PriceModel::default();
        let n = edge(0);
        assert_eq!(m.traffic_cost_usd(&n, &n, 100.0), 0.0);
    }

    #[test]
    fn cloud_traffic_costs_more() {
        let m = PriceModel::default();
        let a = edge(0);
        let b = edge(1);
        let c = cloud(2);
        let edge_cost = m.traffic_cost_usd(&a, &b, 1.0);
        let cloud_cost = m.traffic_cost_usd(&a, &c, 1.0);
        assert!(cloud_cost > edge_cost);
    }

    #[test]
    fn zero_traffic_is_free() {
        let m = PriceModel::default();
        assert_eq!(m.traffic_cost_usd(&edge(0), &edge(1), 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_traffic_panics() {
        let m = PriceModel::default();
        let _ = m.traffic_cost_usd(&edge(0), &edge(1), -1.0);
    }
}
