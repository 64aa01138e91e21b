//! Linear server power model and per-slot energy cost.
//!
//! The standard datacenter model: `P(u) = P_idle + (P_peak − P_idle) · u`
//! for utilization `u ∈ [0, 1]` while the node is powered on.

use crate::node::Node;

/// Energy pricing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Electricity price in USD per kWh.
    pub price_per_kwh: f64,
    /// Power-usage effectiveness multiplier (cooling/overhead), ≥ 1.
    pub pue: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            price_per_kwh: 0.12,
            pue: 1.5,
        }
    }
}

impl EnergyModel {
    /// Validates parameters.
    ///
    /// # Panics
    ///
    /// Panics if the price is negative or `pue < 1`.
    pub fn validate(&self) {
        assert!(
            self.price_per_kwh >= 0.0,
            "energy price must be non-negative"
        );
        assert!(self.pue >= 1.0, "PUE must be at least 1");
    }

    /// Instantaneous power draw of `node` at `utilization ∈ [0,1]`, in
    /// watts (before PUE).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn power_w(&self, node: &Node, utilization: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0,1], got {utilization}"
        );
        node.idle_power_w + (node.peak_power_w - node.idle_power_w) * utilization
    }

    /// Energy cost in USD for running `node` at `utilization` for
    /// `duration_s` seconds, including PUE overhead.
    ///
    /// # Panics
    ///
    /// Panics if `utilization ∉ [0,1]` or `duration_s < 0`.
    pub fn cost_usd(&self, node: &Node, utilization: f64, duration_s: f64) -> f64 {
        assert!(duration_s >= 0.0, "duration must be non-negative");
        let kwh = self.power_w(node, utilization) * self.pue * duration_s / 3600.0 / 1000.0;
        kwh * self.price_per_kwh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::node::{NodeBuilder, NodeId};

    fn node() -> Node {
        NodeBuilder::edge("e", GeoPoint::new(0.0, 0.0))
            .power_envelope(200.0, 1000.0)
            .build(NodeId(0))
    }

    #[test]
    fn idle_power_at_zero_utilization() {
        let m = EnergyModel::default();
        assert_eq!(m.power_w(&node(), 0.0), 200.0);
    }

    #[test]
    fn peak_power_at_full_utilization() {
        let m = EnergyModel::default();
        assert_eq!(m.power_w(&node(), 1.0), 1000.0);
    }

    #[test]
    fn power_is_linear_in_utilization() {
        let m = EnergyModel::default();
        assert_eq!(m.power_w(&node(), 0.5), 600.0);
    }

    #[test]
    fn cost_scales_with_duration_and_pue() {
        let m = EnergyModel {
            price_per_kwh: 0.10,
            pue: 2.0,
        };
        // 1000 W * 2.0 PUE for 1 hour = 2 kWh -> $0.20.
        let cost = m.cost_usd(&node(), 1.0, 3600.0);
        assert!((cost - 0.20).abs() < 1e-9);
        // Zero duration, zero cost.
        assert_eq!(m.cost_usd(&node(), 1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "utilization must be in [0,1]")]
    fn out_of_range_utilization_panics() {
        let m = EnergyModel::default();
        let _ = m.power_w(&node(), 1.5);
    }

    #[test]
    #[should_panic(expected = "PUE must be at least 1")]
    fn invalid_pue_panics() {
        EnergyModel {
            price_per_kwh: 0.1,
            pue: 0.5,
        }
        .validate();
    }
}
