//! Network links between nodes.

use crate::node::NodeId;

/// An undirected link between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way latency in milliseconds (propagation + forwarding).
    pub latency_ms: f64,
    /// Capacity in Mbps.
    pub bandwidth_mbps: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are equal, or latency/bandwidth are not
    /// positive finite numbers.
    pub fn new(a: NodeId, b: NodeId, latency_ms: f64, bandwidth_mbps: f64) -> Self {
        assert_ne!(a, b, "self-loop link on {a}");
        assert!(
            latency_ms.is_finite() && latency_ms > 0.0,
            "latency must be positive, got {latency_ms}"
        );
        assert!(
            bandwidth_mbps.is_finite() && bandwidth_mbps > 0.0,
            "bandwidth must be positive, got {bandwidth_mbps}"
        );
        Self {
            a,
            b,
            latency_ms,
            bandwidth_mbps,
        }
    }

    /// The endpoint opposite to `from`, or `None` if `from` is not an
    /// endpoint.
    pub fn other_end(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// `true` if the link connects `x` and `y` in either order.
    pub fn connects(&self, x: NodeId, y: NodeId) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_end_works_both_ways() {
        let l = Link::new(NodeId(1), NodeId(2), 5.0, 1000.0);
        assert_eq!(l.other_end(NodeId(1)), Some(NodeId(2)));
        assert_eq!(l.other_end(NodeId(2)), Some(NodeId(1)));
        assert_eq!(l.other_end(NodeId(3)), None);
    }

    #[test]
    fn connects_is_symmetric() {
        let l = Link::new(NodeId(0), NodeId(5), 1.0, 100.0);
        assert!(l.connects(NodeId(0), NodeId(5)));
        assert!(l.connects(NodeId(5), NodeId(0)));
        assert!(!l.connects(NodeId(0), NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = Link::new(NodeId(3), NodeId(3), 1.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_panics() {
        let _ = Link::new(NodeId(0), NodeId(1), 0.0, 100.0);
    }
}
