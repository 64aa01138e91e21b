//! User requests for service-chain traversal.

use crate::chain::ChainId;
use edgenet::node::NodeId;

/// Identifier of a request within a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// A flow request: a user at `source` needs chain `chain` for
/// `duration_slots` time slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Requested service chain.
    pub chain: ChainId,
    /// Edge node closest to the user (traffic ingress).
    pub source: NodeId,
    /// Arrival time in slots.
    pub arrival_slot: u64,
    /// Lifetime in slots (≥ 1).
    pub duration_slots: u32,
    /// Explicit holding time in milliseconds, for engines that resolve
    /// sub-slot lifetimes. `None` (the default) means the lifetime is
    /// exactly `duration_slots` slots. When set, `duration_slots` must
    /// still hold the slot-quantized (rounded-up) lifetime so slot-based
    /// consumers keep working; event-driven consumers prefer this field.
    pub duration_ms: Option<u64>,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `duration_slots == 0`.
    pub fn new(
        id: RequestId,
        chain: ChainId,
        source: NodeId,
        arrival_slot: u64,
        duration_slots: u32,
    ) -> Self {
        assert!(duration_slots >= 1, "request must last at least one slot");
        Self {
            id,
            chain,
            source,
            arrival_slot,
            duration_slots,
            duration_ms: None,
        }
    }

    /// Sets an explicit millisecond holding time (builder style). The
    /// slot-quantized `duration_slots` is left untouched — callers keep
    /// it as the rounded-up lifetime for slot-based consumers.
    ///
    /// # Panics
    ///
    /// Panics if `ms == 0`.
    pub fn with_duration_ms(mut self, ms: u64) -> Self {
        assert!(ms >= 1, "request must last at least one millisecond");
        self.duration_ms = Some(ms);
        self
    }

    /// First slot in which the request is no longer active.
    pub fn departure_slot(&self) -> u64 {
        self.arrival_slot + self.duration_slots as u64
    }

    /// `true` if the request is active during `slot`.
    pub fn active_at(&self, slot: u64) -> bool {
        slot >= self.arrival_slot && slot < self.departure_slot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_window() {
        let r = Request::new(RequestId(1), ChainId(0), NodeId(2), 10, 3);
        assert!(!r.active_at(9));
        assert!(r.active_at(10));
        assert!(r.active_at(12));
        assert!(!r.active_at(13));
        assert_eq!(r.departure_slot(), 13);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_duration_rejected() {
        let _ = Request::new(RequestId(0), ChainId(0), NodeId(0), 0, 0);
    }
}
