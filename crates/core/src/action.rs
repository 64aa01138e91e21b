//! The discrete action space of the placement MDP.
//!
//! One decision = "where does the *next* VNF of the pending request go":
//! actions `0..node_count` place it on that node (edge or cloud); the last
//! action rejects the request outright.

use edgenet::node::NodeId;

/// A decoded placement action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementAction {
    /// Host the next VNF on this node.
    Place(NodeId),
    /// Reject the request (its remaining VNFs are not placed).
    Reject,
}

/// Fixed-size action space over `node_count` nodes plus reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionSpace {
    node_count: usize,
}

impl ActionSpace {
    /// Creates the action space for a topology with `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    pub fn new(node_count: usize) -> Self {
        assert!(node_count > 0, "action space needs at least one node");
        Self { node_count }
    }

    /// Number of discrete actions (`node_count + 1`).
    pub fn len(&self) -> usize {
        self.node_count + 1
    }

    /// `false` — the space always contains at least reject.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of placeable nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Index of the reject action.
    pub fn reject_index(&self) -> usize {
        self.node_count
    }

    /// Decodes an action index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn decode(&self, index: usize) -> PlacementAction {
        assert!(
            index < self.len(),
            "action index {index} out of range (len {})",
            self.len()
        );
        if index == self.node_count {
            PlacementAction::Reject
        } else {
            PlacementAction::Place(NodeId(index))
        }
    }

    /// Encodes a placement action as an index.
    pub fn encode(&self, action: PlacementAction) -> usize {
        match action {
            PlacementAction::Place(node) => {
                assert!(node.0 < self.node_count, "node {node} out of range");
                node.0
            }
            PlacementAction::Reject => self.node_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let space = ActionSpace::new(5);
        assert_eq!(space.len(), 6);
        for i in 0..space.len() {
            let a = space.decode(i);
            assert_eq!(space.encode(a), i);
        }
    }

    #[test]
    fn last_action_is_reject() {
        let space = ActionSpace::new(3);
        assert_eq!(space.decode(3), PlacementAction::Reject);
        assert_eq!(space.reject_index(), 3);
        assert_eq!(space.decode(0), PlacementAction::Place(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_decode_panics() {
        let _ = ActionSpace::new(2).decode(5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_encode_panics() {
        let _ = ActionSpace::new(2).encode(PlacementAction::Place(NodeId(7)));
    }
}
