//! Best fit and worst fit mean their names on Table 3's scenario: best fit
//! takes the fullest edge node that fits, worst fit the emptiest, and
//! either goes to the cloud only when no edge node fits. Both used to rank
//! the cloud with the edge nodes, and best fit's `max_by` (the last of
//! equal maxima) sent the first VNF to the cloud, whose utilization then
//! beat every empty edge node: best fit placed exactly as cloud-only did.

use bench::{bench_scenario, eval_seeds};
use drl_vnf_edge::prelude::*;
use rand::rngs::StdRng;

/// Wraps a baseline and records, for each placement, the node it chose
/// and that node's utilization when it was chosen.
struct Recorded {
    policy: Box<dyn PlacementPolicy>,
    placements: Vec<(NodeId, f64, bool)>,
}

impl PlacementPolicy for Recorded {
    fn name(&self) -> String {
        self.policy.name()
    }

    fn reads_state(&self) -> bool {
        false
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        let action = self.policy.decide(ctx, rng);
        if let PlacementAction::Place(node) = action {
            let chosen = &ctx.candidates[node.0];
            self.placements
                .push((node, chosen.utilization, chosen.is_cloud));
        }
        action
    }
}

/// Runs the registry's `name` on Table 3's scenario at its first
/// evaluation seed and returns its placements.
fn placements(name: &str) -> Vec<(NodeId, f64, bool)> {
    let mut recorded = Recorded {
        policy: baseline(name).expect("registered baseline"),
        placements: Vec::new(),
    };
    let scenario = bench_scenario(8.0);
    evaluate_policy(
        &scenario,
        RewardConfig::default(),
        &mut recorded,
        eval_seeds()[0],
    );
    recorded.placements
}

/// Mean utilization of the edge nodes a policy chose, when it chose them.
fn mean_edge_utilization(placements: &[(NodeId, f64, bool)]) -> f64 {
    let edge: Vec<f64> = placements
        .iter()
        .filter(|&&(_, _, cloud)| !cloud)
        .map(|&(_, utilization, _)| utilization)
        .collect();
    assert!(!edge.is_empty(), "no placement on the edge");
    edge.iter().sum::<f64>() / edge.len() as f64
}

#[test]
fn best_fit_packs_the_edge_and_worst_fit_spreads_it() {
    let best = placements("best-fit");
    let worst = placements("worst-fit");
    let cloud = placements("cloud-only");
    assert!(
        best.iter().map(|p| p.0).ne(cloud.iter().map(|p| p.0)),
        "best fit placed all {} VNFs where cloud-only did",
        best.len()
    );
    let (packed, spread) = (mean_edge_utilization(&best), mean_edge_utilization(&worst));
    assert!(
        packed > spread,
        "best fit chose edge nodes at {packed:.4} mean utilization, worst fit at {spread:.4}"
    );
}
