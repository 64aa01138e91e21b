//! Table 2 — DQN hyperparameters of the DRL manager.

use super::Outcome;
use crate::{dqn_config, emit_markdown};
use drl_vnf_edge::prelude::*;

/// Writes `table2_hyperparams.md`.
pub fn run() -> Outcome {
    let c = dqn_config();
    let mut md =
        String::from("# Table 2 — DQN hyperparameters\n\n| hyperparameter | value |\n|---|---|\n");
    match &c.network {
        QNetworkConfig::Standard { hidden } => {
            md.push_str(&format!(
                "| network | MLP, hidden layers {hidden:?}, ReLU |\n"
            ));
        }
        QNetworkConfig::Dueling { trunk, head } => {
            md.push_str(&format!(
                "| network | dueling, trunk {trunk:?}, heads {head} |\n"
            ));
        }
    }
    md.push_str(&format!("| discount γ | {} |\n", c.gamma));
    let OptimizerConfig::Adam {
        lr, beta1, beta2, ..
    } = c.optimizer
    else {
        return Err(format!("the headline DQN trains with Adam, not {:?}", c.optimizer).into());
    };
    md.push_str(&format!(
        "| optimizer | Adam (lr {lr}, β₁ {beta1}, β₂ {beta2}) |\n"
    ));
    md.push_str(&format!("| loss | {:?} |\n", c.loss));
    md.push_str(&format!(
        "| gradient clip (global L2) | {:?} |\n",
        c.max_grad_norm
    ));
    md.push_str(&format!("| replay capacity | {} |\n", c.replay_capacity));
    md.push_str(&format!("| batch size | {} |\n", c.batch_size));
    md.push_str(&format!(
        "| learn start | {} transitions |\n",
        c.learn_start
    ));
    md.push_str(&format!(
        "| target sync | every {} learn steps |\n",
        c.target_sync_every
    ));
    md.push_str(&format!("| double DQN | {} |\n", c.double));
    md.push_str(&format!(
        "| prioritized replay | {} |\n",
        c.prioritized.is_some()
    ));
    match c.epsilon {
        EpsilonSchedule::Linear { start, end, steps } => {
            md.push_str(&format!(
                "| ε schedule | linear {start} → {end} over {steps} steps |\n"
            ));
        }
        other => md.push_str(&format!("| ε schedule | {other:?} |\n")),
    }
    md.push_str("| training passes | 8 over the horizon (fresh trace each) |\n");
    emit_markdown("table2_hyperparams.md", &md);
    Ok(())
}
