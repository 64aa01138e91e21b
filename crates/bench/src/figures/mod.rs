//! The `bench` binary's subcommands: one module per figure, table and
//! tool, each with a `run` function, and [`REGISTRY`], the one list of
//! their names.
//!
//! `bench <name> [args]` runs one entry; `bench figures` runs every
//! figure and table in registry order, in one process, so figures 2–4
//! share one λ sweep ([`crate::load_sweep_grid`]).

pub mod fig10_reward_weights;
pub mod fig11_pg_vs_dqn;
pub mod fig12_resilience;
pub mod fig13_metro;
pub mod fig1_convergence;
pub mod fig2_latency_vs_load;
pub mod fig3_cost_vs_load;
pub mod fig4_acceptance;
pub mod fig5_scalability;
pub mod fig6_chain_length;
pub mod fig7_dynamic;
pub mod fig8_optgap;
pub mod fig9_ablation;
pub mod search_drive;
pub mod summary;
pub mod table1_params;
pub mod table2_hyperparams;
pub mod table3_summary;

/// What a subcommand returns. An error is printed and exits 1; a usage
/// error exits 2 from inside the tool.
pub type Outcome = Result<(), Box<dyn std::error::Error>>;

/// How a registry entry runs.
pub enum Run {
    /// A figure or table of the suite. It takes no arguments, and
    /// `bench figures` runs it.
    Figure(fn() -> Outcome),
    /// A tool that reads the arguments after its name.
    Tool(fn(&[String]) -> Outcome),
}

/// Every `bench` subcommand by name: the figure suite in the order
/// `bench figures` runs it, then the tools.
pub const REGISTRY: &[(&str, Run)] = &[
    ("fig1_convergence", Run::Figure(fig1_convergence::run)),
    (
        "fig2_latency_vs_load",
        Run::Figure(fig2_latency_vs_load::run),
    ),
    ("fig3_cost_vs_load", Run::Figure(fig3_cost_vs_load::run)),
    ("fig4_acceptance", Run::Figure(fig4_acceptance::run)),
    ("fig5_scalability", Run::Figure(fig5_scalability::run)),
    ("fig6_chain_length", Run::Figure(fig6_chain_length::run)),
    ("fig7_dynamic", Run::Figure(fig7_dynamic::run)),
    ("fig8_optgap", Run::Figure(fig8_optgap::run)),
    ("fig9_ablation", Run::Figure(fig9_ablation::run)),
    (
        "fig10_reward_weights",
        Run::Figure(fig10_reward_weights::run),
    ),
    ("fig11_pg_vs_dqn", Run::Figure(fig11_pg_vs_dqn::run)),
    ("fig12_resilience", Run::Figure(fig12_resilience::run)),
    ("fig13_metro", Run::Figure(fig13_metro::run)),
    ("table1_params", Run::Figure(table1_params::run)),
    ("table2_hyperparams", Run::Figure(table2_hyperparams::run)),
    ("table3_summary", Run::Figure(table3_summary::run)),
    ("figures", Run::Tool(figures)),
    ("search_drive", Run::Tool(search_drive::run)),
    ("summary", Run::Tool(summary::run)),
];

/// Runs every [`Run::Figure`] of [`REGISTRY`] in order; the first error
/// stops the suite.
fn figures(_args: &[String]) -> Outcome {
    for (name, run) in REGISTRY {
        if let Run::Figure(run) = run {
            eprintln!("==> {name}");
            run().map_err(|e| format!("{name}: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }
}
