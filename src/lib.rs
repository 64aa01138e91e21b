//! # drl-vnf-edge — Deep-RL based VNF management in geo-distributed edge computing
//!
//! Umbrella crate: re-exports the full stack so downstream users depend on
//! one crate. See the README for the architecture overview and DESIGN.md
//! for the paper-reproduction inventory.
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | sweep protocol | [`sweep`] | shard planning, fragment format, byte-identical merge |
//! | experiments | [`exper`] | parallel multi-seed grid engine, deterministic aggregation |
//! | serving | [`serve`] | cross-simulation policy server: fused batched forwards per tick |
//! | orchestrator | [`mano`] | MDP formulation, simulation engine, DRL manager, baselines |
//! | learning | [`rl`] | masked DQN family, REINFORCE, replay buffers, schedules |
//! | function approximation | [`nn`] | MLP + backprop, Adam and SGD, gradient clipping |
//! | infrastructure | [`edgenet`] | geo topologies, routing, capacity, energy/price models |
//! | services | [`sfc`] | VNF catalog, chains, instances, M/M/1 delay model |
//! | traffic | [`workload`] | arrival processes, load patterns, trace synthesis |
//!
//! # Examples
//!
//! ```
//! use drl_vnf_edge::prelude::*;
//!
//! let scenario = Scenario::small_test();
//! let mut policy = FirstFitPolicy;
//! let result = evaluate_policy(&scenario, RewardConfig::default(), &mut policy, 0);
//! assert!(result.summary.total_arrivals > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use edgenet;
pub use exper;
pub use mano;
pub use nn;
pub use rl;
pub use serve;
pub use sfc;
pub use sweep;
pub use workload;

/// One prelude over the whole stack — every layer's prelude merged, so
/// examples and figure binaries need exactly one import.
pub mod prelude {
    pub use edgenet::prelude::*;
    pub use exper::prelude::*;
    pub use mano::prelude::*;
    pub use nn::prelude::*;
    pub use rl::prelude::*;
    pub use serve::prelude::*;
    pub use sfc::prelude::*;
    pub use workload::prelude::*;
}
