//! # rl — reinforcement-learning toolkit
//!
//! Discrete-action RL machinery for the DRL-based VNF manager: **action
//! masking** (saturated edge nodes must never be selected or bootstrapped
//! through), uniform and prioritized experience replay, a linear (or
//! constant) ε-schedule, a DQN agent with the Double/Dueling/PER
//! extensions — each independently switchable to support the paper's
//! ablation study — and REINFORCE as the policy-gradient comparison.
//!
//! Every Q-network is `nn`'s ReLU MLP trained on the Huber TD loss through
//! its workspace pipeline: inference through a caller-owned
//! [`qnet::QNetWorkspace`], a learn step in network-owned buffers, so a warm
//! learn step allocates only the TD-error vector it returns, dueling or not.
//!
//! Validation: `tests/learning.rs` trains both agents on environments with
//! known optimal returns (a contextual bandit, a chain, a masked grid world,
//! all in `tests/support/`) and requires them to reach those returns. A
//! regression anywhere in the learning stack (backprop, target computation,
//! masking, replay) fails there before it can silently corrupt the headline
//! VNF experiments.
//!
//! # Examples
//!
//! ```
//! use rl::dqn::{DqnAgent, DqnConfig};
//! use rl::transition::Transition;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let config = DqnConfig {
//!     batch_size: 4,
//!     learn_start: 4,
//!     ..DqnConfig::default()
//! };
//! let mut agent = DqnAgent::new(config, 2, 3, &mut rng);
//! // Action 2 is a saturated node: never chosen, never bootstrapped through.
//! let mask = [true, true, false];
//! let mut learned = 0;
//! for step in 0..8 {
//!     let state = vec![step as f32 * 0.1, 1.0];
//!     let action = agent.act(&state, &mask, &mut rng);
//!     assert_ne!(action, 2);
//!     let next = vec![(step + 1) as f32 * 0.1, 1.0];
//!     let done = step == 7;
//!     let t = Transition::with_mask(state, action, -1.0, next, done, mask.to_vec());
//!     if let Some(stats) = agent.observe(t, &mut rng) {
//!         assert!(stats.loss.is_finite());
//!         learned += 1;
//!     }
//! }
//! assert!(learned > 0);
//! assert_ne!(agent.act_greedy(&[0.5, 1.0], &mask), 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dqn;
pub mod env;
pub mod qnet;
pub mod reinforce;
pub mod replay;
pub mod schedule;
pub mod transition;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::dqn::{DqnAgent, DqnConfig, LearnStats};
    pub use crate::env::{masked_argmax, masked_max};
    pub use crate::qnet::{QNetWorkspace, QNetwork, QNetworkConfig};
    pub use crate::reinforce::{
        masked_softmax, masked_softmax_into, ReinforceAgent, ReinforceConfig,
    };
    pub use crate::replay::{PerConfig, PrioritizedReplay, Replay, TransitionStore, UniformReplay};
    pub use crate::schedule::EpsilonSchedule;
    pub use crate::transition::{AsTransition, Transition, TransitionRef};
}
