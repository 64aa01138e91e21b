//! # nn — minimal neural-network substrate for deep RL
//!
//! A from-scratch, dependency-light neural network library sized exactly for
//! the needs of the DRL-based VNF manager in this workspace: batched dense
//! ReLU networks (MLPs) with explicit backprop, the DQN's *selected-output*
//! Huber loss, SGD and Adam optimizers, and gradient clipping.
//!
//! Design points:
//!
//! * **Single tensor shape.** Everything is a row-major 2-D [`tensor::Matrix`];
//!   batches are rows. No autograd graph — gradients are computed by the
//!   layers themselves, which keeps the hot path allocation-predictable.
//! * **Determinism.** All randomness flows through caller-provided
//!   [`rand::Rng`] values; the same seed reproduces the same network and the
//!   same training trajectory bit-for-bit.
//! * **Verified backprop.** The gradient checker in `tests/support/`
//!   compares the analytic parameter gradients of the networks the system
//!   trains (ReLU hidden layers, an identity or a ReLU output, under the
//!   selected-output Huber loss) against central finite differences; the
//!   test suite gates on it.
//!
//! # Examples
//!
//! The DQN's own update: regress the Q-value of the taken action toward its
//! target under the Huber loss, with Adam and a clipped gradient norm.
//!
//! ```
//! use nn::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Mlp::new(&MlpConfig::new(2, &[16], 2), &mut rng);
//! let mut adam = OptimizerConfig::adam(0.01).build();
//!
//! // Two states, the action taken in each, and its target Q-value.
//! let states = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let (actions, targets) = ([0, 1], [1.0, -1.0]);
//! let mut loss = f32::MAX;
//! for _ in 0..300 {
//!     (loss, _) =
//!         net.train_selected(&states, &actions, &targets, None, Loss::Huber(1.0), &mut adam, Some(10.0));
//! }
//! assert!(loss < 1e-3);
//!
//! let mut ws = Workspace::new();
//! let q = net.forward_one_into(&[1.0, 0.0], &mut ws);
//! assert!((q[0] - 1.0).abs() < 0.05);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optimizer;
pub mod tensor;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::linear::Dense;
    pub use crate::loss::Loss;
    pub use crate::mlp::{Mlp, MlpConfig, Workspace};
    pub use crate::optimizer::{Optimizer, OptimizerConfig};
    pub use crate::tensor::Matrix;
}
