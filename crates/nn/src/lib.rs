//! # nn — minimal neural-network substrate for deep RL
//!
//! A from-scratch, dependency-light neural network library sized exactly for
//! the needs of the DRL-based VNF manager in this workspace: batched dense
//! networks (MLPs) with explicit backprop, the DQN-style *selected-output*
//! loss, SGD and Adam optimizers, and gradient clipping.
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
//!   compares every layer/loss combination against central finite
//!   differences; the test suite gates on it.
//!
//! # Examples
//!
//! ```
//! use nn::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let config = MlpConfig::new(2, &[16], 1).hidden_activation(Activation::Tanh);
//! let mut model = TrainableMlp::new(&config, OptimizerConfig::adam(0.01), Loss::Mse, None, &mut rng);
//!
//! // Fit y = x0 + x1 on a tiny batch.
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
//! let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[2.0]]);
//! let mut loss = f32::MAX;
//! for _ in 0..500 {
//!     loss = model.step(&x, &y);
//! }
//! assert!(loss < 0.01);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod init;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optimizer;
pub mod tensor;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::init::Init;
    pub use crate::linear::Dense;
    pub use crate::loss::Loss;
    pub use crate::mlp::{Mlp, MlpConfig, TrainableMlp, Workspace};
    pub use crate::optimizer::{Optimizer, OptimizerConfig};
    pub use crate::tensor::Matrix;
}
