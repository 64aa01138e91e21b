//! Weight initialization schemes.
//!
//! Deterministic given a seeded RNG — every experiment in this workspace is
//! reproducible from a `u64` seed.

use crate::tensor::Matrix;
use rand::Rng;

/// Weight initialization scheme for a dense layer with `fan_in` inputs and
/// `fan_out` outputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Init {
    /// All weights equal to the given constant (mostly for tests).
    Constant(f32),
    /// Uniform in `[-limit, limit]`.
    Uniform(f32),
    /// Xavier/Glorot uniform: `limit = sqrt(6 / (fan_in + fan_out))`.
    ///
    /// The default for tanh/sigmoid networks.
    XavierUniform,
    /// He/Kaiming uniform: `limit = sqrt(6 / fan_in)`.
    ///
    /// The default for ReLU networks (used by the DQN in `mano`).
    #[default]
    HeUniform,
}

impl Init {
    /// Samples a `fan_in x fan_out` weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in == 0` or `fan_out == 0`.
    pub fn weights<R: Rng + ?Sized>(self, fan_in: usize, fan_out: usize, rng: &mut R) -> Matrix {
        assert!(
            fan_in > 0 && fan_out > 0,
            "layer dimensions must be positive"
        );
        match self {
            Init::Constant(v) => Matrix::full(fan_in, fan_out, v),
            Init::Uniform(limit) => sample_uniform(fan_in, fan_out, limit, rng),
            Init::XavierUniform => {
                let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
                sample_uniform(fan_in, fan_out, limit, rng)
            }
            Init::HeUniform => {
                let limit = (6.0 / fan_in as f32).sqrt();
                sample_uniform(fan_in, fan_out, limit, rng)
            }
        }
    }

    /// Bias vector for a layer with `fan_out` outputs (always zeros except
    /// for [`Init::Constant`]).
    pub fn bias(self, fan_out: usize) -> Matrix {
        match self {
            Init::Constant(v) => Matrix::full(1, fan_out, v),
            _ => Matrix::zeros(1, fan_out),
        }
    }

    /// The sampling limit this scheme uses for the given fan-in/out, if the
    /// scheme is a bounded-uniform one.
    pub fn limit(self, fan_in: usize, fan_out: usize) -> Option<f32> {
        match self {
            Init::Constant(_) => None,
            Init::Uniform(l) => Some(l),
            Init::XavierUniform => Some((6.0 / (fan_in + fan_out) as f32).sqrt()),
            Init::HeUniform => Some((6.0 / fan_in as f32).sqrt()),
        }
    }
}

fn sample_uniform<R: Rng + ?Sized>(rows: usize, cols: usize, limit: f32, rng: &mut R) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_init() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = Init::Constant(0.5).weights(3, 4, &mut rng);
        assert!(w.as_slice().iter().all(|&v| v == 0.5));
        let b = Init::Constant(0.5).bias(4);
        assert!(b.as_slice().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn he_uniform_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let limit = Init::HeUniform.limit(64, 32).unwrap();
        let w = Init::HeUniform.weights(64, 32, &mut rng);
        assert!(w.as_slice().iter().all(|&v| v.abs() <= limit));
        // Should not collapse to a constant.
        let first = w.as_slice()[0];
        assert!(w.as_slice().iter().any(|&v| v != first));
    }

    #[test]
    fn xavier_limit_formula() {
        let l = Init::XavierUniform.limit(10, 20).unwrap();
        assert!((l - (6.0f32 / 30.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn bias_defaults_to_zero() {
        assert!(Init::HeUniform.bias(8).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            Init::XavierUniform.weights(5, 5, &mut a),
            Init::XavierUniform.weights(5, 5, &mut b)
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_fan_in_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Init::HeUniform.weights(0, 4, &mut rng);
    }
}
