//! Stochastic arrival processes.

use rand::Rng;

/// Samples a Poisson-distributed count with mean `lambda`.
///
/// Uses Knuth's multiplication method for small means and a normal
/// approximation above 50 (adequate for per-slot arrival counts).
///
/// # Panics
///
/// Panics if `lambda` is negative or non-finite.
pub fn poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u32 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be non-negative, got {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 50.0 {
        // Normal approximation with continuity correction.
        let z: f64 = sample_standard_normal(rng);
        let v = lambda + lambda.sqrt() * z + 0.5;
        return v.max(0.0) as u32;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // numerically impossible for lambda <= 50; safety net
        }
    }
}

/// Samples an exponential inter-arrival time with rate `lambda` (mean
/// `1/lambda`).
///
/// # Panics
///
/// Panics if `lambda <= 0`.
pub fn exponential<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> f64 {
    assert!(lambda > 0.0, "rate must be positive, got {lambda}");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / lambda
}

fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A two-state Markov-modulated Poisson process: the arrival rate switches
/// between a low and a high regime with geometric sojourn times. Models
/// bursty traffic that a plain Poisson process cannot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmpp2 {
    /// Arrival rate in the low state (per slot).
    pub low_rate: f64,
    /// Arrival rate in the high state (per slot).
    pub high_rate: f64,
    /// Probability of switching low → high each slot.
    pub p_low_to_high: f64,
    /// Probability of switching high → low each slot.
    pub p_high_to_low: f64,
}

impl Mmpp2 {
    /// Validates parameters.
    ///
    /// # Panics
    ///
    /// Panics on invalid rates or probabilities.
    pub fn validate(&self) {
        assert!(
            self.low_rate >= 0.0 && self.high_rate >= self.low_rate,
            "need 0 <= low <= high rate"
        );
        assert!(
            (0.0..=1.0).contains(&self.p_low_to_high),
            "p_low_to_high must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.p_high_to_low),
            "p_high_to_low must be a probability"
        );
    }

    /// Long-run mean arrival rate.
    pub fn mean_rate(&self) -> f64 {
        let denom = self.p_low_to_high + self.p_high_to_low;
        if denom == 0.0 {
            return self.low_rate; // absorbing start state (low)
        }
        let pi_high = self.p_low_to_high / denom;
        self.low_rate * (1.0 - pi_high) + self.high_rate * pi_high
    }
}

/// Iterator state for an [`Mmpp2`] process.
#[derive(Debug, Clone)]
pub struct Mmpp2State {
    params: Mmpp2,
    in_high: bool,
}

impl Mmpp2State {
    /// Starts in the low state.
    pub fn new(params: Mmpp2) -> Self {
        params.validate();
        Self {
            params,
            in_high: false,
        }
    }

    /// Whether the process is currently in the high regime.
    pub fn is_high(&self) -> bool {
        self.in_high
    }

    /// Advances one slot: possibly switches regime, then samples a count.
    pub fn next_count<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u32 {
        let flip: f64 = rng.gen();
        if self.in_high {
            if flip < self.params.p_high_to_low {
                self.in_high = false;
            }
        } else if flip < self.params.p_low_to_high {
            self.in_high = true;
        }
        let rate = if self.in_high {
            self.params.high_rate
        } else {
            self.params.low_rate
        };
        poisson(rate, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        for &lambda in &[0.5, 3.0, 12.0, 80.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| poisson(lambda, &mut rng) as u64).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn poisson_variance_roughly_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        let lambda = 5.0;
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| poisson(lambda, &mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - lambda).abs() < 0.5, "variance {var}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = StdRng::seed_from_u64(4);
        let rate = 2.0;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(rate, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn mmpp_mean_rate_formula() {
        let p = Mmpp2 {
            low_rate: 1.0,
            high_rate: 9.0,
            p_low_to_high: 0.1,
            p_high_to_low: 0.3,
        };
        // pi_high = 0.1/0.4 = 0.25 → mean = 1*0.75 + 9*0.25 = 3.0.
        assert!((p.mean_rate() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mmpp_empirical_mean_matches() {
        let p = Mmpp2 {
            low_rate: 1.0,
            high_rate: 9.0,
            p_low_to_high: 0.1,
            p_high_to_low: 0.3,
        };
        let mut state = Mmpp2State::new(p);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| state.next_count(&mut rng) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mmpp mean {mean}");
    }

    #[test]
    fn mmpp_visits_both_states() {
        let p = Mmpp2 {
            low_rate: 0.0,
            high_rate: 5.0,
            p_low_to_high: 0.2,
            p_high_to_low: 0.2,
        };
        let mut state = Mmpp2State::new(p);
        let mut rng = StdRng::seed_from_u64(6);
        let mut highs = 0;
        for _ in 0..1000 {
            state.next_count(&mut rng);
            if state.is_high() {
                highs += 1;
            }
        }
        assert!(highs > 200 && highs < 800, "high slots {highs}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = poisson(-1.0, &mut rng);
    }
}
