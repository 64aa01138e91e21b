//! Reward shaping for the placement MDP.
//!
//! The agent minimizes a weighted sum of latency and operational cost while
//! being pushed to accept requests. Per-decision shaping (rather than a
//! single terminal reward) keeps the credit-assignment horizon short —
//! each hop's marginal latency/cost is charged when it is incurred.

/// Finite stand-in latency (ms) for an infeasible or overloaded
/// assignment: far above any real end-to-end latency in the evaluation
/// topologies, yet small enough to keep metric averages and Q-targets
/// bounded. Shared by metric accounting (the simulation's cached
/// active-flow latencies) and reward shaping so the two paths can never
/// disagree on what "broken" costs.
pub const INFEASIBLE_LATENCY_MS: f64 = 10_000.0;

/// Reward weights and normalization scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardConfig {
    /// Weight α on normalized latency.
    pub alpha_latency: f32,
    /// Weight β on normalized monetary cost.
    pub beta_cost: f32,
    /// Flat penalty for rejecting a request.
    pub reject_penalty: f32,
    /// Bonus for completing a chain placement (acceptance).
    pub accept_bonus: f32,
    /// Extra penalty when the accepted placement violates the latency SLA.
    pub sla_penalty: f32,
    /// Latency normalization scale in ms (a "typical" per-hop latency).
    pub latency_scale_ms: f64,
    /// Cost normalization scale in USD (a "typical" per-step cost).
    pub cost_scale_usd: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        Self {
            alpha_latency: 1.0,
            beta_cost: 1.0,
            reject_penalty: 4.0,
            accept_bonus: 2.0,
            sla_penalty: 3.0,
            latency_scale_ms: 50.0,
            cost_scale_usd: 0.05,
        }
    }
}

impl RewardConfig {
    /// Validates scales are positive.
    ///
    /// # Panics
    ///
    /// Panics on non-positive scales or negative penalties.
    pub fn validate(&self) {
        assert!(
            self.latency_scale_ms > 0.0,
            "latency scale must be positive"
        );
        assert!(self.cost_scale_usd > 0.0, "cost scale must be positive");
        assert!(
            self.reject_penalty >= 0.0,
            "reject penalty must be non-negative"
        );
        assert!(self.sla_penalty >= 0.0, "sla penalty must be non-negative");
    }

    /// Reward for placing one VNF: marginal latency (hop network latency +
    /// processing + queueing) and marginal monetary cost of the step.
    ///
    /// Infinite marginal latency (overloaded queue) is clamped to the
    /// shared [`INFEASIBLE_LATENCY_MS`] sentinel so the penalty stays
    /// finite and Q-targets stay bounded.
    pub fn step_reward(&self, marginal_latency_ms: f64, marginal_cost_usd: f64) -> f32 {
        let lat_norm = marginal_latency_ms.min(INFEASIBLE_LATENCY_MS) / self.latency_scale_ms;
        let cost_norm = marginal_cost_usd / self.cost_scale_usd;
        -(self.alpha_latency * lat_norm as f32 + self.beta_cost * cost_norm as f32)
    }

    /// Additional terminal reward at acceptance: bonus, minus SLA penalty
    /// if the end-to-end latency exceeded the budget.
    pub fn completion_reward(&self, sla_violated: bool) -> f32 {
        if sla_violated {
            self.accept_bonus - self.sla_penalty
        } else {
            self.accept_bonus
        }
    }

    /// Terminal reward for rejecting.
    pub fn reject_reward(&self) -> f32 {
        -self.reject_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_reward_is_negative_and_monotone() {
        let r = RewardConfig::default();
        let cheap = r.step_reward(5.0, 0.001);
        let pricey = r.step_reward(50.0, 0.05);
        assert!(cheap < 0.0);
        assert!(pricey < cheap);
    }

    #[test]
    fn infinite_latency_is_clamped() {
        let r = RewardConfig::default();
        let v = r.step_reward(f64::INFINITY, 0.0);
        assert!(v.is_finite());
        assert!(v <= -10.0 * r.alpha_latency);
    }

    #[test]
    fn sla_violation_reduces_completion() {
        let r = RewardConfig::default();
        assert!(r.completion_reward(true) < r.completion_reward(false));
        assert_eq!(r.completion_reward(false), r.accept_bonus);
    }

    #[test]
    fn reject_is_penalized() {
        let r = RewardConfig::default();
        assert_eq!(r.reject_reward(), -4.0);
    }

    #[test]
    fn weights_scale_components() {
        let lat_only = RewardConfig {
            beta_cost: 0.0,
            ..RewardConfig::default()
        };
        let cost_only = RewardConfig {
            alpha_latency: 0.0,
            ..RewardConfig::default()
        };
        // Latency-only ignores cost.
        assert_eq!(
            lat_only.step_reward(10.0, 0.0),
            lat_only.step_reward(10.0, 100.0)
        );
        // Cost-only ignores latency.
        assert_eq!(
            cost_only.step_reward(0.0, 0.01),
            cost_only.step_reward(500.0, 0.01)
        );
    }

    #[test]
    #[should_panic(expected = "latency scale must be positive")]
    fn invalid_scale_rejected() {
        RewardConfig {
            latency_scale_ms: 0.0,
            ..RewardConfig::default()
        }
        .validate();
    }
}
