//! Exploration-rate (ε) schedules.

/// A schedule mapping a global step counter to an exploration rate ε.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpsilonSchedule {
    /// Constant ε.
    Constant(f32),
    /// Linear decay from `start` to `end` over `steps` steps, then `end`.
    Linear {
        /// Initial ε at step 0.
        start: f32,
        /// Final ε after `steps`.
        end: f32,
        /// Number of steps to decay over.
        steps: u64,
    },
}

impl Default for EpsilonSchedule {
    fn default() -> Self {
        // The workhorse DQN schedule: explore fully at first, settle at 5%.
        EpsilonSchedule::Linear {
            start: 1.0,
            end: 0.05,
            steps: 50_000,
        }
    }
}

impl EpsilonSchedule {
    /// ε at the given global step.
    pub fn value(&self, step: u64) -> f32 {
        match *self {
            EpsilonSchedule::Constant(e) => e,
            EpsilonSchedule::Linear { start, end, steps } => {
                if steps == 0 || step >= steps {
                    end
                } else {
                    let frac = step as f32 / steps as f32;
                    start + (end - start) * frac
                }
            }
        }
    }

    /// Validates that all produced values are probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint lies outside `[0, 1]`.
    pub fn validate(&self) {
        let check = |v: f32, name: &str| {
            assert!((0.0..=1.0).contains(&v), "{name} must be in [0,1], got {v}");
        };
        match *self {
            EpsilonSchedule::Constant(e) => check(e, "epsilon"),
            EpsilonSchedule::Linear { start, end, .. } => {
                check(start, "start");
                check(end, "end");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let s = EpsilonSchedule::Constant(0.3);
        assert_eq!(s.value(0), 0.3);
        assert_eq!(s.value(1_000_000), 0.3);
    }

    #[test]
    fn linear_endpoints_and_midpoint() {
        let s = EpsilonSchedule::Linear {
            start: 1.0,
            end: 0.0,
            steps: 100,
        };
        assert_eq!(s.value(0), 1.0);
        assert!((s.value(50) - 0.5).abs() < 1e-6);
        assert_eq!(s.value(100), 0.0);
        assert_eq!(s.value(10_000), 0.0);
    }

    #[test]
    fn linear_zero_steps_is_end() {
        let s = EpsilonSchedule::Linear {
            start: 1.0,
            end: 0.1,
            steps: 0,
        };
        assert_eq!(s.value(0), 0.1);
    }

    #[test]
    fn values_stay_in_unit_interval() {
        let schedules = [
            EpsilonSchedule::Constant(0.5),
            EpsilonSchedule::Linear {
                start: 0.9,
                end: 0.02,
                steps: 1000,
            },
        ];
        for s in schedules {
            s.validate();
            for step in [0u64, 1, 10, 100, 1000, 100_000] {
                let v = s.value(step);
                assert!((0.0..=1.0).contains(&v), "{s:?} produced {v} at {step}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn invalid_constant_rejected() {
        EpsilonSchedule::Constant(1.5).validate();
    }
}
