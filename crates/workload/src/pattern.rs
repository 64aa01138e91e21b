//! Time-varying load patterns: the deterministic rate envelope that an
//! arrival process is modulated by.

/// A deterministic mapping from slot to mean arrival rate (requests per
/// slot). Stochasticity comes from the arrival process sampling around it.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadPattern {
    /// Constant rate.
    Constant {
        /// Requests per slot.
        rate: f64,
    },
    /// Sinusoidal day/night cycle:
    /// `base + amplitude * sin(2π (slot + phase) / period)`, floored at 0.
    Diurnal {
        /// Mean rate.
        base: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Cycle length in slots.
        period: u64,
        /// Phase offset in slots.
        phase: u64,
    },
    /// A baseline rate with a transient spike (flash crowd).
    FlashCrowd {
        /// Rate outside the spike.
        base: f64,
        /// Rate during the spike.
        spike_rate: f64,
        /// First slot of the spike.
        spike_start: u64,
        /// Spike length in slots.
        spike_duration: u64,
    },
    /// Piecewise-linear ramp from `start_rate` to `end_rate` over
    /// `ramp_slots`, then constant at `end_rate`.
    Ramp {
        /// Rate at slot 0.
        start_rate: f64,
        /// Rate after the ramp.
        end_rate: f64,
        /// Ramp length in slots.
        ramp_slots: u64,
    },
}

impl LoadPattern {
    /// Mean arrival rate at `slot` (requests per slot, ≥ 0).
    pub fn rate_at(&self, slot: u64) -> f64 {
        match *self {
            LoadPattern::Constant { rate } => rate.max(0.0),
            LoadPattern::Diurnal {
                base,
                amplitude,
                period,
                phase,
            } => {
                if period == 0 {
                    return base.max(0.0);
                }
                let angle =
                    2.0 * std::f64::consts::PI * ((slot + phase) % period) as f64 / period as f64;
                (base + amplitude * angle.sin()).max(0.0)
            }
            LoadPattern::FlashCrowd {
                base,
                spike_rate,
                spike_start,
                spike_duration,
            } => {
                if slot >= spike_start && slot < spike_start + spike_duration {
                    spike_rate.max(0.0)
                } else {
                    base.max(0.0)
                }
            }
            LoadPattern::Ramp {
                start_rate,
                end_rate,
                ramp_slots,
            } => {
                if ramp_slots == 0 || slot >= ramp_slots {
                    end_rate.max(0.0)
                } else {
                    let frac = slot as f64 / ramp_slots as f64;
                    (start_rate + (end_rate - start_rate) * frac).max(0.0)
                }
            }
        }
    }

    /// Validates parameters.
    ///
    /// # Panics
    ///
    /// Panics on negative rates or a diurnal amplitude exceeding the base
    /// (which would clip the trough to zero and distort the mean).
    pub fn validate(&self) {
        match *self {
            LoadPattern::Constant { rate } => assert!(rate >= 0.0, "rate must be non-negative"),
            LoadPattern::Diurnal {
                base, amplitude, ..
            } => {
                assert!(
                    base >= 0.0 && amplitude >= 0.0,
                    "rates must be non-negative"
                );
                assert!(amplitude <= base, "diurnal amplitude must not exceed base");
            }
            LoadPattern::FlashCrowd {
                base, spike_rate, ..
            } => {
                assert!(
                    base >= 0.0 && spike_rate >= 0.0,
                    "rates must be non-negative"
                );
            }
            LoadPattern::Ramp {
                start_rate,
                end_rate,
                ..
            } => {
                assert!(
                    start_rate >= 0.0 && end_rate >= 0.0,
                    "rates must be non-negative"
                );
            }
        }
    }

    /// Mean rate over `[0, horizon)` slots (numeric average).
    pub fn mean_rate(&self, horizon: u64) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        (0..horizon).map(|s| self.rate_at(s)).sum::<f64>() / horizon as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let p = LoadPattern::Constant { rate: 3.5 };
        assert_eq!(p.rate_at(0), 3.5);
        assert_eq!(p.rate_at(1_000_000), 3.5);
    }

    #[test]
    fn diurnal_oscillates_around_base() {
        let p = LoadPattern::Diurnal {
            base: 10.0,
            amplitude: 5.0,
            period: 24,
            phase: 0,
        };
        p.validate();
        let peak = p.rate_at(6); // sin peaks at quarter period
        let trough = p.rate_at(18);
        assert!((peak - 15.0).abs() < 0.1, "peak {peak}");
        assert!((trough - 5.0).abs() < 0.1, "trough {trough}");
        assert!((p.mean_rate(24) - 10.0).abs() < 0.2);
    }

    #[test]
    fn diurnal_is_periodic() {
        let p = LoadPattern::Diurnal {
            base: 4.0,
            amplitude: 2.0,
            period: 100,
            phase: 7,
        };
        for s in [0u64, 13, 57] {
            assert!((p.rate_at(s) - p.rate_at(s + 100)).abs() < 1e-9);
        }
    }

    #[test]
    fn flash_crowd_window() {
        let p = LoadPattern::FlashCrowd {
            base: 2.0,
            spike_rate: 20.0,
            spike_start: 50,
            spike_duration: 10,
        };
        assert_eq!(p.rate_at(49), 2.0);
        assert_eq!(p.rate_at(50), 20.0);
        assert_eq!(p.rate_at(59), 20.0);
        assert_eq!(p.rate_at(60), 2.0);
    }

    #[test]
    fn ramp_interpolates() {
        let p = LoadPattern::Ramp {
            start_rate: 0.0,
            end_rate: 10.0,
            ramp_slots: 10,
        };
        assert_eq!(p.rate_at(0), 0.0);
        assert!((p.rate_at(5) - 5.0).abs() < 1e-9);
        assert_eq!(p.rate_at(10), 10.0);
        assert_eq!(p.rate_at(100), 10.0);
    }

    #[test]
    fn rates_never_negative() {
        let p = LoadPattern::Diurnal {
            base: 1.0,
            amplitude: 1.0,
            period: 10,
            phase: 0,
        };
        for s in 0..20 {
            assert!(p.rate_at(s) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "amplitude must not exceed base")]
    fn oversized_amplitude_rejected() {
        LoadPattern::Diurnal {
            base: 1.0,
            amplitude: 2.0,
            period: 10,
            phase: 0,
        }
        .validate();
    }
}
