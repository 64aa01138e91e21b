//! Request-trace synthesis: combines a load pattern, a spatial
//! distribution, a chain mix and a duration distribution into a
//! reproducible stream of [`Request`]s.

use crate::arrival::poisson;
use crate::pattern::LoadPattern;
use crate::spatial::{sample_weighted, SpatialDistribution};
use edgenet::node::NodeId;
use rand::Rng;
use sfc::chain::ChainId;
use sfc::request::{Request, RequestId};

/// Workload specification: everything needed to synthesize a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Arrival-rate envelope (requests per slot, across all sites).
    pub pattern: LoadPattern,
    /// Where requests originate.
    pub spatial: SpatialDistribution,
    /// Relative weight of each chain type (index = `ChainId`); need not be
    /// normalized.
    pub chain_mix: Vec<f64>,
    /// Mean flow duration in slots (geometric distribution, minimum 1).
    pub mean_duration_slots: f64,
}

impl WorkloadSpec {
    /// A uniform-mix Poisson workload at `rate` requests/slot over
    /// `chain_count` chain types with the given mean duration.
    pub fn poisson(rate: f64, chain_count: usize, mean_duration_slots: f64) -> Self {
        Self {
            pattern: LoadPattern::Constant { rate },
            spatial: SpatialDistribution::Uniform,
            chain_mix: vec![1.0; chain_count],
            mean_duration_slots,
        }
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if the chain mix is empty/non-positive or the mean duration
    /// is below 1.
    pub fn validate(&self) {
        self.pattern.validate();
        assert!(!self.chain_mix.is_empty(), "chain mix must not be empty");
        assert!(
            self.chain_mix.iter().all(|&w| w >= 0.0),
            "chain weights must be non-negative"
        );
        assert!(
            self.chain_mix.iter().sum::<f64>() > 0.0,
            "at least one chain weight must be positive"
        );
        assert!(
            self.mean_duration_slots >= 1.0,
            "mean duration must be at least one slot"
        );
    }

    fn sample_chain<R: Rng + ?Sized>(&self, rng: &mut R) -> ChainId {
        let total: f64 = self.chain_mix.iter().sum();
        let mut u: f64 = rng.gen::<f64>() * total;
        for (i, w) in self.chain_mix.iter().enumerate() {
            if u < *w {
                return ChainId(i);
            }
            u -= w;
        }
        ChainId(self.chain_mix.len() - 1)
    }

    fn sample_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        // Geometric with mean m: success probability 1/m, support {1, 2, …}.
        let p = (1.0 / self.mean_duration_slots).clamp(f64::MIN_POSITIVE, 1.0);
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let d = (u.ln() / (1.0 - p).max(f64::MIN_POSITIVE).ln()).floor() as u32 + 1;
        d.min(1_000_000)
    }
}

/// A synthesized trace: requests sorted by arrival slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// All requests in arrival order.
    pub requests: Vec<Request>,
    /// Horizon the trace was generated for.
    pub horizon_slots: u64,
}

impl Trace {
    /// Requests arriving exactly at `slot`.
    pub fn arrivals_at(&self, slot: u64) -> impl Iterator<Item = &Request> {
        self.requests.iter().filter(move |r| r.arrival_slot == slot)
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Empirical mean arrival rate (requests per slot).
    pub fn mean_rate(&self) -> f64 {
        if self.horizon_slots == 0 {
            0.0
        } else {
            self.requests.len() as f64 / self.horizon_slots as f64
        }
    }
}

/// Generates a trace of `horizon_slots` slots over the given edge sites.
///
/// Deterministic for a fixed spec, sites, horizon and RNG state.
///
/// # Panics
///
/// Panics if the spec is invalid or `sites` is empty.
pub fn generate_trace<R: Rng + ?Sized>(
    spec: &WorkloadSpec,
    sites: &[NodeId],
    horizon_slots: u64,
    rng: &mut R,
) -> Trace {
    spec.validate();
    assert!(!sites.is_empty(), "need at least one site");
    let weights = spec.spatial.weights(sites);
    let mut requests = Vec::new();
    let mut next_id = 0u64;
    for slot in 0..horizon_slots {
        let rate = spec.pattern.rate_at(slot);
        let count = poisson(rate, rng);
        for _ in 0..count {
            let source = sample_weighted(sites, &weights, rng);
            let chain = spec.sample_chain(rng);
            let duration = spec.sample_duration(rng);
            requests.push(Request::new(
                RequestId(next_id),
                chain,
                source,
                slot,
                duration,
            ));
            next_id += 1;
        }
    }
    Trace {
        requests,
        horizon_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sites() -> Vec<NodeId> {
        (0..4).map(NodeId).collect()
    }

    #[test]
    fn trace_is_sorted_and_rate_matches() {
        let spec = WorkloadSpec::poisson(5.0, 3, 4.0);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = generate_trace(&spec, &sites(), 2_000, &mut rng);
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival_slot <= w[1].arrival_slot));
        assert!(
            (trace.mean_rate() - 5.0).abs() < 0.25,
            "rate {}",
            trace.mean_rate()
        );
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let spec = WorkloadSpec::poisson(3.0, 2, 5.0);
        let a = generate_trace(&spec, &sites(), 100, &mut StdRng::seed_from_u64(9));
        let b = generate_trace(&spec, &sites(), 100, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn request_ids_are_unique_and_dense() {
        let spec = WorkloadSpec::poisson(4.0, 2, 3.0);
        let trace = generate_trace(&spec, &sites(), 200, &mut StdRng::seed_from_u64(3));
        for (i, r) in trace.requests.iter().enumerate() {
            assert_eq!(r.id.0, i as u64);
        }
    }

    #[test]
    fn durations_have_requested_mean() {
        let spec = WorkloadSpec::poisson(10.0, 1, 8.0);
        let trace = generate_trace(&spec, &sites(), 3_000, &mut StdRng::seed_from_u64(4));
        let mean: f64 = trace
            .requests
            .iter()
            .map(|r| r.duration_slots as f64)
            .sum::<f64>()
            / trace.len() as f64;
        assert!((mean - 8.0).abs() < 0.4, "mean duration {mean}");
        assert!(trace.requests.iter().all(|r| r.duration_slots >= 1));
    }

    #[test]
    fn chain_mix_weights_respected() {
        let spec = WorkloadSpec {
            chain_mix: vec![3.0, 1.0],
            ..WorkloadSpec::poisson(10.0, 2, 2.0)
        };
        let trace = generate_trace(&spec, &sites(), 3_000, &mut StdRng::seed_from_u64(5));
        let c0 = trace
            .requests
            .iter()
            .filter(|r| r.chain == ChainId(0))
            .count() as f64;
        let frac = c0 / trace.len() as f64;
        assert!((frac - 0.75).abs() < 0.03, "chain-0 fraction {frac}");
    }

    #[test]
    fn arrivals_at_filters_by_slot() {
        let spec = WorkloadSpec::poisson(2.0, 1, 2.0);
        let trace = generate_trace(&spec, &sites(), 50, &mut StdRng::seed_from_u64(6));
        let total: usize = (0..50).map(|s| trace.arrivals_at(s).count()).sum();
        assert_eq!(total, trace.len());
    }

    #[test]
    fn flash_crowd_spikes_in_window() {
        let spec = WorkloadSpec {
            pattern: LoadPattern::FlashCrowd {
                base: 1.0,
                spike_rate: 30.0,
                spike_start: 100,
                spike_duration: 50,
            },
            ..WorkloadSpec::poisson(0.0, 1, 2.0)
        };
        let trace = generate_trace(&spec, &sites(), 300, &mut StdRng::seed_from_u64(7));
        let in_spike = trace
            .requests
            .iter()
            .filter(|r| (100..150).contains(&r.arrival_slot))
            .count();
        let outside = trace.len() - in_spike;
        assert!(
            in_spike as f64 > outside as f64 * 2.0,
            "spike {in_spike} vs outside {outside}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_sites_panics() {
        let spec = WorkloadSpec::poisson(1.0, 1, 2.0);
        let _ = generate_trace(&spec, &[], 10, &mut StdRng::seed_from_u64(0));
    }
}
