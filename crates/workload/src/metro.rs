//! Metro-scale workload synthesis: city-style arrival curves (time of
//! day, day of week, rush-hour peaks) with seeded spatial hotspots,
//! emitted as a **lazily generated** millisecond-resolution request
//! stream.
//!
//! Unlike [`crate::trace::generate_trace`], which materializes the whole
//! trace up front, [`MetroProfile::stream`] yields [`TimedRequest`]s one
//! at a time and buffers at most a single slot's worth of arrivals — a
//! 10M-request day costs the same memory as a 1k-request smoke run. The
//! stream is a pure function of the profile (including its seed), the
//! site list and the horizon, so two iterations produce identical
//! requests.

use crate::arrival::poisson;
use crate::spatial::sample_weighted;
use edgenet::node::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc::chain::ChainId;
use sfc::request::{Request, RequestId};

/// One Gaussian rush-hour bump on the time-of-day rate curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RushPeak {
    /// Peak center as a fraction of the day in `[0, 1)` (0.33 ≈ 8am).
    pub center: f64,
    /// Peak width (Gaussian sigma) as a fraction of the day.
    pub width: f64,
    /// Rate multiplier added at the center (1.5 = +150% of base).
    pub gain: f64,
}

/// A request with an explicit millisecond arrival instant — the
/// workload-side twin of the engine's `TimedArrival` (the `mano` crate
/// adapts one into the other; `workload` cannot depend on the engine).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    /// Arrival instant in milliseconds since simulation start.
    pub at_ms: u64,
    /// The request. `duration_ms` carries the exact holding time;
    /// `duration_slots` holds its slot-quantized ceiling.
    pub request: Request,
}

/// A city-scale workload profile: deterministic time-of-day /
/// day-of-week arrival-rate curves with rush-hour peaks, plus seeded
/// spatial hotspots concentrating demand on a few sites.
///
/// The profile's own `seed` drives both the hotspot choice and the
/// arrival sampling, so a profile value fully determines its stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroProfile {
    /// Slots per simulated day (the period of the time-of-day curve).
    pub slots_per_day: u64,
    /// Baseline arrival rate (requests per slot) at the overnight trough.
    pub base_rate: f64,
    /// Rush-hour bumps layered on the baseline (typically AM + PM).
    pub peaks: Vec<RushPeak>,
    /// Per-day-of-week rate multipliers, day 0 = the first simulated day.
    pub weekday_factors: [f64; 7],
    /// Number of hotspot sites (clamped to the site count at streaming).
    pub hotspot_count: usize,
    /// Fraction of requests originating at a hotspot, in `[0, 1]`.
    pub hotspot_fraction: f64,
    /// Zipf exponent skewing popularity *among* the hotspots (0 = even).
    pub hotspot_exponent: f64,
    /// Relative chain-type weights (index = `ChainId`), like
    /// [`crate::trace::WorkloadSpec::chain_mix`].
    pub chain_mix: Vec<f64>,
    /// Mean flow holding time in milliseconds (exponential, minimum 1ms).
    pub mean_duration_ms: f64,
    /// Seed for hotspot selection and arrival sampling.
    pub seed: u64,
}

impl MetroProfile {
    /// A representative city profile: quiet nights, a morning and a
    /// stronger evening rush, damped weekends, two hotspots carrying
    /// half the demand, and one-minute mean flows.
    pub fn default_city(seed: u64) -> Self {
        Self {
            slots_per_day: 288,
            base_rate: 4.0,
            peaks: vec![
                RushPeak {
                    center: 0.35,
                    width: 0.05,
                    gain: 1.5,
                },
                RushPeak {
                    center: 0.75,
                    width: 0.06,
                    gain: 2.0,
                },
            ],
            weekday_factors: [1.0, 1.0, 1.0, 1.0, 1.05, 0.7, 0.6],
            hotspot_count: 2,
            hotspot_fraction: 0.5,
            hotspot_exponent: 1.0,
            chain_mix: vec![2.0, 1.0, 1.0, 1.0],
            mean_duration_ms: 60_000.0,
            seed,
        }
    }

    /// Validates the profile.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.slots_per_day >= 1, "a day needs at least one slot");
        assert!(
            self.base_rate >= 0.0 && self.base_rate.is_finite(),
            "base rate must be non-negative"
        );
        for p in &self.peaks {
            assert!(
                (0.0..1.0).contains(&p.center),
                "peak center must be a day fraction in [0, 1)"
            );
            assert!(p.width > 0.0, "peak width must be positive");
            assert!(p.gain >= 0.0, "peak gain must be non-negative");
        }
        assert!(
            self.weekday_factors.iter().all(|&f| f >= 0.0),
            "weekday factors must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.hotspot_fraction),
            "hotspot fraction must be in [0, 1]"
        );
        assert!(
            self.hotspot_exponent >= 0.0,
            "hotspot exponent must be non-negative"
        );
        assert!(!self.chain_mix.is_empty(), "chain mix must not be empty");
        assert!(
            self.chain_mix.iter().all(|&w| w >= 0.0) && self.chain_mix.iter().sum::<f64>() > 0.0,
            "chain mix needs a positive total weight"
        );
        assert!(
            self.mean_duration_ms >= 1.0,
            "mean duration must be at least one millisecond"
        );
    }

    /// Mean arrival rate (requests per slot) at `slot`: the baseline
    /// shaped by the rush-hour peaks of the time-of-day position and the
    /// day-of-week factor. Deterministic; stochasticity comes from the
    /// Poisson sampling around it in the stream.
    pub fn rate_at(&self, slot: u64) -> f64 {
        let day = slot / self.slots_per_day;
        let dow = (day % 7) as usize;
        let frac = (slot % self.slots_per_day) as f64 / self.slots_per_day as f64;
        let mut shape = 1.0;
        for p in &self.peaks {
            // Wrap-around distance on the day circle, so a late-night
            // peak shoulders into the next morning.
            let d = (frac - p.center).abs();
            let d = d.min(1.0 - d);
            shape += p.gain * (-0.5 * (d / p.width).powi(2)).exp();
        }
        (self.base_rate * shape * self.weekday_factors[dow]).max(0.0)
    }

    /// The seeded hotspot site *indices* (into the site list) for a
    /// topology of `site_count` edge sites: a deterministic sample of
    /// `hotspot_count` distinct indices, a pure function of the seed.
    pub fn hotspot_indices(&self, site_count: usize) -> Vec<usize> {
        let want = self.hotspot_count.min(site_count);
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0xC2B2_AE35) ^ 0x9E37_79B9);
        let mut pool: Vec<usize> = (0..site_count).collect();
        let mut chosen = Vec::with_capacity(want);
        for _ in 0..want {
            let i = (rng.gen::<f64>() * pool.len() as f64) as usize;
            chosen.push(pool.swap_remove(i.min(pool.len() - 1)));
        }
        chosen
    }

    /// Per-site source probabilities over `sites`: `hotspot_fraction` of
    /// the mass Zipf-distributed over the seeded hotspots, the remainder
    /// uniform over all sites. Normalized to sum 1.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty or the profile is invalid.
    pub fn source_weights(&self, sites: &[NodeId]) -> Vec<f64> {
        self.validate();
        assert!(!sites.is_empty(), "need at least one site");
        let n = sites.len();
        let mut weights = vec![(1.0 - self.hotspot_fraction) / n as f64; n];
        let hotspots = self.hotspot_indices(n);
        if !hotspots.is_empty() {
            let zipf: Vec<f64> = (0..hotspots.len())
                .map(|rank| 1.0 / ((rank + 1) as f64).powf(self.hotspot_exponent))
                .collect();
            let zipf_total: f64 = zipf.iter().sum();
            for (rank, &site) in hotspots.iter().enumerate() {
                weights[site] += self.hotspot_fraction * zipf[rank] / zipf_total;
            }
        } else {
            // No hotspots: spread the reserved mass uniformly too.
            for w in &mut weights {
                *w += self.hotspot_fraction / n as f64;
            }
        }
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        weights
    }

    /// Expected number of requests over `horizon_slots` (the integral of
    /// the rate curve) — sizing helper for benchmarks.
    pub fn expected_requests(&self, horizon_slots: u64) -> f64 {
        (0..horizon_slots).map(|s| self.rate_at(s)).sum()
    }

    /// Opens a lazy arrival stream over `sites` for `horizon_slots` slots
    /// of `slot_ms` milliseconds each. The iterator generates one slot at
    /// a time — it never materializes the full trace — and is
    /// deterministic: the same profile/sites/horizon always produces the
    /// identical request sequence, sorted by arrival instant with dense
    /// ids from 0.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid, `sites` is empty or
    /// `slot_ms == 0`.
    pub fn stream(&self, sites: &[NodeId], horizon_slots: u64, slot_ms: u64) -> MetroStream {
        self.validate();
        assert!(!sites.is_empty(), "need at least one site");
        assert!(slot_ms >= 1, "slot duration must be at least one ms");
        let weights = self.source_weights(sites);
        MetroStream {
            profile: self.clone(),
            sites: sites.to_vec(),
            weights,
            horizon_slots,
            slot_ms,
            rng: StdRng::seed_from_u64(self.seed.wrapping_mul(0x2545_F491) ^ 0x5DEE_CE66),
            slot: 0,
            next_id: 0,
            buffer: Vec::new(),
            offsets: Vec::new(),
        }
    }

    fn sample_chain(&self, rng: &mut StdRng) -> ChainId {
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

    fn sample_duration_ms(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let d = -u.ln() * self.mean_duration_ms;
        (d as u64).clamp(1, 86_400_000 * 7) // cap at a week
    }
}

/// The lazy arrival stream a [`MetroProfile`] opens: yields
/// [`TimedRequest`]s in non-decreasing `at_ms` order, holding only the
/// current slot's arrivals in memory (O(per-slot arrivals), O(1) in the
/// horizon).
#[derive(Debug, Clone)]
pub struct MetroStream {
    profile: MetroProfile,
    sites: Vec<NodeId>,
    weights: Vec<f64>,
    horizon_slots: u64,
    slot_ms: u64,
    rng: StdRng,
    slot: u64,
    next_id: u64,
    /// Current slot's arrivals, reversed so `pop` yields time order.
    buffer: Vec<TimedRequest>,
    /// The slot's sorted arrival offsets, kept to reuse the allocation.
    offsets: Vec<u64>,
}

impl MetroStream {
    /// Requests emitted so far.
    pub fn emitted(&self) -> u64 {
        self.next_id - self.buffer.len() as u64
    }

    /// Generates the next non-empty slot into the buffer (newest first).
    fn refill(&mut self) {
        while self.buffer.is_empty() && self.slot < self.horizon_slots {
            let slot = self.slot;
            self.slot += 1;
            let count = poisson(self.profile.rate_at(slot), &mut self.rng);
            if count == 0 {
                continue;
            }
            let slot_start = slot * self.slot_ms;
            // Arrival offsets within the slot, sorted so the stream stays
            // time-ordered; ids are assigned after sorting so they are
            // dense AND ascending in time.
            let mut offsets = std::mem::take(&mut self.offsets);
            offsets.clear();
            offsets.extend((0..count).map(|_| {
                ((self.rng.gen::<f64>() * self.slot_ms as f64) as u64).min(self.slot_ms - 1)
            }));
            offsets.sort_unstable();
            for at_ms in offsets.iter().map(|&o| slot_start + o) {
                let source = sample_weighted(&self.sites, &self.weights, &mut self.rng);
                let chain = self.profile.sample_chain(&mut self.rng);
                let duration_ms = self.profile.sample_duration_ms(&mut self.rng);
                let duration_slots = duration_ms
                    .div_ceil(self.slot_ms)
                    .max(1)
                    .min(u32::MAX as u64);
                let request = Request::new(
                    RequestId(self.next_id),
                    chain,
                    source,
                    slot,
                    duration_slots as u32,
                )
                .with_duration_ms(duration_ms);
                self.next_id += 1;
                self.buffer.push(TimedRequest { at_ms, request });
            }
            self.offsets = offsets;
            self.buffer.reverse(); // pop() from the back = earliest first
        }
    }
}

impl Iterator for MetroStream {
    type Item = TimedRequest;

    fn next(&mut self) -> Option<TimedRequest> {
        if self.buffer.is_empty() {
            self.refill();
        }
        self.buffer.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn profile() -> MetroProfile {
        MetroProfile::default_city(7)
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let s = sites(6);
        let a: Vec<TimedRequest> = profile().stream(&s, 600, 5_000).collect();
        let b: Vec<TimedRequest> = profile().stream(&s, 600, 5_000).collect();
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let mut other = profile();
        other.seed = 8;
        let c: Vec<TimedRequest> = other.stream(&s, 600, 5_000).collect();
        assert_ne!(a, c, "a different seed must realize a different stream");
    }

    #[test]
    fn stream_is_time_ordered_with_dense_ids() {
        let s = sites(4);
        let reqs: Vec<TimedRequest> = profile().stream(&s, 600, 5_000).collect();
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.request.id.0, i as u64, "ids dense and ascending");
            assert!(r.at_ms < 600 * 5_000, "arrival inside the horizon");
            assert_eq!(
                r.request.arrival_slot,
                r.at_ms / 5_000,
                "arrival_slot matches the instant"
            );
            assert!(r.request.duration_ms.is_some(), "ms lifetime carried");
        }
        assert!(
            reqs.windows(2).all(|w| w[0].at_ms <= w[1].at_ms),
            "stream sorted by arrival instant"
        );
    }

    #[test]
    fn rush_hour_peaks_raise_the_rate() {
        let p = profile();
        let trough = p.rate_at(0); // midnight of day 0
        let am_peak = p.rate_at((0.35 * p.slots_per_day as f64) as u64);
        let pm_peak = p.rate_at((0.75 * p.slots_per_day as f64) as u64);
        assert!(
            am_peak > 2.0 * trough,
            "AM rush {am_peak} vs trough {trough}"
        );
        assert!(pm_peak > am_peak, "PM rush is the stronger peak");
    }

    #[test]
    fn weekends_are_damped() {
        let p = profile();
        let mid_monday = p.slots_per_day / 2;
        let mid_sunday = 6 * p.slots_per_day + p.slots_per_day / 2;
        assert!(p.rate_at(mid_sunday) < 0.8 * p.rate_at(mid_monday));
    }

    #[test]
    fn hotspots_concentrate_demand() {
        let s = sites(8);
        let p = profile();
        let hot: Vec<usize> = p.hotspot_indices(s.len());
        assert_eq!(hot.len(), 2);
        let mut counts = vec![0usize; s.len()];
        let total: usize = p
            .stream(&s, 2_000, 5_000)
            .map(|r| counts[r.request.source.0] += 1)
            .count();
        let hot_share: usize = hot.iter().map(|&i| counts[i]).sum();
        let frac = hot_share as f64 / total as f64;
        // 50% targeted at 2 of 8 sites plus their uniform share (~12.5%).
        assert!(
            frac > 0.5 && frac < 0.75,
            "hotspot share {frac} off target (counts {counts:?}, hot {hot:?})"
        );
    }

    #[test]
    fn durations_match_the_requested_mean() {
        let s = sites(4);
        let durations: Vec<u64> = profile()
            .stream(&s, 2_000, 5_000)
            .map(|r| r.request.duration_ms.expect("set"))
            .collect();
        let mean = durations.iter().sum::<u64>() as f64 / durations.len() as f64;
        assert!(
            (mean - 60_000.0).abs() < 4_000.0,
            "mean duration {mean} vs 60000"
        );
        for r in profile().stream(&s, 200, 5_000) {
            let ms = r.request.duration_ms.unwrap();
            assert_eq!(
                r.request.duration_slots as u64,
                ms.div_ceil(5_000).max(1),
                "duration_slots is the slot-quantized ceiling"
            );
        }
    }

    #[test]
    fn empirical_rate_tracks_the_curve() {
        let p = profile();
        let s = sites(4);
        let horizon = 4 * p.slots_per_day;
        let n = p.stream(&s, horizon, 5_000).count() as f64;
        let expected = p.expected_requests(horizon);
        assert!(
            (n - expected).abs() < 0.05 * expected,
            "drew {n} vs expected {expected}"
        );
    }

    #[test]
    fn hotspot_count_clamps_to_site_count() {
        let mut p = profile();
        p.hotspot_count = 10;
        let w = p.source_weights(&sites(3));
        assert_eq!(p.hotspot_indices(3).len(), 3);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "hotspot fraction")]
    fn invalid_fraction_panics() {
        let mut p = profile();
        p.hotspot_fraction = 1.5;
        p.validate();
    }
}
