//! Spatial distribution of request sources over edge nodes.

use edgenet::node::NodeId;
use rand::Rng;

/// How request sources distribute over the edge sites.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SpatialDistribution {
    /// Every edge site equally likely.
    #[default]
    Uniform,
    /// Zipf-distributed popularity with exponent `s` over sites in id
    /// order (site 0 most popular). `s = 0` degenerates to uniform.
    Zipf {
        /// Skew exponent (≥ 0); ~0.8–1.2 models metro popularity well.
        exponent: f64,
    },
    /// One hotspot site receives `hot_fraction` of requests; the rest
    /// spread uniformly over the other sites.
    Hotspot {
        /// Index *into the edge-node list* of the hot site.
        hot_index: usize,
        /// Fraction of requests originating at the hot site, in `[0,1]`.
        hot_fraction: f64,
    },
}

impl SpatialDistribution {
    /// Per-site probability weights over `sites` (normalized to sum 1).
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty, a hotspot index is out of range, or
    /// parameters are invalid.
    pub fn weights(&self, sites: &[NodeId]) -> Vec<f64> {
        assert!(!sites.is_empty(), "need at least one site");
        let n = sites.len();
        let raw: Vec<f64> = match *self {
            SpatialDistribution::Uniform => vec![1.0; n],
            SpatialDistribution::Zipf { exponent } => {
                assert!(exponent >= 0.0, "zipf exponent must be non-negative");
                (0..n)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
                    .collect()
            }
            SpatialDistribution::Hotspot {
                hot_index,
                hot_fraction,
            } => {
                assert!(
                    hot_index < n,
                    "hotspot index {hot_index} out of range for {n} sites"
                );
                assert!(
                    (0.0..=1.0).contains(&hot_fraction),
                    "hot fraction must be in [0,1]"
                );
                let rest = if n > 1 {
                    (1.0 - hot_fraction) / (n - 1) as f64
                } else {
                    0.0
                };
                (0..n)
                    .map(|i| {
                        if i == hot_index {
                            hot_fraction.max(f64::MIN_POSITIVE)
                        } else {
                            rest
                        }
                    })
                    .collect()
            }
        };
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }

    /// Samples a source site.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SpatialDistribution::weights`].
    pub fn sample<R: Rng + ?Sized>(&self, sites: &[NodeId], rng: &mut R) -> NodeId {
        sample_weighted(sites, &self.weights(sites), rng)
    }
}

/// Samples one of `sites` with probability `weights` (parallel to it,
/// summing to ~1): one uniform draw, walked down the weights with
/// `u -= w`; rounding that leaves `u` past the end picks the last site.
/// Callers that sample many sources compute the weights once and walk
/// them here, so a draw allocates nothing.
///
/// # Panics
///
/// Panics if `sites` is empty.
pub(crate) fn sample_weighted<R: Rng + ?Sized>(
    sites: &[NodeId],
    weights: &[f64],
    rng: &mut R,
) -> NodeId {
    let mut u: f64 = rng.gen();
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return sites[i];
        }
        u -= w;
    }
    sites[sites.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sites(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn empirical(dist: &SpatialDistribution, n: usize, draws: usize, seed: u64) -> Vec<f64> {
        let s = sites(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[dist.sample(&s, &mut rng).0] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / draws as f64)
            .collect()
    }

    #[test]
    fn uniform_weights_are_equal() {
        let w = SpatialDistribution::Uniform.weights(&sites(4));
        assert!(w.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let w = SpatialDistribution::Zipf { exponent: 0.0 }.weights(&sites(5));
        assert!(w.iter().all(|&x| (x - 0.2).abs() < 1e-12));
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let w = SpatialDistribution::Zipf { exponent: 1.0 }.weights(&sites(6));
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hotspot_gets_requested_fraction() {
        let freq = empirical(
            &SpatialDistribution::Hotspot {
                hot_index: 2,
                hot_fraction: 0.7,
            },
            4,
            20_000,
            42,
        );
        assert!((freq[2] - 0.7).abs() < 0.02, "hot freq {}", freq[2]);
        assert!((freq[0] - 0.1).abs() < 0.02);
    }

    #[test]
    fn sampling_matches_weights() {
        let dist = SpatialDistribution::Zipf { exponent: 1.0 };
        let w = dist.weights(&sites(3));
        let freq = empirical(&dist, 3, 30_000, 7);
        for i in 0..3 {
            assert!(
                (freq[i] - w[i]).abs() < 0.02,
                "site {i}: {} vs {}",
                freq[i],
                w[i]
            );
        }
    }

    #[test]
    fn single_site_always_selected() {
        let s = sites(1);
        let mut rng = StdRng::seed_from_u64(0);
        for dist in [
            SpatialDistribution::Uniform,
            SpatialDistribution::Zipf { exponent: 1.0 },
            SpatialDistribution::Hotspot {
                hot_index: 0,
                hot_fraction: 1.0,
            },
        ] {
            assert_eq!(dist.sample(&s, &mut rng), NodeId(0));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hotspot_out_of_range_panics() {
        let _ = SpatialDistribution::Hotspot {
            hot_index: 5,
            hot_fraction: 0.5,
        }
        .weights(&sites(2));
    }
}
