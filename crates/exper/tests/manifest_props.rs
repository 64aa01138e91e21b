//! Property tests for the manifest layer's determinism contract: an
//! arbitrary manifest expands to byte-identical grids every time (and
//! after a JSON round-trip), `Random` axes are pure functions of their
//! seed, and successive halving promotes a superset-consistent top
//! fraction of the screened ranking.

use exper::prelude::*;
use mano::report::SearchCandidate;
use proptest::prelude::*;

/// Arbitrary sweep-value axis from a `(kind, list, steps, seed)` draw.
/// `List` values are deduplicated small integers so labels stay
/// readable; `Random` bounds are fixed and the seed spans `u64` (the
/// property under test is that the seed alone determines the draws).
fn axis_strategy() -> impl Strategy<Value = Axis> {
    (
        0u8..4,
        proptest::collection::vec(1u32..12, 1..4),
        1usize..4,
        0u64..u64::MAX,
    )
        .prop_map(|(kind, list, steps, seed)| {
            let start = f64::from(list[0]);
            match kind {
                0 => {
                    let mut values: Vec<f64> = Vec::new();
                    for x in list {
                        if !values.contains(&f64::from(x)) {
                            values.push(f64::from(x));
                        }
                    }
                    Axis::List(values)
                }
                1 => Axis::LinRange {
                    start,
                    end: start + 4.0,
                    steps,
                },
                2 => Axis::LogRange {
                    start,
                    end: start * 4.0,
                    steps,
                },
                _ => Axis::Random {
                    lo: 1.0,
                    hi: 9.0,
                    n: steps,
                    seed,
                },
            }
        })
}

/// Arbitrary scenario sweep over all four sweep families.
fn sweep_strategy() -> impl Strategy<Value = SweepSpec> {
    (
        0u8..4,
        axis_strategy(),
        proptest::collection::vec(3u64..7, 1..3),
        1u64..4,
    )
        .prop_map(|(kind, axis, mut sites, max_len)| match kind {
            0 => SweepSpec::ArrivalRate {
                values: FastScaled::same(axis),
            },
            1 => {
                sites.sort_unstable();
                sites.dedup();
                SweepSpec::Sites {
                    values: FastScaled::same(Axis::List(
                        sites.into_iter().map(|s| s as f64).collect(),
                    )),
                }
            }
            2 => SweepSpec::ChainLength {
                max: FastScaled::same(max_len),
            },
            _ => SweepSpec::FailureRate {
                values: FastScaled::same(axis),
                mean_downtime_slots: 3.0,
            },
        })
}

/// Arbitrary baseline-only manifest: random sweep, reward lattice
/// (paired diagonal or full cross of one axis with itself), policy
/// subset (`mask` picks a non-empty subset of four baselines) and seed
/// list spanning `u64` (most draws lie above 2^53, where a seed written
/// as a JSON number would lose its low bits). Never trained columns —
/// these manifests are expanded and searched inside the properties.
fn manifest_strategy() -> impl Strategy<Value = ScenarioManifest> {
    (
        sweep_strategy(),
        axis_strategy(),
        1u8..16,
        proptest::collection::vec(0u64..u64::MAX, 1..4),
        proptest::bool::ANY,
    )
        .prop_map(|(sweep, reward_axis, mask, mut seeds, paired)| {
            seeds.sort_unstable();
            seeds.dedup();
            let mut base = ManifestBase::bench(4.0);
            base.topology = TopologyFamily::Metro { sites: 4 };
            base.edge_capacity = None;
            base.horizon_slots = FastScaled { full: 16, fast: 16 };
            let mut manifest = ScenarioManifest::new("prop_manifest", base, sweep);
            // Zipping the axis with itself keeps the paired lattice's
            // equal-length requirement satisfied by construction.
            manifest = manifest.reward(RewardAxes {
                alpha: reward_axis.clone(),
                beta: reward_axis,
                paired,
            });
            let pool = ["first-fit", "greedy-latency", "greedy-cost", "cloud-only"];
            for (i, name) in pool.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    manifest = manifest.policy(PolicySpec::Baseline((*name).into()));
                }
            }
            manifest.seeds(FastScaled::same(seeds))
        })
}

/// Rendering of everything an expansion pins: per-point weights, grid
/// name, scenario rows (label, x, full scenario), policy labels, seeds
/// and catalogs. Byte-equal signatures mean byte-equal grids.
fn expansion_signature(expansion: &Expansion) -> String {
    let mut out = format!("{}|{}\n", expansion.fingerprint, expansion.fast);
    for point in &expansion.points {
        out.push_str(&format!(
            "{}|{}|{}|{:?}|{:?}|{:?}|{:?}\n",
            point.grid_name,
            point.alpha,
            point.beta,
            point.reward,
            point.policies,
            point.seeds,
            point.catalogs,
        ));
        for row in &point.scenarios {
            out.push_str(&format!("  {}|{}|{:?}\n", row.label, row.x, row.scenario));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same manifest value always expands to the same grids: equal
    /// expansion signatures and equal `ExperimentGrid` fingerprints, in
    /// both modes.
    #[test]
    fn expansion_is_deterministic(manifest in manifest_strategy()) {
        for fast in [false, true] {
            let a = manifest.expand(fast);
            let b = manifest.expand(fast);
            prop_assert_eq!(expansion_signature(&a), expansion_signature(&b));
            let fps_a: Vec<String> =
                a.points.iter().map(|p| p.grid().grid_fingerprint().to_string()).collect();
            let fps_b: Vec<String> =
                b.points.iter().map(|p| p.grid().grid_fingerprint().to_string()).collect();
            prop_assert_eq!(fps_a, fps_b);
        }
    }

    /// Serializing to JSON and parsing back yields the same manifest —
    /// same value, same mode-independent fingerprint, same expansion.
    #[test]
    fn json_roundtrip_preserves_the_manifest(manifest in manifest_strategy()) {
        let text = serde_json::to_string_pretty(&manifest.to_json());
        let back = ScenarioManifest::parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&back, &manifest);
        prop_assert_eq!(back.fingerprint(), manifest.fingerprint());
        prop_assert_eq!(
            expansion_signature(&back.expand(true)),
            expansion_signature(&manifest.expand(true))
        );
    }

    /// A `Random` axis is a pure function of its fields: repeated
    /// expansion gives identical draws, every draw is in `[lo, hi)`, and
    /// the draw count is `n`.
    #[test]
    fn random_axis_depends_only_on_its_seed(
        seed in 0u64..u64::MAX,
        n in 1usize..8,
        lo in 0u32..5,
        span in 1u32..6,
    ) {
        let (lo, hi) = (f64::from(lo), f64::from(lo) + f64::from(span));
        let axis = Axis::Random { lo, hi, n, seed };
        let first = axis.values();
        prop_assert_eq!(first.len(), n);
        prop_assert!(first.iter().all(|v| (lo..hi).contains(v)));
        prop_assert_eq!(axis.values(), first.clone());
        // The seed is the only randomness source: an equal-seed axis
        // built independently agrees draw for draw.
        let twin = Axis::Random { lo, hi, n, seed };
        prop_assert_eq!(twin.values(), first);
    }
}

proptest! {
    // Each case runs real (tiny) simulations twice; keep the case count
    // low so the suite stays in test-pyramid territory.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Successive halving promotes exactly the ceil(n·fraction) top
    /// screened candidates (superset-consistent: every promoted
    /// candidate screens at least as healthy as every screened-out one),
    /// spends `n·screen + promoted·(full−screen)` runs, crowns a
    /// promoted winner, and serializes byte-identically across runs.
    #[test]
    fn halving_promotes_the_top_screened_fraction(
        promote_fraction in 0.05f64..=1.0,
        screen in 1usize..4,
        seed_count in 1usize..4,
        mut rates in proptest::collection::vec(1u32..8, 1..3),
    ) {
        rates.sort_unstable();
        rates.dedup();
        let rates: Vec<f64> = rates.into_iter().map(f64::from).collect();
        let mut base = ManifestBase::bench(4.0);
        base.topology = TopologyFamily::Metro { sites: 4 };
        base.edge_capacity = None;
        base.horizon_slots = FastScaled { full: 16, fast: 16 };
        let mut manifest = ScenarioManifest::new(
            "prop_halving",
            base,
            SweepSpec::ArrivalRate { values: FastScaled::same(Axis::List(rates)) },
        )
        .policy(PolicySpec::Baseline("first-fit".into()))
        .policy(PolicySpec::Baseline("cloud-only".into()))
        .seeds(FastScaled::same((0..seed_count).map(|i| 101 + i as u64).collect()));
        manifest.search = SearchParams {
            screen_seeds: FastScaled::same(screen),
            promote_fraction,
        };

        let driver = SearchDriver::new(manifest);
        let outcome = driver.run(true);

        let n = outcome.candidates.len();
        let screen = screen.clamp(1, seed_count);
        let expected_promoted = ((n as f64 * promote_fraction).ceil() as usize).clamp(1, n);
        let promoted: Vec<&SearchCandidate> =
            outcome.candidates.iter().filter(|c| c.promoted).collect();
        prop_assert_eq!(promoted.len(), expected_promoted);

        // Superset consistency: no screened-out candidate outranks a
        // promoted one on the screening score both were ranked by.
        let floor = promoted
            .iter()
            .map(|c| c.screened_health)
            .fold(f64::INFINITY, f64::min);
        for c in outcome.candidates.iter().filter(|c| !c.promoted) {
            prop_assert!(c.screened_health <= floor);
            prop_assert_eq!(c.seeds_run, screen);
        }
        for c in &promoted {
            prop_assert_eq!(c.seeds_run, seed_count);
        }
        prop_assert!(outcome.best_candidate().promoted);
        prop_assert_eq!(
            outcome.runs_evaluated,
            n * screen + expected_promoted * (seed_count - screen)
        );
        prop_assert!(outcome.runs_evaluated <= outcome.runs_exhaustive);

        // Byte-determinism of the full on-disk document.
        let again = driver.run(true);
        prop_assert_eq!(
            serde_json::to_string_pretty(&outcome.canonical_json()),
            serde_json::to_string_pretty(&again.canonical_json())
        );
    }
}
