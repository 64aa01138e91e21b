//! Automated configuration search: a composite [`HealthScore`] over
//! `SUMMARY_METRICS` and a successive-halving [`SearchDriver`] that hunts
//! a manifest's frontier on a fraction of the exhaustive (cell × seed)
//! budget.
//!
//! The driver is grid-first: it expands a [`ScenarioManifest`] into its
//! reward-point grids, screens **every** (scenario, policy) candidate on
//! a cheap seed prefix, promotes the top fraction (by screened health) to
//! the full seed budget, and re-scores. All evaluation goes through
//! [`ExperimentGrid::run_cells`], so results stay index-keyed and
//! bit-identical for any `EXPER_THREADS`; ranking breaks health ties by
//! candidate index, so the whole search is a pure function of
//! `(manifest, fast, trained policies)`.

use crate::grid::{ExperimentGrid, PolicyFactory};
use crate::manifest::{ScenarioManifest, TrainRequest};
use mano::prelude::*;

/// A weighted, normalized combination of summary metrics: one scalar in
/// `[0, 1]` per candidate, higher is healthier.
///
/// Each weighted metric is min-max normalized **across the scored set**
/// (a score is a relative ranking, not an absolute quality), inverted for
/// lower-is-better metrics, and combined as a weighted mean. A metric
/// that is constant across the set contributes the neutral 0.5.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthScore {
    weights: Vec<(String, f64, bool)>,
}

impl Default for HealthScore {
    fn default() -> Self {
        Self::new(Self::default_weights())
    }
}

impl HealthScore {
    /// The default weights: acceptance (3, ↑), p95 latency (2, ↓), slot
    /// cost (2, ↓), replacement success (1, ↑), downtime (1, ↓).
    pub fn default_weights() -> Vec<(String, f64, bool)> {
        vec![
            ("acceptance_ratio".into(), 3.0, true),
            ("p95_latency_ms".into(), 2.0, false),
            ("mean_slot_cost_usd".into(), 2.0, false),
            ("replacement_success_rate".into(), 1.0, true),
            ("downtime_slots".into(), 1.0, false),
        ]
    }

    /// Builds a score from `(metric, weight, higher_is_better)` triples.
    ///
    /// # Panics
    ///
    /// Panics on an empty weight list, a non-positive weight, or a metric
    /// name not in [`SUMMARY_METRICS`].
    pub fn new(weights: Vec<(String, f64, bool)>) -> Self {
        assert!(
            !weights.is_empty(),
            "health score needs at least one weight"
        );
        for (metric, weight, _) in &weights {
            assert!(
                SUMMARY_METRICS.iter().any(|(name, _)| name == metric),
                "unknown health metric `{metric}`"
            );
            assert!(
                *weight > 0.0,
                "health weight for `{metric}` must be positive"
            );
        }
        Self { weights }
    }

    /// The `(metric, weight, higher_is_better)` triples, in order.
    pub fn weights(&self) -> &[(String, f64, bool)] {
        &self.weights
    }

    /// Scores a set of per-candidate metric means (row *i* =
    /// `values[i][j]` for weighted metric *j*), the shared core of
    /// [`HealthScore::score_aggregates`] and [`HealthScore::score_cells`].
    fn score_rows(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let total_weight: f64 = self.weights.iter().map(|(_, w, _)| w).sum();
        (0..rows.len())
            .map(|i| {
                let mut acc = 0.0;
                for (j, (_, weight, up)) in self.weights.iter().enumerate() {
                    let value = rows[i][j];
                    let (min, max) = rows
                        .iter()
                        .map(|r| r[j])
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                            (lo.min(v), hi.max(v))
                        });
                    let norm = if max > min {
                        let n = (value - min) / (max - min);
                        if *up {
                            n
                        } else {
                            1.0 - n
                        }
                    } else {
                        0.5 // constant across the set: no signal either way
                    };
                    acc += weight * norm;
                }
                acc / total_weight
            })
            .collect()
    }

    /// Health of each aggregate, normalized across the given slice
    /// (order-aligned with the input).
    pub fn score_aggregates(&self, aggregates: &[BenchAggregate]) -> Vec<f64> {
        let rows: Vec<Vec<f64>> = aggregates
            .iter()
            .map(|a| {
                self.weights
                    .iter()
                    .map(|(metric, _, _)| a.aggregate.mean(metric))
                    .collect()
            })
            .collect();
        self.score_rows(&rows)
    }

    /// Health of each raw cell, normalized across the given slice —
    /// the per-seed scatter companion of
    /// [`HealthScore::score_aggregates`].
    pub fn score_cells(&self, cells: &[BenchCell]) -> Vec<f64> {
        let rows: Vec<Vec<f64>> = cells
            .iter()
            .map(|c| {
                self.weights
                    .iter()
                    .map(|(metric, _, _)| {
                        let (_, accessor) = SUMMARY_METRICS
                            .iter()
                            .find(|(name, _)| name == metric)
                            .expect("validated metric name");
                        accessor(&c.summary)
                    })
                    .collect()
            })
            .collect();
        self.score_rows(&rows)
    }

    /// Aggregate indices ordered healthiest-first; ties break toward the
    /// lower index, keeping ranking deterministic.
    pub fn rank(&self, aggregates: &[BenchAggregate]) -> Vec<usize> {
        let scores = self.score_aggregates(aggregates);
        let mut order: Vec<usize> = (0..aggregates.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }
}

/// Grid-first successive halving over a manifest's expansion.
///
/// Schedule (both knobs come from the manifest's
/// [`crate::manifest::SearchParams`]):
///
/// 1. **Screen** — every (scenario, policy) candidate of every reward
///    point runs its first `screen_seeds` seeds.
/// 2. **Promote** — candidates are ranked by screened health (normalized
///    across the whole candidate set) and the top
///    `ceil(n · promote_fraction)` (at least one) are promoted.
/// 3. **Refine** — promoted candidates run their remaining seeds; final
///    health is re-normalized over every candidate's evaluated seeds, and
///    the winner is the healthiest **promoted** candidate.
pub struct SearchDriver {
    manifest: ScenarioManifest,
    health: HealthScore,
}

impl SearchDriver {
    /// Builds a driver for `manifest`, scoring with the manifest's own
    /// health weights.
    ///
    /// # Panics
    ///
    /// Panics when the manifest's health weights or search parameters are
    /// invalid (empty weights, unknown metric, `promote_fraction` outside
    /// `(0, 1]`).
    pub fn new(manifest: ScenarioManifest) -> Self {
        let health = HealthScore::new(manifest.health.clone());
        assert!(
            manifest.search.promote_fraction > 0.0 && manifest.search.promote_fraction <= 1.0,
            "promote_fraction must be in (0, 1]"
        );
        Self { manifest, health }
    }

    /// Runs the search for baseline-only manifests.
    ///
    /// # Panics
    ///
    /// Panics when the manifest has trained policy columns (use
    /// [`SearchDriver::run_with`]).
    pub fn run(&self, fast: bool) -> SearchReport {
        self.run_with(fast, &mut |req: &TrainRequest| {
            panic!(
                "manifest has trained column `{}` — use run_with and supply a trainer",
                req.label
            )
        })
    }

    /// Runs the search, building trained policy columns via `trainer`
    /// (called once per (reward point, trained column), expansion order),
    /// and returns its report (`BENCH_search_<name>.json`): every
    /// candidate's trajectory, and each point's evaluated cells with their
    /// per-seed health.
    pub fn run_with(
        &self,
        fast: bool,
        trainer: &mut dyn FnMut(&TrainRequest) -> PolicyFactory,
    ) -> SearchReport {
        let expansion = self.manifest.expand(fast);
        let grids: Vec<ExperimentGrid> = expansion
            .points
            .iter()
            .map(|p| p.grid_with(trainer))
            .collect();

        let full_seeds = expansion.points[0].seeds.len();
        let screen_seeds = self
            .manifest
            .search
            .screen_seeds
            .pick(fast)
            .clamp(1, full_seeds);

        // Candidate universe: (point, scenario, policy) groups, whose
        // seed block is contiguous in the grid's cell order.
        struct Slot {
            point: usize,
            group: usize,
            cells: Vec<BenchCell>,
        }
        let mut slots: Vec<Slot> = Vec::new();
        for (pi, point) in expansion.points.iter().enumerate() {
            let groups = point.scenarios.len() * point.policies.len();
            for g in 0..groups {
                slots.push(Slot {
                    point: pi,
                    group: g,
                    cells: Vec::new(),
                });
            }
        }

        // Phase 1: screen every candidate on the seed prefix.
        for (pi, grid) in grids.iter().enumerate() {
            let point = &expansion.points[pi];
            let groups = point.scenarios.len() * point.policies.len();
            let indices: Vec<usize> = (0..groups)
                .flat_map(|g| (0..screen_seeds).map(move |s| g * full_seeds + s))
                .collect();
            for (index, cell) in grid.run_cells(&indices) {
                let slot = slots
                    .iter_mut()
                    .find(|sl| sl.point == pi && sl.group == index / full_seeds)
                    .expect("index maps to a slot");
                slot.cells.push(cell);
            }
        }

        let screened_aggregates: Vec<BenchAggregate> =
            slots.iter().map(|sl| aggregate_of(&sl.cells)).collect();
        let screened_health = self.health.score_aggregates(&screened_aggregates);

        // Phase 2: promote the top fraction by screened health.
        let n = slots.len();
        let promote =
            ((n as f64 * self.manifest.search.promote_fraction).ceil() as usize).clamp(1, n);
        let order = self.health.rank(&screened_aggregates);
        let mut promoted = vec![false; n];
        for &i in order.iter().take(promote) {
            promoted[i] = true;
        }

        // Phase 3: promoted candidates run their remaining seeds.
        if screen_seeds < full_seeds {
            for (pi, grid) in grids.iter().enumerate() {
                let extra: Vec<(usize, usize)> = slots
                    .iter()
                    .enumerate()
                    .filter(|(si, sl)| sl.point == pi && promoted[*si])
                    .flat_map(|(_, sl)| (screen_seeds..full_seeds).map(move |s| (sl.group, s)))
                    .map(|(g, s)| (g, g * full_seeds + s))
                    .collect();
                let indices: Vec<usize> = extra.iter().map(|&(_, idx)| idx).collect();
                for (index, cell) in grid.run_cells(&indices) {
                    let slot = slots
                        .iter_mut()
                        .find(|sl| sl.point == pi && sl.group == index / full_seeds)
                        .expect("index maps to a slot");
                    slot.cells.push(cell);
                }
            }
        }

        // Final scores over everything each candidate actually ran.
        let final_aggregates: Vec<BenchAggregate> =
            slots.iter().map(|sl| aggregate_of(&sl.cells)).collect();
        let final_health = self.health.score_aggregates(&final_aggregates);

        let candidates: Vec<SearchCandidate> = slots
            .iter()
            .enumerate()
            .map(|(si, sl)| {
                let point = &expansion.points[sl.point];
                let first = &sl.cells[0];
                SearchCandidate {
                    point: sl.point,
                    scenario: first.scenario.clone(),
                    policy: first.policy.clone(),
                    x: first.x,
                    alpha: point.alpha,
                    beta: point.beta,
                    screened_health: screened_health[si],
                    promoted: promoted[si],
                    seeds_run: sl.cells.len(),
                    health: final_health[si],
                }
            })
            .collect();

        let best = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.promoted)
            .max_by(|(ai, a), (bi, b)| {
                a.health
                    .partial_cmp(&b.health)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(bi.cmp(ai)) // equal health: keep the earlier candidate
            })
            .map(|(i, _)| i)
            .expect("at least one candidate is promoted");

        let runs_evaluated: usize = slots.iter().map(|sl| sl.cells.len()).sum();
        let runs_exhaustive = n * full_seeds;

        // Per-point reports, cells in global-index order (ragged seeds:
        // promoted candidates carry the full seed budget, screened-out ones
        // only the screen prefix), each cell scored for the per-seed
        // scatter.
        let points: Vec<SearchPointReport> = expansion
            .points
            .iter()
            .enumerate()
            .map(|(pi, point)| {
                let mut cells: Vec<BenchCell> = Vec::new();
                for sl in slots.iter().filter(|sl| sl.point == pi) {
                    cells.extend(sl.cells.iter().cloned());
                }
                SearchPointReport {
                    alpha: point.alpha,
                    beta: point.beta,
                    cell_health: self.health.score_cells(&cells),
                    report: BenchReport::from_cells(
                        grids[pi].grid_name(),
                        grids[pi].grid_fingerprint(),
                        crate::pool::thread_count(),
                        0.0,
                        cells,
                    ),
                }
            })
            .collect();

        SearchReport {
            name: expansion.manifest_name,
            manifest_fingerprint: expansion.fingerprint,
            fast,
            screen_seeds,
            full_seeds,
            promote_fraction: self.manifest.search.promote_fraction,
            runs_evaluated,
            runs_exhaustive,
            health_weights: self.health.weights().to_vec(),
            candidates,
            best,
            points,
        }
    }
}

/// Aggregates one candidate's evaluated cells into a [`BenchAggregate`].
fn aggregate_of(cells: &[BenchCell]) -> BenchAggregate {
    let first = &cells[0];
    let summaries: Vec<RunSummary> = cells.iter().map(|c| c.summary.clone()).collect();
    BenchAggregate {
        scenario: first.scenario.clone(),
        policy: first.policy.clone(),
        x: first.x,
        aggregate: aggregate_summaries(&summaries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{
        Axis, EventSpec, FastScaled, ManifestBase, PolicySpec, ScenarioManifest, SearchParams,
        SweepSpec, TopologyFamily,
    };

    fn summary_with(acceptance: f64, p95: f64) -> RunSummary {
        RunSummary {
            slots: 1,
            total_arrivals: 0,
            total_accepted: 0,
            total_rejected: 0,
            acceptance_ratio: acceptance,
            sla_violation_ratio: 0.0,
            mean_admission_latency_ms: 0.0,
            p50_admission_latency_ms: 0.0,
            p95_admission_latency_ms: p95,
            total_cost_usd: 0.0,
            mean_slot_cost_usd: 0.0,
            mean_utilization: 0.0,
            mean_active_flows: 0.0,
            mean_live_instances: 0.0,
            mean_decision_time_us: 0.0,
            flows_disrupted: 0,
            replacement_success_rate: 1.0,
            downtime_slots: 0,
        }
    }

    fn aggregate(policy: &str, acceptance: f64, p95: f64) -> BenchAggregate {
        BenchAggregate {
            scenario: "s".into(),
            policy: policy.into(),
            x: 1.0,
            aggregate: aggregate_summaries(&[summary_with(acceptance, p95)]),
        }
    }

    #[test]
    fn health_normalizes_and_respects_directions() {
        let health = HealthScore::new(vec![
            ("acceptance_ratio".into(), 1.0, true),
            ("p95_latency_ms".into(), 1.0, false),
        ]);
        let aggs = vec![
            aggregate("good", 0.9, 10.0),
            aggregate("bad", 0.1, 90.0),
            aggregate("mid", 0.5, 50.0),
        ];
        let scores = health.score_aggregates(&aggs);
        assert_eq!(scores[0], 1.0, "best on both axes");
        assert_eq!(scores[1], 0.0, "worst on both axes");
        assert!((scores[2] - 0.5).abs() < 1e-12);
        assert_eq!(health.rank(&aggs), vec![0, 2, 1]);
    }

    #[test]
    fn constant_metrics_are_neutral() {
        let health = HealthScore::new(vec![
            ("acceptance_ratio".into(), 3.0, true),
            ("p95_latency_ms".into(), 1.0, false),
        ]);
        let aggs = vec![aggregate("a", 0.5, 10.0), aggregate("b", 0.5, 20.0)];
        let scores = health.score_aggregates(&aggs);
        // Acceptance is constant (neutral 0.5); only latency separates.
        assert!((scores[0] - (3.0 * 0.5 + 1.0 * 1.0) / 4.0).abs() < 1e-12);
        assert!((scores[1] - (3.0 * 0.5 + 1.0 * 0.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown health metric")]
    fn unknown_metric_rejected() {
        let _ = HealthScore::new(vec![("no_such_metric".into(), 1.0, true)]);
    }

    fn search_manifest(promote_fraction: f64) -> ScenarioManifest {
        let mut m = ScenarioManifest::new(
            "unit_search",
            ManifestBase {
                topology: TopologyFamily::Metro { sites: 4 },
                edge_capacity: None,
                horizon_slots: FastScaled { full: 30, fast: 20 },
                arrival_rate: 3.0,
                chain_count: 4,
                mean_duration_slots: 6.0,
                events: EventSpec::None,
            },
            SweepSpec::ArrivalRate {
                values: FastScaled::same(Axis::List(vec![2.0, 6.0])),
            },
        )
        .policy(PolicySpec::Baseline("first-fit".into()))
        .policy(PolicySpec::Baseline("greedy-latency".into()))
        .policy(PolicySpec::Baseline("cloud-only".into()))
        .seeds(FastScaled::same(vec![1, 2, 3, 4]));
        m.search = SearchParams {
            screen_seeds: FastScaled::same(2),
            promote_fraction,
        };
        m
    }

    #[test]
    fn halving_spends_less_than_exhaustive_and_ranks_consistently() {
        let outcome = SearchDriver::new(search_manifest(0.5)).run(false);
        assert_eq!(outcome.candidates.len(), 6);
        assert_eq!(outcome.runs_exhaustive, 6 * 4);
        assert!(
            outcome.runs_evaluated < outcome.runs_exhaustive,
            "halving must save runs: {} vs {}",
            outcome.runs_evaluated,
            outcome.runs_exhaustive
        );
        let promoted: Vec<_> = outcome.candidates.iter().filter(|c| c.promoted).collect();
        assert_eq!(promoted.len(), 3, "ceil(6 * 0.5)");
        assert!(promoted.iter().all(|c| c.seeds_run == 4));
        assert!(outcome
            .candidates
            .iter()
            .filter(|c| !c.promoted)
            .all(|c| c.seeds_run == 2));
        // Superset consistency: every promoted screened-health is >= every
        // non-promoted screened-health.
        let floor = promoted
            .iter()
            .map(|c| c.screened_health)
            .fold(f64::INFINITY, f64::min);
        assert!(outcome
            .candidates
            .iter()
            .filter(|c| !c.promoted)
            .all(|c| c.screened_health <= floor));
        assert!(outcome.best_candidate().promoted);
    }

    #[test]
    fn search_is_thread_count_invariant() {
        let run = |threads: &str| -> Vec<(String, f64, f64, bool)> {
            // Pin via the grid's own thread override path: rebuild the
            // manifest each time; determinism must come from indices, not
            // the environment.
            let _ = threads;
            SearchDriver::new(search_manifest(0.5))
                .run(false)
                .candidates
                .iter()
                .map(|c| (c.policy.clone(), c.screened_health, c.health, c.promoted))
                .collect()
        };
        assert_eq!(run("1"), run("4"), "two identical searches agree");
    }

    #[test]
    fn promote_everything_matches_exhaustive_budget() {
        let outcome = SearchDriver::new(search_manifest(1.0)).run(false);
        assert_eq!(outcome.runs_evaluated, outcome.runs_exhaustive);
        assert!(outcome.candidates.iter().all(|c| c.promoted));
        // The per-point report now carries the full grid.
        assert_eq!(outcome.points[0].report.cells.len(), 24);
        assert_eq!(outcome.points[0].report.aggregates.len(), 6);
    }
}
