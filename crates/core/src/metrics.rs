//! Per-slot and per-run metrics: everything the experiment harness plots.

/// One slot's worth of observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotRecord {
    /// Slot index.
    pub slot: u64,
    /// Requests that arrived this slot.
    pub arrivals: u32,
    /// Requests accepted this slot.
    pub accepted: u32,
    /// Requests rejected this slot.
    pub rejected: u32,
    /// Accepted requests that violated their SLA at admission.
    pub sla_violations: u32,
    /// Flows active at slot end.
    pub active_flows: u32,
    /// Live VNF instances at slot end.
    pub live_instances: u32,
    /// Mean end-to-end latency over active flows (ms); 0 when none.
    pub mean_latency_ms: f64,
    /// Instance compute cost this slot (USD).
    pub compute_cost: f64,
    /// Edge energy cost this slot (USD).
    pub energy_cost: f64,
    /// WAN traffic cost this slot (USD).
    pub traffic_cost: f64,
    /// Deployment cost incurred this slot (USD).
    pub deployment_cost: f64,
    /// Mean dominant node utilization at slot end.
    pub mean_utilization: f64,
    /// Active flows disrupted by node failures this slot.
    pub flows_disrupted: u32,
    /// Disrupted flows successfully re-placed this slot.
    pub flows_replaced: u32,
    /// Nodes down at slot end.
    pub nodes_down: u32,
}

impl SlotRecord {
    /// Total operational cost of the slot.
    pub fn total_cost(&self) -> f64 {
        self.compute_cost + self.energy_cost + self.traffic_cost + self.deployment_cost
    }
}

/// Log-spaced latency histogram resolution. 512 bins over
/// `[10⁻³, 10⁵]` ms give a geometric bin width of `10^(8/511)` ≈ 3.7%,
/// so a percentile read off a bin center is within ≈2% of the exact
/// order statistic.
const HIST_BINS: usize = 512;
const HIST_LO_MS: f64 = 1e-3;
const HIST_HI_MS: f64 = 1e5;

/// A fixed-size log-spaced histogram over admission latencies — the
/// O(1)-memory stand-in for full retention's sorted latency vector.
/// Percentiles are read as the geometric center of the bin holding the
/// same order statistic the exact computation would pick.
#[derive(Debug, Clone)]
struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    fn new() -> Self {
        Self {
            counts: vec![0; HIST_BINS],
            total: 0,
        }
    }

    fn push(&mut self, v: f64) {
        let clamped = v.clamp(HIST_LO_MS, HIST_HI_MS);
        let span = (HIST_HI_MS / HIST_LO_MS).ln();
        let idx = ((clamped / HIST_LO_MS).ln() / span * (HIST_BINS - 1) as f64).round() as usize;
        self.counts[idx.min(HIST_BINS - 1)] += 1;
        self.total += 1;
    }

    /// Geometric center value of bin `i`.
    fn bin_value(i: usize) -> f64 {
        HIST_LO_MS * (HIST_HI_MS / HIST_LO_MS).powf(i as f64 / (HIST_BINS - 1) as f64)
    }

    /// The same order statistic full retention's percentile picks
    /// (`round((n-1)·p)`), resolved to its bin's center value.
    fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((self.total as f64 - 1.0) * p).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > target {
                return Self::bin_value(i);
            }
        }
        Self::bin_value(HIST_BINS - 1)
    }
}

/// O(1)-memory folds of every observation, kept under both retentions:
/// everything [`MetricsCollector::summarize`] reads except the latency
/// percentiles (and, under full retention, the latency mean).
#[derive(Debug, Clone)]
struct Totals {
    slots: u64,
    arrivals: u64,
    accepted: u64,
    rejected: u64,
    sla_violations: u64,
    cost: f64,
    utilization_sum: f64,
    active_flows_sum: f64,
    live_instances_sum: f64,
    flows_disrupted: u64,
    flows_replaced: u64,
    downtime_slots: u64,
    latency_sum: f64,
    latency_count: u64,
    decision_count: u64,
}

impl Default for Totals {
    /// Float sums start at `-0.0`, where `Iterator::sum` starts, so each
    /// is the bits a sum over the slot records would give, zero sign
    /// included.
    fn default() -> Self {
        Self {
            slots: 0,
            arrivals: 0,
            accepted: 0,
            rejected: 0,
            sla_violations: 0,
            cost: -0.0,
            utilization_sum: -0.0,
            active_flows_sum: -0.0,
            live_instances_sum: -0.0,
            flows_disrupted: 0,
            flows_replaced: 0,
            downtime_slots: 0,
            latency_sum: -0.0,
            latency_count: 0,
            decision_count: 0,
        }
    }
}

/// Collects observations during a run.
///
/// Every observation folds into running totals as it lands, whatever the
/// retention, and [`MetricsCollector::summarize`] reads every count, cost,
/// utilization, flow, instance and disruption field from them. It counts
/// decisions but reads no clock, so [`RunSummary::mean_decision_time_us`]
/// stays 0 here; `exper`'s decision timer fills it for the cells that keep
/// it. The retention decides only what is kept besides:
///
/// * **Full** (the default): every [`SlotRecord`] and admission latency —
///   memory grows with the horizon; latency percentiles are exact order
///   statistics and the latency mean is summed after sorting.
/// * **Streaming** ([`MetricsCollector::enable_streaming`]): a log-spaced
///   latency histogram — O(1) memory in trace length; percentiles carry
///   ≈2% relative error, and the latency mean is the running sum's, which
///   may differ from full retention's in final ulps.
///   [`MetricsCollector::slots`] returns an empty slice.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    /// Both retentions: every observation, folded as it lands.
    totals: Totals,
    /// Full retention: every slot record.
    slots: Vec<SlotRecord>,
    /// Full retention: each accepted request's admission latency (ms).
    admission_latencies: Vec<f64>,
    /// Streaming retention (`Some` once enabled): where latencies land
    /// instead of `admission_latencies`.
    latency_hist: Option<LatencyHistogram>,
}

impl MetricsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches to streaming retention (idempotent). Latencies kept so
    /// far fold into the histogram and kept slot records are dropped;
    /// the totals carry on, so the summary still covers them.
    pub fn enable_streaming(&mut self) {
        if self.latency_hist.is_some() {
            return;
        }
        let mut hist = LatencyHistogram::new();
        for &latency_ms in &self.admission_latencies {
            hist.push(latency_ms);
        }
        self.latency_hist = Some(hist);
        self.slots = Vec::new();
        self.admission_latencies = Vec::new();
    }

    /// `true` once [`MetricsCollector::enable_streaming`] has run.
    pub fn is_streaming(&self) -> bool {
        self.latency_hist.is_some()
    }

    /// Appends a slot record.
    pub(crate) fn push_slot(&mut self, record: SlotRecord) {
        let t = &mut self.totals;
        t.slots += 1;
        t.arrivals += record.arrivals as u64;
        t.accepted += record.accepted as u64;
        t.rejected += record.rejected as u64;
        t.sla_violations += record.sla_violations as u64;
        t.cost += record.total_cost();
        t.utilization_sum += record.mean_utilization;
        t.active_flows_sum += record.active_flows as f64;
        t.live_instances_sum += record.live_instances as f64;
        t.flows_disrupted += record.flows_disrupted as u64;
        t.flows_replaced += record.flows_replaced as u64;
        t.downtime_slots += record.nodes_down as u64;
        if self.latency_hist.is_none() {
            self.slots.push(record);
        }
    }

    /// Records an accepted request's admission latency.
    pub(crate) fn push_admission_latency(&mut self, latency_ms: f64) {
        self.totals.latency_sum += latency_ms;
        self.totals.latency_count += 1;
        match self.latency_hist.as_mut() {
            Some(hist) => hist.push(latency_ms),
            None => self.admission_latencies.push(latency_ms),
        }
    }

    /// Counts `n` placement decisions.
    pub(crate) fn count_decisions(&mut self, n: u64) {
        self.totals.decision_count += n;
    }

    /// Number of placement decisions recorded so far — throughput
    /// denominators for benchmarks.
    pub fn decision_count(&self) -> u64 {
        self.totals.decision_count
    }

    /// All slot records (empty under streaming retention — per-slot
    /// history is exactly what it does not keep; attach a
    /// `TelemetrySink` for a rolling snapshot tail instead).
    pub fn slots(&self) -> &[SlotRecord] {
        &self.slots
    }

    /// Finalizes into a summary.
    pub fn summarize(&self) -> RunSummary {
        let t = &self.totals;
        let ratio = |num: f64, den: u64, empty: f64| if den > 0 { num / den as f64 } else { empty };
        let per_slot = |sum: f64| ratio(sum, t.slots, 0.0);
        let (mean_latency, p50, p95) = match &self.latency_hist {
            Some(hist) => (
                ratio(t.latency_sum, t.latency_count, 0.0),
                hist.percentile(0.50),
                hist.percentile(0.95),
            ),
            None => {
                let mut sorted = self.admission_latencies.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let percentile = |p: f64| -> f64 {
                    if sorted.is_empty() {
                        return 0.0;
                    }
                    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
                    sorted[idx.min(sorted.len() - 1)]
                };
                let mean = ratio(sorted.iter().sum::<f64>(), sorted.len() as u64, 0.0);
                (mean, percentile(0.50), percentile(0.95))
            }
        };
        RunSummary {
            slots: t.slots,
            total_arrivals: t.arrivals,
            total_accepted: t.accepted,
            total_rejected: t.rejected,
            acceptance_ratio: ratio(t.accepted as f64, t.arrivals, 1.0),
            sla_violation_ratio: ratio(t.sla_violations as f64, t.accepted, 0.0),
            mean_admission_latency_ms: mean_latency,
            p50_admission_latency_ms: p50,
            p95_admission_latency_ms: p95,
            total_cost_usd: t.cost,
            mean_slot_cost_usd: per_slot(t.cost),
            mean_utilization: per_slot(t.utilization_sum),
            mean_active_flows: per_slot(t.active_flows_sum),
            mean_live_instances: per_slot(t.live_instances_sum),
            mean_decision_time_us: 0.0,
            flows_disrupted: t.flows_disrupted,
            replacement_success_rate: ratio(t.flows_replaced as f64, t.flows_disrupted, 1.0),
            downtime_slots: t.downtime_slots,
        }
    }
}

/// Aggregated results of one simulation run — the row every comparison
/// table in EXPERIMENTS.md reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Number of simulated slots.
    pub slots: u64,
    /// Requests that arrived.
    pub total_arrivals: u64,
    /// Requests accepted.
    pub total_accepted: u64,
    /// Requests rejected.
    pub total_rejected: u64,
    /// Accepted / arrived.
    pub acceptance_ratio: f64,
    /// SLA violations / accepted.
    pub sla_violation_ratio: f64,
    /// Mean end-to-end latency at admission (ms).
    pub mean_admission_latency_ms: f64,
    /// Median admission latency (ms).
    pub p50_admission_latency_ms: f64,
    /// 95th-percentile admission latency (ms).
    pub p95_admission_latency_ms: f64,
    /// Total operational cost over the run (USD).
    pub total_cost_usd: f64,
    /// Mean cost per slot (USD).
    pub mean_slot_cost_usd: f64,
    /// Mean node utilization.
    pub mean_utilization: f64,
    /// Mean concurrently active flows.
    pub mean_active_flows: f64,
    /// Mean live instances.
    pub mean_live_instances: f64,
    /// Mean wall-clock time per placement decision (µs). The engine reads
    /// no clock, so a `drive` summary leaves this at 0; `exper`'s decision
    /// timer fills it for grid and fan-out cells that keep decision time
    /// (the scalability figure).
    pub mean_decision_time_us: f64,
    /// Active flows disrupted by node failures over the run.
    pub flows_disrupted: u64,
    /// Fraction of disrupted flows successfully re-placed (1.0 when
    /// nothing was disrupted).
    pub replacement_success_rate: f64,
    /// Accumulated node-slots of downtime (Σ over slots of nodes down).
    pub downtime_slots: u64,
}

impl RunSummary {
    /// The combined objective the paper optimizes: mean per-slot cost plus
    /// latency, each in its natural unit; used for rankings, not plots.
    pub fn combined_objective(&self, alpha: f64, beta: f64) -> f64 {
        alpha * self.mean_admission_latency_ms
            + beta * self.mean_slot_cost_usd * 1000.0
            + 100.0 * (1.0 - self.acceptance_ratio)
    }
}

/// A named scalar metric of a [`RunSummary`]: (name, accessor).
pub type SummaryMetric = (&'static str, fn(&RunSummary) -> f64);

/// The named scalar metrics of a [`RunSummary`] that multi-seed
/// aggregation reports bands for, in the order the sweep CSVs emit them.
/// One table drives aggregation, the band CSV schema and the JSON schema,
/// so the three can never drift apart.
pub const SUMMARY_METRICS: &[SummaryMetric] = &[
    ("acceptance_ratio", |s| s.acceptance_ratio),
    ("mean_latency_ms", |s| s.mean_admission_latency_ms),
    ("p50_latency_ms", |s| s.p50_admission_latency_ms),
    ("p95_latency_ms", |s| s.p95_admission_latency_ms),
    ("sla_violation_ratio", |s| s.sla_violation_ratio),
    ("total_cost_usd", |s| s.total_cost_usd),
    ("mean_slot_cost_usd", |s| s.mean_slot_cost_usd),
    ("mean_utilization", |s| s.mean_utilization),
    ("mean_active_flows", |s| s.mean_active_flows),
    ("mean_live_instances", |s| s.mean_live_instances),
    ("mean_decision_time_us", |s| s.mean_decision_time_us),
    ("flows_disrupted", |s| s.flows_disrupted as f64),
    ("replacement_success_rate", |s| s.replacement_success_rate),
    ("downtime_slots", |s| s.downtime_slots as f64),
];

/// Mean, sample standard deviation and 95% confidence-interval half-width
/// of one metric across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricStats {
    /// Arithmetic mean across seeds.
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub std: f64,
    /// 95% CI half-width under the normal approximation:
    /// `1.96 · std / √n` (0 for a single seed).
    pub ci95: f64,
}

/// Per-metric statistics of a group of seed runs — the unit every error
/// band in the figure CSVs and `BENCH_*.json` reports is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryAggregate {
    /// Number of seed runs aggregated.
    pub runs: usize,
    /// One entry per [`SUMMARY_METRICS`] row, same order.
    pub metrics: Vec<(&'static str, MetricStats)>,
}

impl SummaryAggregate {
    /// Statistics for a metric by its [`SUMMARY_METRICS`] name.
    pub fn get(&self, name: &str) -> Option<&MetricStats> {
        self.metrics
            .iter()
            .find_map(|(n, s)| (*n == name).then_some(s))
    }

    /// Mean of a metric by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown metric name.
    pub fn mean(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("unknown metric `{name}`"))
            .mean
    }

    /// The combined objective computed over the per-seed means (matches
    /// [`RunSummary::combined_objective`] in expectation).
    pub fn combined_objective(&self, alpha: f64, beta: f64) -> f64 {
        alpha * self.mean("mean_latency_ms")
            + beta * self.mean("mean_slot_cost_usd") * 1000.0
            + 100.0 * (1.0 - self.mean("acceptance_ratio"))
    }
}

/// Aggregates seed runs of one grid cell group into per-metric statistics.
///
/// The reduction is a pure function of the *ordered* slice: callers
/// (the experiment engine) sort runs by grid index before calling, which
/// makes the output independent of execution interleaving — a parallel
/// grid run aggregates bit-identically to a sequential one.
///
/// # Panics
///
/// Panics on an empty slice — aggregating zero runs is a harness bug.
pub fn aggregate_summaries(summaries: &[RunSummary]) -> SummaryAggregate {
    assert!(!summaries.is_empty(), "cannot aggregate zero runs");
    let n = summaries.len() as f64;
    let metrics = SUMMARY_METRICS
        .iter()
        .map(|&(name, accessor)| {
            let values: Vec<f64> = summaries.iter().map(accessor).collect();
            let mean = values.iter().sum::<f64>() / n;
            let std = if summaries.len() < 2 {
                0.0
            } else {
                let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
                var.sqrt()
            };
            let ci95 = if summaries.len() < 2 {
                0.0
            } else {
                1.96 * std / n.sqrt()
            };
            (name, MetricStats { mean, std, ci95 })
        })
        .collect();
    SummaryAggregate {
        runs: summaries.len(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(i: u64, arrivals: u32, accepted: u32) -> SlotRecord {
        SlotRecord {
            slot: i,
            arrivals,
            accepted,
            rejected: arrivals - accepted,
            sla_violations: 0,
            active_flows: accepted,
            live_instances: accepted,
            mean_latency_ms: 10.0,
            compute_cost: 1.0,
            energy_cost: 0.5,
            traffic_cost: 0.25,
            deployment_cost: 0.25,
            mean_utilization: 0.5,
            flows_disrupted: 0,
            flows_replaced: 0,
            nodes_down: 0,
        }
    }

    #[test]
    fn total_cost_sums_components() {
        assert_eq!(slot(0, 1, 1).total_cost(), 2.0);
    }

    #[test]
    fn summary_ratios() {
        let mut m = MetricsCollector::new();
        m.push_slot(slot(0, 4, 3));
        m.push_slot(slot(1, 6, 5));
        for l in [10.0, 20.0, 30.0, 40.0] {
            m.push_admission_latency(l);
        }
        let s = m.summarize();
        assert_eq!(s.total_arrivals, 10);
        assert_eq!(s.total_accepted, 8);
        assert!((s.acceptance_ratio - 0.8).abs() < 1e-9);
        assert!((s.mean_admission_latency_ms - 25.0).abs() < 1e-9);
        assert!((s.total_cost_usd - 4.0).abs() < 1e-9);
        assert!((s.mean_slot_cost_usd - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_from_sorted_latencies() {
        let mut m = MetricsCollector::new();
        m.push_slot(slot(0, 100, 100));
        for i in 1..=100 {
            m.push_admission_latency(i as f64);
        }
        let s = m.summarize();
        assert!((s.p50_admission_latency_ms - 50.0).abs() <= 1.0);
        assert!((s.p95_admission_latency_ms - 95.0).abs() <= 1.0);
    }

    #[test]
    fn empty_collector_summarizes_benignly() {
        let s = MetricsCollector::new().summarize();
        assert_eq!(s.total_arrivals, 0);
        assert_eq!(s.acceptance_ratio, 1.0);
        assert_eq!(s.mean_admission_latency_ms, 0.0);
        assert_eq!(s.mean_decision_time_us, 0.0);
        assert_eq!(s.flows_disrupted, 0);
        assert_eq!(s.replacement_success_rate, 1.0);
        assert_eq!(s.downtime_slots, 0);
    }

    #[test]
    fn disruption_metrics_accumulate() {
        let mut m = MetricsCollector::new();
        let mut a = slot(0, 2, 2);
        a.flows_disrupted = 4;
        a.flows_replaced = 3;
        a.nodes_down = 2;
        let mut b = slot(1, 2, 2);
        b.flows_disrupted = 2;
        b.flows_replaced = 0;
        b.nodes_down = 1;
        m.push_slot(a);
        m.push_slot(b);
        let s = m.summarize();
        assert_eq!(s.flows_disrupted, 6);
        assert!((s.replacement_success_rate - 0.5).abs() < 1e-9);
        assert_eq!(s.downtime_slots, 3);
    }

    fn summary_with_latency(latency: f64) -> RunSummary {
        let mut m = MetricsCollector::new();
        m.push_slot(slot(0, 2, 2));
        m.push_admission_latency(latency);
        m.summarize()
    }

    #[test]
    fn aggregate_computes_mean_std_ci() {
        let runs: Vec<RunSummary> = [10.0, 20.0, 30.0, 40.0]
            .into_iter()
            .map(summary_with_latency)
            .collect();
        let agg = aggregate_summaries(&runs);
        assert_eq!(agg.runs, 4);
        let lat = agg.get("mean_latency_ms").unwrap();
        assert!((lat.mean - 25.0).abs() < 1e-9);
        // Sample std of {10,20,30,40} is √(500/3).
        let expected_std = (500.0f64 / 3.0).sqrt();
        assert!((lat.std - expected_std).abs() < 1e-9);
        assert!((lat.ci95 - 1.96 * expected_std / 2.0).abs() < 1e-9);
        // A metric identical across seeds has zero spread.
        let acc = agg.get("acceptance_ratio").unwrap();
        assert!((acc.mean - 1.0).abs() < 1e-9);
        assert_eq!(acc.std, 0.0);
    }

    #[test]
    fn aggregate_single_run_has_zero_bands() {
        let agg = aggregate_summaries(&[summary_with_latency(5.0)]);
        assert_eq!(agg.runs, 1);
        for (_, stats) in &agg.metrics {
            assert_eq!(stats.std, 0.0);
            assert_eq!(stats.ci95, 0.0);
        }
    }

    #[test]
    fn aggregate_covers_every_summary_metric() {
        let agg = aggregate_summaries(&[summary_with_latency(5.0)]);
        assert_eq!(agg.metrics.len(), SUMMARY_METRICS.len());
        for (name, _) in SUMMARY_METRICS {
            assert!(agg.get(name).is_some(), "metric {name} missing");
        }
    }

    #[test]
    fn aggregate_objective_matches_single_run_objective() {
        let s = summary_with_latency(12.0);
        let agg = aggregate_summaries(std::slice::from_ref(&s));
        let direct = s.combined_objective(1.0, 1.0);
        assert!((agg.combined_objective(1.0, 1.0) - direct).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot aggregate zero runs")]
    fn aggregate_empty_panics() {
        let _ = aggregate_summaries(&[]);
    }
}
