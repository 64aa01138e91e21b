//! Telemetry subsystem contract tests:
//!
//! * attaching a [`TelemetrySink`] is pure observation — the
//!   [`RunSummary`] is bit-identical with and without one, on healthy
//!   and failure-injected scenarios;
//! * every flow record respects the lifecycle funnel
//!   `requested ≤ placed ≤ active ≤ torn_down` (property-tested over
//!   random scenarios);
//! * streaming metrics retention reproduces the full-retention summary
//!   exactly on counts/sums and within histogram tolerance on latency
//!   quantiles, and may follow full retention on one simulation;
//! * [`RunInput::Stream`] is observationally identical to the same
//!   arrivals materialized as [`RunInput::Events`], and slot-boundary
//!   arrivals to the same requests as a [`RunInput::Trace`], each
//!   followed by a [`RunInput::Generated`] run on the same simulation
//!   (there is one accounting, so any input may follow any other).

use mano::prelude::*;
use proptest::prelude::*;

/// Runs `scenario` twice through [`Simulation::drive`] — once bare, once
/// with a telemetry sink — and asserts bit-identical summaries. Returns
/// the populated sink for further inspection.
fn run_with_and_without_telemetry(scenario: &Scenario) -> (RunSummary, TelemetrySink) {
    let mut bare_sim = Simulation::new(scenario, RewardConfig::default());
    let mut bare_policy = FirstFitPolicy;
    let bare = bare_sim.drive(RunInput::Generated, &mut bare_policy, RunOptions::new());

    let mut sink = TelemetrySink::new();
    let mut obs_sim = Simulation::new(scenario, RewardConfig::default());
    let mut obs_policy = FirstFitPolicy;
    let observed = obs_sim.drive(
        RunInput::Generated,
        &mut obs_policy,
        RunOptions::new().with_telemetry(&mut sink),
    );

    assert_eq!(
        bare, observed,
        "attaching a TelemetrySink changed the RunSummary"
    );
    (observed, sink)
}

#[test]
fn telemetry_is_bit_identical_on_healthy_scenario() {
    let scenario = Scenario::small_test();
    let (summary, sink) = run_with_and_without_telemetry(&scenario);

    let totals = sink.totals();
    assert_eq!(totals.requested, summary.total_arrivals);
    assert_eq!(totals.placed, summary.total_accepted);
    assert_eq!(
        totals.rejected + totals.replacement_rejected,
        summary.total_rejected
    );
    // Every opened record is eventually closed or still in flight.
    assert_eq!(
        totals.closed() + sink.open_flows() as u64,
        totals.requested + totals.replacements_requested
    );
    // One snapshot per billed slot (ring capacity exceeds the horizon here).
    assert_eq!(
        sink.snapshots().count() as u64 + sink.dropped_snapshots(),
        summary.slots
    );
    assert_eq!(sink.admission_latency().count(), totals.placed);
}

#[test]
fn telemetry_is_bit_identical_under_failures() {
    let scenario = Scenario::small_test().with_failures(0.05, 6.0);
    let (summary, sink) = run_with_and_without_telemetry(&scenario);
    assert!(
        summary.downtime_slots > 0,
        "failure scenario saw no downtime"
    );

    let totals = sink.totals();
    assert_eq!(totals.disrupted, summary.flows_disrupted);
    assert_eq!(
        totals.closed() + sink.open_flows() as u64,
        totals.requested + totals.replacements_requested
    );
    for record in sink.recent_flows() {
        assert!(record.funnel_ordered(), "funnel violated: {record:?}");
    }
}

#[test]
fn csv_exports_are_rectangular() {
    let scenario = Scenario::small_test();
    let (_, sink) = run_with_and_without_telemetry(&scenario);

    let flows = sink.flows_csv();
    let mut lines = flows.lines();
    let header_cols = lines.next().expect("flows header").split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), header_cols, "ragged flows row");
        rows += 1;
    }
    assert_eq!(rows, sink.recent_flows().count());

    let snapshots = sink.snapshots_csv();
    let mut lines = snapshots.lines();
    let header_cols = lines.next().expect("snapshots header").split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), header_cols, "ragged snapshot row");
    }

    // The JSON digest stays O(1) in trace length.
    let json = sink.to_json().to_string();
    assert!(json.len() < 4096, "telemetry digest grew with the trace");
}

#[test]
fn streaming_metrics_match_full_mode() {
    let scenario = Scenario::small_test().with_failures(0.03, 5.0);

    let mut full_sim = Simulation::new(&scenario, RewardConfig::default());
    let mut full_policy = FirstFitPolicy;
    let full = full_sim.drive(RunInput::Generated, &mut full_policy, RunOptions::new());

    let mut stream_sim = Simulation::new(&scenario, RewardConfig::default());
    let mut stream_policy = FirstFitPolicy;
    let streaming = stream_sim.drive(
        RunInput::Generated,
        &mut stream_policy,
        RunOptions::new().with_streaming_metrics(),
    );
    assert!(stream_sim.metrics().is_streaming());
    assert!(
        stream_sim.metrics().slots().is_empty(),
        "streaming retention must not keep per-slot records"
    );

    // Counts and slot-derived sums fold in the same order → exact.
    assert_eq!(full.slots, streaming.slots);
    assert_eq!(full.total_arrivals, streaming.total_arrivals);
    assert_eq!(full.total_accepted, streaming.total_accepted);
    assert_eq!(full.total_rejected, streaming.total_rejected);
    assert_eq!(full.acceptance_ratio, streaming.acceptance_ratio);
    assert_eq!(full.sla_violation_ratio, streaming.sla_violation_ratio);
    assert_eq!(full.total_cost_usd, streaming.total_cost_usd);
    assert_eq!(full.mean_slot_cost_usd, streaming.mean_slot_cost_usd);
    assert_eq!(full.mean_utilization, streaming.mean_utilization);
    assert_eq!(full.mean_active_flows, streaming.mean_active_flows);
    assert_eq!(full.mean_live_instances, streaming.mean_live_instances);
    assert_eq!(full.flows_disrupted, streaming.flows_disrupted);
    assert_eq!(
        full.replacement_success_rate,
        streaming.replacement_success_rate
    );
    assert_eq!(full.downtime_slots, streaming.downtime_slots);

    // Latency mean differs only in summation order; quantiles come from
    // a log-spaced histogram with ≈2% relative bin width.
    let close = |a: f64, b: f64, rel: f64| (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-9);
    assert!(
        close(
            full.mean_admission_latency_ms,
            streaming.mean_admission_latency_ms,
            1e-9
        ),
        "means diverged: {} vs {}",
        full.mean_admission_latency_ms,
        streaming.mean_admission_latency_ms
    );
    for (name, a, b) in [
        (
            "p50",
            full.p50_admission_latency_ms,
            streaming.p50_admission_latency_ms,
        ),
        (
            "p95",
            full.p95_admission_latency_ms,
            streaming.p95_admission_latency_ms,
        ),
    ] {
        assert!(close(a, b, 0.05), "{name} diverged: {a} vs {b}");
    }

    // Streaming may follow full retention on one simulation: the second
    // run's summary covers both runs, exactly like two full runs'.
    let two_runs = |second: RunOptions<'static>| {
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let _ = sim.drive(RunInput::Generated, &mut FirstFitPolicy, RunOptions::new());
        let summary = sim.drive(RunInput::Generated, &mut FirstFitPolicy, second);
        (summary, sim)
    };
    let (both_full, _) = two_runs(RunOptions::new());
    let (switched, switched_sim) = two_runs(RunOptions::new().with_streaming_metrics());
    assert!(switched_sim.metrics().is_streaming());
    assert!(switched_sim.metrics().slots().is_empty());
    assert_eq!(switched.slots, 2 * scenario.horizon_slots);
    assert_eq!(both_full.slots, switched.slots);
    assert_eq!(both_full.total_arrivals, switched.total_arrivals);
    assert_eq!(both_full.total_accepted, switched.total_accepted);
    assert_eq!(both_full.total_cost_usd, switched.total_cost_usd);
    assert_eq!(both_full.mean_utilization, switched.mean_utilization);
    assert_eq!(both_full.mean_live_instances, switched.mean_live_instances);
}

#[test]
fn stream_input_matches_materialized_events() {
    let scenario = Scenario::small_test();
    let slot_ms = (scenario.slot_seconds * 1000.0).round() as u64;
    let horizon = scenario.horizon_slots;
    let sites: Vec<edgenet::node::NodeId> = (0..4).map(edgenet::node::NodeId).collect();

    let mut profile = workload::metro::MetroProfile::default_city(42);
    profile.base_rate = 2.0;
    profile.mean_duration_ms = 4.0 * slot_ms as f64;

    let materialized: Vec<TimedArrival> = profile
        .stream(&sites, horizon, slot_ms)
        .map(TimedArrival::from)
        .collect();
    assert!(!materialized.is_empty(), "metro profile generated no load");

    // Each input is followed by a generated run on the same simulation:
    // with one accounting, an ms-resolution run (sub-slot lifetimes,
    // mid-slot departures) chains with a slot-aligned one, and the second
    // run's records are compared along with the first's.
    let run = |input: RunInput<'_>| {
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let opts = RunOptions::new().with_horizon(horizon);
        let first = sim.drive(input, &mut FirstFitPolicy, opts);
        let both = sim.drive(RunInput::Generated, &mut FirstFitPolicy, RunOptions::new());
        assert_eq!(both.slots, 2 * horizon);
        (first, both, sim.metrics().slots().to_vec())
    };

    let mut stream = profile
        .stream(&sites, horizon, slot_ms)
        .map(TimedArrival::from);
    assert_eq!(
        run(RunInput::Events(&materialized)),
        run(RunInput::Stream(&mut stream)),
        "lazy stream input diverged from the materialized schedule"
    );

    // Moved to the start of their slots, the same arrivals are something
    // a `Trace` can say too: a third input, the same run.
    let on_boundaries: Vec<TimedArrival> = materialized
        .iter()
        .map(|a| TimedArrival {
            at: SimTime::from_slot(a.request.arrival_slot, slot_ms),
            request: a.request.clone(),
        })
        .collect();
    let trace = workload::trace::Trace {
        requests: on_boundaries.iter().map(|a| a.request.clone()).collect(),
        horizon_slots: horizon,
    };
    assert_eq!(
        run(RunInput::Events(&on_boundaries)),
        run(RunInput::Trace(&trace)),
        "a slot-resolution trace diverged from the same arrivals as events"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The funnel invariant `requested ≤ placed ≤ active ≤ torn_down`
    /// holds for every record under arbitrary load, seeds and failure
    /// injection, and closed records always carry an outcome.
    #[test]
    fn funnel_order_holds_over_random_scenarios(
        seed in 0u64..500,
        rate in 0.5f64..6.0,
        horizon in 8u64..48,
        failures in proptest::bool::ANY,
    ) {
        let mut scenario = Scenario::small_test().with_arrival_rate(rate);
        scenario.seed = seed;
        scenario.horizon_slots = horizon;
        if failures {
            scenario = scenario.with_failures(0.04, 4.0);
        }

        let mut sink = TelemetrySink::new();
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = FirstFitPolicy;
        let _ = sim.drive(
            RunInput::Generated,
            &mut policy,
            RunOptions::new().with_telemetry(&mut sink),
        );

        for record in sink.recent_flows() {
            prop_assert!(record.funnel_ordered(), "funnel violated: {record:?}");
            prop_assert!(
                record.outcome.is_some(),
                "closed record without outcome: {record:?}"
            );
        }
        let totals = sink.totals();
        prop_assert_eq!(
            totals.closed() + sink.open_flows() as u64,
            totals.requested + totals.replacements_requested
        );
    }
}
