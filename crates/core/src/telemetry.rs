//! Streaming run telemetry: per-flow lifecycle records and rolling
//! snapshots, aggregated in O(1) memory with respect to trace length.
//!
//! A [`TelemetrySink`] observes the event engine through narrow hooks
//! (`on_requested`, `on_admitted`, `on_rejected`, `on_completed`,
//! `on_disrupted`, `on_slot_billed`). It never influences the run:
//! attaching a sink to a simulation produces a bit-identical
//! `RunSummary` to running without one (pinned by the regression tests
//! in `tests/telemetry.rs`).
//!
//! Memory contract: the sink holds
//! * one open [`FlowRecord`] per *currently in-flight* flow, in a
//!   vector sorted by request id ([`sfc::idmap::IdMap`]; ids mostly
//!   arrive in increasing order, so opening a record is a push),
//! * the last `flow_capacity` closed records (ring buffer, default
//!   1024; older records are counted, aggregated and dropped),
//! * the last `snapshot_capacity` per-slot [`SimSnapshot`]s (default
//!   256),
//! * constant-size streaming aggregates ([`FlowTotals`],
//!   [`StreamingStat`]).
//!
//! Nothing grows with trace length, so a 10M-request run costs the same
//! telemetry memory as a 1k-request smoke run. See `docs/telemetry.md`.

use crate::metrics::SlotRecord;
use serde_json::{Map, Value};
use sfc::idmap::IdMap;
use sfc::request::{Request, RequestId};
use std::collections::VecDeque;

/// Terminal state of a flow's lifecycle record — the abandonment-reason
/// breakdown reported by [`TelemetrySink::totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Placed and held to its natural departure.
    Completed,
    /// Refused at admission.
    Rejected,
    /// Torn down early by a node failure (a replacement attempt, if
    /// any, opens its own record).
    Disrupted,
    /// A disrupted flow's replacement attempt was refused — the flow is
    /// permanently lost.
    ReplacementRejected,
}

impl FlowOutcome {
    /// Stable lowercase label, used by the CSV/JSON exports.
    pub fn label(&self) -> &'static str {
        match self {
            FlowOutcome::Completed => "completed",
            FlowOutcome::Rejected => "rejected",
            FlowOutcome::Disrupted => "disrupted",
            FlowOutcome::ReplacementRejected => "replacement_rejected",
        }
    }
}

/// One flow's lifecycle with funnel-ordered timestamps:
/// `requested_ms <= placed_ms <= active_ms <= torn_down_ms` for every
/// stage the flow reached (later stages are `None` when it did not).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Request id (replacements reuse the original flow's id).
    pub id: RequestId,
    /// Requested chain (index into the chain catalog).
    pub chain: usize,
    /// Ingress site (index into the node list).
    pub source: usize,
    /// Instant the placement request was made.
    pub requested_ms: u64,
    /// Instant a placement was found (admission), if any.
    pub placed_ms: Option<u64>,
    /// Instant traffic started flowing (same event as placement in this
    /// engine — kept separate so the funnel schema is explicit).
    pub active_ms: Option<u64>,
    /// Instant the flow left the system (departure or disruption).
    pub torn_down_ms: Option<u64>,
    /// End-to-end latency of the admitted placement (ms); 0 if never
    /// placed.
    pub admission_latency_ms: f64,
    /// `true` for the retry record of a disrupted flow.
    pub is_replacement: bool,
    /// Terminal state; `None` while the flow is still in flight.
    pub outcome: Option<FlowOutcome>,
}

impl FlowRecord {
    /// `true` if every timestamp the flow reached respects the funnel
    /// order `requested <= placed <= active <= torn_down`.
    pub fn funnel_ordered(&self) -> bool {
        let mut prev = self.requested_ms;
        for stage in [self.placed_ms, self.active_ms, self.torn_down_ms]
            .into_iter()
            .flatten()
        {
            if stage < prev {
                return false;
            }
            prev = stage;
        }
        true
    }
}

/// A rolling point-in-time view of the system, one per billed slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSnapshot {
    /// Instant the snapshot was taken (end of the billed slot).
    pub at_ms: u64,
    /// The billed slot's index.
    pub slot: u64,
    /// Requests that arrived during the slot.
    pub arrivals: u32,
    /// Requests accepted during the slot.
    pub accepted: u32,
    /// Requests rejected during the slot.
    pub rejected: u32,
    /// Flows active at slot end.
    pub active_flows: u32,
    /// Live VNF instances at slot end.
    pub live_instances: u32,
    /// Mean dominant node utilization at slot end.
    pub mean_utilization: f64,
    /// Total operational cost of the slot (USD).
    pub slot_cost_usd: f64,
    /// Nodes down at slot end.
    pub nodes_down: u32,
}

/// A fixed-capacity ring: pushes beyond capacity evict the oldest entry
/// and count it as dropped. Iteration is oldest → newest.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    capacity: usize,
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// Creates a ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs capacity >= 1");
        Self {
            capacity,
            items: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Appends `item`, evicting the oldest entry when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items evicted to make room so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Count / sum / min / max of a stream of values — the O(1)-memory
/// aggregate the sink keeps where a `Vec` would grow with the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingStat {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl StreamingStat {
    /// Folds one observation in.
    pub fn push(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Observations folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Lifetime funnel and abandonment-reason counters, each O(1) memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTotals {
    /// Placement requests observed (original arrivals).
    pub requested: u64,
    /// Replacement attempts observed (after disruptions).
    pub replacements_requested: u64,
    /// Requests that reached the placed/active stage.
    pub placed: u64,
    /// Flows that reached the torn-down stage (departed or disrupted).
    pub torn_down: u64,
    /// Flows closed as [`FlowOutcome::Completed`].
    pub completed: u64,
    /// Flows closed as [`FlowOutcome::Rejected`].
    pub rejected: u64,
    /// Flows closed as [`FlowOutcome::Disrupted`].
    pub disrupted: u64,
    /// Flows closed as [`FlowOutcome::ReplacementRejected`].
    pub replacement_rejected: u64,
}

impl FlowTotals {
    /// All closed records.
    pub fn closed(&self) -> u64 {
        self.completed + self.rejected + self.disrupted + self.replacement_rejected
    }
}

/// Streaming observer of a simulation run: per-flow lifecycle records
/// with funnel-ordered timestamps, abandonment-reason breakdowns and a
/// rolling snapshot ring, all in memory independent of trace length.
///
/// Attach one via `RunOptions::with_telemetry` (or call the `on_*`
/// hooks directly when driving a custom engine). Purely observational:
/// a run with a sink attached is bit-identical to one without.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    open: IdMap<FlowRecord>,
    flows: RingBuffer<FlowRecord>,
    snapshots: RingBuffer<SimSnapshot>,
    totals: FlowTotals,
    admission_latency: StreamingStat,
    lifetime_ms: StreamingStat,
}

impl Default for TelemetrySink {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetrySink {
    /// Default ring capacities: 1024 flow records, 256 snapshots.
    pub fn new() -> Self {
        Self::with_capacity(1024, 256)
    }

    /// A sink retaining the last `flow_capacity` closed flow records
    /// and the last `snapshot_capacity` slot snapshots.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is 0.
    pub fn with_capacity(flow_capacity: usize, snapshot_capacity: usize) -> Self {
        Self {
            open: IdMap::new(),
            flows: RingBuffer::new(flow_capacity),
            snapshots: RingBuffer::new(snapshot_capacity),
            totals: FlowTotals::default(),
            admission_latency: StreamingStat::default(),
            lifetime_ms: StreamingStat::default(),
        }
    }

    // ------------------------------------------------------------------
    // Engine hooks
    // ------------------------------------------------------------------

    /// A placement request was made at `at_ms` (`replacement` marks the
    /// retry of a disrupted flow). Opens the flow's lifecycle record.
    pub fn on_requested(&mut self, at_ms: u64, request: &Request, replacement: bool) {
        if replacement {
            self.totals.replacements_requested += 1;
        } else {
            self.totals.requested += 1;
        }
        self.open.insert(
            request.id.0,
            FlowRecord {
                id: request.id,
                chain: request.chain.0,
                source: request.source.0,
                requested_ms: at_ms,
                placed_ms: None,
                active_ms: None,
                torn_down_ms: None,
                admission_latency_ms: 0.0,
                is_replacement: replacement,
                outcome: None,
            },
        );
    }

    /// The flow was admitted at `at_ms` with end-to-end latency
    /// `latency_ms`. Marks both the placed and active stages (the event
    /// engine activates flows the instant they are placed).
    pub fn on_admitted(&mut self, id: RequestId, at_ms: u64, latency_ms: f64) {
        self.totals.placed += 1;
        self.admission_latency.push(latency_ms);
        if let Some(rec) = self.open.get_mut(id.0) {
            rec.placed_ms = Some(at_ms);
            rec.active_ms = Some(at_ms);
            rec.admission_latency_ms = latency_ms;
        }
    }

    /// The flow was refused admission at `at_ms`. Closes its record as
    /// [`FlowOutcome::Rejected`] (or `ReplacementRejected` for the
    /// retry of a disrupted flow).
    pub fn on_rejected(&mut self, id: RequestId, at_ms: u64) {
        let outcome = match self.open.get(id.0) {
            Some(rec) if rec.is_replacement => FlowOutcome::ReplacementRejected,
            _ => FlowOutcome::Rejected,
        };
        self.close(id, at_ms, outcome, false);
    }

    /// The flow departed naturally at `at_ms`. Closes its record as
    /// [`FlowOutcome::Completed`].
    pub fn on_completed(&mut self, id: RequestId, at_ms: u64) {
        self.close(id, at_ms, FlowOutcome::Completed, true);
    }

    /// The flow was torn down by a node failure at `at_ms`. Closes its
    /// record as [`FlowOutcome::Disrupted`]; a replacement attempt, if
    /// made, opens a fresh record via
    /// [`on_requested`](Self::on_requested) with `replacement = true`.
    pub fn on_disrupted(&mut self, id: RequestId, at_ms: u64) {
        self.close(id, at_ms, FlowOutcome::Disrupted, true);
    }

    /// A slot was billed: folds the record into the rolling snapshot
    /// ring. `slot_ms` converts the slot index to an instant.
    pub fn on_slot_billed(&mut self, record: &SlotRecord, slot_ms: u64) {
        self.snapshots.push(SimSnapshot {
            at_ms: (record.slot + 1).saturating_mul(slot_ms),
            slot: record.slot,
            arrivals: record.arrivals,
            accepted: record.accepted,
            rejected: record.rejected,
            active_flows: record.active_flows,
            live_instances: record.live_instances,
            mean_utilization: record.mean_utilization,
            slot_cost_usd: record.total_cost(),
            nodes_down: record.nodes_down,
        });
    }

    fn close(&mut self, id: RequestId, at_ms: u64, outcome: FlowOutcome, torn_down: bool) {
        let Some(mut rec) = self.open.remove(id.0) else {
            return; // unknown flow (e.g. sink attached mid-run) — ignore
        };
        if torn_down {
            rec.torn_down_ms = Some(at_ms);
            self.totals.torn_down += 1;
        }
        rec.outcome = Some(outcome);
        debug_assert!(
            rec.funnel_ordered(),
            "funnel order violated for {}: {rec:?}",
            rec.id
        );
        match outcome {
            FlowOutcome::Completed => {
                self.totals.completed += 1;
                if let Some(active) = rec.active_ms {
                    self.lifetime_ms.push((at_ms - active) as f64);
                }
            }
            FlowOutcome::Rejected => self.totals.rejected += 1,
            FlowOutcome::Disrupted => self.totals.disrupted += 1,
            FlowOutcome::ReplacementRejected => self.totals.replacement_rejected += 1,
        }
        self.flows.push(rec);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Funnel and abandonment-reason counters.
    pub fn totals(&self) -> &FlowTotals {
        &self.totals
    }

    /// Streaming admission-latency aggregate over all placed flows.
    pub fn admission_latency(&self) -> &StreamingStat {
        &self.admission_latency
    }

    /// Streaming active-lifetime aggregate over all completed flows.
    pub fn lifetime_ms(&self) -> &StreamingStat {
        &self.lifetime_ms
    }

    /// Flows still in flight (records opened but not closed).
    pub fn open_flows(&self) -> usize {
        self.open.len()
    }

    /// The ids of the flows still in flight, ascending.
    pub fn open_flow_ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.open.iter().map(|(id, _)| RequestId(id))
    }

    /// The retained tail of closed flow records, oldest first.
    pub fn recent_flows(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.iter()
    }

    /// Closed records evicted from the ring so far (they remain counted
    /// in [`totals`](Self::totals)).
    pub fn dropped_flow_records(&self) -> u64 {
        self.flows.dropped()
    }

    /// The rolling per-slot snapshots, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &SimSnapshot> {
        self.snapshots.iter()
    }

    /// Snapshots evicted from the ring so far.
    pub fn dropped_snapshots(&self) -> u64 {
        self.snapshots.dropped()
    }

    // ------------------------------------------------------------------
    // Export
    // ------------------------------------------------------------------

    /// The retained flow records as columnar CSV (header + one line per
    /// record; `None` stages are empty cells).
    pub fn flows_csv(&self) -> String {
        let mut out = String::from(
            "flow_id,chain,source,is_replacement,requested_ms,placed_ms,active_ms,torn_down_ms,admission_latency_ms,outcome\n",
        );
        let opt = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_default();
        for r in self.flows.iter() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.3},{}\n",
                r.id.0,
                r.chain,
                r.source,
                r.is_replacement as u8,
                r.requested_ms,
                opt(r.placed_ms),
                opt(r.active_ms),
                opt(r.torn_down_ms),
                r.admission_latency_ms,
                r.outcome.map(|o| o.label()).unwrap_or("in_flight"),
            ));
        }
        out
    }

    /// The retained snapshots as columnar CSV.
    pub fn snapshots_csv(&self) -> String {
        let mut out = String::from(
            "at_ms,slot,arrivals,accepted,rejected,active_flows,live_instances,mean_utilization,slot_cost_usd,nodes_down\n",
        );
        for s in self.snapshots.iter() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.6},{:.6},{}\n",
                s.at_ms,
                s.slot,
                s.arrivals,
                s.accepted,
                s.rejected,
                s.active_flows,
                s.live_instances,
                s.mean_utilization,
                s.slot_cost_usd,
                s.nodes_down,
            ));
        }
        out
    }

    /// The streaming aggregates (never the rings) as a JSON object for
    /// embedding in `BENCH_*` reports — O(1) size in trace length.
    pub fn to_json(&self) -> Value {
        let stat = |s: &StreamingStat| {
            let mut m = Map::new();
            m.insert("count", Value::Number(s.count() as f64));
            m.insert("mean", Value::Number(s.mean()));
            m.insert("min", Value::Number(s.min()));
            m.insert("max", Value::Number(s.max()));
            Value::Object(m)
        };
        let mut funnel = Map::new();
        funnel.insert("requested", Value::Number(self.totals.requested as f64));
        funnel.insert(
            "replacements_requested",
            Value::Number(self.totals.replacements_requested as f64),
        );
        funnel.insert("placed", Value::Number(self.totals.placed as f64));
        funnel.insert("torn_down", Value::Number(self.totals.torn_down as f64));
        let mut outcomes = Map::new();
        outcomes.insert("completed", Value::Number(self.totals.completed as f64));
        outcomes.insert("rejected", Value::Number(self.totals.rejected as f64));
        outcomes.insert("disrupted", Value::Number(self.totals.disrupted as f64));
        outcomes.insert(
            "replacement_rejected",
            Value::Number(self.totals.replacement_rejected as f64),
        );
        let mut root = Map::new();
        root.insert("funnel", Value::Object(funnel));
        root.insert("outcomes", Value::Object(outcomes));
        root.insert("admission_latency_ms", stat(&self.admission_latency));
        root.insert("lifetime_ms", stat(&self.lifetime_ms));
        root.insert("open_flows", Value::Number(self.open.len() as f64));
        root.insert(
            "retained_flow_records",
            Value::Number(self.flows.len() as f64),
        );
        root.insert(
            "dropped_flow_records",
            Value::Number(self.flows.dropped() as f64),
        );
        root.insert(
            "retained_snapshots",
            Value::Number(self.snapshots.len() as f64),
        );
        root.insert(
            "dropped_snapshots",
            Value::Number(self.snapshots.dropped() as f64),
        );
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenet::node::NodeId;
    use sfc::chain::ChainId;

    fn request(id: u64) -> Request {
        Request::new(RequestId(id), ChainId(0), NodeId(1), 0, 2)
    }

    fn sink() -> TelemetrySink {
        TelemetrySink::new()
    }

    #[test]
    fn completed_flow_walks_the_funnel() {
        let mut t = sink();
        t.on_requested(100, &request(7), false);
        assert_eq!(t.open_flows(), 1);
        t.on_admitted(RequestId(7), 100, 12.5);
        t.on_completed(RequestId(7), 5_100);
        assert_eq!(t.open_flows(), 0);
        let rec = t.recent_flows().next().expect("one record");
        assert_eq!(rec.requested_ms, 100);
        assert_eq!(rec.placed_ms, Some(100));
        assert_eq!(rec.active_ms, Some(100));
        assert_eq!(rec.torn_down_ms, Some(5_100));
        assert!(rec.funnel_ordered());
        assert_eq!(rec.outcome, Some(FlowOutcome::Completed));
        assert_eq!(t.totals().completed, 1);
        assert_eq!(t.totals().placed, 1);
        assert!((t.lifetime_ms().mean() - 5_000.0).abs() < 1e-9);
        assert!((t.admission_latency().mean() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn rejection_and_replacement_breakdowns() {
        let mut t = sink();
        t.on_requested(0, &request(1), false);
        t.on_rejected(RequestId(1), 0);
        t.on_requested(50, &request(2), true);
        t.on_rejected(RequestId(2), 50);
        assert_eq!(t.totals().rejected, 1);
        assert_eq!(t.totals().replacement_rejected, 1);
        assert_eq!(t.totals().requested, 1);
        assert_eq!(t.totals().replacements_requested, 1);
        assert_eq!(t.totals().torn_down, 0, "rejected flows never activate");
        let outcomes: Vec<_> = t.recent_flows().map(|r| r.outcome.unwrap()).collect();
        assert_eq!(
            outcomes,
            vec![FlowOutcome::Rejected, FlowOutcome::ReplacementRejected]
        );
    }

    #[test]
    fn disruption_closes_then_replacement_reopens() {
        let mut t = sink();
        t.on_requested(0, &request(3), false);
        t.on_admitted(RequestId(3), 0, 5.0);
        t.on_disrupted(RequestId(3), 1_000);
        t.on_requested(1_000, &request(3), true);
        t.on_admitted(RequestId(3), 1_000, 6.0);
        t.on_completed(RequestId(3), 3_000);
        assert_eq!(t.totals().disrupted, 1);
        assert_eq!(t.totals().completed, 1);
        assert_eq!(t.totals().placed, 2);
        let recs: Vec<_> = t.recent_flows().collect();
        assert_eq!(recs.len(), 2);
        assert!(!recs[0].is_replacement);
        assert!(recs[1].is_replacement);
        assert!((t.lifetime_ms().mean() - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = TelemetrySink::with_capacity(2, 1);
        for i in 0..5u64 {
            t.on_requested(i, &request(i), false);
            t.on_rejected(RequestId(i), i);
        }
        assert_eq!(t.dropped_flow_records(), 3);
        let ids: Vec<u64> = t.recent_flows().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![3, 4], "ring keeps the newest records");
        assert_eq!(t.totals().rejected, 5, "totals keep counting past drops");
    }

    #[test]
    fn unknown_flow_events_are_ignored() {
        let mut t = sink();
        t.on_admitted(RequestId(99), 0, 1.0);
        t.on_completed(RequestId(99), 10);
        t.on_disrupted(RequestId(99), 10);
        assert_eq!(t.totals().closed(), 0);
        assert_eq!(t.totals().placed, 1, "placement counter is event-driven");
        assert!(t.recent_flows().next().is_none());
    }

    #[test]
    fn csv_shapes() {
        let mut t = sink();
        t.on_requested(0, &request(1), false);
        t.on_admitted(RequestId(1), 0, 3.0);
        t.on_completed(RequestId(1), 500);
        let csv = t.flows_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("flow_id,chain,source"));
        assert!(lines[1].starts_with("1,0,1,0,0,0,0,500,3.000,completed"));

        let rec = SlotRecord {
            slot: 3,
            arrivals: 2,
            accepted: 1,
            rejected: 1,
            sla_violations: 0,
            active_flows: 1,
            live_instances: 2,
            mean_latency_ms: 4.0,
            compute_cost: 1.0,
            energy_cost: 0.5,
            traffic_cost: 0.25,
            deployment_cost: 0.25,
            mean_utilization: 0.4,
            flows_disrupted: 0,
            flows_replaced: 0,
            nodes_down: 0,
        };
        t.on_slot_billed(&rec, 5_000);
        let snap = t.snapshots().next().expect("one snapshot");
        assert_eq!(snap.at_ms, 20_000);
        assert_eq!(snap.slot, 3);
        assert!((snap.slot_cost_usd - 2.0).abs() < 1e-9);
        let scsv = t.snapshots_csv();
        assert_eq!(scsv.lines().count(), 2);
        assert!(scsv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("20000,3,2,1,1,1,2,"));
    }

    #[test]
    fn json_export_is_constant_size() {
        let mut t = TelemetrySink::with_capacity(4, 2);
        for i in 0..100u64 {
            t.on_requested(i, &request(i), false);
            t.on_admitted(RequestId(i), i, 1.0);
            t.on_completed(RequestId(i), i + 10);
        }
        let v = t.to_json();
        assert_eq!(
            v.get("funnel")
                .and_then(|f| f.get("requested"))
                .and_then(Value::as_u64),
            Some(100)
        );
        assert_eq!(
            v.get("outcomes")
                .and_then(|o| o.get("completed"))
                .and_then(Value::as_u64),
            Some(100)
        );
        assert_eq!(
            v.get("retained_flow_records").and_then(Value::as_u64),
            Some(4)
        );
        assert_eq!(
            v.get("dropped_flow_records").and_then(Value::as_u64),
            Some(96)
        );
        // The export carries aggregates only — its size does not scale
        // with the 100 flows pushed through.
        assert!(serde_json::to_string(&v).len() < 1024);
    }
}
