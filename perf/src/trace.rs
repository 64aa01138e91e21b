//! Spans recorded from outside the program: wrappers at the crates'
//! public boundaries log `(name, start, end)` leaves while a run is in
//! flight, and the workload stitches them under the run's own spans
//! afterwards. Kept in memory; written once when the benchmark ends.

use drl_vnf_edge::nn::tensor::Matrix;
use drl_vnf_edge::prelude::*;
use rand::rngs::StdRng;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one timeline for
/// every thread's spans.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One simulation run as its caller sees it: build, drive, summarise.
    Run,
    /// `Simulation::new`.
    SimNew,
    /// `Simulation::drive`.
    SimDrive,
    /// `PlacementPolicy::decide`.
    PolicyDecide,
    /// `PlacementPolicy::greedy_batch` (client side: one served wave).
    PolicyBatch,
    /// `PlacementPolicy::observe` of a learning policy.
    PolicyObserve,
    /// `Iterator::next` on the arrival stream.
    WorkloadNext,
    /// `greedy_batch` on the policy-server thread: one fused tick.
    ServeForward,
}

impl SpanName {
    const ALL: [SpanName; 8] = [
        SpanName::Run,
        SpanName::SimNew,
        SpanName::SimDrive,
        SpanName::PolicyDecide,
        SpanName::PolicyBatch,
        SpanName::PolicyObserve,
        SpanName::WorkloadNext,
        SpanName::ServeForward,
    ];

    /// The name written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Run => "run",
            SpanName::SimNew => "sim.new",
            SpanName::SimDrive => "sim.drive",
            SpanName::PolicyDecide => "policy.decide",
            SpanName::PolicyBatch => "policy.greedy_batch",
            SpanName::PolicyObserve => "policy.observe",
            SpanName::WorkloadNext => "workload.next",
            SpanName::ServeForward => "serve.forward",
        }
    }
}

/// A completed span logged by a wrapper, not yet placed in a tree.
#[derive(Debug, Clone, Copy)]
pub struct Leaf {
    /// Which boundary.
    pub name: SpanName,
    /// Start on the [`now_ns`] timeline.
    pub start_ns: u64,
    /// End on the [`now_ns`] timeline.
    pub end_ns: u64,
    /// Rows answered (batched calls), else 1.
    pub rows: u32,
}

/// A span in a trace.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which boundary.
    pub name: SpanName,
    /// Start on the [`now_ns`] timeline.
    pub start_ns: u64,
    /// End on the [`now_ns`] timeline.
    pub end_ns: u64,
    /// Index of the span that caused this one, `None` for a root.
    pub parent: Option<u32>,
    /// The simulation run the span belongs to; spans of one run share it.
    pub run_id: u32,
    /// Rows answered (batched calls), else 1.
    pub rows: u32,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations (s).
    pub total_s: f64,
    /// Sum of durations minus what child spans cover (s).
    pub self_s: f64,
    /// Sum of rows.
    pub rows: u64,
}

/// The spans of one traced pass.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Rows a trace file holds at most (a grid sweep records a million spans).
    pub const MAX_WRITTEN: usize = 250_000;

    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: SpanName, run_id: u32, parent: Option<u32>) -> u32 {
        let now = now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run_id,
            rows: 1,
        })
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: u32) {
        self.spans[index as usize].end_ns = now_ns();
    }

    /// Adds a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Places wrapper-logged leaves under `parent` (the call they were
    /// made from).
    pub fn adopt(&mut self, parent: u32, leaves: &[Leaf]) {
        let run_id = self.spans[parent as usize].run_id;
        self.spans.extend(leaves.iter().map(|l| Span {
            name: l.name,
            start_ns: l.start_ns,
            end_ns: l.end_ns,
            parent: Some(parent),
            run_id,
            rows: l.rows,
        }));
    }

    /// Moves every span of `other` into this trace, keeping its tree.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Totals for `name`: a span's self time is its duration minus the
    /// part its child spans cover.
    pub fn totals(&self, name: SpanName) -> NameTotals {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut t = NameTotals::default();
        for (s, child_ns) in self.spans.iter().zip(&covered) {
            if s.name == name {
                let dur = s.end_ns - s.start_ns;
                t.count += 1;
                t.total_s += dur as f64 * 1e-9;
                t.self_s += dur.saturating_sub(*child_ns) as f64 * 1e-9;
                t.rows += u64::from(s.rows);
            }
        }
        t
    }

    /// Durations (s) of every span called `name`, in recording order.
    pub fn durations(&self, name: SpanName) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes the stamp and the spans as one JSON document: spans are
    /// rows of `[name, start_ns, end_ns, parent, run_id, rows]` with
    /// `name` indexing `names` and `parent` a row number or `null`. At
    /// most [`Trace::MAX_WRITTEN`] rows are written (a parent always
    /// precedes its children, so a prefix is a valid forest);
    /// `spans_recorded` says how many there were.
    pub fn write_to(
        &self,
        path: &std::path::Path,
        stamp: &serde_json::Value,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = SpanName::ALL
            .iter()
            .map(|n| format!("\"{}\"", n.label()))
            .collect();
        write!(
            out,
            "{{\"stamp\":{},\"names\":[{}],\
             \"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"run_id\",\"rows\"],\
             \"spans_recorded\":{},\"spans\":[",
            serde_json::to_string(stamp),
            names.join(","),
            self.spans.len()
        )?;
        for (i, s) in self.spans.iter().take(Self::MAX_WRITTEN).enumerate() {
            let name = SpanName::ALL
                .iter()
                .position(|n| *n == s.name)
                .expect("every name is listed");
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n[{name},{},{},{parent},{},{}]",
                s.start_ns, s.end_ns, s.run_id, s.rows
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// What a [`TracedPolicy`] leaves behind when it is dropped by code the
/// harness does not own (the policy server's thread, a grid cell).
#[derive(Debug)]
pub struct Dropped {
    /// When the wrapper was built, on the [`now_ns`] timeline.
    pub created_ns: u64,
    /// When it was dropped.
    pub dropped_ns: u64,
    /// Every call it timed in between.
    pub log: Vec<Leaf>,
}

/// Where dropped wrappers leave their logs.
pub type DropSink = Arc<Mutex<Vec<Dropped>>>;

/// A [`PlacementPolicy`] that times every call into the policy it wraps
/// and answers exactly what that policy answers.
pub struct TracedPolicy<P> {
    inner: P,
    log: Vec<Leaf>,
    observes: u64,
    created_ns: u64,
    drop_into: Option<DropSink>,
}

impl<P: PlacementPolicy> TracedPolicy<P> {
    /// Wraps `inner`; `expected_calls` sizes the log so that growing it
    /// is not what the trace measures.
    pub fn new(inner: P, expected_calls: usize) -> Self {
        Self {
            inner,
            log: Vec::with_capacity(expected_calls),
            observes: 0,
            created_ns: now_ns(),
            drop_into: None,
        }
    }

    /// Like [`TracedPolicy::new`], handing the log to `sink` on drop.
    pub fn with_sink(inner: P, expected_calls: usize, sink: DropSink) -> Self {
        let mut traced = Self::new(inner, expected_calls);
        traced.drop_into = Some(sink);
        traced
    }

    /// The leaves logged so far.
    pub fn log(&self) -> &[Leaf] {
        &self.log
    }

    /// `observe` calls delivered (timed only while the policy learns).
    pub fn observes(&self) -> u64 {
        self.observes
    }

    /// The wrapped policy, mutably.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    fn record(&mut self, name: SpanName, start_ns: u64, rows: u32) {
        self.log.push(Leaf {
            name,
            start_ns,
            end_ns: now_ns(),
            rows,
        });
    }
}

impl<P> Drop for TracedPolicy<P> {
    fn drop(&mut self) {
        if let Some(sink) = &self.drop_into {
            // A poisoned sink means the harness already failed; nothing
            // useful to add from a destructor.
            if let Ok(mut guard) = sink.lock() {
                guard.push(Dropped {
                    created_ns: self.created_ns,
                    dropped_ns: now_ns(),
                    log: std::mem::take(&mut self.log),
                });
            }
        }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for TracedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        let start = now_ns();
        let action = self.inner.decide(ctx, rng);
        self.record(SpanName::PolicyDecide, start, 1);
        action
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.observes += 1;
        // Feedback to a frozen or heuristic policy is a no-op; timing it
        // would only add clock reads to the traced run.
        if self.inner.is_learning() {
            let start = now_ns();
            self.inner.observe(feedback, rng);
            self.record(SpanName::PolicyObserve, start, 1);
        } else {
            self.inner.observe(feedback, rng);
        }
    }

    fn supports_greedy_batch(&self) -> bool {
        self.inner.supports_greedy_batch()
    }

    fn greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        let start = now_ns();
        self.inner.greedy_batch(states, masks, out);
        self.record(SpanName::PolicyBatch, start, states.rows() as u32);
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }

    fn is_learning(&self) -> bool {
        self.inner.is_learning()
    }
}

/// An arrival stream that times every `next` on the stream it wraps.
pub struct TracedStream<I> {
    inner: I,
    log: Vec<Leaf>,
}

impl<I> TracedStream<I> {
    /// Wraps `inner`; `expected_items` sizes the log.
    pub fn new(inner: I, expected_items: usize) -> Self {
        Self {
            inner,
            log: Vec::with_capacity(expected_items),
        }
    }

    /// The leaves logged so far.
    pub fn log(&self) -> &[Leaf] {
        &self.log
    }
}

impl<I: Iterator> Iterator for TracedStream<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let start_ns = now_ns();
        let item = self.inner.next();
        self.log.push(Leaf {
            name: SpanName::WorkloadNext,
            start_ns,
            end_ns: now_ns(),
            rows: 1,
        });
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run_id: 0,
            rows: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new();
        let run = t.push(span(SpanName::Run, 0, 1_000, None));
        let drive = t.push(span(SpanName::SimDrive, 100, 900, Some(run)));
        t.adopt(
            drive,
            &[
                Leaf {
                    name: SpanName::PolicyDecide,
                    start_ns: 200,
                    end_ns: 300,
                    rows: 1,
                },
                Leaf {
                    name: SpanName::PolicyDecide,
                    start_ns: 400,
                    end_ns: 600,
                    rows: 1,
                },
            ],
        );
        let d = t.totals(SpanName::SimDrive);
        assert_eq!(d.count, 1);
        assert!((d.total_s - 800e-9).abs() < 1e-15);
        assert!((d.self_s - 500e-9).abs() < 1e-15);
        let p = t.totals(SpanName::PolicyDecide);
        assert_eq!((p.count, p.rows), (2, 2));
        assert!((p.self_s - 300e-9).abs() < 1e-15);
        assert!((t.totals(SpanName::Run).self_s - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn absorb_keeps_the_tree() {
        let mut a = Trace::new();
        a.push(span(SpanName::Run, 0, 10, None));
        let mut b = Trace::new();
        let root = b.push(span(SpanName::Run, 0, 10, None));
        b.push(span(SpanName::SimDrive, 2, 8, Some(root)));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert!((a.totals(SpanName::Run).self_s - 14e-9).abs() < 1e-15);
    }
}
