//! The metric names and units this benchmark emits. `BENCHMARK.json`
//! declares the same names; `tests/smoke.rs` fails when the two differ.

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("requests_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("peak_heap_bytes", "bytes"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced pass. Every workload emits every name;
/// a layer that does no work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("workload.gen_ns_per_request", "ns"),
    ("workload.requests", "count"),
    ("sim.drive_s", "s"),
    ("sim.self_s", "s"),
    ("sim.self_share", "ratio"),
    ("sim.events", "count"),
    ("sim.events_per_request", "ratio"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.new_us", "us"),
    ("sim.candidates_ns", "ns"),
    ("sim.context_ns", "ns"),
    ("state.encode_ns", "ns"),
    ("policy.decide_s", "s"),
    ("policy.decides", "count"),
    ("policy.decide_ns", "ns"),
    ("policy.batch_s", "s"),
    ("policy.batches", "count"),
    ("policy.rows_per_batch", "ratio"),
    ("policy.observe_s", "s"),
    ("policy.observes", "count"),
    ("policy.share", "ratio"),
    ("rl.act_greedy_ns", "ns"),
    ("rl.act_batch16_ns_per_row", "ns"),
    ("rl.act_batch128_ns_per_row", "ns"),
    ("rl.learn_us", "us"),
    ("rl.learn_steps", "count"),
    ("rl.env_steps", "count"),
    ("nn.forward1_ns", "ns"),
    ("nn.forward128_ns_per_row", "ns"),
    ("nn.fwd_bwd32_us", "us"),
    ("nn.flops_per_row", "count"),
    ("nn.bytes_per_row", "bytes"),
    ("nn.gflops_1", "gflop/s"),
    ("nn.gflops_128", "gflop/s"),
    ("serve.waves", "count"),
    ("serve.ticks", "count"),
    ("serve.rows_per_wave", "ratio"),
    ("serve.rows_per_tick_mean", "ratio"),
    ("serve.rows_per_tick_max", "count"),
    ("serve.forward_s", "s"),
    ("serve.busy_share", "ratio"),
    ("serve.overhead_us_per_wave", "us"),
    ("serve.wave_latency_p50_us", "us"),
    ("serve.wave_latency_p99_us", "us"),
    ("serve.inproc_decisions_per_s", "1/s"),
    ("exper.cells", "count"),
    ("exper.run1_s", "s"),
    ("exper.cell_ms_p50", "ms"),
    ("exper.cell_ms_max", "ms"),
    ("exper.runN_s", "s"),
    ("exper.parallel_efficiency", "ratio"),
    ("sweep.plan_us", "us"),
    ("sweep.fragment_write_ms", "ms"),
    ("sweep.fragment_load_ms", "ms"),
    ("sweep.merge_ms", "ms"),
    ("sweep.fragment_bytes", "bytes"),
    ("report.canonical_json_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("layers.sum_share", "ratio"),
];

/// Values for the names of one table, in table order.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// No value set yet for any name of `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such name, or the value is not finite:
    /// either is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values[i] = Some(value);
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.table.iter().position(|(n, _)| *n == name)?;
        self.values[i]
    }

    /// `(name, unit, value)` for every name of the table; a name never
    /// set reads 0 (the layer did no work on this workload).
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| (*name, *unit, v.unwrap_or(0.0)))
    }
}
