//! # mano — DRL-based VNF management in geo-distributed edge computing
//!
//! The paper's primary contribution, reproduced end to end: online VNF
//! placement, instance scaling (spawn/reuse/retire) and request admission
//! for service function chains across geo-distributed edge nodes and a
//! remote cloud, driven by a deep Q-network.
//!
//! * **MDP formulation** — [`state`] (observation encoding), [`action`]
//!   (place-on-node / reject with feasibility masks), [`reward`]
//!   (α·latency + β·cost shaping with acceptance bonuses).
//! * **Engine** — [`sim`] drives the flow lifecycle over a discrete-event
//!   [`timeline`]: arrivals → per-VNF placement decisions → departures →
//!   prorated cost accounting, which on slot-boundary input reproduces
//!   the paper's slotted loop bit for bit. DRL and heuristics run through
//!   the identical code path.
//! * **Managers** — [`drl`] (the DQN policy) and [`baselines`] (random,
//!   first/best/worst-fit, greedy-latency, greedy-cost, cloud-only,
//!   weighted-greedy, exhaustive).
//! * **Harness support** — [`runner`] (training/evaluation),
//!   [`metrics`]/[`report`] (summaries, CSV, markdown).
//!
//! # Examples
//!
//! ```
//! use mano::prelude::*;
//!
//! // Evaluate two heuristics on an identical 4-site workload.
//! let scenario = Scenario::small_test();
//! let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
//!     Box::new(FirstFitPolicy),
//!     Box::new(GreedyLatencyPolicy),
//! ];
//! let results = compare_policies(&scenario, RewardConfig::default(), &mut policies, 0);
//! assert_eq!(results.len(), 2);
//! println!("{}", markdown_comparison(&results));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod action;
pub mod baselines;
pub mod config;
pub mod drl;
pub mod metrics;
pub mod pg;
pub mod policy;
pub mod report;
pub mod reward;
pub mod runner;
pub mod sim;
pub mod state;
pub mod telemetry;
pub mod timeline;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::action::{ActionSpace, PlacementAction};
    pub use crate::baselines::{
        baseline, roster, standard_baselines, BestFitPolicy, CloudOnlyPolicy, ExhaustivePolicy,
        FirstFitPolicy, GreedyCostPolicy, GreedyLatencyPolicy, RandomPolicy, WeightedGreedyPolicy,
        WorstFitPolicy,
    };
    pub use crate::config::{EventSchedule, FailureModel, Scenario, TimedEvent, TopologySpec};
    pub use crate::drl::{DrlManagerConfig, DrlPolicy};
    pub use crate::metrics::{
        aggregate_summaries, MetricStats, MetricsCollector, RunSummary, SlotRecord,
        SummaryAggregate, SUMMARY_METRICS,
    };
    pub use crate::pg::{train_pg, PgManagerConfig, PgPolicy};
    pub use crate::policy::{CandidateInfo, DecisionContext, DecisionFeedback, PlacementPolicy};
    pub use crate::report::{
        aggregate_csv_header, aggregate_csv_row, group_aggregates, load_bench_report,
        load_search_report, markdown_aggregate_comparison, markdown_comparison, slot_csv_header,
        slot_csv_row, summary_csv_header, summary_csv_row, summary_json, write_lines,
        BenchAggregate, BenchCell, BenchReport, SearchCandidate, SearchPointReport, SearchReport,
        BENCH_SCHEMA_VERSION, SEARCH_SCHEMA_VERSION,
    };
    pub use crate::reward::{RewardConfig, INFEASIBLE_LATENCY_MS};
    pub use crate::runner::{
        compare_policies, evaluate_policy, evaluate_policy_with_catalogs,
        evaluate_policy_with_semantics, moving_average, train_drl, train_drl_with_catalogs,
        PolicyResult, Trained, TrainedDrl,
    };
    pub use crate::sim::{
        DecisionSemantics, MetricsMode, PlacementOutcome, RunInput, RunOptions, Simulation,
        TimedArrival,
    };
    pub use crate::state::{StateEncoder, StateEncoderConfig};
    pub use crate::telemetry::{
        FlowOutcome, FlowRecord, FlowTotals, RingBuffer, SimSnapshot, StreamingStat, TelemetrySink,
    };
    pub use crate::timeline::{EventQueue, SimEvent, SimEventKind, SimTime};
    pub use serde_json::FromJson;
}
