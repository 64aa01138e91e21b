//! The simulation engine: arrivals → placement decisions → flow
//! lifecycle → cost accounting, driven by a discrete-event timeline.
//!
//! One *placement episode* = all decisions for one request (one per VNF in
//! its chain, or a reject). The engine builds the decision context, asks
//! the policy, applies the action (instance reuse, or a spawn that the
//! pool counts against its node's capacity), shapes the reward, and
//! delivers feedback — so DRL and heuristic policies are driven through
//! exactly the same code path.
//!
//! One engine drives the lifecycle, and one reference checks it:
//!
//! * the **event engine** ([`Simulation::drive`]): arrivals come from the
//!   run's input in time order and are merged with a deterministic
//!   [`crate::timeline::EventQueue`] holding what the engine cannot know
//!   in advance (departures, network events, retire checks); each
//!   arrival is decided where it is handled. Completed slots are billed
//!   lazily, so a mostly-idle trace costs ~O(events), not O(slots) of
//!   work. Billing is prorated: a flow owes each slot the fraction of it
//!   the flow was active for (sub-slot lifetimes, `Request::duration_ms`,
//!   and mid-slot arrivals bill what they used). On slot-boundary input
//!   every fraction is 1.0 and the run is bit-identical to the slot loop
//!   (pinned by `tests/event_slot_equivalence.rs`).
//! * the **slot loop** ([`Simulation::advance_slot`] /
//!   [`Simulation::drive_slotted`]): the paper's original fixed-slot
//!   sweep, kept as the reference the engine is compared against and for
//!   step-by-step tests.
//!
//! Both keep one clock, the queue's: every admission schedules its
//! departure there, and the slot loop takes the departures due by each
//! slot's start off the queue before it sweeps. So `drive`,
//! `drive_slotted`, `advance_slot` and `place_request` may follow one
//! another in any order on one simulation.

use crate::action::{ActionSpace, PlacementAction};
use crate::config::Scenario;
use crate::metrics::{MetricsCollector, RunSummary, SlotRecord};
use crate::policy::{CandidateInfo, DecisionContext, DecisionFeedback, PlacementPolicy};
use crate::reward::{RewardConfig, INFEASIBLE_LATENCY_MS};
use crate::state::StateEncoder;
use crate::telemetry::TelemetrySink;
use crate::timeline::{EventQueue, SimEvent, SimEventKind, SimTime};
use edgenet::capacity::CapacityLedger;
use edgenet::node::{NodeId, Resources};
use edgenet::routing::RoutingTable;
use edgenet::topology::Topology;
use edgenet::view::{NetworkEvent, NetworkView};
use nn::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc::chain::{ChainCatalog, ChainSpec};
use sfc::delay::{admits_load, mm1_sojourn_ms};
use sfc::idmap::IdMap;
use sfc::instance::{Instance, InstanceId, InstancePool};
use sfc::placement::{assignment_latency, ChainAssignment};
use sfc::request::{Request, RequestId};
use sfc::vnf::{VnfCatalog, VnfType};
use std::collections::{BTreeMap, BTreeSet};
use workload::metro::TimedRequest;
use workload::trace::{generate_trace, Trace};

mod billing;
mod drive;
mod invariants;
mod network;
mod note;
mod oracle;
mod placement;
mod snapshot;
#[cfg(test)]
mod tests;

use invariants::InvariantScratch;
use note::Note;
use snapshot::GroupPlans;

/// Outcome of one request's placement episode.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementOutcome {
    /// The whole chain was placed.
    Accepted {
        /// End-to-end latency at admission (ms).
        latency_ms: f64,
        /// Whether the latency exceeded the chain's SLA budget.
        sla_violated: bool,
    },
    /// The request was rejected (by choice or by infeasibility).
    Rejected,
}

/// How run metrics are retained by [`Simulation::drive`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// Keep whatever retention the collector has (full per-slot records and
    /// per-admission latencies unless a previous run enabled streaming).
    #[default]
    Full,
    /// Keep only O(1)-memory aggregates (`RunSummary` percentiles come
    /// from a log-spaced histogram, ≈2% relative error). Once enabled the
    /// collector stays streaming; on a collector holding full records
    /// from earlier runs, their latencies fold into the histogram and the
    /// records are dropped.
    Streaming,
}

/// How a slot's (or a same-timestamp group's) arrivals are decided by
/// [`Simulation::drive`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DecisionSemantics {
    /// The paper's sequential loop (the default): each decision sees
    /// every earlier placement of the same group, so every decision is
    /// its own `decide` call — `greedy_batch` is never used here.
    #[default]
    Sequential,
    /// Snapshot-commit: all of a group's decisions are planned against
    /// the FROZEN group-start world — chain positions advance as
    /// wavefronts, each answered by one fused `greedy_batch` forward —
    /// and then applied jointly in arrival order. Capacity conflicts
    /// (a later arrival planned onto capacity an earlier one consumed)
    /// fall back to rejection deterministically. Decision trajectories
    /// (and thus summaries) legitimately differ from `Sequential`; a
    /// given run stays bit-identical across engines, reruns and thread
    /// counts.
    SlotSnapshot,
}

/// Options for [`Simulation::drive`] — the one knob set selecting
/// metrics retention, decision semantics, seeding, horizon and
/// telemetry (not billing: that is prorated, whatever the input).
///
/// ```
/// # use mano::prelude::*;
/// let mut sim = Simulation::new(&Scenario::small_test(), RewardConfig::default());
/// let mut policy = FirstFitPolicy;
/// let summary = sim.drive(RunInput::Generated, &mut policy, RunOptions::new());
/// assert_eq!(summary.slots, sim.scenario().horizon_slots);
/// ```
#[derive(Debug, Default)]
pub struct RunOptions<'t> {
    /// Full vs streaming metrics retention.
    pub metrics: MetricsMode,
    /// Sequential vs slot-snapshot decision semantics.
    pub semantics: DecisionSemantics,
    /// Decorrelates repeated runs (training passes) of one scenario.
    pub seed_offset: u64,
    /// Horizon in slots; defaults to the trace's own horizon for
    /// `Generated`/`Trace` input and the scenario's for the rest.
    pub horizon_slots: Option<u64>,
    /// Observer receiving per-flow lifecycle and per-slot snapshot
    /// hooks. Purely observational: the `RunSummary` is bit-identical
    /// with or without a sink.
    pub telemetry: Option<&'t mut TelemetrySink>,
}

impl<'t> RunOptions<'t> {
    /// The defaults: full metrics, sequential decisions, seed offset 0,
    /// input-derived horizon, no telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does nothing: billing is always prorated. Kept only because the
    /// `perf/` benchmark calls it; it goes with the next benchmark PR.
    pub fn sparse(self) -> Self {
        self
    }

    /// Selects streaming metrics retention ([`MetricsMode::Streaming`]).
    pub fn with_streaming_metrics(mut self) -> Self {
        self.metrics = MetricsMode::Streaming;
        self
    }

    /// Sets the decision semantics for the run.
    pub fn with_semantics(mut self, semantics: DecisionSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Selects snapshot-commit decisions
    /// ([`DecisionSemantics::SlotSnapshot`]).
    pub fn snapshot(self) -> Self {
        self.with_semantics(DecisionSemantics::SlotSnapshot)
    }

    /// Sets the seed offset decorrelating repeated runs.
    pub fn with_seed_offset(mut self, seed_offset: u64) -> Self {
        self.seed_offset = seed_offset;
        self
    }

    /// Overrides the horizon (in slots).
    pub fn with_horizon(mut self, horizon_slots: u64) -> Self {
        self.horizon_slots = Some(horizon_slots);
        self
    }

    /// Attaches a telemetry sink for the run.
    pub fn with_telemetry(mut self, sink: &'t mut TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }
}

/// The workload input of one [`Simulation::drive`] call. Every variant
/// reaches the engine the same way: as arrivals in time order, taken one
/// timestamp's group at a time as simulation time reaches them — no
/// input is copied into the event queue.
pub enum RunInput<'a> {
    /// Generate the scenario's own trace from its seed and workload.
    Generated,
    /// A pre-generated slot-resolution trace. Requests out of slot order
    /// are taken in slot order, same-slot requests in the order given.
    Trace(&'a Trace),
    /// An explicit ms-resolution arrival schedule. Need not be sorted:
    /// arrivals are taken in time order, same-instant ones in the order
    /// given.
    Events(&'a [TimedArrival]),
    /// A lazily generated ms-resolution arrival stream, pulled as
    /// simulation time advances. Must yield arrivals in non-decreasing
    /// time order (checked).
    Stream(&'a mut dyn Iterator<Item = TimedArrival>),
}

/// A flow currently being served.
#[derive(Debug, Clone)]
struct ActiveFlow {
    request: Request,
    /// The chain's instances in order, each with the traffic cost of the
    /// hop into it.
    hops: Vec<Hop>,
    /// Per-instance arrival-rate contribution to release on departure.
    arrival_rate_rps: f64,
    /// End-to-end latency cached at admission (or at the last network
    /// event / re-placement). Avoids re-running `assignment_latency` for
    /// every active flow every slot; the approximation ignores queueing
    /// drift from flows joining/leaving shared instances between events.
    latency_ms: f64,
    /// Activation instant (ms): admission or re-placement time. The
    /// event engine bills the activation slot pro rata from here.
    activated_ms: u64,
    /// Scheduled departure instant (ms). A departure event for any other
    /// instant is stale (a re-placement's, or a gone flow's) and ignored.
    departure_ms: u64,
}

/// One position of an active flow's chain: the instance serving it, and
/// the per-slot traffic cost of the hop from the previous position's node
/// (the flow's source, for the first) to the instance's. Both ends are
/// fixed for the flow's life, so `admit_flow` prices the hop once.
#[derive(Debug, Clone, Copy)]
struct Hop {
    instance: InstanceId,
    traffic_usd: f64,
}

/// End-of-slot world snapshot, reused verbatim across billing boundaries
/// while no event has touched the world — what makes idle slots O(1).
/// Reuse is bit-safe: every field is a pure function of world state, and
/// unchanged state recomputes to identical bits anyway.
#[derive(Debug, Clone, Copy)]
struct CostCache {
    compute: f64,
    energy: f64,
    traffic: f64,
    mean_latency: f64,
    mean_utilization: f64,
    active_flows: u32,
    live_instances: u32,
    nodes_down: u32,
}

/// Engine-owned hot-path buffers, reused across every placement decision.
///
/// One decision used to allocate a candidate vector, an action mask, an
/// encoded state, and (for terminal feedback) a fresh all-true mask plus a
/// fresh zero state. All of those now live here: the recycled
/// [`DecisionContext`] carries the working buffers, `prev_state`/`prev_mask`
/// hold the previous decision's observation while its feedback is
/// delivered, and the terminal mask/state are computed once. Policies
/// receive borrowed views ([`DecisionFeedback`]) and copy only what they
/// store.
struct SimScratch {
    /// Recycled decision context (its vectors keep their allocations
    /// between episodes; the request/chain fields are refreshed per
    /// episode).
    ctx: Option<DecisionContext>,
    /// Previous decision's encoded state, swapped out before refilling.
    prev_state: Vec<f32>,
    /// Previous decision's action mask, swapped out before refilling.
    prev_mask: Vec<bool>,
    /// Cached all-true mask (terminal next-state filler).
    all_true: Vec<bool>,
    /// Cached zero state (terminal next-state filler).
    zero_state: Vec<f32>,
    /// The group's snapshot plans ([`DecisionSemantics::SlotSnapshot`]).
    plans: GroupPlans,
    /// The episode's committed steps so far, `(instance, newly_spawned)`,
    /// kept for rollback.
    placed: Vec<(InstanceId, bool)>,
    /// The admitted chain, in the form `assignment_latency` takes.
    assignment: ChainAssignment,
    /// Departed and disrupted flows' emptied hop lists, which
    /// `admit_flow` refills before it allocates a new one.
    spare_hops: Vec<Vec<Hop>>,
    /// One event batch's network events (the event loop's), downed nodes,
    /// evicted instance ids (sorted), and the ids of the flows it tears
    /// out.
    events: Vec<NetworkEvent>,
    downed: Vec<NodeId>,
    dead: Vec<InstanceId>,
    torn: Vec<u64>,
    /// The flows the last event batch disrupted, awaiting re-placement.
    disrupted: Vec<ActiveFlow>,
    /// The retire sweep's idle instance ids.
    idle: Vec<InstanceId>,
    /// The invariant checker's buffers (debug builds).
    invariants: InvariantScratch,
}

/// The simulation: all mutable world state plus immutable catalogs.
pub struct Simulation {
    /// The network: topology + routes + capacity behind one
    /// event-driven API.
    pub network: NetworkView,
    /// Live VNF instances.
    pub pool: InstancePool,
    /// VNF type catalog.
    pub vnfs: VnfCatalog,
    /// Chain catalog.
    pub chains: ChainCatalog,
    /// The action space (nodes + reject).
    pub action_space: ActionSpace,
    /// Observation encoder.
    pub encoder: StateEncoder,
    /// Reward shaping.
    pub reward_config: RewardConfig,
    scenario: Scenario,
    /// Active flows by request id.
    active: IdMap<ActiveFlow>,
    /// Slot-keyed network events, consumed as slots advance.
    event_timeline: BTreeMap<u64, Vec<NetworkEvent>>,
    slot: u64,
    /// The open slot's record: its counts ([`Simulation::note`]), and the
    /// deployment cost and sub-slot departures' traffic it has accrued.
    /// Billing completes it.
    open_slot: SlotRecord,
    metrics: MetricsCollector,
    scratch: SimScratch,
    /// How arrival groups are decided ([`RunOptions::semantics`]).
    semantics: DecisionSemantics,
    /// Duration of one slot on the ms-resolution timeline.
    slot_ms: u64,
    /// The discrete-event queue, whose clock is the simulation's one
    /// clock: both loops take departures and retire checks off it.
    queue: EventQueue,
    /// Rank of what is currently being handled (retire-check timing):
    /// the queued event's, `ARRIVAL_RANK` for an arrival group.
    current_rank: u8,
    /// Arrivals and their placement episodes handled so far: the
    /// occurrences [`Simulation::events_processed`] counts that the queue
    /// never held.
    unqueued_events: u64,
    /// End-of-slot snapshot; `None` after any world mutation.
    cost_cache: Option<CostCache>,
    /// Slots with a RetireCheck already scheduled (dedupe).
    retire_checks: BTreeSet<u64>,
    /// Latest flow-activation instant (monotone). Billing uses it to
    /// tell which slots' windows can still clip a flow's share.
    latest_activation_ms: u64,
    /// Request ids this simulation's generated traces have used so far;
    /// the next [`RunInput::Generated`] trace continues from here.
    generated_requests: u64,
    /// The observer attached for the duration of one [`Simulation::drive`]
    /// call (swapped in from the caller's sink and back out afterwards).
    /// Read-only with respect to the world: hooks never affect the run.
    telemetry: Option<TelemetrySink>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("slot", &self.slot)
            .field("active_flows", &self.active.len())
            .field("live_instances", &self.pool.len())
            .finish()
    }
}

impl Simulation {
    /// Builds a simulation for `scenario` with the given reward shaping and
    /// the standard VNF/chain catalogs.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid.
    pub fn new(scenario: &Scenario, reward_config: RewardConfig) -> Self {
        let vnfs = VnfCatalog::standard();
        let chains = ChainCatalog::standard(&vnfs);
        Self::with_catalogs(scenario, reward_config, vnfs, chains)
    }

    /// Builds a simulation with custom catalogs (e.g. the chain-length
    /// sweep's synthetic chains).
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid or the workload's chain mix does
    /// not cover the chain catalog.
    pub fn with_catalogs(
        scenario: &Scenario,
        reward_config: RewardConfig,
        vnfs: VnfCatalog,
        chains: ChainCatalog,
    ) -> Self {
        scenario.validate();
        reward_config.validate();
        assert!(
            scenario.workload.chain_mix.len() <= chains.chain_count(),
            "workload chain mix references {} chains but the catalog has {}",
            scenario.workload.chain_mix.len(),
            chains.chain_count()
        );
        let mut topo_rng = StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x9E37_79B9));
        let topology = scenario
            .topology
            .build(&scenario.topology_builder, &mut topo_rng);
        let event_timeline =
            scenario
                .events
                .materialize(&topology, scenario.horizon_slots, scenario.seed);
        let network = NetworkView::new(topology);
        let action_space = ActionSpace::new(network.topology().node_count());
        let encoder = StateEncoder::for_catalogs(
            network.topology().node_count(),
            &chains,
            // Phase features keyed to the diurnal period when present.
            match scenario.workload.pattern {
                workload::pattern::LoadPattern::Diurnal { period, .. } => period,
                _ => 0,
            },
        );
        let scratch = SimScratch {
            ctx: None,
            prev_state: Vec::new(),
            prev_mask: Vec::new(),
            all_true: vec![true; action_space.len()],
            zero_state: encoder.zero_state(),
            plans: GroupPlans::default(),
            placed: Vec::new(),
            // Sized once, so no admission grows it.
            assignment: ChainAssignment {
                instances: Vec::with_capacity(chains.max_chain_len()),
                ..ChainAssignment::default()
            },
            spare_hops: Vec::new(),
            events: Vec::new(),
            downed: Vec::new(),
            dead: Vec::new(),
            torn: Vec::new(),
            disrupted: Vec::new(),
            idle: Vec::new(),
            invariants: InvariantScratch::default(),
        };
        Self {
            network,
            pool: InstancePool::new(),
            vnfs,
            chains,
            action_space,
            encoder,
            reward_config,
            scenario: scenario.clone(),
            active: IdMap::new(),
            event_timeline,
            slot: 0,
            open_slot: SlotRecord::default(),
            metrics: MetricsCollector::new(),
            scratch,
            semantics: DecisionSemantics::Sequential,
            slot_ms: ((scenario.slot_seconds * 1000.0).round() as u64).max(1),
            queue: EventQueue::new(),
            current_rank: 0,
            unqueued_events: 0,
            cost_cache: None,
            retire_checks: BTreeSet::new(),
            latest_activation_ms: 0,
            generated_requests: 0,
            telemetry: None,
        }
    }

    /// The scenario this simulation was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The network topology (shorthand for `network.topology()`).
    pub fn topology(&self) -> &Topology {
        self.network.topology()
    }

    /// Current routes over the live network (shorthand for
    /// `network.routes()`).
    pub fn routes(&self) -> &RoutingTable {
        self.network.routes()
    }

    /// Every node's current capacity (shorthand for `network.ledger()`).
    /// What runs on a node is the pool's to know: `pool.used_on(node)`
    /// is the running sum of its live instances' demand.
    pub fn ledger(&self) -> &CapacityLedger {
        self.network.ledger()
    }

    /// Mean dominant utilization across all nodes: the ledger's
    /// capacities against the pool's usage.
    fn mean_utilization(&self) -> f64 {
        self.network
            .ledger()
            .mean_utilization(|node| self.pool.used_on(node))
    }

    /// Current slot index.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The current instant on the ms timeline (the queue's clock).
    fn now_ms(&self) -> u64 {
        self.queue.now().ms()
    }

    /// Number of currently active flows.
    pub fn active_flow_count(&self) -> usize {
        self.active.len()
    }

    /// Sets the decision semantics for subsequent arrival groups.
    /// [`Simulation::drive`] sets this from [`RunOptions::semantics`];
    /// the setter exists for callers driving `advance_slot` directly.
    pub fn set_decision_semantics(&mut self, semantics: DecisionSemantics) {
        self.semantics = semantics;
    }

    /// Occurrences the event engine has handled so far: every event
    /// popped from the queue (departures, network events, retire checks),
    /// plus one per arrival and one per arrival's placement episode —
    /// which the engine takes from its input and decides in place, but
    /// which are handled all the same. The `perf/` benchmark reads this
    /// for `sim.events` and `sim.self_ns_per_event`.
    pub fn events_processed(&self) -> u64 {
        self.queue.popped() + self.unqueued_events
    }

    /// Duration of one slot on the millisecond timeline.
    pub fn slot_ms(&self) -> u64 {
        self.slot_ms
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }
}

/// A request with an explicit millisecond arrival time, for
/// [`RunInput::Events`] / [`RunInput::Stream`] — the event-engine
/// inputs where arrivals need not land on slot boundaries.
#[derive(Debug, Clone)]
pub struct TimedArrival {
    /// When the request arrives.
    pub at: SimTime,
    /// The request itself (its `arrival_slot` is rewritten from `at`).
    pub request: Request,
}

impl From<TimedRequest> for TimedArrival {
    /// Adapts a workload-side [`TimedRequest`] (e.g. from
    /// `workload::metro::MetroProfile::stream`) into an engine arrival:
    /// `profile.stream(..).map(TimedArrival::from)` plugs a metro stream
    /// straight into [`RunInput::Stream`].
    fn from(t: TimedRequest) -> Self {
        TimedArrival {
            at: SimTime::from_ms(t.at_ms),
            request: t.request,
        }
    }
}
