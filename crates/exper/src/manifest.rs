//! Declarative scenario manifests: one JSON-or-code document that expands
//! deterministically into [`ExperimentGrid`]s.
//!
//! A manifest names every axis an experiment sweeps — topology family,
//! workload pattern, event schedule, reward weights, policy set, seeds —
//! instead of hand-assembling grids with ad-hoc builder calls. The same
//! manifest is the single definition path for in-process figure binaries,
//! the multi-process sweep registry, and the automated search driver
//! ([`crate::search`]), so a grid can no longer drift between its
//! consumers.
//!
//! # Determinism contract
//!
//! Expansion is a pure function of `(manifest, fast)`:
//!
//! * Axes expand in a fixed axis-major order (reward points outermost,
//!   then scenario rows, then policies, then seeds — the existing grid
//!   cell order).
//! * [`Axis::Random`] draws from an RNG seeded only by the axis's own
//!   `seed` field — never from ambient state — so sampled axes are as
//!   reproducible as listed ones.
//! * Every expanded grid carries its structural
//!   [`ExperimentGrid::auto_fingerprint`], and the manifest itself has a
//!   mode-independent [`ScenarioManifest::fingerprint`] covering both the
//!   full and `FAST` variants, so artifacts can be traced back to the
//!   exact manifest that produced them.

use crate::grid::{fnv1a, ExperimentGrid, GridScenario, PolicyFactory};
use edgenet::node::Resources;
use mano::prelude::*;
use mano::report::{check_schema_version, health_weights_json, HealthWeight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{Error as JsonError, FromJson, Value};
use sfc::chain::{ChainCatalog, ChainId, ChainSpec};
use sfc::vnf::VnfCatalog;
use std::path::Path;

/// Version stamp of the manifest JSON schema; bump on breaking changes.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// A numeric sweep axis. All variants expand to a fixed value list via
/// [`Axis::values`]; `Random` is seeded sampling, not ambient randomness.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Explicit values, used verbatim in order.
    List(Vec<f64>),
    /// `steps` evenly spaced values from `start` to `end` inclusive.
    LinRange {
        /// First value.
        start: f64,
        /// Last value.
        end: f64,
        /// Number of values (≥ 1; 1 yields `[start]`).
        steps: usize,
    },
    /// `steps` geometrically spaced values from `start` to `end`
    /// inclusive (both must be positive).
    LogRange {
        /// First value (> 0).
        start: f64,
        /// Last value (> 0).
        end: f64,
        /// Number of values (≥ 1; 1 yields `[start]`).
        steps: usize,
    },
    /// `n` uniform draws from `[lo, hi)`, in draw order, from an RNG
    /// seeded only by `seed` — the sampled axis is a pure function of
    /// this variant's fields.
    Random {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
        /// Number of samples.
        n: usize,
        /// RNG seed; the only source of randomness.
        seed: u64,
    },
}

impl Axis {
    /// A single-value axis (the degenerate default for unswept axes).
    pub fn single(value: f64) -> Self {
        Axis::List(vec![value])
    }

    /// Expands the axis to its deterministic value list.
    ///
    /// # Panics
    ///
    /// Panics on an empty axis (`steps`/`n` of 0, empty list) or a
    /// non-positive `LogRange` endpoint.
    pub fn values(&self) -> Vec<f64> {
        match self {
            Axis::List(values) => {
                assert!(!values.is_empty(), "axis needs at least one value");
                values.clone()
            }
            Axis::LinRange { start, end, steps } => {
                assert!(*steps >= 1, "axis needs at least one value");
                if *steps == 1 {
                    return vec![*start];
                }
                (0..*steps)
                    .map(|i| start + (end - start) * i as f64 / (*steps as f64 - 1.0))
                    .collect()
            }
            Axis::LogRange { start, end, steps } => {
                assert!(*steps >= 1, "axis needs at least one value");
                assert!(
                    *start > 0.0 && *end > 0.0,
                    "log axis endpoints must be positive"
                );
                if *steps == 1 {
                    return vec![*start];
                }
                let ratio = end / start;
                (0..*steps)
                    .map(|i| start * ratio.powf(i as f64 / (*steps as f64 - 1.0)))
                    .collect()
            }
            Axis::Random { lo, hi, n, seed } => {
                assert!(*n >= 1, "axis needs at least one value");
                assert!(lo < hi, "random axis needs lo < hi");
                let mut rng = StdRng::seed_from_u64(*seed);
                (0..*n).map(|_| lo + rng.gen::<f64>() * (hi - lo)).collect()
            }
        }
    }

    fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        match self {
            Axis::List(values) => {
                map.insert("kind", Value::from("list"));
                map.insert(
                    "values",
                    Value::Array(values.iter().map(|&v| Value::from(v)).collect()),
                );
            }
            Axis::LinRange { start, end, steps } => {
                map.insert("kind", Value::from("lin_range"));
                map.insert("start", Value::from(*start));
                map.insert("end", Value::from(*end));
                map.insert("steps", Value::from(*steps));
            }
            Axis::LogRange { start, end, steps } => {
                map.insert("kind", Value::from("log_range"));
                map.insert("start", Value::from(*start));
                map.insert("end", Value::from(*end));
                map.insert("steps", Value::from(*steps));
            }
            Axis::Random { lo, hi, n, seed } => {
                map.insert("kind", Value::from("random"));
                map.insert("lo", Value::from(*lo));
                map.insert("hi", Value::from(*hi));
                map.insert("n", Value::from(*n));
                // As a decimal string: JSON numbers round-trip through
                // f64, which silently truncates seeds above 2^53.
                map.insert("seed", Value::from(seed.to_string()));
            }
        }
        Value::Object(map)
    }
}

impl FromJson for Axis {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.req::<String>("kind")?.as_str() {
            "list" => Ok(Axis::List(v.req("values")?)),
            "lin_range" => Ok(Axis::LinRange {
                start: v.req("start")?,
                end: v.req("end")?,
                steps: v.req("steps")?,
            }),
            "log_range" => Ok(Axis::LogRange {
                start: v.req("start")?,
                end: v.req("end")?,
                steps: v.req("steps")?,
            }),
            "random" => Ok(Axis::Random {
                lo: v.req("lo")?,
                hi: v.req("hi")?,
                n: v.req("n")?,
                seed: v.req("seed")?,
            }),
            other => unknown("kind", &["list", "lin_range", "log_range", "random"], other),
        }
    }
}

/// A value with distinct full-resolution and `FAST` smoke variants.
/// Manifests carry both so the manifest file (and its fingerprint) is
/// independent of the mode it is expanded under.
#[derive(Debug, Clone, PartialEq)]
pub struct FastScaled<T> {
    /// Full-resolution value.
    pub full: T,
    /// `FAST=1` smoke value.
    pub fast: T,
}

impl<T: Clone> FastScaled<T> {
    /// The same value in both modes.
    pub fn same(value: T) -> Self {
        Self {
            full: value.clone(),
            fast: value,
        }
    }

    /// Picks the variant for the given mode.
    pub fn pick(&self, fast: bool) -> T {
        if fast {
            self.fast.clone()
        } else {
            self.full.clone()
        }
    }
}

impl<T: Clone> FastScaled<T> {
    fn to_json_with(&self, f: impl Fn(&T) -> Value) -> Value {
        let mut map = serde_json::Map::new();
        map.insert("full", f(&self.full));
        map.insert("fast", f(&self.fast));
        Value::Object(map)
    }
}

/// Reads `{"full", "fast"}`, or a bare value that applies to both modes.
impl<T: FromJson + Clone> FromJson for FastScaled<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if v.get("full").is_none() && v.get("fast").is_none() {
            return T::from_json(v).map(Self::same);
        }
        Ok(Self {
            full: v.req("full")?,
            fast: v.req("fast")?,
        })
    }
}

/// The topology family a manifest's scenarios run on.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyFamily {
    /// Real metro sites, fully meshed, plus a cloud.
    Metro {
        /// Number of edge sites (≤ 16).
        sites: usize,
    },
    /// Edge sites in a ring plus a cloud.
    Ring {
        /// Number of edge sites.
        sites: usize,
    },
}

impl TopologyFamily {
    fn spec(&self, sites_override: Option<usize>) -> TopologySpec {
        match *self {
            TopologyFamily::Metro { sites } => TopologySpec::Metro {
                sites: sites_override.unwrap_or(sites),
            },
            TopologyFamily::Ring { sites } => TopologySpec::Ring {
                sites: sites_override.unwrap_or(sites),
            },
        }
    }

    fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        let (family, sites) = match *self {
            TopologyFamily::Metro { sites } => ("metro", sites),
            TopologyFamily::Ring { sites } => ("ring", sites),
        };
        map.insert("family", Value::from(family));
        map.insert("sites", Value::from(sites));
        Value::Object(map)
    }
}

impl FromJson for TopologyFamily {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let sites = v.req("sites")?;
        match v.req::<String>("family")?.as_str() {
            "metro" => Ok(TopologyFamily::Metro { sites }),
            "ring" => Ok(TopologyFamily::Ring { sites }),
            other => unknown("family", &["metro", "ring"], other),
        }
    }
}

/// The manifest's network-event schedule axis.
#[derive(Debug, Clone, PartialEq)]
pub enum EventSpec {
    /// Static network.
    None,
    /// Seeded stochastic failure/repair process (see
    /// [`Scenario::with_failures`]).
    Stochastic {
        /// Per-slot failure probability of each live edge node.
        failure_rate: f64,
        /// Mean downtime in slots.
        mean_downtime_slots: f64,
    },
}

impl EventSpec {
    fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        match self {
            EventSpec::None => {
                map.insert("kind", Value::from("none"));
            }
            EventSpec::Stochastic {
                failure_rate,
                mean_downtime_slots,
            } => {
                map.insert("kind", Value::from("stochastic"));
                map.insert("failure_rate", Value::from(*failure_rate));
                map.insert("mean_downtime_slots", Value::from(*mean_downtime_slots));
            }
        }
        Value::Object(map)
    }
}

impl FromJson for EventSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.req::<String>("kind")?.as_str() {
            "none" => Ok(EventSpec::None),
            "stochastic" => Ok(EventSpec::Stochastic {
                failure_rate: v.req("failure_rate")?,
                mean_downtime_slots: v.req("mean_downtime_slots")?,
            }),
            other => unknown("kind", &["none", "stochastic"], other),
        }
    }
}

/// The common scenario template every sweep row starts from. Defaults
/// mirror [`Scenario::default_metro`]; only fields a manifest sets
/// explicitly deviate from it, so manifest-built scenarios stay
/// structurally identical to the hand-built ones they replaced.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestBase {
    /// Topology family and size.
    pub topology: TopologyFamily,
    /// Per-edge-site capacity override as `(cpu, mem)`; `None` keeps the
    /// topology builder's default.
    pub edge_capacity: Option<(f64, f64)>,
    /// Simulation horizon in slots, per mode.
    pub horizon_slots: FastScaled<u64>,
    /// Arrival rate (requests/slot) outside any arrival-rate sweep.
    pub arrival_rate: f64,
    /// Number of chain types in the (uniform) workload mix.
    pub chain_count: usize,
    /// Mean flow duration in slots.
    pub mean_duration_slots: f64,
    /// Network-event schedule outside any failure-rate sweep.
    pub events: EventSpec,
}

impl ManifestBase {
    /// The paper's evaluation baseline: 8 metro sites, scarce edge
    /// capacity, 360-slot horizon (40 under `FAST`).
    pub fn bench(arrival_rate: f64) -> Self {
        Self {
            topology: TopologyFamily::Metro { sites: 8 },
            edge_capacity: Some((32.0, 128.0)),
            horizon_slots: FastScaled {
                full: 360,
                fast: 40,
            },
            arrival_rate,
            chain_count: 4,
            mean_duration_slots: 12.0,
            events: EventSpec::None,
        }
    }

    /// Materializes the template into a concrete scenario at `rate`.
    fn scenario(&self, fast: bool, rate: f64, sites_override: Option<usize>) -> Scenario {
        let mut s = Scenario::default_metro();
        s.topology = self.topology.spec(sites_override);
        s.workload = workload::trace::WorkloadSpec::poisson(
            rate,
            self.chain_count,
            self.mean_duration_slots,
        );
        if let Some((cpu, mem)) = self.edge_capacity {
            s.topology_builder.edge_capacity = Resources::new(cpu, mem);
        }
        s.horizon_slots = self.horizon_slots.pick(fast);
        if let EventSpec::Stochastic {
            failure_rate,
            mean_downtime_slots,
        } = self.events
        {
            s = s.with_failures(failure_rate, mean_downtime_slots);
        }
        s
    }

    fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        map.insert("topology", self.topology.to_json());
        if let Some((cpu, mem)) = self.edge_capacity {
            let mut cap = serde_json::Map::new();
            cap.insert("cpu", Value::from(cpu));
            cap.insert("mem", Value::from(mem));
            map.insert("edge_capacity", Value::Object(cap));
        }
        map.insert(
            "horizon_slots",
            self.horizon_slots.to_json_with(|&h| Value::from(h)),
        );
        map.insert("arrival_rate", Value::from(self.arrival_rate));
        map.insert("chain_count", Value::from(self.chain_count));
        map.insert("mean_duration_slots", Value::from(self.mean_duration_slots));
        map.insert("events", self.events.to_json());
        Value::Object(map)
    }
}

impl FromJson for ManifestBase {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            topology: v.req("topology")?,
            edge_capacity: v.opt::<EdgeCapacity>("edge_capacity")?.map(|c| c.0),
            horizon_slots: v.req("horizon_slots")?,
            arrival_rate: v.req("arrival_rate")?,
            chain_count: v.req("chain_count")?,
            mean_duration_slots: v.req("mean_duration_slots")?,
            events: v.opt("events")?.unwrap_or(EventSpec::None),
        })
    }
}

/// The `{cpu, mem}` form of [`ManifestBase::edge_capacity`].
struct EdgeCapacity((f64, f64));

impl FromJson for EdgeCapacity {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self((v.req("cpu")?, v.req("mem")?)))
    }
}

/// What varies across a manifest's scenario rows (the grid's scenario
/// axis). Every variant yields labelled [`GridScenario`] rows in axis
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// Arrival-rate sweep: one row per rate, labelled `lambda=<rate>`.
    ArrivalRate {
        /// Rate values per mode.
        values: FastScaled<Axis>,
    },
    /// Topology-size sweep: one row per site count, labelled
    /// `sites=<n>` (values are truncated to integers).
    Sites {
        /// Site-count values per mode.
        values: FastScaled<Axis>,
    },
    /// Chain-length sweep on the synthetic length-k catalog: one row per
    /// length `1..=max`, labelled `len=<k>`, each with a one-hot chain
    /// mix. Implies [`synthetic_chains`] catalogs.
    ChainLength {
        /// Longest chain (and catalog size) per mode.
        max: FastScaled<u64>,
    },
    /// Failure-rate sweep: one row per rate, labelled `f=<rate>`, each
    /// with a seeded stochastic failure schedule.
    FailureRate {
        /// Failure-rate values per mode.
        values: FastScaled<Axis>,
        /// Mean downtime of each failure, in slots.
        mean_downtime_slots: f64,
    },
}

impl SweepSpec {
    fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        match self {
            SweepSpec::ArrivalRate { values } => {
                map.insert("kind", Value::from("arrival_rate"));
                map.insert("values", values.to_json_with(Axis::to_json));
            }
            SweepSpec::Sites { values } => {
                map.insert("kind", Value::from("sites"));
                map.insert("values", values.to_json_with(Axis::to_json));
            }
            SweepSpec::ChainLength { max } => {
                map.insert("kind", Value::from("chain_length"));
                map.insert("max", max.to_json_with(|&m| Value::from(m)));
            }
            SweepSpec::FailureRate {
                values,
                mean_downtime_slots,
            } => {
                map.insert("kind", Value::from("failure_rate"));
                map.insert("values", values.to_json_with(Axis::to_json));
                map.insert("mean_downtime_slots", Value::from(*mean_downtime_slots));
            }
        }
        Value::Object(map)
    }
}

impl FromJson for SweepSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.req::<String>("kind")?.as_str() {
            "arrival_rate" => Ok(SweepSpec::ArrivalRate {
                values: v.req("values")?,
            }),
            "sites" => Ok(SweepSpec::Sites {
                values: v.req("values")?,
            }),
            "chain_length" => Ok(SweepSpec::ChainLength { max: v.req("max")? }),
            "failure_rate" => Ok(SweepSpec::FailureRate {
                values: v.req("values")?,
                mean_downtime_slots: v.req("mean_downtime_slots")?,
            }),
            other => unknown(
                "kind",
                &["arrival_rate", "sites", "chain_length", "failure_rate"],
                other,
            ),
        }
    }
}

/// One policy-set entry of a manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// A single registered baseline, by name ([`mano::baselines::baseline`]).
    Baseline(String),
    /// A named roster of baselines ([`mano::baselines::roster`]:
    /// `"comparison"` or `"standard"`).
    Roster(String),
    /// A DRL manager trained per reward point by the expansion's caller.
    /// `{alpha}` / `{beta}` placeholders in the label are substituted
    /// with the point's weights (so fig10's columns keep their
    /// `a<α>-b<β>` names).
    Trained {
        /// Label template for the grid column.
        label: String,
    },
}

impl PolicySpec {
    fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        match self {
            PolicySpec::Baseline(name) => {
                map.insert("kind", Value::from("baseline"));
                map.insert("name", Value::from(name.as_str()));
            }
            PolicySpec::Roster(name) => {
                map.insert("kind", Value::from("roster"));
                map.insert("name", Value::from(name.as_str()));
            }
            PolicySpec::Trained { label } => {
                map.insert("kind", Value::from("trained"));
                map.insert("label", Value::from(label.as_str()));
            }
        }
        Value::Object(map)
    }
}

/// Reads a policy entry; a baseline or roster name the registry does not
/// hold is an error here, at the `name` field, not a panic at expansion.
impl FromJson for PolicySpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.req::<String>("kind")?.as_str() {
            "baseline" => {
                let name: String = v.req("name")?;
                match baseline(&name) {
                    Some(_) => Ok(PolicySpec::Baseline(name)),
                    None => unknown("name", roster("standard").unwrap_or_default(), &name),
                }
            }
            "roster" => {
                let name: String = v.req("name")?;
                match roster(&name) {
                    Some(_) => Ok(PolicySpec::Roster(name)),
                    None => unknown("name", ROSTERS, &name),
                }
            }
            "trained" => Ok(PolicySpec::Trained {
                label: v.req("label")?,
            }),
            other => unknown("kind", &["baseline", "roster", "trained"], other),
        }
    }
}

/// The reward-weight axes: α (latency weight) × β (cost weight).
#[derive(Debug, Clone, PartialEq)]
pub struct RewardAxes {
    /// Latency-weight axis.
    pub alpha: Axis,
    /// Cost-weight axis.
    pub beta: Axis,
    /// `true` zips the axes position-wise into a diagonal (lengths must
    /// match); `false` takes the full cross-product, α-major.
    pub paired: bool,
}

impl Default for RewardAxes {
    /// The unswept default: one point at the default weights (1, 1).
    fn default() -> Self {
        Self {
            alpha: Axis::single(1.0),
            beta: Axis::single(1.0),
            paired: true,
        }
    }
}

impl RewardAxes {
    /// Expands to `(α, β)` weight points in fixed axis-major order.
    ///
    /// # Panics
    ///
    /// Panics when `paired` axes have different lengths.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let alphas = self.alpha.values();
        let betas = self.beta.values();
        if self.paired {
            assert_eq!(
                alphas.len(),
                betas.len(),
                "paired reward axes must have equal lengths"
            );
            alphas.into_iter().zip(betas).collect()
        } else {
            alphas
                .iter()
                .flat_map(|&a| betas.iter().map(move |&b| (a, b)))
                .collect()
        }
    }

    fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        map.insert("alpha", self.alpha.to_json());
        map.insert("beta", self.beta.to_json());
        map.insert("paired", Value::from(self.paired));
        Value::Object(map)
    }
}

impl FromJson for RewardAxes {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            alpha: v.req("alpha")?,
            beta: v.req("beta")?,
            paired: v.req("paired")?,
        })
    }
}

/// The manifest's successive-halving schedule (consumed by
/// [`crate::search`]; declarative here so a search's budget is part of
/// the checked-in definition, not a command-line accident).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchParams {
    /// Seeds used in the cheap screening pass, per mode.
    pub screen_seeds: FastScaled<usize>,
    /// Fraction of candidates promoted to the full seed budget, in
    /// `(0, 1]` (at least one candidate is always promoted).
    pub promote_fraction: f64,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            screen_seeds: FastScaled { full: 2, fast: 1 },
            promote_fraction: 0.5,
        }
    }
}

impl SearchParams {
    fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        map.insert(
            "screen_seeds",
            self.screen_seeds.to_json_with(|&s| Value::from(s)),
        );
        map.insert("promote_fraction", Value::from(self.promote_fraction));
        Value::Object(map)
    }
}

impl FromJson for SearchParams {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            screen_seeds: v.req("screen_seeds")?,
            promote_fraction: v.req("promote_fraction")?,
        })
    }
}

/// A declarative scenario manifest: the single definition of an
/// experiment's axes, expandable into [`ExperimentGrid`]s with
/// [`ScenarioManifest::expand`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioManifest {
    /// Manifest (and base grid) name.
    pub name: String,
    /// Common scenario template.
    pub base: ManifestBase,
    /// The scenario axis.
    pub sweep: SweepSpec,
    /// The reward-weight axes (one grid per point).
    pub reward: RewardAxes,
    /// The policy set.
    pub policies: Vec<PolicySpec>,
    /// Workload seed axis, per mode.
    pub seeds: FastScaled<Vec<u64>>,
    /// Successive-halving schedule for [`crate::search`].
    pub search: SearchParams,
    /// Health-score weights for ranking (metric name, weight,
    /// higher-is-better), defaulting to
    /// [`crate::search::HealthScore::default`]'s weights.
    pub health: Vec<(String, f64, bool)>,
}

impl ScenarioManifest {
    /// Starts a manifest with the standard evaluation seeds, default
    /// reward axes, default search schedule and default health weights.
    pub fn new(name: impl Into<String>, base: ManifestBase, sweep: SweepSpec) -> Self {
        Self {
            name: name.into(),
            base,
            sweep,
            reward: RewardAxes::default(),
            policies: Vec::new(),
            seeds: FastScaled {
                full: vec![101, 102, 103, 104, 105],
                fast: vec![101, 102],
            },
            search: SearchParams::default(),
            health: crate::search::HealthScore::default_weights(),
        }
    }

    /// Appends a policy-set entry.
    pub fn policy(mut self, spec: PolicySpec) -> Self {
        self.policies.push(spec);
        self
    }

    /// Replaces the seed axis (both modes).
    pub fn seeds(mut self, seeds: FastScaled<Vec<u64>>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the reward axes.
    pub fn reward(mut self, reward: RewardAxes) -> Self {
        self.reward = reward;
        self
    }

    /// A mode-independent structural fingerprint of the manifest (FNV-1a
    /// over its full debug form, covering both the full and `FAST`
    /// variants). Search artifacts record it so `bench_summary` can flag
    /// results produced from a drifted manifest file.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}-{:016x}",
            self.name,
            fnv1a(format!("{self:?}").as_bytes())
        )
    }

    /// Expands the manifest for the given mode: one
    /// [`ExpandedPoint`] per reward-weight point, each describing a full
    /// (scenario × policy × seed) grid. Pure function of
    /// `(self, fast)` — see the module docs for the determinism
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics on an invalid manifest: empty axes, unknown baseline or
    /// roster names, duplicate policy labels, or trained-label templates
    /// that collide across reward points.
    pub fn expand(&self, fast: bool) -> Expansion {
        assert!(
            !self.policies.is_empty(),
            "manifest needs at least one policy"
        );
        let seeds = self.seeds.pick(fast);
        assert!(!seeds.is_empty(), "manifest needs at least one seed");
        let weight_points = self.reward.points();
        let multi_point = weight_points.len() > 1;

        let points = weight_points
            .into_iter()
            .map(|(alpha, beta)| {
                let reward = RewardConfig {
                    alpha_latency: alpha as f32,
                    beta_cost: beta as f32,
                    ..RewardConfig::default()
                };
                let (scenarios, catalogs) = self.sweep_rows(fast);
                let policies = self.resolve_policies(alpha, beta);
                let grid_name = if multi_point {
                    format!("{}.a{alpha}-b{beta}", self.name)
                } else {
                    self.name.clone()
                };
                ExpandedPoint {
                    alpha,
                    beta,
                    reward,
                    grid_name,
                    scenarios,
                    policies,
                    seeds: seeds.clone(),
                    catalogs,
                }
            })
            .collect();
        Expansion {
            manifest_name: self.name.clone(),
            fingerprint: self.fingerprint(),
            fast,
            points,
        }
    }

    /// The scenario rows (and implied catalogs) of one reward point.
    fn sweep_rows(&self, fast: bool) -> (Vec<GridScenario>, Option<(VnfCatalog, ChainCatalog)>) {
        match &self.sweep {
            SweepSpec::ArrivalRate { values } => (
                values
                    .pick(fast)
                    .values()
                    .into_iter()
                    .map(|rate| GridScenario {
                        label: format!("lambda={rate}"),
                        x: rate,
                        scenario: self.base.scenario(fast, rate, None),
                    })
                    .collect(),
                None,
            ),
            SweepSpec::Sites { values } => (
                values
                    .pick(fast)
                    .values()
                    .into_iter()
                    .map(|v| {
                        let sites = v as usize;
                        GridScenario {
                            label: format!("sites={sites}"),
                            x: sites as f64,
                            scenario: self
                                .base
                                .scenario(fast, self.base.arrival_rate, Some(sites)),
                        }
                    })
                    .collect(),
                None,
            ),
            SweepSpec::ChainLength { max } => {
                let max_len = max.pick(fast) as usize;
                assert!(max_len >= 1, "chain_length sweep needs max >= 1");
                let vnfs = VnfCatalog::standard();
                let chains = synthetic_chains(&vnfs, max_len);
                let rows = (1..=max_len)
                    .map(|len| {
                        let mut s = self.base.scenario(fast, self.base.arrival_rate, None);
                        s.workload.chain_mix = (0..max_len)
                            .map(|i| if i + 1 == len { 1.0 } else { 0.0 })
                            .collect();
                        GridScenario {
                            label: format!("len={len}"),
                            x: len as f64,
                            scenario: s,
                        }
                    })
                    .collect();
                (rows, Some((vnfs, chains)))
            }
            SweepSpec::FailureRate {
                values,
                mean_downtime_slots,
            } => (
                values
                    .pick(fast)
                    .values()
                    .into_iter()
                    .map(|rate| {
                        let mut s = self.base.scenario(fast, self.base.arrival_rate, None);
                        if rate > 0.0 {
                            s = s.with_failures(rate, *mean_downtime_slots);
                        }
                        GridScenario {
                            label: format!("f={rate}"),
                            x: rate,
                            scenario: s,
                        }
                    })
                    .collect(),
                None,
            ),
        }
    }

    /// Flattens the policy set for one reward point, substituting
    /// `{alpha}`/`{beta}` in trained-label templates.
    fn resolve_policies(&self, alpha: f64, beta: f64) -> Vec<ResolvedPolicy> {
        let mut out: Vec<ResolvedPolicy> = Vec::new();
        for spec in &self.policies {
            match spec {
                PolicySpec::Baseline(name) => {
                    assert!(baseline(name).is_some(), "unknown baseline `{name}`");
                    out.push(ResolvedPolicy::Baseline(name.clone()));
                }
                PolicySpec::Roster(name) => {
                    for &member in roster(name).unwrap_or_else(|| panic!("unknown roster `{name}`"))
                    {
                        out.push(ResolvedPolicy::Baseline(member.to_string()));
                    }
                }
                PolicySpec::Trained { label } => {
                    let label = label
                        .replace("{alpha}", &format!("{alpha}"))
                        .replace("{beta}", &format!("{beta}"));
                    out.push(ResolvedPolicy::Trained { label });
                }
            }
        }
        let mut labels: Vec<&str> = out.iter().map(ResolvedPolicy::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(
            labels.len(),
            out.len(),
            "manifest policy labels must be unique"
        );
        out
    }

    /// Serializes the manifest to its JSON document form.
    pub fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        map.insert("schema_version", Value::from(MANIFEST_SCHEMA_VERSION));
        map.insert("name", Value::from(self.name.as_str()));
        map.insert("base", self.base.to_json());
        map.insert("sweep", self.sweep.to_json());
        map.insert("reward", self.reward.to_json());
        map.insert(
            "policies",
            Value::Array(self.policies.iter().map(PolicySpec::to_json).collect()),
        );
        map.insert(
            "seeds",
            self.seeds.to_json_with(|seeds| {
                Value::Array(seeds.iter().map(|&s| Value::from(s)).collect())
            }),
        );
        map.insert("search", self.search.to_json());
        map.insert("health", health_weights_json(&self.health));
        Value::Object(map)
    }

    /// Parses a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// The first syntax or schema violation, with its field path.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&serde_json::from_str(text)?)
    }

    /// Loads `dir/<name>.json`.
    ///
    /// # Errors
    ///
    /// I/O, syntax and schema failures naming the file, and a `name` field
    /// that disagrees with the file name.
    pub fn load(dir: &Path, name: &str) -> Result<Self, JsonError> {
        let path = dir.join(format!("{name}.json"));
        let manifest: Self = serde_json::from_file(&path)?;
        if manifest.name != name {
            return Err(JsonError {
                file: Some(path),
                ..JsonError::new(
                    "name",
                    format!("{name:?} (the file name)"),
                    format!("{:?}", manifest.name),
                )
            });
        }
        Ok(manifest)
    }
}

impl FromJson for ScenarioManifest {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        check_schema_version(v, MANIFEST_SCHEMA_VERSION)?;
        Ok(Self {
            name: v.req("name")?,
            base: v.req("base")?,
            sweep: v.req("sweep")?,
            reward: v.opt("reward")?.unwrap_or_default(),
            policies: v.req("policies")?,
            seeds: v.req("seeds")?,
            search: v.opt("search")?.unwrap_or_default(),
            health: match v.opt::<Vec<HealthWeight>>("health")? {
                None => crate::search::HealthScore::default_weights(),
                Some(weights) => weights.into_iter().map(Into::into).collect(),
            },
        })
    }
}

/// The error for a `key` whose value is none of the `known` names.
fn unknown<T>(key: &str, known: &[&str], found: &str) -> Result<T, JsonError> {
    let known: Vec<String> = known.iter().map(|k| format!("`{k}`")).collect();
    Err(JsonError::new(
        key,
        format!("one of {}", known.join(", ")),
        format!("{found:?}"),
    ))
}

/// One reward point of an expanded manifest: a complete grid definition
/// awaiting only trained-policy construction.
pub struct ExpandedPoint {
    /// Latency weight α of this point.
    pub alpha: f64,
    /// Cost weight β of this point.
    pub beta: f64,
    /// The reward configuration trained policies use at this point.
    pub reward: RewardConfig,
    /// Grid name (`<manifest>` for a single point,
    /// `<manifest>.a<α>-b<β>` otherwise).
    pub grid_name: String,
    /// Scenario rows, sweep order.
    pub scenarios: Vec<GridScenario>,
    /// Policy columns, manifest order.
    pub policies: Vec<ResolvedPolicy>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Custom catalogs implied by the sweep (chain-length sweeps).
    pub catalogs: Option<(VnfCatalog, ChainCatalog)>,
}

/// A policy column after roster flattening and label substitution.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedPolicy {
    /// Named registry baseline.
    Baseline(String),
    /// Trained column; the factory comes from the expansion's caller.
    Trained {
        /// Final (substituted) column label.
        label: String,
    },
}

impl ResolvedPolicy {
    /// The grid column label.
    pub fn label(&self) -> &str {
        match self {
            ResolvedPolicy::Baseline(name) => name,
            ResolvedPolicy::Trained { label } => label,
        }
    }
}

/// What an [`ExpandedPoint`] asks its caller to train: one policy for
/// `label`, under `reward`, for the point's first scenario (the sweep's
/// anchor row; single-scenario manifests train exactly where they
/// evaluate).
pub struct TrainRequest<'a> {
    /// Column label of the policy being trained.
    pub label: &'a str,
    /// Reward weights of the point.
    pub reward: RewardConfig,
    /// The training scenario.
    pub scenario: &'a Scenario,
    /// α of the point (for logging).
    pub alpha: f64,
    /// β of the point (for logging).
    pub beta: f64,
}

impl ExpandedPoint {
    /// `true` when the point has at least one trained policy column.
    pub fn needs_training(&self) -> bool {
        self.policies
            .iter()
            .any(|p| matches!(p, ResolvedPolicy::Trained { .. }))
    }

    /// Builds the point's [`ExperimentGrid`], asking `trainer` for a
    /// factory per trained column, and attaches the grid's structural
    /// fingerprint. Baseline columns resolve through the registry
    /// ([`ExperimentGrid::baselines`]).
    ///
    /// # Panics
    ///
    /// Panics when a trained column exists but the point has no
    /// scenarios (cannot happen for a validated manifest).
    pub fn grid_with(
        &self,
        trainer: &mut dyn FnMut(&TrainRequest) -> PolicyFactory,
    ) -> ExperimentGrid {
        let mut grid = ExperimentGrid::new(self.grid_name.clone())
            .seeds(&self.seeds)
            .reward(self.reward);
        if let Some((vnfs, chains)) = &self.catalogs {
            grid = grid.with_catalogs(vnfs.clone(), chains.clone());
        }
        for row in &self.scenarios {
            grid = grid.scenario(row.label.clone(), row.x, row.scenario.clone());
        }
        for policy in &self.policies {
            grid = match policy {
                ResolvedPolicy::Baseline(name) => grid.baselines(&[name]),
                ResolvedPolicy::Trained { label } => {
                    let scenario = &self
                        .scenarios
                        .first()
                        .expect("expanded point has scenarios")
                        .scenario;
                    let factory = trainer(&TrainRequest {
                        label,
                        reward: self.reward,
                        scenario,
                        alpha: self.alpha,
                        beta: self.beta,
                    });
                    grid.policy_boxed(label.clone(), factory)
                }
            };
        }
        let fp = grid.auto_fingerprint();
        grid.fingerprint(fp)
    }

    /// [`ExpandedPoint::grid_with`] for baseline-only points.
    ///
    /// # Panics
    ///
    /// Panics when the point has trained policy columns.
    pub fn grid(&self) -> ExperimentGrid {
        self.grid_with(&mut |req| {
            panic!(
                "point has trained column `{}` — use grid_with and supply a trainer",
                req.label
            )
        })
    }
}

/// A fully expanded manifest: one grid definition per reward point.
pub struct Expansion {
    /// The manifest's name.
    pub manifest_name: String,
    /// The manifest's mode-independent fingerprint.
    pub fingerprint: String,
    /// The mode this expansion was made for.
    pub fast: bool,
    /// One point per reward-weight combination, axis-major order.
    pub points: Vec<ExpandedPoint>,
}

/// The roster names [`roster`] knows, for the parse error that names them.
const ROSTERS: &[&str] = &["comparison", "standard"];

/// A fresh per-cell factory for a registered baseline, or `None` for a
/// name the registry (`mano::baselines::baseline`) does not hold.
pub fn baseline_factory(name: &str) -> Option<PolicyFactory> {
    baseline(name)?;
    let name = name.to_string();
    Some(Box::new(move || {
        baseline(&name).expect("the registry held this name when the factory was made")
    }))
}

/// The synthetic per-length chain catalog shared by the fig6 binary and
/// the `fig6_chains` manifests: chain *k* has *k* VNFs drawn in a fixed
/// light-to-medium order, with a latency budget that grows with length.
pub fn synthetic_chains(vnfs: &VnfCatalog, max_len: usize) -> ChainCatalog {
    let order = [
        "nat",
        "firewall",
        "load-balancer",
        "proxy",
        "encryption-gw",
        "wan-optimizer",
    ];
    let chains: Vec<ChainSpec> = (1..=max_len)
        .map(|len| {
            let seq = order[..len]
                .iter()
                .map(|n| vnfs.by_name(n).expect("standard catalog").id)
                .collect();
            ChainSpec::new(
                ChainId(len - 1),
                format!("len-{len}"),
                seq,
                40.0 + 25.0 * len as f64, // budget grows with length
                0.05,
                10.0,
            )
        })
        .collect();
    ChainCatalog::new(chains, vnfs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest() -> ScenarioManifest {
        ScenarioManifest::new(
            "unit_manifest",
            ManifestBase {
                topology: TopologyFamily::Metro { sites: 4 },
                edge_capacity: None,
                horizon_slots: FastScaled { full: 60, fast: 24 },
                arrival_rate: 2.0,
                chain_count: 4,
                mean_duration_slots: 6.0,
                events: EventSpec::None,
            },
            SweepSpec::ArrivalRate {
                values: FastScaled {
                    full: Axis::List(vec![2.0, 6.0]),
                    fast: Axis::List(vec![2.0]),
                },
            },
        )
        .policy(PolicySpec::Baseline("first-fit".into()))
        .policy(PolicySpec::Baseline("greedy-latency".into()))
        .seeds(FastScaled {
            full: vec![1, 2, 3],
            fast: vec![1, 2],
        })
    }

    #[test]
    fn axis_values_expand_deterministically() {
        assert_eq!(Axis::single(3.0).values(), vec![3.0]);
        assert_eq!(
            Axis::LinRange {
                start: 0.0,
                end: 1.0,
                steps: 3
            }
            .values(),
            vec![0.0, 0.5, 1.0]
        );
        let log = Axis::LogRange {
            start: 1.0,
            end: 4.0,
            steps: 3,
        }
        .values();
        assert_eq!(log.len(), 3);
        assert!((log[1] - 2.0).abs() < 1e-12 && log[2] == 4.0, "{log:?}");
        let a = Axis::Random {
            lo: 0.5,
            hi: 2.0,
            n: 4,
            seed: 9,
        }
        .values();
        let b = Axis::Random {
            lo: 0.5,
            hi: 2.0,
            n: 4,
            seed: 9,
        }
        .values();
        assert_eq!(a, b, "random axes are pure functions of their seed");
        assert!(a.iter().all(|&v| (0.5..2.0).contains(&v)));
        let c = Axis::Random {
            lo: 0.5,
            hi: 2.0,
            n: 4,
            seed: 10,
        }
        .values();
        assert_ne!(a, c, "a different seed samples different values");
    }

    #[test]
    fn reward_axes_pair_and_cross() {
        let paired = RewardAxes {
            alpha: Axis::List(vec![4.0, 1.0]),
            beta: Axis::List(vec![0.25, 1.0]),
            paired: true,
        };
        assert_eq!(paired.points(), vec![(4.0, 0.25), (1.0, 1.0)]);
        let crossed = RewardAxes {
            paired: false,
            ..paired
        };
        assert_eq!(
            crossed.points(),
            vec![(4.0, 0.25), (4.0, 1.0), (1.0, 0.25), (1.0, 1.0)]
        );
    }

    #[test]
    fn expansion_is_mode_aware_and_deterministic() {
        let manifest = tiny_manifest();
        let full = manifest.expand(false);
        assert_eq!(full.points.len(), 1);
        let point = &full.points[0];
        assert_eq!(point.grid_name, "unit_manifest");
        assert_eq!(point.scenarios.len(), 2);
        assert_eq!(point.scenarios[0].label, "lambda=2");
        assert_eq!(point.seeds, vec![1, 2, 3]);
        assert_eq!(point.policies.len(), 2);
        let fast = manifest.expand(true);
        assert_eq!(fast.points[0].scenarios.len(), 1);
        assert_eq!(fast.points[0].seeds, vec![1, 2]);
        assert_eq!(
            fast.points[0].scenarios[0].scenario.horizon_slots, 24,
            "FAST picks the fast horizon"
        );
        // Same manifest, same mode → same grid fingerprints.
        assert_eq!(
            full.points[0].grid().grid_fingerprint(),
            manifest.expand(false).points[0].grid().grid_fingerprint()
        );
        assert_eq!(
            full.fingerprint, fast.fingerprint,
            "manifest fingerprint is mode-free"
        );
    }

    #[test]
    fn trained_labels_substitute_weight_placeholders() {
        let manifest = tiny_manifest()
            .reward(RewardAxes {
                alpha: Axis::List(vec![4.0, 0.25]),
                beta: Axis::List(vec![0.25, 4.0]),
                paired: true,
            })
            .policy(PolicySpec::Trained {
                label: "a{alpha}-b{beta}".into(),
            });
        let expansion = manifest.expand(true);
        assert_eq!(expansion.points.len(), 2);
        assert_eq!(expansion.points[0].policies[2].label(), "a4-b0.25");
        assert_eq!(expansion.points[1].policies[2].label(), "a0.25-b4");
        assert_eq!(expansion.points[0].grid_name, "unit_manifest.a4-b0.25");
        assert!(expansion.points[0].needs_training());
        assert_eq!(expansion.points[0].reward.alpha_latency, 4.0);
        assert_eq!(expansion.points[0].reward.beta_cost, 0.25);
    }

    #[test]
    fn json_roundtrip_is_exact() -> Result<(), JsonError> {
        let manifest = tiny_manifest()
            .policy(PolicySpec::Roster("comparison".into()))
            .policy(PolicySpec::Trained {
                label: "drl".into(),
            })
            .reward(RewardAxes {
                alpha: Axis::LogRange {
                    start: 0.25,
                    end: 4.0,
                    steps: 5,
                },
                beta: Axis::Random {
                    lo: 0.1,
                    hi: 2.0,
                    n: 5,
                    seed: 3,
                },
                paired: true,
            });
        let text = serde_json::to_string_pretty(&manifest.to_json());
        let parsed = ScenarioManifest::parse(&text)?;
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.fingerprint(), manifest.fingerprint());
        Ok(())
    }

    #[test]
    fn truncated_manifest_names_the_byte() {
        let text = serde_json::to_string_pretty(&tiny_manifest().to_json());
        let e = ScenarioManifest::parse(&text[..text.len() / 2]).unwrap_err();
        assert!(e.path.starts_with("byte "), "{e}");
        assert_eq!(e.found, "end of input");
    }

    #[test]
    fn mistyped_nested_field_is_named_by_its_path() {
        let text = serde_json::to_string(&tiny_manifest().to_json())
            .replace(r#""fast":24"#, r#""fast":"soon""#);
        let e = ScenarioManifest::parse(&text).unwrap_err();
        assert_eq!(e.path, "base.horizon_slots.fast");
        assert_eq!(e.found, r#""soon""#);
    }

    #[test]
    fn unknown_axis_kind_is_named_with_the_known_kinds() {
        let text = serde_json::to_string(&tiny_manifest().to_json())
            .replace(r#""kind":"list""#, r#""kind":"spiral""#);
        let e = ScenarioManifest::parse(&text).unwrap_err();
        assert_eq!(e.path, "sweep.values.full.kind");
        assert_eq!(
            e.to_string(),
            r#"sweep.values.full.kind: expected one of `list`, `lin_range`, `log_range`, `random`, found "spiral""#
        );
    }

    #[test]
    fn load_names_the_file_on_a_name_mismatch() {
        let dir = std::env::temp_dir().join(format!("manifest_load_{}", std::process::id()));
        let path = dir.join("other.json");
        let text = serde_json::to_string_pretty(&tiny_manifest().to_json());
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
        assert!(written.is_ok(), "{written:?}");
        let e = ScenarioManifest::load(&dir, "other").unwrap_err();
        assert_eq!(e.file.as_deref(), Some(path.as_path()));
        assert_eq!(e.path, "name");
        assert_eq!(e.found, r#""unit_manifest""#);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_factories_match_policy_names() {
        let names = roster("standard").unwrap_or_default();
        assert!(!names.is_empty());
        for &name in names {
            // Each call is a fresh per-cell policy with the same name.
            let built: Vec<String> = baseline_factory(name)
                .into_iter()
                .flat_map(|factory| [factory(), factory()])
                .map(|policy| policy.name().to_string())
                .collect();
            assert_eq!(built, [name, name]);
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(baseline_factory("no-such-policy").is_none());
        assert!(roster("no-such-roster").is_none());
        let bad = tiny_manifest().policy(PolicySpec::Baseline("no-such-policy".into()));
        assert!(std::panic::catch_unwind(|| bad.expand(false)).is_err());
    }

    #[test]
    fn unknown_policy_names_fail_at_parse() {
        let doc = serde_json::to_string(&tiny_manifest().to_json());
        let typo = doc.replace(r#""name":"greedy-latency""#, r#""name":"frist-fit""#);
        let e = ScenarioManifest::parse(&typo).unwrap_err();
        assert_eq!(e.path, "policies[1].name");
        assert_eq!(e.found, r#""frist-fit""#);
        assert!(e.expected.contains("`first-fit`"), "{e}");
        let roster_doc = serde_json::to_string(
            &tiny_manifest()
                .policy(PolicySpec::Roster("comparison".into()))
                .to_json(),
        )
        .replace(r#""name":"comparison""#, r#""name":"everything""#);
        let e = ScenarioManifest::parse(&roster_doc).unwrap_err();
        assert_eq!(e.path, "policies[2].name");
        assert_eq!(e.expected, "one of `comparison`, `standard`");
        assert!(ROSTERS.iter().all(|r| roster(r).is_some()));
    }

    #[test]
    fn chain_length_sweep_builds_one_hot_rows_and_catalogs() {
        let manifest = ScenarioManifest::new(
            "unit_chains",
            ManifestBase {
                topology: TopologyFamily::Metro { sites: 4 },
                edge_capacity: Some((32.0, 128.0)),
                horizon_slots: FastScaled { full: 60, fast: 24 },
                arrival_rate: 5.0,
                chain_count: 4,
                mean_duration_slots: 12.0,
                events: EventSpec::None,
            },
            SweepSpec::ChainLength {
                max: FastScaled { full: 3, fast: 2 },
            },
        )
        .policy(PolicySpec::Baseline("first-fit".into()));
        let point = &manifest.expand(false).points[0];
        assert_eq!(point.scenarios.len(), 3);
        assert_eq!(point.scenarios[2].label, "len=3");
        assert_eq!(
            point.scenarios[1].scenario.workload.chain_mix,
            vec![0.0, 1.0, 0.0]
        );
        assert!(point.catalogs.is_some());
    }
}
