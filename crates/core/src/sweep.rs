//! Parallel scenario sweeps over shared compiled artifacts.
//!
//! The paper's headline figures (15–20) all sweep the price-conscious
//! router across a grid of what-ifs — distance thresholds, reaction delays,
//! elasticity models, bandwidth regimes, and (Figures 15–19) *where the
//! clusters are*. Every grid point is a full trace replay, so a
//! [`ScenarioSweep`] runs such a grid as one unit: everything that is
//! constant per (deployment, trace, prices) is compiled exactly once into a
//! [`CompiledArtifacts`] cache — one [`BillingMatrix`] and one
//! [`CompiledPreferences`] per distinct deployment, one per-delay
//! [`PriceTable`] view per (deployment, reaction delay) — and shared
//! immutably across a small pool of scoped worker threads.
//!
//! Grids may vary the **deployment** as well as the configuration and
//! policy: register alternative cluster sets with
//! [`ScenarioSweep::add_deployment`] and place points on them with
//! [`ScenarioSweep::add_point_on`]. All deployments are routed over the
//! same trace and price set (the trace is per-client-state, so it is
//! deployment-independent; the price set must cover every hub any
//! deployment uses).
//!
//! **Route once, account many.** The energy model prices the loads and
//! never routes them, so cells that differ only in
//! [`SimulationConfig::energy`] replay the same allocation stream. The
//! sweep runs each set of such cells as one *group*: cells whose routing
//! inputs — deployment index, reaction delay, reallocation interval,
//! [`ConstraintSet`] and bandwidth tariff — agree bit for bit, and whose
//! policies return equal [`RoutingPolicy::routing_key`]s, share one policy
//! instance and one replay, accounted in one engine lane per cell (see
//! [`SimulationEngine`](crate::engine::SimulationEngine)); every cell still
//! gets its own report, bit-identical to running it alone. Groups are
//! resolved lazily, in grid order, behind the work cursor: the worker that
//! takes the lowest unclaimed cell builds its policy and, only when that
//! policy has a key, builds the policies of later unclaimed cells with the
//! same routing inputs and claims those whose key is equal. So the
//! grouping does not depend on which worker resolves what. A keyless
//! policy (the default) is a group of one, built by the worker that runs
//! it, immediately before its replay — once per cell.
//!
//! Results come back as one [`SweepReport`] from [`ScenarioSweep::execute`]:
//! each worker keeps the reports of the cells it ran until the pool joins,
//! and the report lists them in grid order whichever worker ran each cell.
//! `execute` takes a [`RunOptions`], whose
//! [`reuse_artifacts`](RunOptions::reuse_artifacts) option shares one
//! compiled-artifact cache across a sequence of sweeps. The report
//! serializes through the same dependency-free JSON module as individual
//! [`SimulationReport`]s; two golden sweep reports are checked by
//! `crates/bench/tests/goldens.rs` in tier-1, so engine refactors cannot
//! silently change results.
//!
//! ```
//! use wattroute::prelude::*;
//! use wattroute::sweep::ScenarioSweep;
//!
//! let start = SimHour::from_date(2008, 12, 19);
//! let scenario = Scenario::custom_window(7, HourRange::new(start, start.plus_hours(24)));
//! let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
//! for threshold in [0.0, 1500.0] {
//!     sweep.add_point(format!("t{threshold}"), scenario.config.clone(), move || {
//!         PriceConsciousPolicy::with_distance_threshold(threshold)
//!     });
//! }
//! let report = sweep.execute(RunOptions::new());
//! assert_eq!(report.runs.len(), 2);
//! assert!(report.get("t1500").unwrap().total_cost_dollars > 0.0);
//! ```

use crate::constraints::BandwidthTariff;
use crate::engine::Threads;
use crate::json::{self, JsonValue};
use crate::report::{array_field, field, str_field, ReportDecodeError, SimulationReport};
use crate::run::RunOptions;
use crate::simulation::{step_coverage, Simulation, SimulationConfig};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use wattroute_energy::model::EnergyModelParams;
use wattroute_market::price_table::{BillingMatrix, PriceTable};
use wattroute_market::time::HourRange;
use wattroute_market::types::PriceSet;
use wattroute_routing::constraints::ConstraintSet;
use wattroute_routing::policy::RoutingPolicy;
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_workload::trace::Trace;
use wattroute_workload::ClusterSet;

/// Builds a fresh policy instance for one sweep run. Factories (not policy
/// instances) are what the grid stores, because runs execute concurrently
/// and policies are stateful (`allocate` takes `&mut self`). When an
/// earlier cell's policy has a routing key, the sweep may also call a
/// factory just to read its policy's key (see the module docs), so every
/// call must build an equal policy.
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn RoutingPolicy> + Send + Sync>;

/// The label every implicit (single-deployment) sweep uses for its
/// deployment.
pub const DEFAULT_DEPLOYMENT: &str = "default";

/// One deployment registered with a sweep: a label and the caller-owned
/// cluster set it names.
pub struct Deployment<'a> {
    /// Stable label identifying the deployment in run results.
    pub label: String,
    /// The cluster set routed over.
    pub clusters: &'a ClusterSet,
}

/// One grid point: a label, the deployment it routes over, a simulation
/// configuration, and the policy to run under it.
pub struct SweepPoint {
    /// Stable label identifying the point in the [`SweepReport`].
    pub label: String,
    /// Index of the deployment (see [`ScenarioSweep::add_deployment`]) this
    /// point routes over.
    pub deployment: usize,
    /// The configuration for this run.
    pub config: SimulationConfig,
    /// Factory for the policy to run.
    pub policy: PolicyFactory,
}

/// Everything a sweep compiles once and shares read-only across its worker
/// threads:
///
/// * one [`BillingMatrix`] per distinct deployment hub list (delay- and
///   policy-independent);
/// * one [`CompiledPreferences`] per distinct deployment hub list (the
///   client–cluster geometry every replay's engine routes and accounts
///   over — state-list dependent, but a sweep has a single trace and
///   therefore a single state list);
/// * one [`PriceTable`] per (deployment hub list, reaction delay): a thin
///   delayed-price view over the shared billing matrix.
///
/// Deployments whose hub lists are equal (for example, capacity-rescaled
/// variants of one deployment) share all three. Before this cache existed
/// every run compiled its own preferences and every distinct delay stored
/// its own copy of the billing matrix.
///
/// The cache **persists across sweeps**: [`ScenarioSweep::execute`] takes
/// one through [`RunOptions::reuse_artifacts`] and only compiles what an
/// earlier sweep (over the same trace and price set) has not already
/// compiled. The deployment optimizer leans on this — every capacity split
/// over one hub list shares a single billing matrix and preference
/// geometry across *all* search iterations, and [`Self::hub_list_hits`] /
/// [`Self::hub_list_misses`] report how often the cache paid off.
#[derive(Default)]
pub struct CompiledArtifacts {
    /// Deployment index → artifact slot for the **most recently extended**
    /// grid (deployments with equal hub lists share a slot). `None` for
    /// deployments no grid point references.
    slot_of: Vec<Option<usize>>,
    billing: Vec<Arc<BillingMatrix>>,
    preferences: Vec<Arc<CompiledPreferences>>,
    tables: BTreeMap<(usize, u64), PriceTable>,
    hub_list_hits: usize,
    hub_list_misses: usize,
    /// Shape fingerprint of the scenario the cache was first extended
    /// over: (step-coverage range, client-state count, price-series
    /// count). Artifacts are keyed by hub list only, so reusing a cache
    /// across scenarios would silently serve wrong prices/geometry; the
    /// fingerprint turns the most likely misuses into a panic instead.
    scenario: Option<(HourRange, usize, usize)>,
}

impl CompiledArtifacts {
    /// An empty cache, ready to be handed to [`ScenarioSweep::execute`]
    /// through [`RunOptions::reuse_artifacts`] (and kept across sweeps).
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile whatever the given grid needs that this cache does not hold
    /// yet, and re-point the deployment-index mapping at the new grid's
    /// deployments. `cells` lists the (deployment index, reaction delay)
    /// of every grid point; each artifact is compiled at most once however
    /// many cells reference it. Deployments whose hub list was already
    /// compiled — by this call or any earlier one — reuse the cached
    /// artifacts (counted in [`Self::hub_list_hits`]).
    ///
    /// All grids extending one cache must share the trace's state list and
    /// the price set, as sweeps over one scenario do; the per-hub-list
    /// keying is only valid under that invariant.
    ///
    /// # Panics
    /// Panics if the grid's scenario *shape* (trace coverage, state
    /// count, price-series count) differs from the one the cache was
    /// first extended over — the cheap, reliable part of the invariant.
    pub fn extend(
        &mut self,
        deployments: &[Deployment<'_>],
        trace: &Trace,
        prices: &PriceSet,
        cells: &[(usize, u64)],
    ) {
        let range = step_coverage(trace);
        let fingerprint = (range, trace.states.len(), prices.series.len());
        match &self.scenario {
            None => self.scenario = Some(fingerprint),
            Some(seen) => assert_eq!(
                *seen, fingerprint,
                "CompiledArtifacts cache reused across scenarios: caches are keyed by hub \
                 list and must only be shared by sweeps over one trace and price set"
            ),
        }
        self.slot_of = vec![None; deployments.len()];
        for &(deployment, delay_hours) in cells {
            let clusters = deployments[deployment].clusters;
            let slot = match self.slot_of[deployment] {
                Some(slot) => slot,
                None => {
                    let hub_ids = clusters.hub_ids();
                    let slot = match self.billing.iter().position(|b| b.hubs() == hub_ids) {
                        Some(slot) => {
                            self.hub_list_hits += 1;
                            wattroute_obs::counter!("sweep.artifact_cache.hits").inc();
                            slot
                        }
                        None => {
                            self.hub_list_misses += 1;
                            wattroute_obs::counter!("sweep.artifact_cache.misses").inc();
                            self.billing
                                .push(Arc::new(BillingMatrix::build(prices, &hub_ids, range)));
                            self.preferences.push(Arc::new(CompiledPreferences::build(
                                clusters,
                                &trace.states,
                            )));
                            self.billing.len() - 1
                        }
                    };
                    self.slot_of[deployment] = Some(slot);
                    slot
                }
            };
            self.tables.entry((slot, delay_hours)).or_insert_with(|| {
                PriceTable::delayed_view(self.billing[slot].clone(), prices, delay_hours)
            });
        }
        if let Some(rate) = self.hit_rate() {
            wattroute_obs::gauge!("sweep.artifact_cache.hit_rate").set(rate);
        }
    }

    /// The compiled price table for a (deployment, reaction delay) cell.
    ///
    /// # Panics
    /// Panics if the cell was not in the grid the artifacts were compiled
    /// for.
    pub fn table(&self, deployment: usize, delay_hours: u64) -> &PriceTable {
        let slot = self.slot_of[deployment].expect("deployment has a compiled slot");
        self.tables.get(&(slot, delay_hours)).expect("cell was compiled")
    }

    /// The shared client–cluster geometry for a deployment.
    ///
    /// # Panics
    /// Panics if no grid point referenced the deployment.
    pub fn preferences(&self, deployment: usize) -> &Arc<CompiledPreferences> {
        &self.preferences[self.slot_of[deployment].expect("deployment has a compiled slot")]
    }

    /// Number of billing matrices compiled (== number of distinct
    /// referenced hub lists).
    pub fn billing_matrices(&self) -> usize {
        self.billing.len()
    }

    /// Number of client–cluster geometries compiled.
    pub fn compiled_preferences(&self) -> usize {
        self.preferences.len()
    }

    /// Number of per-delay price-table views compiled (== number of
    /// distinct (hub list, delay) pairs).
    pub fn delayed_views(&self) -> usize {
        self.tables.len()
    }

    /// How many deployment resolutions found their hub list already
    /// compiled — within one grid or by an earlier sweep extending this
    /// cache.
    pub fn hub_list_hits(&self) -> usize {
        self.hub_list_hits
    }

    /// How many deployment resolutions had to compile a new hub list.
    pub fn hub_list_misses(&self) -> usize {
        self.hub_list_misses
    }

    /// Fraction of deployment resolutions served from cache (`None` before
    /// anything was resolved).
    pub fn hit_rate(&self) -> Option<f64> {
        let lookups = self.hub_list_hits + self.hub_list_misses;
        (lookups > 0).then(|| self.hub_list_hits as f64 / lookups as f64)
    }
}

/// A grid of simulation runs over one trace and price set (and one or more
/// deployments), executed on a worker pool with all compiled artifacts
/// shared.
pub struct ScenarioSweep<'a> {
    deployments: Vec<Deployment<'a>>,
    trace: &'a Trace,
    prices: &'a PriceSet,
    points: Vec<SweepPoint>,
    threads: Option<usize>,
}

impl<'a> ScenarioSweep<'a> {
    /// Start an empty sweep over a deployment, trace, and price set. The
    /// given cluster set becomes deployment `0`, labelled
    /// [`DEFAULT_DEPLOYMENT`]; register alternatives with
    /// [`Self::add_deployment`].
    pub fn new(clusters: &'a ClusterSet, trace: &'a Trace, prices: &'a PriceSet) -> Self {
        Self {
            deployments: vec![Deployment { label: DEFAULT_DEPLOYMENT.into(), clusters }],
            trace,
            prices,
            points: Vec::new(),
            threads: None,
        }
    }

    /// Pin the worker-pool size (default: available parallelism, capped by
    /// the number of grid points).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "worker pool needs at least one thread");
        self.threads = Some(threads);
        self
    }

    /// Register an alternative deployment and return its index for
    /// [`Self::add_point_on`]. The price set must cover every hub the
    /// deployment uses (validated when the sweep runs).
    pub fn add_deployment(&mut self, label: impl Into<String>, clusters: &'a ClusterSet) -> usize {
        self.deployments.push(Deployment { label: label.into(), clusters });
        self.deployments.len() - 1
    }

    /// Add one grid point on the default deployment.
    pub fn add_point<F, P>(&mut self, label: impl Into<String>, config: SimulationConfig, policy: F)
    where
        F: Fn() -> P + Send + Sync + 'static,
        P: RoutingPolicy + 'static,
    {
        self.add_point_on(0, label, config, policy);
    }

    /// Add one grid point on a registered deployment.
    ///
    /// # Panics
    /// Panics if `deployment` is not a registered deployment index.
    pub fn add_point_on<F, P>(
        &mut self,
        deployment: usize,
        label: impl Into<String>,
        config: SimulationConfig,
        policy: F,
    ) where
        F: Fn() -> P + Send + Sync + 'static,
        P: RoutingPolicy + 'static,
    {
        self.add_boxed_point_on(deployment, label, config, Box::new(move || Box::new(policy())));
    }

    /// Sweep the **constraint regime** as a grid dimension: add one point
    /// per `(variant label, ConstraintSet)` pair, each running `config`
    /// with its constraint set replaced by the variant's and labelled
    /// `"{label}@{variant}"`. Pair with
    /// [`CalibratedScenario::constraints`](crate::constraints::CalibratedScenario::constraints)
    /// to grid over cap multipliers (the savings-vs-slack curve of
    /// `fig_bandwidth`), or with
    /// [`ConstraintSet::unconstrained`] for a constrained-vs-unconstrained
    /// axis.
    ///
    /// Constraints are run-state, not compiled geometry: however many
    /// variants a grid sweeps, the deployment's artifacts (billing matrix,
    /// preference geometry, delayed views) are compiled exactly once —
    /// pinned by `sweep_compile_counts`.
    pub fn add_constraint_axis<F, P>(
        &mut self,
        deployment: usize,
        label: impl AsRef<str>,
        config: SimulationConfig,
        variants: impl IntoIterator<Item = (String, ConstraintSet)>,
        policy: F,
    ) where
        F: Fn() -> P + Clone + Send + Sync + 'static,
        P: RoutingPolicy + 'static,
    {
        let label = label.as_ref();
        for (variant, constraints) in variants {
            self.add_point_on(
                deployment,
                format!("{label}@{variant}"),
                config.clone().with_constraints(constraints),
                policy.clone(),
            );
        }
    }

    /// Add a pre-boxed grid point on the default deployment (for
    /// heterogeneous policy grids).
    pub fn add_boxed_point(
        &mut self,
        label: impl Into<String>,
        config: SimulationConfig,
        policy: PolicyFactory,
    ) {
        self.add_boxed_point_on(0, label, config, policy);
    }

    /// Add a pre-boxed grid point on a registered deployment.
    ///
    /// # Panics
    /// Panics if `deployment` is not a registered deployment index.
    pub fn add_boxed_point_on(
        &mut self,
        deployment: usize,
        label: impl Into<String>,
        config: SimulationConfig,
        policy: PolicyFactory,
    ) {
        assert!(
            deployment < self.deployments.len(),
            "deployment index {deployment} is not registered (have {})",
            self.deployments.len()
        );
        self.points.push(SweepPoint { label: label.into(), deployment, config, policy });
    }

    /// Number of grid points queued.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Compile the shared artifacts and execute every grid point, in
    /// parallel, returning reports in grid order. A panic in a worker (a
    /// policy's, or a policy factory's) reaches the caller with its own
    /// payload.
    ///
    /// Honoured option: [`RunOptions::reuse_artifacts`] (a caller-owned
    /// compiled-artifact cache shared across sweeps; the cache is keyed by
    /// hub list, so every sweep extending one cache must use the same
    /// trace and price set). A configuration override belongs to the
    /// scenario layer and panics here (see [`crate::run`]).
    pub fn execute(self, options: RunOptions<'_>) -> SweepReport {
        let RunOptions { config, artifacts } = options;
        assert!(
            config.is_none(),
            "RunOptions::with_config applies to single scenario runs; \
             each sweep point already carries its own configuration"
        );
        let mut fresh = CompiledArtifacts::new();
        let artifacts = artifacts.unwrap_or(&mut fresh);
        let cells: Vec<(usize, u64)> =
            self.points.iter().map(|p| (p.deployment, p.config.reaction_delay_hours)).collect();
        artifacts.extend(&self.deployments, self.trace, self.prices, &cells);
        let artifacts: &CompiledArtifacts = artifacts;

        let cursor = Mutex::new(Cursor::new(&self.points));
        let workers = crate::worker_count(self.threads, self.points.len());
        let mut runs: Vec<(usize, SweepRun)> = crate::pool(workers, |_| {
            let mut runs = Vec::new();
            loop {
                let next = match cursor.lock() {
                    Ok(mut cursor) => cursor.next_group(&self.points),
                    // Another worker panicked resolving a group; the join
                    // re-raises that panic.
                    Err(_) => break,
                };
                let Some((cells, mut policy)) = next else { break };
                let lead = &self.points[cells[0]];
                let deployment = &self.deployments[lead.deployment];
                let table = artifacts.table(lead.deployment, lead.config.reaction_delay_hours);
                let sim = Simulation::with_price_table(
                    deployment.clusters,
                    self.trace,
                    Cow::Borrowed(table),
                    lead.config.clone(),
                );
                let lanes: Vec<EnergyModelParams> =
                    cells[1..].iter().map(|&cell| self.points[cell].config.energy).collect();
                let geometry = Arc::clone(artifacts.preferences(lead.deployment));
                let replay_span = wattroute_obs::span!("sweep.replay");
                let reports = sim.replay(Threads::One, policy.as_mut(), geometry, &lanes).reports();
                drop(replay_span);
                wattroute_obs::counter!("sweep.lanes").add(cells.len() as u64);
                runs.extend(cells.into_iter().zip(reports).map(|(cell, report)| {
                    let label = self.points[cell].label.clone();
                    (cell, SweepRun { label, deployment: deployment.label.clone(), report })
                }));
            }
            runs
        })
        .into_iter()
        .flatten()
        .collect();
        // The cursor hands out each cell once, so sorting by cell restores
        // grid order.
        runs.sort_unstable_by_key(|&(cell, _)| cell);
        SweepReport { runs: runs.into_iter().map(|(_, run)| run).collect() }
    }
}

/// Every input of a cell's replay except its energy model and its policy,
/// as exact bits: the deployment index, reaction delay, reallocation
/// interval, constraint set and tariff. Cells with equal words whose
/// policies share a [`RoutingPolicy::routing_key`] replay the same
/// allocation stream, since the energy model only prices the loads.
fn routing_inputs(point: &SweepPoint) -> Vec<u64> {
    // Field by field, so a new configuration field must be keyed (or
    // shown not to reach the shared replay, as `energy`) before it
    // compiles.
    let SimulationConfig {
        energy: _,
        reaction_delay_hours,
        constraints,
        reallocate_every_steps,
        bandwidth_tariff,
    } = &point.config;
    let mut key =
        vec![point.deployment as u64, *reaction_delay_hours, *reallocate_every_steps as u64];
    constraints.push_bits(&mut key);
    key.push(u64::from(bandwidth_tariff.is_some()));
    if let Some(BandwidthTariff { dollars_per_mbps_month, megabits_per_hit }) = bandwidth_tariff {
        key.extend([dollars_per_mbps_month.to_bits(), megabits_per_hit.to_bits()]);
    }
    key
}

/// The sweep's work cursor. Groups are resolved under its lock, lazily and
/// in grid order — each from the lowest cell no group has claimed — so
/// the grouping is the same whichever worker resolves each group.
struct Cursor {
    /// No cell below this is left to run.
    next: usize,
    /// Cells a group has claimed.
    claimed: Vec<bool>,
    /// Each cell's next cell in grid order with bit-equal
    /// [`routing_inputs`], if any: a group only forms along one chain.
    same_routing: Vec<Option<usize>>,
}

impl Cursor {
    /// A cursor at the grid's first cell, with the cells chained by
    /// routing inputs once, before any worker starts.
    fn new(points: &[SweepPoint]) -> Self {
        let mut later: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut same_routing = vec![None; points.len()];
        for (cell, point) in points.iter().enumerate().rev() {
            same_routing[cell] = later.insert(routing_inputs(point), cell);
        }
        Self { next: 0, claimed: vec![false; points.len()], same_routing }
    }

    /// Claim the next group: its cells in grid order, the first leading,
    /// and the policy that routes them, built from the lead's factory. A
    /// keyless lead is a group of one. A keyed lead also builds the
    /// policy of every later unclaimed cell with the same routing inputs
    /// and claims the cells whose key equals its own.
    fn next_group(
        &mut self,
        points: &[SweepPoint],
    ) -> Option<(Vec<usize>, Box<dyn RoutingPolicy>)> {
        while self.claimed.get(self.next) == Some(&true) {
            self.next += 1;
        }
        let lead = self.next;
        let point = points.get(lead)?;
        self.next += 1;
        let policy = (point.policy)();
        let mut cells = vec![lead];
        if let Some(key) = policy.routing_key() {
            let mut later = self.same_routing[lead];
            while let Some(cell) = later {
                if !self.claimed[cell]
                    && (points[cell].policy)().routing_key().as_ref() == Some(&key)
                {
                    self.claimed[cell] = true;
                    cells.push(cell);
                }
                later = self.same_routing[cell];
            }
        }
        Some((cells, policy))
    }
}

/// One completed sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// The grid point's label.
    pub label: String,
    /// Label of the deployment the run routed over.
    pub deployment: String,
    /// The simulation report it produced.
    pub report: SimulationReport,
}

/// All runs of a sweep, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One entry per grid point, in the order the points were added.
    pub runs: Vec<SweepRun>,
}

impl SweepReport {
    /// The report for a labelled grid point, if present.
    pub fn get(&self, label: &str) -> Option<&SimulationReport> {
        self.runs.iter().find(|r| r.label == label).map(|r| &r.report)
    }

    /// The report for a (deployment label, point label) pair, if present —
    /// the lookup to use when a multi-deployment grid reuses point labels
    /// across deployments.
    pub fn get_on(&self, deployment: &str, label: &str) -> Option<&SimulationReport> {
        self.runs.iter().find(|r| r.deployment == deployment && r.label == label).map(|r| &r.report)
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Encode as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        json::object([(
            "runs",
            JsonValue::Array(
                self.runs
                    .iter()
                    .map(|r| {
                        json::object([
                            ("label", JsonValue::String(r.label.clone())),
                            ("deployment", JsonValue::String(r.deployment.clone())),
                            ("report", r.report.to_json_value()),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// Deserialize from JSON text produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, ReportDecodeError> {
        let v = JsonValue::parse(text)?;
        let runs = array_field(&v, "runs")?
            .iter()
            .map(|entry| {
                // Absent in pre-multi-deployment reports; default rather
                // than reject so old golden files stay readable.
                let deployment = entry
                    .get("deployment")
                    .and_then(JsonValue::as_str)
                    .unwrap_or(DEFAULT_DEPLOYMENT)
                    .to_string();
                Ok(SweepRun {
                    label: str_field(entry, "label")?,
                    deployment,
                    report: SimulationReport::from_json_value(field(entry, "report")?)?,
                })
            })
            .collect::<Result<Vec<_>, ReportDecodeError>>()?;
        Ok(Self { runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panics::{panic_message, Boom};
    use crate::scenario::Scenario;
    use wattroute_market::time::{HourRange, SimHour};
    use wattroute_routing::allocation::Allocation;
    use wattroute_routing::baseline::AkamaiLikePolicy;
    use wattroute_routing::policy::{RoutingContext, RoutingKey};
    use wattroute_routing::price_conscious::PriceConsciousPolicy;

    fn short_scenario() -> Scenario {
        let start = SimHour::from_date(2008, 12, 19);
        Scenario::custom_window(17, HourRange::new(start, start.plus_hours(36)))
    }

    /// A five-cluster east-coast subset of the nine-cluster deployment.
    fn east_coast(of: &ClusterSet) -> ClusterSet {
        ClusterSet::new(
            of.clusters()
                .iter()
                .filter(|c| matches!(c.label.as_str(), "MA" | "NY" | "VA" | "NJ" | "IL"))
                .cloned()
                .collect(),
        )
    }

    #[test]
    fn sweep_matches_sequential_runs_exactly() {
        let s = short_scenario();
        let thresholds = [0.0, 1000.0, 2000.0];

        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
        sweep.add_point("baseline", s.config.clone(), AkamaiLikePolicy::default);
        for t in thresholds {
            sweep.add_point(format!("t{t}"), s.config.clone(), move || {
                PriceConsciousPolicy::with_distance_threshold(t)
            });
        }
        let report = sweep.execute(RunOptions::new());
        assert_eq!(report.runs.len(), 4);
        assert!(report.runs.iter().all(|r| r.deployment == DEFAULT_DEPLOYMENT));

        let sequential_baseline = s.execute(&mut AkamaiLikePolicy::default(), RunOptions::new());
        assert_eq!(report.runs[0].report, sequential_baseline);
        for (i, t) in thresholds.iter().enumerate() {
            let sequential = s
                .execute(&mut PriceConsciousPolicy::with_distance_threshold(*t), RunOptions::new());
            assert_eq!(&report.runs[i + 1].report, &sequential, "threshold {t}");
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_payload() {
        let s = short_scenario();
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
        sweep.add_point("baseline", s.config.clone(), AkamaiLikePolicy::default);
        sweep.add_point("boom", s.config.clone(), || Boom::on_call(20));
        sweep.add_point("pc", s.config.clone(), || {
            PriceConsciousPolicy::with_distance_threshold(1500.0)
        });
        let message = panic_message(|| drop(sweep.execute(RunOptions::new())));
        assert_eq!(message, "boom from the policy");

        // A factory that panics while a worker resolves its group under
        // the cursor's lock: the other worker stops, and the caller sees
        // the factory's panic.
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
        sweep.add_point("baseline", s.config.clone(), AkamaiLikePolicy::default);
        sweep.add_point("bad factory", s.config.clone(), || -> AkamaiLikePolicy {
            panic!("boom from the factory")
        });
        sweep.add_point("pc", s.config.clone(), || {
            PriceConsciousPolicy::with_distance_threshold(1500.0)
        });
        let message = panic_message(|| drop(sweep.execute(RunOptions::new())));
        assert_eq!(message, "boom from the factory");
    }

    #[test]
    fn sweep_shares_tables_across_delays_and_respects_order() {
        let s = short_scenario();
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
        for delay in [0u64, 1, 1, 6] {
            sweep.add_point(
                format!("d{delay}-{}", sweep.len()),
                s.config.clone().with_reaction_delay(delay),
                || PriceConsciousPolicy::with_distance_threshold(1500.0),
            );
        }
        let report = sweep.execute(RunOptions::new());
        assert_eq!(report.runs.len(), 4);
        // Grid order is preserved regardless of which worker finished first.
        assert!(report.runs[0].label.starts_with("d0"));
        assert!(report.runs[3].label.starts_with("d6"));
        // Same-delay runs are byte-identical (shared table, same policy).
        assert_eq!(report.runs[1].report, report.runs[2].report);
        // Delay changes routing and therefore cost.
        assert_ne!(
            report.runs[0].report.total_cost_dollars,
            report.runs[3].report.total_cost_dollars
        );
    }

    #[test]
    fn multi_deployment_grid_matches_per_deployment_sequential_runs() {
        let s = short_scenario();
        let east = east_coast(&s.clusters);
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
        let east_id = sweep.add_deployment("east", &east);
        for (dep, label) in [(0usize, "nine"), (east_id, "east")] {
            sweep.add_point_on(dep, format!("{label}:pc"), s.config.clone(), || {
                PriceConsciousPolicy::with_distance_threshold(1500.0)
            });
            sweep.add_point_on(dep, format!("{label}:base"), s.config.clone(), || {
                AkamaiLikePolicy::default()
            });
        }
        let report = sweep.execute(RunOptions::new());
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.runs[0].deployment, DEFAULT_DEPLOYMENT);
        assert_eq!(report.runs[2].deployment, "east");
        assert!(report.get_on("east", "east:pc").is_some());
        assert!(report.get_on("east", "nine:pc").is_none());

        // Each cell is bit-identical to a sequential Simulation over its own
        // deployment (per-run compile, no sharing).
        for (clusters, label) in [(&s.clusters, "nine"), (&east, "east")] {
            let sim = Simulation::new(clusters, &s.trace, &s.prices, s.config.clone());
            let pc = sim.execute(&mut PriceConsciousPolicy::with_distance_threshold(1500.0));
            let base = sim.execute(&mut AkamaiLikePolicy::default());
            assert_eq!(report.get(&format!("{label}:pc")), Some(&pc));
            assert_eq!(report.get(&format!("{label}:base")), Some(&base));
        }

        // Fewer, more distant clusters cannot serve traffic more cheaply
        // with the same policy and elasticity while obeying capacity.
        assert_ne!(
            report.get("nine:base").unwrap().total_cost_dollars,
            report.get("east:base").unwrap().total_cost_dollars,
        );
    }

    #[test]
    fn constraint_axis_points_match_sequential_constrained_runs() {
        use crate::constraints::CalibratedScenario;

        let s = short_scenario();
        let calibrated = CalibratedScenario::calibrate(&s);
        let multipliers = [1.0, 1.3, f64::INFINITY];

        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
        sweep.add_constraint_axis(
            0,
            "pc",
            s.config.clone(),
            multipliers
                .iter()
                .map(|&m| (format!("x{m}"), calibrated.constraints(&s.config.constraints, m))),
            || PriceConsciousPolicy::with_distance_threshold(1500.0),
        );
        assert_eq!(sweep.len(), 3);
        let report = sweep.execute(RunOptions::new());

        for &m in &multipliers {
            let config = calibrated.constrained_config(&s.config, m);
            let sequential = s.execute(
                &mut PriceConsciousPolicy::with_distance_threshold(1500.0),
                RunOptions::new().with_config(config),
            );
            assert_eq!(report.get(&format!("pc@x{m}")), Some(&sequential), "multiplier {m}");
        }
        // The ∞ variant is bandwidth-relaxed; the 1.0 variant is not.
        assert!(report.get("pc@x1").unwrap().bandwidth_constrained);
        assert!(!report.get("pc@xinf").unwrap().bandwidth_constrained);
    }

    #[test]
    fn topology_axis_adds_flat_and_tiered_points_that_match_sequential_runs() {
        use wattroute_geo::topology::Topology;
        use wattroute_market::generator::PriceGenerator;
        use wattroute_market::model::MarketModel;
        use wattroute_routing::constraints::TierCaps;
        use wattroute_workload::hierarchy::site_clusters;
        use wattroute_workload::SyntheticWorkloadConfig;

        let start = SimHour::from_date(2008, 12, 19);
        let range = HourRange::new(start, start.plus_hours(30));
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 11).realtime_hourly(range);
        let nine = ClusterSet::akamai_like_nine();
        let config = SimulationConfig::default();

        // A site-level deployment flattened from a capped tree, swept flat
        // (sites individually capped only) and under the tree's tier caps.
        let capped = Topology::synthetic(5, 40).with_tier_slack(0.8);
        let sites = site_clusters(&capped);
        let tiers = TierCaps::from_topology(&capped).expect("capped tree has tier caps");
        let tiered_config =
            config.clone().with_constraints(config.constraints.clone().with_tier_caps(tiers));
        let policy = || PriceConsciousPolicy::with_distance_threshold(1500.0);

        let mut sweep = ScenarioSweep::new(&nine, &trace, &prices).with_threads(2);
        let tree = sweep.add_deployment("tree-sites", &sites);
        sweep.add_point_on(tree, "tree@flat", config.clone(), policy);
        sweep.add_point_on(tree, "tree@tiered", tiered_config.clone(), policy);
        let report = sweep.execute(RunOptions::new());

        // Each point is bit-identical to a sequential run over the
        // flattened site deployment, the tiered one with the tree's caps
        // installed.
        for (label, config) in [("tree@flat", config), ("tree@tiered", tiered_config)] {
            let sequential =
                Simulation::new(&sites, &trace, &prices, config).execute(&mut policy());
            assert_eq!(report.get_on("tree-sites", label), Some(&sequential), "{label}");
        }
    }

    #[test]
    fn artifacts_compile_once_per_deployment_and_delay() {
        let s = short_scenario();
        let east = east_coast(&s.clusters);
        let scaled = s.clusters.scaled(0.5); // same hub list as the default
        let deployments = [
            Deployment { label: "nine".into(), clusters: &s.clusters },
            Deployment { label: "east".into(), clusters: &east },
            Deployment { label: "scaled".into(), clusters: &scaled },
        ];
        // 3 deployments × 2 delays, every cell listed twice over.
        let mut cells = Vec::new();
        for dep in 0..3 {
            for delay in [0u64, 3] {
                cells.push((dep, delay));
                cells.push((dep, delay));
            }
        }
        let mut artifacts = CompiledArtifacts::new();
        artifacts.extend(&deployments, &s.trace, &s.prices, &cells);
        // "nine" and "scaled" share a hub list, so two distinct hub lists.
        assert_eq!(artifacts.billing_matrices(), 2);
        assert_eq!(artifacts.compiled_preferences(), 2);
        assert_eq!(artifacts.delayed_views(), 2 * 2);
        // Shared slots hand back the same Arc.
        assert!(Arc::ptr_eq(artifacts.preferences(0), artifacts.preferences(2)));
        assert!(!Arc::ptr_eq(artifacts.preferences(0), artifacts.preferences(1)));
        assert!(std::ptr::eq(artifacts.table(0, 3), artifacts.table(2, 3)));
        assert_eq!(artifacts.table(1, 0).hubs(), &east.hub_ids()[..]);
    }

    #[test]
    fn shared_cache_is_reused_across_sweeps_and_results_are_unchanged() {
        fn build<'a>(s: &'a Scenario, east: &'a ClusterSet) -> ScenarioSweep<'a> {
            let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
            let east_id = sweep.add_deployment("east", east);
            for (dep, label) in [(0usize, "nine"), (east_id, "east")] {
                sweep.add_point_on(dep, format!("{label}:pc"), s.config.clone(), || {
                    PriceConsciousPolicy::with_distance_threshold(1500.0)
                });
            }
            sweep
        }
        let s = short_scenario();
        let east = east_coast(&s.clusters);

        let mut cache = CompiledArtifacts::new();
        let first = build(&s, &east).execute(RunOptions::new().reuse_artifacts(&mut cache));
        assert_eq!(cache.billing_matrices(), 2);
        assert_eq!(cache.hub_list_misses(), 2);
        assert_eq!(cache.hub_list_hits(), 0);

        // The second sweep revisits both hub lists: everything is a cache
        // hit, nothing new is compiled, and results are bit-identical.
        let second = build(&s, &east).execute(RunOptions::new().reuse_artifacts(&mut cache));
        assert_eq!(cache.billing_matrices(), 2);
        assert_eq!(cache.compiled_preferences(), 2);
        assert_eq!(cache.delayed_views(), 2);
        assert_eq!(cache.hub_list_misses(), 2);
        assert_eq!(cache.hub_list_hits(), 2);
        assert_eq!(cache.hit_rate(), Some(0.5));
        assert_eq!(first, second);

        // And a fresh-cache run agrees too.
        let fresh = build(&s, &east).execute(RunOptions::new());
        assert_eq!(first, fresh);
    }

    #[test]
    #[should_panic(expected = "reused across scenarios")]
    fn cache_reuse_across_scenarios_is_rejected() {
        let s = short_scenario();
        let start = SimHour::from_date(2008, 12, 19);
        let other = Scenario::custom_window(17, HourRange::new(start, start.plus_hours(48)));

        fn build(s: &Scenario) -> ScenarioSweep<'_> {
            let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
            sweep.add_point("pc", s.config.clone(), || {
                PriceConsciousPolicy::with_distance_threshold(1500.0)
            });
            sweep
        }
        let mut cache = CompiledArtifacts::new();
        build(&s).execute(RunOptions::new().reuse_artifacts(&mut cache));
        // A different window (and therefore coverage) must be refused —
        // the cache would otherwise serve the first scenario's prices.
        build(&other).execute(RunOptions::new().reuse_artifacts(&mut cache));
    }

    #[test]
    fn sweep_report_round_trips_through_json() {
        let s = short_scenario();
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
        sweep.add_point("only", s.config.clone(), AkamaiLikePolicy::default);
        let report = sweep.execute(RunOptions::new());
        let json = report.to_json();
        let back = SweepReport::from_json(&json).expect("round trip");
        assert_eq!(report, back);
        assert!(report.get("only").is_some());
        assert!(report.get("missing").is_none());
        assert_eq!(back.runs[0].deployment, DEFAULT_DEPLOYMENT);
    }

    #[test]
    fn legacy_json_without_deployment_labels_still_parses() {
        let s = short_scenario();
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
        sweep.add_point("only", s.config.clone(), AkamaiLikePolicy::default);
        let report = sweep.execute(RunOptions::new());
        // Strip the deployment key, as a pre-multi-deployment report would be.
        let stripped = report.to_json().replace("\"deployment\":\"default\",", "");
        let back = SweepReport::from_json(&stripped).expect("legacy JSON parses");
        assert_eq!(back, report);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let s = short_scenario();
        let sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
        assert!(sweep.is_empty());
        let report = sweep.execute(RunOptions::new());
        assert!(report.runs.is_empty());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_deployment_index_is_rejected() {
        let s = short_scenario();
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
        sweep.add_point_on(3, "bad", s.config.clone(), AkamaiLikePolicy::default);
    }

    /// What a sweep's [`Counted`] policies did: factory calls, replays
    /// (instances that routed at all), routing calls, and each dropped
    /// instance's call count.
    #[derive(Default)]
    struct Counts {
        builds: std::sync::atomic::AtomicUsize,
        replays: std::sync::atomic::AtomicUsize,
        calls: std::sync::atomic::AtomicUsize,
        lives: Mutex<Vec<usize>>,
    }

    impl Counts {
        fn get(counter: &std::sync::atomic::AtomicUsize) -> usize {
            counter.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    /// A wrapper that counts into [`Counts`] and checks that it routes on
    /// the thread that built it. It forwards its inner policy's key when
    /// `keyed` and is keyless otherwise.
    struct Counted<P> {
        inner: P,
        keyed: bool,
        counts: Arc<Counts>,
        built_on: std::thread::ThreadId,
        calls: usize,
    }

    impl<P: RoutingPolicy> Counted<P> {
        fn new(inner: P, keyed: bool, counts: &Arc<Counts>) -> Self {
            counts.builds.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let built_on = std::thread::current().id();
            Self { inner, keyed, counts: counts.clone(), built_on, calls: 0 }
        }
    }

    impl<P: RoutingPolicy> RoutingPolicy for Counted<P> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
            assert_eq!(std::thread::current().id(), self.built_on, "routed off its worker");
            if self.calls == 0 {
                self.counts.replays.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            self.calls += 1;
            self.counts.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.allocate_into(out, ctx);
        }

        fn routing_key(&self) -> Option<RoutingKey> {
            self.inner.routing_key().filter(|_| self.keyed)
        }
    }

    impl<P> Drop for Counted<P> {
        fn drop(&mut self) {
            if self.calls > 0 {
                self.counts.lives.lock().expect("no test thread panicked").push(self.calls);
            }
        }
    }

    fn counted_pc(km: f64, keyed: bool, counts: &Arc<Counts>) -> PolicyFactory {
        let counts = counts.clone();
        Box::new(move || {
            Box::new(Counted::new(
                PriceConsciousPolicy::with_distance_threshold(km),
                keyed,
                &counts,
            ))
        })
    }

    #[test]
    fn keyless_policies_are_built_once_per_cell_and_route_every_step_of_it() {
        let s = short_scenario();
        let steps = s.trace.num_steps();
        let counts = Arc::new(Counts::default());
        let per_cell: Arc<Vec<std::sync::atomic::AtomicUsize>> =
            Arc::new((0..6).map(|_| std::sync::atomic::AtomicUsize::new(0)).collect());
        let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
        for cell in 0..6 {
            // Cells differ in energy model only: keyed, they would group.
            let idle = if cell % 2 == 0 { 0.0 } else { 0.65 };
            let config = s.config.clone().with_energy(EnergyModelParams::new(250.0, idle, 1.3));
            let (counts, per_cell) = (counts.clone(), per_cell.clone());
            sweep.add_boxed_point(
                format!("cell{cell}"),
                config,
                Box::new(move || {
                    per_cell[cell].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    Box::new(Counted::new(
                        PriceConsciousPolicy::with_distance_threshold(1500.0),
                        false,
                        &counts,
                    ))
                }),
            );
        }
        let report = sweep.execute(RunOptions::new());
        assert_eq!(report.runs.len(), 6);
        for (cell, builds) in per_cell.iter().enumerate() {
            assert_eq!(Counts::get(builds), 1, "cell {cell} built once");
        }
        assert_eq!(Counts::get(&counts.replays), 6, "one replay per keyless cell");
        let lives = counts.lives.lock().expect("no test thread panicked").clone();
        assert_eq!(lives, vec![steps; 6], "every instance routes every step of its cell");
    }

    #[test]
    fn cells_that_differ_in_one_routing_input_do_not_group() {
        use crate::constraints::BandwidthTariff;
        use wattroute_routing::constraints::OverflowMode;

        let s = short_scenario();
        let n = s.clusters.len();
        let base = s.config.clone();
        // Each pair's second cell also has another energy model, so the
        // pair would share a replay if its routing inputs were equal.
        let other =
            |config: SimulationConfig| config.with_energy(EnergyModelParams::no_power_management());
        let mut zero_cap = vec![1.0e9; n];
        zero_cap[3] = 0.0;
        let mut negative_zero_cap = zero_cap.clone();
        negative_zero_cap[3] = -0.0;
        let cases: Vec<(&str, SimulationConfig, SimulationConfig, usize, f64)> = vec![
            ("energy only", base.clone(), other(base.clone()), 0, 1500.0),
            ("delay", base.clone(), other(base.clone().with_reaction_delay(2)), 0, 1500.0),
            (
                "interval",
                base.clone(),
                other(base.clone().with_reallocation_interval(12)),
                0,
                1500.0,
            ),
            (
                "cap sign",
                base.clone().with_bandwidth_caps(zero_cap),
                other(base.clone().with_bandwidth_caps(negative_zero_cap)),
                0,
                1500.0,
            ),
            (
                "overflow",
                base.clone(),
                other(base.clone().with_overflow(OverflowMode::Reject)),
                0,
                1500.0,
            ),
            (
                "tariff",
                base.clone(),
                other(base.clone().with_bandwidth_tariff(BandwidthTariff::default_cdn())),
                0,
                1500.0,
            ),
            ("deployment", base.clone(), other(base.clone()), 1, 1500.0),
            ("policy key", base.clone(), other(base.clone()), 0, 1000.0),
        ];
        for (case, first, second, deployment, km) in cases {
            let counts = Arc::new(Counts::default());
            let mut sweep = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices).with_threads(2);
            let copy = sweep.add_deployment("copy", &s.clusters);
            assert_eq!(copy, 1);
            sweep.add_boxed_point("first", first, counted_pc(1500.0, true, &counts));
            sweep.add_boxed_point_on(deployment, "second", second, counted_pc(km, true, &counts));
            let report = sweep.execute(RunOptions::new());
            assert_eq!(report.runs.len(), 2);
            let replays = if case == "energy only" { 1 } else { 2 };
            assert_eq!(Counts::get(&counts.replays), replays, "{case}");
        }
    }

    #[test]
    fn a_sweep_24d_shaped_grid_routes_half_its_replays() {
        let s = short_scenario();
        let steps = s.trace.num_steps();
        let thresholds = [0.0, 250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0, 1750.0, 2000.0, 2500.0];
        let models = [(0.0, 1.1), (0.65, 1.3)];
        let config = |(idle, pue): (f64, f64)| {
            s.config.clone().with_energy(EnergyModelParams::new(250.0, idle, pue))
        };
        // The two phases of sweep-24d: an Akamai-like baseline per energy
        // model, then relaxed and follow-95/5 cells per model and threshold.
        let run = |keyed: bool| {
            let counts = Arc::new(Counts::default());
            let mut baselines = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
            for (i, &model) in models.iter().enumerate() {
                let counts = counts.clone();
                baselines.add_boxed_point(
                    format!("base:{i}"),
                    config(model),
                    Box::new(move || {
                        Box::new(Counted::new(AkamaiLikePolicy::default(), keyed, &counts))
                    }),
                );
            }
            let baselines = baselines.execute(RunOptions::new());
            let mut grid = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
            for (i, &model) in models.iter().enumerate() {
                let caps: Vec<f64> =
                    baselines.runs[i].report.clusters.iter().map(|c| c.p95_hits_per_sec).collect();
                for km in thresholds {
                    grid.add_boxed_point(
                        format!("relaxed:{i}:{km}"),
                        config(model),
                        counted_pc(km, keyed, &counts),
                    );
                    grid.add_boxed_point(
                        format!("follow:{i}:{km}"),
                        config(model).with_bandwidth_caps(caps.clone()),
                        counted_pc(km, keyed, &counts),
                    );
                }
            }
            let grid = grid.execute(RunOptions::new());
            let runs: Vec<SweepRun> = baselines.runs.into_iter().chain(grid.runs).collect();
            (runs, Counts::get(&counts.replays), Counts::get(&counts.calls))
        };
        let (grouped, replays, calls) = run(true);
        let (alone, keyless_replays, keyless_calls) = run(false);
        assert_eq!(grouped.len(), 42);
        assert_eq!((replays, calls), (21, 21 * steps), "grouped: 21 streams of 42 cells");
        assert_eq!((keyless_replays, keyless_calls), (42, 42 * steps), "one replay per cell");
        assert_eq!(grouped, alone, "grouped reports == keyless reports");
    }
}
