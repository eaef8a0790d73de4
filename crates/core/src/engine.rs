//! The incremental tick core of the simulator.
//!
//! [`SimulationEngine`] owns everything a long-running router needs between
//! two routing decisions: the deployment, the constraint set, the power
//! models, and the accumulating report state. One call to
//! [`SimulationEngine::tick`] advances the engine by a single 5-minute step,
//! given only that step's view of the world — a [`PriceSlice`] (this hour's
//! delayed and billing prices) and a [`DemandSlice`] (this step's per-state
//! demand). The `routed` daemon calls it from a wall-clock ingest loop. The
//! batch drivers ([`Simulation`](crate::simulation::Simulation), the Monte
//! Carlo replay and every region shard of the
//! [hierarchical replay](crate::hierarchy)) know the whole trace, so they
//! advance one allocation epoch per call instead, with the same accumulate
//! kernel `tick` runs for one step; their reports are bit-identical to
//! ticking every step. A lone batch run may split each epoch between two
//! threads — routing on the calling thread, accounting on a worker one
//! bounded batch behind — with the same bits (see `docs/engine.md`).
//!
//! The accumulated router state is a value: [`SimulationEngine::snapshot`]
//! captures it, [`SimulationEngine::restore`] reinstates it (into the same
//! engine or a freshly built one over the same deployment), and
//! [`EngineSnapshot::to_json`] round-trips it losslessly over the daemon's
//! wire protocol. Replaying the remaining steps after a snapshot/restore
//! yields a report bit-identical to an uninterrupted run — the property
//! test in `tests/proptest_tick_equivalence.rs` pins this. A long-running
//! engine writes the same text with [`SimulationEngine::write_snapshot_json`],
//! which formats only the load samples added since its previous snapshot.
//!
//! A batch replay may also account extra energy models in lanes of one
//! engine: the energy model never shapes routing, so the models share the
//! replay and each lane keeps only its power curves and its energy and
//! dollar sums. A scenario sweep replays cells that differ only in energy
//! model this way.

use crate::json::{self, JsonValue};
use crate::report::{
    array_field, cluster_labels, count_field, f64_field, f64_vec_field, field, str_field,
    ClusterReport, DistanceHistogram, PreparedDistance, ReportDecodeError, SimulationReport,
};
use crate::simulation::SimulationConfig;
use std::sync::{mpsc, Arc};
use wattroute_energy::cost::energy_cost_dollars;
use wattroute_energy::model::{ClusterPowerModel, EnergyModelParams};
use wattroute_geo::UsState;
use wattroute_market::time::SimHour;
use wattroute_routing::allocation::Allocation;
use wattroute_routing::constraints::{ConstraintSet, OverflowMode};
use wattroute_routing::policy::{RoutingContext, RoutingPolicy};
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_stats::online::welford_step;
use wattroute_stats::OnlineStats;
use wattroute_workload::bandwidth::LoadRuns;
use wattroute_workload::trace::{Trace, STEPS_PER_HOUR, STEP_SECONDS};
use wattroute_workload::ClusterSet;

/// One hour's prices, as the engine needs them for a tick: what the router
/// is allowed to *see* (delayed by the reaction lag) and what the market
/// actually *charges* (the spot price of the hour). Both slices are aligned
/// with the engine's cluster order.
#[derive(Debug, Clone, Copy)]
pub struct PriceSlice<'p> {
    /// The simulation hour the tick falls in.
    pub hour: SimHour,
    /// Router-visible (delayed) price per cluster in $/MWh.
    pub delayed: &'p [f64],
    /// Billing (actual spot) price per cluster in $/MWh.
    pub billing: &'p [f64],
}

impl<'p> PriceSlice<'p> {
    /// Bundle one hour's delayed and billing price rows.
    pub fn new(hour: SimHour, delayed: &'p [f64], billing: &'p [f64]) -> Self {
        Self { hour, delayed, billing }
    }
}

/// One step's demand, aligned with the engine's client-state order.
#[derive(Debug, Clone, Copy)]
pub struct DemandSlice<'d> {
    /// Demand per US state in hits/second.
    pub demand: &'d [f64],
}

impl<'d> DemandSlice<'d> {
    /// Wrap a per-state demand row.
    pub fn new(demand: &'d [f64]) -> Self {
        Self { demand }
    }
}

/// The complete accumulated router state of a [`SimulationEngine`]: the
/// step counter, the cached allocation, and every per-cluster accumulator
/// the final [`SimulationReport`] is assembled from. A snapshot restored
/// into an engine over the same deployment — including a freshly
/// constructed one — continues the run exactly where the snapshot was
/// taken, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    step: usize,
    policy_name: Option<String>,
    cached_allocation: Option<Allocation>,
    last_alloc_hour: SimHour,
    clamped_lead_hours: u64,
    cost: Vec<f64>,
    energy_wh: Vec<f64>,
    hits: Vec<f64>,
    overflow_hits: Vec<f64>,
    rejected_hits: Vec<f64>,
    binding_steps: Vec<usize>,
    /// Each cluster's five-minute load series, kept as runs.
    loads: Vec<LoadRuns>,
    util_stats: Vec<OnlineStats>,
    distances: DistanceHistogram,
}

/// Sentinel for "no allocation cached yet" (matches the batch loop's
/// initial `last_alloc_hour`).
const NO_ALLOC_HOUR: SimHour = SimHour(u64::MAX);

/// Per-call duration spans (`engine.tick`, `engine.tick.realloc`,
/// `engine.tick.accumulate`, and the batch drivers' `engine.price_view`)
/// record one engine call in this many: the first call and every eighth
/// after it, whatever the reallocation interval. An engine counts its own
/// calls, and a trace walk counts the calls it makes, so the routing and
/// accounting threads of a two-thread replay sample the same calls. A
/// steady-state tick is a sub-microsecond add loop; timing every one would
/// cost more than the phase being timed and break the enabled-telemetry
/// overhead budget (`obs_report`, a CI gate). A deterministic sample
/// keeps dozens of datapoints per simulated day and leaves every counter
/// exact.
pub(crate) const SPAN_SAMPLE_EVERY: usize = 8;

/// Whether call number `call` (counted from 0) records its duration spans
/// (see [`SPAN_SAMPLE_EVERY`]).
fn sampled(call: usize) -> bool {
    call % SPAN_SAMPLE_EVERY == 0
}

impl EngineSnapshot {
    fn empty(n_clusters: usize) -> Self {
        Self {
            step: 0,
            policy_name: None,
            cached_allocation: None,
            last_alloc_hour: NO_ALLOC_HOUR,
            clamped_lead_hours: 0,
            cost: vec![0.0; n_clusters],
            energy_wh: vec![0.0; n_clusters],
            hits: vec![0.0; n_clusters],
            overflow_hits: vec![0.0; n_clusters],
            rejected_hits: vec![0.0; n_clusters],
            binding_steps: vec![0; n_clusters],
            loads: vec![LoadRuns::new(); n_clusters],
            util_stats: vec![OnlineStats::new(); n_clusters],
            distances: DistanceHistogram::default_resolution(),
        }
    }

    /// Number of ticks accumulated into this snapshot.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Number of clusters the snapshot was taken over.
    pub fn num_clusters(&self) -> usize {
        self.cost.len()
    }

    /// The name of the policy that drove the run, once one has ticked.
    pub fn policy_name(&self) -> Option<&str> {
        self.policy_name.as_deref()
    }

    /// Encode the snapshot as JSON text (the daemon's `snapshot` reply).
    /// The encoding is lossless: [`Self::from_json_value`] of the parsed
    /// text reproduces the snapshot exactly, so a run resumed from the
    /// decoded snapshot stays bit-identical to an uninterrupted one.
    pub fn to_json(&self) -> String {
        let mut text = LoadText::default();
        text.extend(&self.loads, self.step);
        let mut out = String::new();
        self.write_json(&text.rows, &mut out);
        out
    }

    /// Append the snapshot's JSON text to `out`, each cluster's
    /// `load_series` row read from `load_rows` (see [`LoadText`]). The
    /// fields go in ascending key order, as a [`JsonValue::Object`] keeps
    /// them.
    fn write_json(&self, load_rows: &[String], out: &mut String) {
        let mut object = json::ObjectWriter::new(out);
        if let Some(allocation) = &self.cached_allocation {
            allocation_to_json(allocation).write_to(object.field("allocation"));
        }
        let binding_steps = self.binding_steps.iter().map(|&b| JsonValue::Number(b as f64));
        JsonValue::Array(binding_steps.collect()).write_to(object.field("binding_steps"));
        json::write_number(self.clamped_lead_hours as f64, object.field("clamped_lead_hours"));
        json::number_array(&self.cost).write_to(object.field("cost"));
        self.distances.to_json_value().write_to(object.field("distances"));
        json::number_array(&self.energy_wh).write_to(object.field("energy_wh"));
        json::number_array(&self.hits).write_to(object.field("hits"));
        if self.cached_allocation.is_some() {
            json::write_number(self.last_alloc_hour.0 as f64, object.field("last_alloc_hour"));
        }
        let rows = object.field("load_series");
        rows.push('[');
        for (c, row) in load_rows.iter().enumerate() {
            if c > 0 {
                rows.push(',');
            }
            rows.push('[');
            rows.push_str(row);
            rows.push(']');
        }
        rows.push(']');
        json::number_array(&self.overflow_hits).write_to(object.field("overflow_hits"));
        if let Some(name) = &self.policy_name {
            json::write_string(name, object.field("policy"));
        }
        json::number_array(&self.rejected_hits).write_to(object.field("rejected_hits"));
        json::write_number(self.step as f64, object.field("step"));
        let util_stats = self.util_stats.iter().map(stats_to_json);
        JsonValue::Array(util_stats.collect()).write_to(object.field("util_stats"));
        object.finish();
    }

    /// Decode a snapshot produced by [`Self::to_json`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, ReportDecodeError> {
        let cost = f64_vec_field(v, "cost")?;
        let n = cost.len();
        let energy_wh = f64_vec_field(v, "energy_wh")?;
        let hits = f64_vec_field(v, "hits")?;
        let overflow_hits = f64_vec_field(v, "overflow_hits")?;
        let rejected_hits = f64_vec_field(v, "rejected_hits")?;
        let binding_steps = array_field(v, "binding_steps")?
            .iter()
            .map(|b| {
                b.as_count().map(|b| b as usize).ok_or_else(|| {
                    ReportDecodeError::new(format!(
                        "snapshot binding_steps entry is not a non-negative integer: {b}"
                    ))
                })
            })
            .collect::<Result<Vec<usize>, _>>()?;
        let loads = array_field(v, "load_series")?
            .iter()
            .map(|row| {
                let mut runs = LoadRuns::new();
                for x in row.as_array().ok_or_else(|| {
                    ReportDecodeError::new("snapshot load_series row is not an array")
                })? {
                    let load = x.as_f64().ok_or_else(|| {
                        ReportDecodeError::new("snapshot load_series entry is not a number")
                    })?;
                    runs.push(load, 1);
                }
                Ok(runs)
            })
            .collect::<Result<Vec<LoadRuns>, ReportDecodeError>>()?;
        let util_stats = array_field(v, "util_stats")?
            .iter()
            .map(stats_from_json)
            .collect::<Result<Vec<OnlineStats>, _>>()?;
        for (name, len) in [
            ("energy_wh", energy_wh.len()),
            ("hits", hits.len()),
            ("overflow_hits", overflow_hits.len()),
            ("rejected_hits", rejected_hits.len()),
            ("binding_steps", binding_steps.len()),
            ("load_series", loads.len()),
            ("util_stats", util_stats.len()),
        ] {
            if len != n {
                return Err(ReportDecodeError::new(format!(
                    "snapshot field '{name}' has {len} entries for {n} clusters"
                )));
            }
        }
        let cached_allocation = match v.get("allocation") {
            Some(a) => Some(allocation_from_json(a, n)?),
            None => None,
        };
        let last_alloc_hour = match (&cached_allocation, v.get("last_alloc_hour")) {
            (Some(_), Some(_)) => SimHour(count_field(v, "last_alloc_hour")?),
            (Some(_), None) => {
                return Err(ReportDecodeError::new(
                    "snapshot has an allocation but no 'last_alloc_hour'",
                ))
            }
            (None, _) => NO_ALLOC_HOUR,
        };
        // Every step pushes one load sample and one utilization per
        // cluster, and can bind a cluster at most once.
        let step = count_field(v, "step")? as usize;
        for c in 0..n {
            let (samples, count) = (loads[c].len(), util_stats[c].count());
            if samples != step || count != step as u64 || binding_steps[c] > step {
                return Err(ReportDecodeError::new(format!(
                    "snapshot cluster {c} has {samples} load samples, {count} utilization \
                     samples and {} binding steps after {step} steps",
                    binding_steps[c]
                )));
            }
        }
        Ok(Self {
            step,
            policy_name: v.get("policy").map(|_| str_field(v, "policy")).transpose()?,
            cached_allocation,
            last_alloc_hour,
            clamped_lead_hours: count_field(v, "clamped_lead_hours")?,
            cost,
            energy_wh,
            hits,
            overflow_hits,
            rejected_hits,
            binding_steps,
            loads,
            util_stats,
            distances: DistanceHistogram::from_json_value(field(v, "distances")?)?,
        })
    }
}

/// The JSON text of each cluster's load series, as far as it has been
/// encoded. A series only grows at its end — a step appends a run or
/// lengthens the last one by more samples of its value — so text once
/// written stays a prefix of every later encoding, and extending it formats
/// only the samples added since.
#[derive(Debug, Clone, Default)]
struct LoadText {
    /// Per cluster, its first `covered` samples, comma-separated: the
    /// `load_series` row without its brackets.
    rows: Vec<String>,
    /// Samples each row covers (every cluster has one per step).
    covered: usize,
}

impl LoadText {
    /// Extend every row to cover all `steps` samples of its series in
    /// `loads`.
    ///
    /// # Panics
    /// Panics if the rows already cover more than `steps` samples: the
    /// series they were written from was replaced without clearing them.
    fn extend(&mut self, loads: &[LoadRuns], steps: usize) {
        assert!(
            self.covered <= steps,
            "the load text covers {} samples of a {steps}-sample series",
            self.covered
        );
        self.rows.resize_with(loads.len(), String::new);
        for (row, runs) in self.rows.iter_mut().zip(loads) {
            let mut start = 0;
            for (value, count) in runs.runs() {
                let end = start + count as usize;
                for _ in self.covered.max(start)..end {
                    if !row.is_empty() {
                        row.push(',');
                    }
                    json::write_number(value, row);
                }
                start = end;
            }
        }
        self.covered = steps;
    }
}

fn stats_to_json(stats: &OnlineStats) -> JsonValue {
    // An empty accumulator carries ±∞ min/max sentinels, which JSON cannot
    // represent; encode the count alone and rebuild a fresh accumulator on
    // decode. Non-empty accumulators hold only finite fields (push ignores
    // non-finite observations), so the round trip is lossless.
    if stats.count() == 0 {
        return json::object([("count", JsonValue::Number(0.0))]);
    }
    json::object([
        ("count", JsonValue::Number(stats.count() as f64)),
        ("mean", JsonValue::Number(stats.mean().expect("non-empty"))),
        ("m2", JsonValue::Number(stats.m2())),
        ("min", JsonValue::Number(stats.min().expect("non-empty"))),
        ("max", JsonValue::Number(stats.max().expect("non-empty"))),
        ("sum", JsonValue::Number(stats.sum())),
    ])
}

fn stats_from_json(v: &JsonValue) -> Result<OnlineStats, ReportDecodeError> {
    let count = count_field(v, "count")?;
    if count == 0 {
        return Ok(OnlineStats::new());
    }
    Ok(OnlineStats::from_parts(
        count,
        f64_field(v, "mean")?,
        f64_field(v, "m2")?,
        f64_field(v, "min")?,
        f64_field(v, "max")?,
        f64_field(v, "sum")?,
    ))
}

fn allocation_to_json(allocation: &Allocation) -> JsonValue {
    JsonValue::Array(allocation.matrix().iter().map(|row| json::number_array(row)).collect())
}

fn allocation_from_json(v: &JsonValue, n_clusters: usize) -> Result<Allocation, ReportDecodeError> {
    let rows = v
        .as_array()
        .ok_or_else(|| ReportDecodeError::new("snapshot allocation is not an array"))?;
    if rows.len() != n_clusters {
        return Err(ReportDecodeError::new(format!(
            "snapshot allocation has {} rows for {n_clusters} clusters",
            rows.len()
        )));
    }
    let matrix = rows
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| ReportDecodeError::new("snapshot allocation row is not an array"))?
                .iter()
                .map(|x| {
                    x.as_f64().filter(|x| x.is_finite() && *x >= 0.0).ok_or_else(|| {
                        ReportDecodeError::new(
                            "snapshot allocation entry is not a finite non-negative number",
                        )
                    })
                })
                .collect::<Result<Vec<f64>, _>>()
        })
        .collect::<Result<Vec<Vec<f64>>, _>>()?;
    let width = matrix.first().map(Vec::len).unwrap_or(0);
    if matrix.iter().any(|row| row.len() != width) {
        return Err(ReportDecodeError::new("snapshot allocation rows have unequal lengths"));
    }
    Ok(Allocation::from_matrix(matrix))
}

/// Step-invariant facts of the current allocation epoch, computed once per
/// reallocation into engine-owned buffers and replayed by every step until
/// the next reallocation. Between reallocations the cached [`Allocation`]
/// does not change, so neither do per-cluster loads, saturated utilization,
/// watts (hence Wh per step), the served/overflow/rejected split, the
/// binding-cap flags, or the distance histogram's entries — only dollars
/// vary, and only hourly through `prices.billing`. Caching these collapses
/// the per-step accumulate phase to a tight add-scaled-constants loop with
/// no heap allocation, no haversine walk and no histogram binning.
///
/// The cache is *derived* state: it lives on the engine, not in
/// [`EngineSnapshot`], and is refreshed from the cached allocation whenever
/// `valid` is false (after a reallocation or a [`SimulationEngine::restore`]).
/// A refresh sums every cluster's load and prepares the distance entries
/// anew, but re-derives a cluster's utilization, Wh per step (the engine's
/// and every energy lane's), hits split and binding flag only when its
/// load differs in bits from the load they were derived from: they are
/// pure functions of that load and the engine's fixed constants, so a
/// cluster whose load did not move keeps them, bit for bit — across a
/// restore too, mid-epoch or not.
#[derive(Debug, Clone, Default)]
struct EpochCache {
    valid: bool,
    /// Each cluster's load, and the load its derived values below were
    /// derived from. Empty until the first refresh derives every cluster.
    loads: Vec<f64>,
    /// The loads the refresh has just summed, compared with `loads`.
    fresh_loads: Vec<f64>,
    util: Vec<f64>,
    wh_step: Vec<f64>,
    hits_step: Vec<f64>,
    overflow_step: Vec<f64>,
    rejected_step: Vec<f64>,
    binding: Vec<bool>,
    /// One step's distance-histogram entries, prepared against the
    /// engine's histogram.
    distances: Vec<PreparedDistance>,
}

/// One extra energy model accounted over an engine's replay. The energy
/// model prices the loads and never routes them: loads, hits, utilization,
/// distances and the 95/5 state do not depend on it. So several models can
/// share one replay — one policy, one allocation stream, one epoch
/// refresh — each in a lane that holds only what does depend on it: the
/// model's per-cluster power curves, its Wh per step in the epoch in force,
/// and its energy and dollar sums. A lane computes its Wh from the shared
/// saturated utilization as the engine's own model does, and makes the
/// same adds to its sums in the same order, so its report is bit-identical
/// to a run of its model on its own.
#[derive(Debug, Clone)]
struct EnergyLane {
    power_models: Vec<ClusterPowerModel>,
    wh_step: Vec<f64>,
    energy_wh: Vec<f64>,
    cost: Vec<f64>,
}

/// Clusters the accumulate kernel accounts side by side (see
/// [`SimulationEngine::accumulate`]).
const BLOCK: usize = 8;

/// Each cluster's power curve under `energy`.
fn power_models(clusters: &ClusterSet, energy: EnergyModelParams) -> Vec<ClusterPowerModel> {
    clusters.clusters().iter().map(|c| ClusterPowerModel::new(energy, c.servers)).collect()
}

/// Watt-hours one step draws at a saturated `utilization`.
fn wh_per_step(model: &ClusterPowerModel, utilization: f64) -> f64 {
    model.power_watts(utilization) * (STEP_SECONDS as f64 / 3600.0)
}

/// Account `steps` steps of one cluster drawing `wh_step` each, billed at
/// `price`: one add per step to each sum, in step order — adding a
/// constant `n` times does not round like adding `n ×` it once. The
/// engine's accumulate kernel makes the same adds for its own model.
fn add_energy(wh_step: f64, price: f64, steps: usize, energy_wh: &mut f64, cost: &mut f64) {
    let cost_step = energy_cost_dollars(wh_step, price);
    let (mut wh, mut dollars) = (*energy_wh, *cost);
    for _ in 0..steps {
        wh += wh_step;
        dollars += cost_step;
    }
    *energy_wh = wh;
    *cost = dollars;
}

/// Write one energy model's sums into a report: its only fields that
/// depend on the model.
fn fill_energy(report: &mut SimulationReport, cost: &[f64], energy_wh: &[f64]) {
    for ((cluster, &dollars), &wh) in report.clusters.iter_mut().zip(cost).zip(energy_wh) {
        cluster.cost_dollars = dollars;
        cluster.energy_mwh = wh / 1.0e6;
    }
    report.total_cost_dollars = cost.iter().sum();
    report.total_energy_mwh = energy_wh.iter().sum::<f64>() / 1.0e6;
}

/// The steps one engine call covers, and whether its first step
/// re-routes.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    steps: usize,
    reroute: bool,
}

/// The routing half of an engine call: what a policy is handed, borrowed
/// apart from the engine's accounting state so that the two halves can run
/// on different threads (see [`Threads::Two`]).
struct Router<'r> {
    clusters: &'r ClusterSet,
    geometry: &'r Arc<CompiledPreferences>,
    constraints: &'r ConstraintSet,
    interval: usize,
}

impl<'r> Router<'r> {
    fn new(
        clusters: &'r ClusterSet,
        geometry: &'r Arc<CompiledPreferences>,
        config: &'r SimulationConfig,
    ) -> Self {
        let interval = config.reallocate_every_steps;
        Self { clusters, geometry, constraints: &config.constraints, interval }
    }

    /// Check a call's router-visible rows against the deployment and the
    /// state list.
    fn check(&self, prices: &PriceSlice<'_>, demand: &DemandSlice<'_>) {
        assert_eq!(prices.delayed.len(), self.clusters.len(), "delayed price length mismatch");
        assert_eq!(demand.demand.len(), self.geometry.states().len(), "demand length mismatch");
    }

    /// The reroute rule: the epoch of a call that starts at `step` in
    /// `hour`, given the hour of the last re-route (`None` before the
    /// first). The epoch runs up to the next multiple of the interval, or
    /// `max_steps` steps if that is fewer. Its first step re-routes when no
    /// allocation is in force yet, on the configured interval, and
    /// whenever the hour has changed: prices change hourly, so a cached
    /// allocation carried across hours would route on the previous hour's
    /// prices.
    fn epoch(
        &self,
        step: usize,
        last_alloc_hour: Option<SimHour>,
        hour: SimHour,
        max_steps: usize,
    ) -> Epoch {
        let interval = self.interval;
        Epoch {
            steps: (interval - step % interval).min(max_steps),
            reroute: last_alloc_hour.is_none()
                || step % interval == 0
                || last_alloc_hour != Some(hour),
        }
    }

    /// Route one epoch: `policy` allocates the call's demand on its
    /// router-visible prices into `out`.
    fn route(
        &self,
        policy: &mut dyn RoutingPolicy,
        out: &mut Allocation,
        prices: PriceSlice<'_>,
        demand: DemandSlice<'_>,
        sampled: bool,
    ) {
        let _realloc_span = if sampled {
            wattroute_obs::span!("engine.tick.realloc")
        } else {
            wattroute_obs::Span::disabled()
        };
        let ctx = RoutingContext::new(
            self.clusters,
            self.geometry,
            demand.demand,
            prices.delayed,
            prices.hour,
        )
        .with_constraints(self.constraints);
        policy.allocate_into(out, &ctx);
    }
}

/// Walk `trace` one engine call at a time from its first step. `call`
/// gets each call's first step, the hour's price rows from `prices`, the
/// step's demand and the most steps the call may cover — the rest of the
/// hour — and returns how many it covered, or `None` to stop.
fn walk_trace<'p>(
    trace: &Trace,
    mut prices: impl FnMut(SimHour) -> PriceSlice<'p>,
    mut call: impl FnMut(usize, PriceSlice<'p>, DemandSlice<'_>, usize) -> Option<usize>,
) {
    let steps = trace.steps();
    let (mut i, mut calls) = (0, 0);
    while i < steps.len() {
        let prices = {
            // Sampled on the engine's cadence: timing a sub-µs table
            // lookup on every call costs more than the lookup itself.
            let _price_span = if sampled(calls) {
                wattroute_obs::span!("engine.price_view")
            } else {
                wattroute_obs::Span::disabled()
            };
            prices(trace.step_hour(i))
        };
        // A trace's hour changes every `STEPS_PER_HOUR` steps.
        let left_in_hour = (STEPS_PER_HOUR - i % STEPS_PER_HOUR).min(steps.len() - i);
        match call(i, prices, DemandSlice::new(&steps[i].us_demand), left_in_hour) {
            Some(covered) => {
                i += covered;
                calls += 1;
            }
            None => return,
        }
    }
}

/// Which threads a batch replay runs on (see
/// [`SimulationEngine::replay_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Threads {
    /// Route and account on the calling thread. The worker pools (sweep
    /// groups, Monte Carlo paths, hierarchy shards) replay this way: they
    /// already put one replay on every core.
    One,
    /// Route on the calling thread while a scoped worker accounts the
    /// epochs behind it: a lone [`Simulation::execute`](crate::simulation::Simulation::execute).
    Two,
}

impl Threads {
    /// [`Threads::Two`] when the host can run two threads at once
    /// (`available_parallelism`, which honours the affinity mask, is at
    /// least 2); [`Threads::One`] on a one-core host.
    pub(crate) fn available() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() >= 2 => Threads::Two,
            _ => Threads::One,
        }
    }
}

/// Batches in circulation between a two-thread replay's threads: one
/// filling, one accounting, one queued between them.
pub(crate) const BATCHES: usize = 3;

/// The most routed-allocation bytes a two-thread replay holds in its
/// batches at once, across all of them — unless a single allocation per
/// batch is already more (a batch holds at least one epoch).
pub(crate) const IN_FLIGHT_BYTES: usize = 512 * 1024;

/// Epochs per batch for a deployment whose allocation takes
/// `allocation_bytes` (clusters × states × 8): as many as keep every
/// batch's allocations within [`IN_FLIGHT_BYTES`], and at least one.
pub(crate) fn epochs_per_batch(allocation_bytes: usize) -> usize {
    (IN_FLIGHT_BYTES / (BATCHES * allocation_bytes.max(1))).max(1)
}

/// Epochs the routing thread has routed for the accounting worker, in
/// trace order.
#[derive(Debug, Default)]
struct Batch<'p> {
    epochs: Vec<RoutedEpoch<'p>>,
    /// One routed allocation per re-routed epoch, in order; the worker
    /// leaves each slot holding a spent allocation, which routing reuses.
    allocations: Vec<Allocation>,
    /// Slots routed into since the batch was emptied.
    routed: usize,
}

impl<'p> Batch<'p> {
    /// The batch, back from the worker, ready to fill again.
    fn emptied(mut self) -> Self {
        self.epochs.clear();
        self.routed = 0;
        self
    }

    /// The slot the next re-routed epoch's allocation goes into.
    fn next_slot(&mut self) -> &mut Allocation {
        if self.routed == self.allocations.len() {
            self.allocations.push(Allocation::default());
        }
        self.routed += 1;
        &mut self.allocations[self.routed - 1]
    }
}

/// One routed epoch, as the accounting worker needs it.
#[derive(Debug)]
struct RoutedEpoch<'p> {
    hour: SimHour,
    /// The hour's billing row, borrowed from the price table.
    billing: &'p [f64],
    steps: usize,
    /// Whether the epoch re-routed: its allocation is the batch's next.
    rerouted: bool,
}

/// The incremental routing/accounting core: feed it one [`PriceSlice`] and
/// [`DemandSlice`] per 5-minute step and it maintains exactly the state the
/// batch simulator accumulates over a whole trace.
///
/// The engine *borrows* the deployment (an immutable run input), holds
/// the run's client–cluster geometry, and *owns* its configuration and
/// accumulated state. Accumulation order is identical to the historical
/// batch loop, so driving a trace through `tick` — in one go, or split
/// across [`Self::snapshot`]/[`Self::restore`] — produces bit-identical
/// reports.
#[derive(Debug, Clone)]
pub struct SimulationEngine<'a> {
    clusters: &'a ClusterSet,
    /// The client states (the demand-vector order), each one's distance
    /// to each cluster and its clusters nearest first. Compiled once per
    /// engine, or shared by a batch driver; lent to the policy through
    /// every routing context, and read by the epoch refresh for its
    /// distance samples.
    geometry: Arc<CompiledPreferences>,
    config: SimulationConfig,
    power_models: Vec<ClusterPowerModel>,
    capacities: Vec<f64>,
    state: EngineSnapshot,
    epoch: EpochCache,
    /// Extra energy models accounted over this replay (see
    /// [`EnergyLane`]); empty except in a grouped sweep replay. Not part
    /// of the snapshot.
    lanes: Vec<EnergyLane>,
    /// The load series' JSON text as far as [`Self::write_snapshot_json`]
    /// has encoded it; empty until it first runs, so batch replays never
    /// pay for it. Not part of the snapshot.
    load_text: LoadText,
    /// Engine calls since the engine was built or last restored, which
    /// pick the calls that record duration spans (see
    /// [`SPAN_SAMPLE_EVERY`]). Not part of the snapshot.
    calls: usize,
}

impl<'a> SimulationEngine<'a> {
    /// Build an engine over a deployment and client-state list, compiling
    /// their geometry.
    ///
    /// # Panics
    /// Panics on an empty deployment or on constraint vectors whose length
    /// does not match it — configuration errors, not data conditions.
    pub fn new(clusters: &'a ClusterSet, states: &[UsState], config: SimulationConfig) -> Self {
        let geometry = Arc::new(CompiledPreferences::build(clusters, states));
        Self::with_geometry(clusters, states, geometry, config)
    }

    /// [`Self::new`] over geometry compiled once and shared: a sweep
    /// hands each group replay its compiled artifacts' geometry, and a
    /// Monte Carlo run hands one to every worker's engine.
    ///
    /// # Panics
    /// Panics if `geometry` was compiled for another hub list than
    /// `clusters`' or another state list than `states`, and wherever
    /// [`Self::new`] panics.
    pub(crate) fn with_geometry(
        clusters: &'a ClusterSet,
        states: &[UsState],
        geometry: Arc<CompiledPreferences>,
        config: SimulationConfig,
    ) -> Self {
        assert!(!clusters.is_empty(), "deployment has no clusters");
        assert!(geometry.hub_ids() == clusters.hub_ids(), "geometry compiled for another hub list");
        assert!(geometry.states() == states, "geometry compiled for another state list");
        config.constraints.validate(clusters.len());
        let power_models = power_models(clusters, config.energy);
        let capacities = clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).collect();
        let state = EngineSnapshot::empty(clusters.len());
        Self {
            clusters,
            geometry,
            config,
            power_models,
            capacities,
            state,
            epoch: EpochCache::default(),
            lanes: Vec::new(),
            load_text: LoadText::default(),
            calls: 0,
        }
    }

    /// Account each of `models` in an extra lane (see [`EnergyLane`]),
    /// alongside the configured model. [`Self::reports`] returns one
    /// report per lane after the engine's own. An engine with lanes cannot
    /// be restored (see [`Self::restore`]).
    pub(crate) fn with_energy_lanes(mut self, models: &[EnergyModelParams]) -> Self {
        let n_clusters = self.clusters.len();
        self.lanes = models
            .iter()
            .map(|&energy| EnergyLane {
                power_models: power_models(self.clusters, energy),
                wh_step: vec![0.0; n_clusters],
                energy_wh: vec![0.0; n_clusters],
                cost: vec![0.0; n_clusters],
            })
            .collect();
        // The next refresh derives every cluster, the lanes' Wh included.
        self.epoch = EpochCache::default();
        self
    }

    /// Record how many leading hours of the price feed are delay-clamped
    /// (router-visible prices fell before the series began). The batch
    /// drivers set this once from the compiled table; the daemon updates it
    /// as its feed ingests. Surfaced verbatim in reports.
    pub fn with_clamped_lead_hours(mut self, hours: u64) -> Self {
        self.state.clamped_lead_hours = hours;
        self
    }

    /// Like [`Self::with_clamped_lead_hours`], for an engine already built.
    pub fn set_clamped_lead_hours(&mut self, hours: u64) {
        self.state.clamped_lead_hours = hours;
    }

    /// The deployment being routed over.
    pub fn clusters(&self) -> &ClusterSet {
        self.clusters
    }

    /// The client states, defining the demand-vector order.
    pub fn states(&self) -> &[UsState] {
        self.geometry.states()
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Number of ticks accumulated so far.
    pub fn steps(&self) -> usize {
        self.state.step
    }

    /// The allocation currently in force (cached from the last
    /// reallocation), if any tick has run.
    pub fn current_allocation(&self) -> Option<&Allocation> {
        self.state.cached_allocation.as_ref()
    }

    /// The hour of the last reallocation, if any tick has run.
    pub fn last_allocation_hour(&self) -> Option<SimHour> {
        (self.state.last_alloc_hour != NO_ALLOC_HOUR).then_some(self.state.last_alloc_hour)
    }

    /// Advance the engine by one 5-minute step.
    ///
    /// Re-routes through `policy` on the configured interval (and whenever
    /// the hour changes — see
    /// [`SimulationConfig::reallocate_every_steps`]), then accounts the
    /// step's energy, dollars, hits, and distances against the allocation
    /// in force. Returns that allocation.
    ///
    /// # Panics
    /// Panics if the slice lengths do not match the engine's cluster and
    /// state counts.
    pub fn tick(
        &mut self,
        policy: &mut dyn RoutingPolicy,
        prices: PriceSlice<'_>,
        demand: DemandSlice<'_>,
    ) -> &Allocation {
        self.advance(policy, prices, demand, 1);
        self.state.cached_allocation.as_ref().expect("the step routed or reused an allocation")
    }

    /// Name the run after the policy that drives it, on its first call.
    fn name_policy(&mut self, policy: &dyn RoutingPolicy) {
        if self.state.policy_name.is_none() {
            self.state.policy_name = Some(policy.name().to_string());
        }
    }

    /// Advance the engine by the rest of the current allocation epoch, or
    /// by `max_steps` steps if that is fewer, and return how many steps
    /// were consumed.
    ///
    /// The first step ticks as [`Self::tick`] does, re-routing if due. The
    /// epoch then runs up to the next step index that is a multiple of
    /// [`SimulationConfig::reallocate_every_steps`]; `tick` would reuse the
    /// allocation for each of those steps without reading their demand, so
    /// they are accounted here in one call. The caller guarantees that all
    /// `max_steps` steps fall in `prices.hour`: an hour change re-routes,
    /// and the billing row is the hour's.
    ///
    /// # Panics
    /// Panics if `max_steps` is zero or the slice lengths do not match the
    /// engine's cluster and state counts.
    pub(crate) fn advance(
        &mut self,
        policy: &mut dyn RoutingPolicy,
        prices: PriceSlice<'_>,
        demand: DemandSlice<'_>,
        max_steps: usize,
    ) -> usize {
        assert!(max_steps >= 1, "an advance covers at least one step");
        let i = self.state.step;
        let sampled = self.count_call();
        let _tick_span = if sampled {
            wattroute_obs::span!("engine.tick")
        } else {
            wattroute_obs::Span::disabled()
        };
        self.name_policy(policy);
        let router = Router::new(self.clusters, &self.geometry, &self.config);
        router.check(&prices, &demand);
        let epoch = router.epoch(i, self.last_allocation_hour(), prices.hour, max_steps);
        if epoch.reroute {
            let (n_clusters, n_states) = (self.clusters.len(), self.geometry.states().len());
            let allocation = self
                .state
                .cached_allocation
                .get_or_insert_with(|| Allocation::zeros(n_clusters, n_states));
            router.route(policy, allocation, prices, demand, sampled);
        }
        self.account(prices.hour, prices.billing, epoch.steps, epoch.reroute, sampled);
        epoch.steps
    }

    /// Count one engine call and say whether it records its duration
    /// spans.
    fn count_call(&mut self) -> bool {
        let call = self.calls;
        self.calls += 1;
        sampled(call)
    }

    /// The accounting half of an engine call: account `steps` steps from
    /// the engine's step counter, all in `hour` and billed at `billing`,
    /// against the cached allocation — which the caller has just replaced
    /// when `rerouted`. Refreshes the epoch cache when the allocation is
    /// new (or restored), then runs the accumulate kernel, timed when the
    /// call is `sampled`.
    ///
    /// # Panics
    /// Panics if `billing` does not match the engine's cluster count.
    fn account(
        &mut self,
        hour: SimHour,
        billing: &[f64],
        steps: usize,
        rerouted: bool,
        sampled: bool,
    ) {
        assert_eq!(billing.len(), self.clusters.len(), "billing price length mismatch");
        if wattroute_obs::Telemetry::enabled() {
            // Allocation-reuse visibility, per step: a "miss" runs the
            // policy, a "hit" serves the step from the cached allocation.
            // Gated so the disabled hot path stays at one relaxed load per
            // call.
            if rerouted {
                wattroute_obs::counter!("engine.alloc_cache.misses").inc();
            } else {
                wattroute_obs::counter!("engine.alloc_cache.hits").inc();
            }
            if steps > 1 {
                wattroute_obs::counter!("engine.alloc_cache.hits").add(steps as u64 - 1);
            }
        }
        if rerouted {
            self.state.last_alloc_hour = hour;
            self.epoch.valid = false;
        }
        if !self.epoch.valid {
            self.refresh_epoch();
        }
        let _accumulate_span = if sampled {
            wattroute_obs::span!("engine.tick.accumulate")
        } else {
            wattroute_obs::Span::disabled()
        };
        self.accumulate(billing, steps);
    }

    /// Refresh the epoch cache from the cached allocation: everything it
    /// holds is constant until the next reallocation. Only the clusters
    /// whose load moved are re-derived (see [`EpochCache`]).
    fn refresh_epoch(&mut self) {
        let st = &self.state;
        let allocation = st.cached_allocation.as_ref().expect("an allocation is in force");
        let constraints = &self.config.constraints;
        let accounted_caps =
            self.config.bandwidth_tariff.as_ref().and(constraints.bandwidth_caps());
        let epoch = &mut self.epoch;
        allocation.cluster_loads_into(&mut epoch.fresh_loads);
        st.distances.prepare_step(allocation, &self.geometry, &mut epoch.distances);
        let n_clusters = self.clusters.len();
        let derived = epoch.loads.len() == n_clusters;
        if !derived {
            epoch.loads.resize(n_clusters, 0.0);
            epoch.util.resize(n_clusters, 0.0);
            epoch.wh_step.resize(n_clusters, 0.0);
            epoch.hits_step.resize(n_clusters, 0.0);
            epoch.overflow_step.resize(n_clusters, 0.0);
            epoch.rejected_step.resize(n_clusters, 0.0);
            epoch.binding.resize(n_clusters, false);
        }
        for (c, cluster) in self.clusters.clusters().iter().enumerate() {
            let load = epoch.fresh_loads[c];
            if derived && load.to_bits() == epoch.loads[c].to_bits() {
                continue;
            }
            epoch.loads[c] = load;
            let raw_utilization = cluster.utilization(load);
            let mut served = load;
            let mut overflow = 0.0;
            let mut rejected = 0.0;
            if raw_utilization > 1.0 {
                // Demand beyond capacity. The energy model saturates in
                // both modes; the accounting differs: billed as served at
                // capacity (overflow), or turned away (rejected).
                let over = load - self.capacities[c];
                match constraints.overflow() {
                    OverflowMode::BillAtCapacity => {
                        overflow = over * STEP_SECONDS as f64;
                    }
                    OverflowMode::Reject => {
                        rejected = over * STEP_SECONDS as f64;
                        served = self.capacities[c];
                    }
                }
            }
            let utilization = raw_utilization.min(1.0);
            epoch.util[c] = utilization;
            epoch.wh_step[c] = wh_per_step(&self.power_models[c], utilization);
            epoch.hits_step[c] = served * STEP_SECONDS as f64;
            epoch.overflow_step[c] = overflow;
            epoch.rejected_step[c] = rejected;
            // A step is "binding" when the allocation sits at (or, through
            // spill, above) the cluster's 95/5 ceiling — hours where the
            // constraint actually shaped routing. An idle cluster is never
            // binding, even at a zero cap (calibrations against
            // concentrating baselines leave unused clusters with p95 = 0).
            epoch.binding[c] = accounted_caps.is_some_and(|caps| {
                caps[c].is_finite() && load > 0.0 && load >= caps[c] * (1.0 - 1e-9)
            });
            for lane in &mut self.lanes {
                lane.wh_step[c] = wh_per_step(&lane.power_models[c], utilization);
            }
        }
        epoch.valid = true;
    }

    /// The accumulate kernel: account `steps` consecutive steps of the
    /// epoch in force, all billed at `billing`, by adding the epoch's
    /// precomputed constants once per step.
    ///
    /// Dollars are the one quantity that varies within an epoch, and only
    /// between hours, so each cluster's per-step dollars are computed once
    /// per call. Every accumulator still sees one add (and every
    /// utilization accumulator one Welford step) per step, in step order:
    /// adding a constant `n` times does not round like adding `n ×` it
    /// once.
    ///
    /// The clusters are accounted in blocks of [`BLOCK`]. A cluster's five
    /// sums run their steps back to back in locals: each add waits only on
    /// the add before it in its own sum, about four cycles, and the five
    /// sums interleave. A Welford step waits about twenty, on its subtract,
    /// divide and add, so the utilization accumulators are stepped across
    /// the block: each cluster is a lane of local arrays holding its
    /// utilization and its running mean, second moment and sum, stepped
    /// with steps outer and lanes inner, so that the block's lanes, which
    /// share no accumulator, fill each divide's wait with each other's
    /// steps. Only the interleaving across clusters changes, so no sum
    /// does. The last block runs its spare lanes on zeros and never writes
    /// them back. The lanes share one divisor per step, because every
    /// cluster's utilization count is the engine's step count, and they
    /// skip `push`'s finiteness check, because utilization is saturated to
    /// at most 1 and so always finite. The minimum and the maximum are
    /// taken once per call, which is exact because both are idempotent.
    ///
    /// Each energy lane's [`add_energy`] makes the engine's own energy and
    /// dollar adds. Distance entries share the histogram's sums, so they go
    /// step by step. The integer binding count and the load runs take the
    /// whole call at once, which is exact. Adding the zero
    /// overflow/rejected entries unconditionally is bitwise-exact too: the
    /// accumulators are never negative, and `x + 0.0 == x` for every
    /// non-negative `x`.
    fn accumulate(&mut self, billing: &[f64], steps: usize) {
        let st = &mut self.state;
        let epoch = &self.epoch;
        for first in (0..billing.len()).step_by(BLOCK) {
            let block = first..billing.len().min(first + BLOCK);
            // Per lane: utilization, and its running mean, second moment
            // and sum.
            let (mut util, mut mean, mut m2, mut util_sum) =
                ([0.0f64; BLOCK], [0.0f64; BLOCK], [0.0f64; BLOCK], [0.0f64; BLOCK]);
            for (lane, c) in block.clone().enumerate() {
                // The energy and dollar adds stay in this loop with the
                // rest (a loop of their own measured slower on the
                // 39-month replay); they are `add_energy`'s adds, in its
                // order.
                let wh_step = epoch.wh_step[c];
                let cost_step = energy_cost_dollars(wh_step, billing[c]);
                let hits_step = epoch.hits_step[c];
                let overflow_step = epoch.overflow_step[c];
                let rejected_step = epoch.rejected_step[c];
                let mut energy_wh = st.energy_wh[c];
                let mut cost = st.cost[c];
                let mut hits = st.hits[c];
                let mut overflow_hits = st.overflow_hits[c];
                let mut rejected_hits = st.rejected_hits[c];
                for _ in 0..steps {
                    energy_wh += wh_step;
                    cost += cost_step;
                    hits += hits_step;
                    overflow_hits += overflow_step;
                    rejected_hits += rejected_step;
                }
                st.energy_wh[c] = energy_wh;
                st.cost[c] = cost;
                st.hits[c] = hits;
                st.overflow_hits[c] = overflow_hits;
                st.rejected_hits[c] = rejected_hits;
                let stats = &st.util_stats[c];
                debug_assert_eq!(stats.count(), st.step as u64, "cluster {c}'s utilization count");
                util[lane] = epoch.util[c];
                // An empty accumulator's running mean is `+0.0`.
                mean[lane] = stats.mean().unwrap_or(0.0);
                m2[lane] = stats.m2();
                util_sum[lane] = stats.sum();
            }
            let mut count = st.step as f64;
            for _ in 0..steps {
                count += 1.0;
                for lane in 0..BLOCK {
                    welford_step(
                        count,
                        &mut mean[lane],
                        &mut m2[lane],
                        &mut util_sum[lane],
                        util[lane],
                    );
                }
            }
            for (lane, c) in block.enumerate() {
                let stats = &mut st.util_stats[c];
                let u = util[lane];
                *stats = OnlineStats::from_parts(
                    stats.count() + steps as u64,
                    mean[lane],
                    m2[lane],
                    stats.min().map_or(u, |min| min.min(u)),
                    stats.max().map_or(u, |max| max.max(u)),
                    util_sum[lane],
                );
                st.loads[c].push(epoch.loads[c], steps);
                if epoch.binding[c] {
                    st.binding_steps[c] += steps;
                }
            }
        }
        for energy_lane in &mut self.lanes {
            for (c, &price) in billing.iter().enumerate() {
                add_energy(
                    energy_lane.wh_step[c],
                    price,
                    steps,
                    &mut energy_lane.energy_wh[c],
                    &mut energy_lane.cost[c],
                );
            }
        }
        st.distances.add_steps(&epoch.distances, steps);
        st.step += steps;
    }

    /// Replay every step of `trace` one allocation epoch at a time, on
    /// `threads`. No call spans two hours, so each reads one row of
    /// prices: `prices(hour)` returns the hour's router-visible and
    /// billing rows. Either way the policy sees the same contexts in the
    /// same order and the accounting makes the same adds in the same
    /// order, so the engine ends bit-identical.
    ///
    /// On [`Threads::One`] the replay continues from the engine's current
    /// state, one [`Self::advance`] per epoch. On [`Threads::Two`] see
    /// [`Self::replay_on_two_threads`].
    pub(crate) fn replay_trace<'p>(
        &mut self,
        threads: Threads,
        policy: &mut dyn RoutingPolicy,
        trace: &Trace,
        prices: impl FnMut(SimHour) -> PriceSlice<'p>,
    ) {
        match threads {
            Threads::One => walk_trace(trace, prices, |_, prices, demand, max_steps| {
                Some(self.advance(policy, prices, demand, max_steps))
            }),
            Threads::Two => self.replay_on_two_threads(policy, trace, prices),
        }
    }

    /// The two-thread replay: the calling thread walks the trace and
    /// routes each epoch through `policy` (which need not be `Send`),
    /// while a scoped worker that holds the engine accounts the routed
    /// epochs in order, one [`Batch`] behind. Batches travel to the worker
    /// over one bounded channel and come back empty over another; both
    /// threads block on them, and a panic on either side ends the other's
    /// wait and reaches the caller with its own payload.
    ///
    /// # Panics
    /// Panics unless the engine is fresh: the routing thread's reroute
    /// rule starts from step 0 with no allocation in force.
    fn replay_on_two_threads<'p>(
        &mut self,
        policy: &mut dyn RoutingPolicy,
        trace: &Trace,
        prices: impl FnMut(SimHour) -> PriceSlice<'p>,
    ) {
        assert!(
            self.state.step == 0 && self.state.cached_allocation.is_none(),
            "a two-thread replay starts from a fresh engine"
        );
        self.name_policy(policy);
        // The routing thread's own handles on what routing reads; the
        // engine goes to the worker. The geometry is the engine's own
        // `Arc`, so a policy that keys derived state on its address keeps
        // its memo.
        let (geometry, config) = (Arc::clone(&self.geometry), self.config.clone());
        let router = Router::new(self.clusters, &geometry, &config);
        let epochs_per_batch = epochs_per_batch(
            self.clusters.len() * geometry.states().len() * std::mem::size_of::<f64>(),
        );
        let engine = self;
        std::thread::scope(|scope| {
            let (full_tx, full_rx) = mpsc::sync_channel::<Batch<'p>>(BATCHES);
            let (empty_tx, empty_rx) = mpsc::sync_channel::<Batch<'p>>(BATCHES);
            for _ in 0..BATCHES {
                empty_tx.send(Batch::default()).expect("the channel holds every batch");
            }
            let accounting = scope.spawn(move || loop {
                let full = {
                    let _wait = wattroute_obs::span!("engine.replay.account_wait");
                    full_rx.recv()
                };
                // Routing is done, or it panicked and dropped its sender.
                let Ok(mut batch) = full else { return };
                engine.account_batch(&mut batch);
                if empty_tx.send(batch).is_err() {
                    return;
                }
            });

            let mut filling: Option<Batch<'p>> = None;
            let (mut last_alloc_hour, mut calls) = (None, 0);
            walk_trace(trace, prices, |step, prices, demand, max_steps| {
                let batch = match &mut filling {
                    Some(batch) => batch,
                    None => {
                        let empty = {
                            let _wait = wattroute_obs::span!("engine.replay.route_wait");
                            empty_rx.recv()
                        };
                        // An empty batch, or the worker panicked.
                        filling.insert(empty.ok()?.emptied())
                    }
                };
                router.check(&prices, &demand);
                let epoch = router.epoch(step, last_alloc_hour, prices.hour, max_steps);
                if epoch.reroute {
                    // The worker counts the same calls as it accounts them.
                    router.route(policy, batch.next_slot(), prices, demand, sampled(calls));
                    last_alloc_hour = Some(prices.hour);
                }
                calls += 1;
                batch.epochs.push(RoutedEpoch {
                    hour: prices.hour,
                    billing: prices.billing,
                    steps: epoch.steps,
                    rerouted: epoch.reroute,
                });
                if batch.epochs.len() == epochs_per_batch {
                    full_tx.send(filling.take().expect("a batch is filling")).ok()?;
                }
                Some(epoch.steps)
            });
            if let Some(rest) = filling.filter(|batch| !batch.epochs.is_empty()) {
                // A send fails only when the worker panicked; join says so.
                let _ = full_tx.send(rest);
            }
            drop(full_tx);
            crate::join_workers(vec![accounting]);
        });
    }

    /// The worker's half of [`Self::replay_on_two_threads`]: account a
    /// batch's epochs in order, swapping each routed allocation into the
    /// engine's cached one. The slot keeps the engine's previous
    /// allocation, which the next `allocate_into` into it fully
    /// overwrites.
    fn account_batch(&mut self, batch: &mut Batch<'_>) {
        let mut routed = batch.allocations.iter_mut();
        for epoch in &batch.epochs {
            let sampled = self.count_call();
            let _tick_span = if sampled {
                wattroute_obs::span!("engine.tick")
            } else {
                wattroute_obs::Span::disabled()
            };
            if epoch.rerouted {
                let allocation = routed.next().expect("a re-routed epoch carries its allocation");
                let cached = self.state.cached_allocation.get_or_insert_with(Allocation::default);
                std::mem::swap(cached, allocation);
            }
            self.account(epoch.hour, epoch.billing, epoch.steps, epoch.rerouted, sampled);
        }
    }

    /// Assemble a [`SimulationReport`] from the state accumulated so far.
    /// Valid mid-run (the daemon's `stats` query) as well as at the end of
    /// a trace; a report taken after the final tick is bit-identical to
    /// what the batch simulator produces for the same inputs.
    pub fn report(&self) -> SimulationReport {
        self.report_with(LoadRuns::percentile_95)
    }

    /// [`Self::report`] with each cluster's 95th percentile read from its
    /// load runs by `p95_of` — the hierarchical replay's one departure
    /// from the engine's exact store (see [`crate::hierarchy`]).
    pub(crate) fn report_with(
        &self,
        p95_of: impl Fn(&LoadRuns) -> Option<f64>,
    ) -> SimulationReport {
        let st = &self.state;
        let n_clusters = self.clusters.len();
        let n_steps = st.step;
        let tariff = self.config.bandwidth_tariff.as_ref();
        let accounted_caps = tariff.and(self.config.constraints.bandwidth_caps());
        let labels = cluster_labels(self.clusters);
        let clusters = (0..n_clusters)
            .map(|c| {
                let p95 = p95_of(&st.loads[c]).unwrap_or(0.0);
                ClusterReport {
                    label: labels[c].clone(),
                    cost_dollars: 0.0,
                    energy_mwh: 0.0,
                    mean_utilization: st.util_stats[c].mean().unwrap_or(0.0),
                    p95_hits_per_sec: p95,
                    peak_hits_per_sec: st.loads[c].fold_max(0.0),
                    total_hits: st.hits[c],
                    overflow_hits: st.overflow_hits[c],
                    rejected_hits: st.rejected_hits[c],
                    bandwidth_cap_hits_per_sec: accounted_caps
                        .map(|caps| caps[c])
                        .filter(|cap| cap.is_finite()),
                    bandwidth_binding_hours: st.binding_steps[c] as f64 * STEP_SECONDS as f64
                        / 3600.0,
                    bandwidth_cost_dollars: tariff.map_or(0.0, |t| t.bill_dollars(p95, n_steps)),
                }
            })
            .collect::<Vec<_>>();

        let mut report = SimulationReport {
            policy: st.policy_name.clone().unwrap_or_default(),
            steps: n_steps,
            reaction_delay_hours: self.config.reaction_delay_hours,
            bandwidth_constrained: self.config.constraints.is_bandwidth_constrained(),
            total_cost_dollars: 0.0,
            total_energy_mwh: 0.0,
            total_overflow_hits: st.overflow_hits.iter().sum(),
            total_rejected_hits: st.rejected_hits.iter().sum(),
            total_bandwidth_binding_hours: clusters.iter().map(|c| c.bandwidth_binding_hours).sum(),
            total_bandwidth_cost_dollars: clusters.iter().map(|c| c.bandwidth_cost_dollars).sum(),
            delay_clamped_hours: st.clamped_lead_hours,
            clusters,
            mean_distance_km: st.distances.mean_km().unwrap_or(0.0),
            p99_distance_km: st.distances.percentile_km(99.0).unwrap_or(0.0),
            distances: st.distances.clone(),
            tiers: None,
        };
        fill_energy(&mut report, &st.cost, &st.energy_wh);
        report
    }

    /// [`Self::report`], followed by one report per energy lane in the
    /// order [`Self::with_energy_lanes`] took the models. A lane's report
    /// is the engine's with the lane's energy and dollars in place.
    pub(crate) fn reports(&self) -> Vec<SimulationReport> {
        let mut reports = vec![self.report()];
        for lane in &self.lanes {
            let mut lane_report = reports[0].clone();
            fill_energy(&mut lane_report, &lane.cost, &lane.energy_wh);
            reports.push(lane_report);
        }
        reports
    }

    /// Each cluster's raw watt-hours so far (the report divides each by
    /// 10⁶ on its own; a merge across engines sums these first).
    pub(crate) fn energy_wh(&self) -> &[f64] {
        &self.state.energy_wh
    }

    /// Each cluster's utilization accumulator so far.
    pub(crate) fn util_stats(&self) -> &[OnlineStats] {
        &self.state.util_stats
    }

    /// Capture the full accumulated router state.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.state.clone()
    }

    /// Append the JSON text of [`Self::snapshot`] to `out`: the bytes
    /// [`EngineSnapshot::to_json`] writes, without copying the state
    /// first. The engine keeps the text of every load sample it has
    /// written, so each call formats only the samples added since the
    /// previous one and copies the rest (the daemon's `snapshot` reply).
    pub fn write_snapshot_json(&mut self, out: &mut String) {
        self.load_text.extend(&self.state.loads, self.state.step);
        self.state.write_json(&self.load_text.rows, out);
    }

    /// Reinstate a previously captured state, discarding whatever this
    /// engine has accumulated since (or, on a freshly built engine,
    /// resuming a run another engine started).
    ///
    /// # Panics
    /// Panics if the snapshot's shape does not match this engine's
    /// deployment and state list, or if the engine accounts energy lanes
    /// (a grouped sweep's extra energy models): a lane's energy and dollar
    /// sums are not part of a snapshot, so a restored lane would keep
    /// counting the steps the restore discards.
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        assert!(
            self.lanes.is_empty(),
            "an engine with energy lanes cannot be restored: a snapshot holds no lane sums"
        );
        assert_eq!(snapshot.num_clusters(), self.clusters.len(), "snapshot cluster count mismatch");
        if let Some(allocation) = &snapshot.cached_allocation {
            assert_eq!(
                allocation.num_clusters(),
                self.clusters.len(),
                "snapshot allocation cluster count mismatch"
            );
            assert_eq!(
                allocation.num_states(),
                self.geometry.states().len(),
                "snapshot allocation state count mismatch"
            );
        }
        self.state = snapshot.clone();
        // The epoch cache describes the *previous* cached allocation; the
        // next tick refreshes it from the restored one. A cluster keeps
        // its derived values only if its restored load has the same bits,
        // and they depend only on that load and run constants, so a
        // mid-epoch restore stays bit-identical to an uninterrupted run.
        self.epoch.valid = false;
        // The load text encodes the replaced series.
        self.load_text = LoadText::default();
        // Calls count from here, as a trace walk from here counts them.
        self.calls = 0;
    }

    /// Consume the engine, yielding the raw per-cluster load series
    /// accumulated so far (`series[cluster][step]`, hits/second at 5-minute
    /// resolution), expanded from its runs.
    pub fn into_load_series(self) -> Vec<Vec<f64>> {
        self.state.loads.iter().map(LoadRuns::expand).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_market::generator::PriceGenerator;
    use wattroute_market::time::HourRange;
    use wattroute_routing::prelude::*;
    use wattroute_workload::SyntheticWorkloadConfig;

    fn setup() -> (ClusterSet, wattroute_workload::trace::Trace, wattroute_market::types::PriceSet)
    {
        let clusters = ClusterSet::akamai_like_nine();
        let start = SimHour::from_date(2008, 12, 19);
        let range = HourRange::new(start, start.plus_hours(24));
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::nine_cluster_default(7).realtime_hourly(range);
        (clusters, trace, prices)
    }

    #[test]
    fn fresh_engine_is_empty() {
        let (clusters, trace, _) = setup();
        let engine = SimulationEngine::new(&clusters, &trace.states, SimulationConfig::default());
        assert_eq!(engine.steps(), 0);
        assert!(engine.current_allocation().is_none());
        assert_eq!(engine.last_allocation_hour(), None);
        let report = engine.report();
        assert_eq!(report.steps, 0);
        assert_eq!(report.total_cost_dollars, 0.0);
        assert_eq!(report.policy, "");
    }

    #[test]
    fn tick_accumulates_and_reports() {
        let (clusters, trace, prices) = setup();
        let sim = crate::simulation::Simulation::new(
            &clusters,
            &trace,
            &prices,
            SimulationConfig::default(),
        );
        let table = sim.price_table();
        let mut engine =
            SimulationEngine::new(&clusters, &trace.states, SimulationConfig::default())
                .with_clamped_lead_hours(table.clamped_lead_hours());
        let mut policy = NearestClusterPolicy::new();
        for (i, step) in trace.steps().iter().enumerate() {
            let hour = trace.step_hour(i);
            let allocation = engine.tick(
                &mut policy,
                PriceSlice::new(
                    hour,
                    table.delayed_at(hour).unwrap(),
                    table.billing_at(hour).unwrap(),
                ),
                DemandSlice::new(&step.us_demand),
            );
            assert_eq!(allocation.num_clusters(), clusters.len());
        }
        assert_eq!(engine.steps(), trace.num_steps());
        assert_eq!(engine.last_allocation_hour(), Some(trace.step_hour(trace.num_steps() - 1)));
        let report = engine.report();
        assert_eq!(report.steps, trace.num_steps());
        assert!(report.total_cost_dollars > 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let (clusters, trace, prices) = setup();
        let sim = crate::simulation::Simulation::new(
            &clusters,
            &trace,
            &prices,
            SimulationConfig::default(),
        );
        let table = sim.price_table();
        let mut engine =
            SimulationEngine::new(&clusters, &trace.states, SimulationConfig::default());
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        for (i, step) in trace.steps().iter().enumerate().take(30) {
            let hour = trace.step_hour(i);
            engine.tick(
                &mut policy,
                PriceSlice::new(
                    hour,
                    table.delayed_at(hour).unwrap(),
                    table.billing_at(hour).unwrap(),
                ),
                DemandSlice::new(&step.us_demand),
            );
        }
        let snapshot = engine.snapshot();
        let json = snapshot.to_json();
        let decoded = EngineSnapshot::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded.steps(), 30);
        assert_eq!(decoded.policy_name(), Some(policy.name()));
    }

    #[test]
    fn a_run_split_mid_epoch_resumes_from_json_bit_for_bit() {
        let (clusters, trace, prices) = setup();
        let steps = trace.steps();
        // Seven steps into hour 3: inside the 36..48 epoch at interval 12,
        // and inside 40..45 at interval 5.
        let split = 3 * STEPS_PER_HOUR + 7;
        for interval in [12, 5] {
            let config = SimulationConfig::default().with_reallocation_interval(interval);
            let sim =
                crate::simulation::Simulation::new(&clusters, &trace, &prices, config.clone());
            let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
            let uninterrupted = sim.execute(&mut policy);
            let table = sim.price_table();
            let engine = || {
                SimulationEngine::new(&clusters, &trace.states, config.clone())
                    .with_clamped_lead_hours(table.clamped_lead_hours())
            };
            let advance_to =
                |engine: &mut SimulationEngine<'_>, policy: &mut dyn RoutingPolicy, end: usize| {
                    while engine.steps() < end {
                        let i = engine.steps();
                        let hour = trace.step_hour(i);
                        let prices = PriceSlice::new(
                            hour,
                            table.delayed_at(hour).unwrap(),
                            table.billing_at(hour).unwrap(),
                        );
                        let left = (STEPS_PER_HOUR - i % STEPS_PER_HOUR).min(end - i);
                        engine.advance(policy, prices, DemandSlice::new(&steps[i].us_demand), left);
                    }
                };

            let mut first = engine();
            advance_to(&mut first, &mut policy, split);
            assert_eq!(first.steps(), split);
            let json = first.snapshot().to_json();
            let decoded =
                EngineSnapshot::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(decoded, first.snapshot());

            let mut resumed = engine();
            resumed.restore(&decoded);
            let mut fresh_policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
            advance_to(&mut resumed, &mut fresh_policy, steps.len());
            let report = resumed.report();
            assert_eq!(report, uninterrupted, "interval {interval}");
            assert_eq!(report.to_json(), uninterrupted.to_json(), "interval {interval}");
        }
    }

    /// Advance `engine` one epoch per call up to step `end` of `trace`,
    /// over the prices `table` compiles.
    fn advance_to(
        engine: &mut SimulationEngine<'_>,
        policy: &mut dyn RoutingPolicy,
        trace: &Trace,
        table: &wattroute_market::price_table::PriceTable,
        end: usize,
    ) {
        while engine.steps() < end {
            let i = engine.steps();
            let hour = trace.step_hour(i);
            let prices = PriceSlice::new(
                hour,
                table.delayed_at(hour).unwrap(),
                table.billing_at(hour).unwrap(),
            );
            let left = (STEPS_PER_HOUR - i % STEPS_PER_HOUR).min(end - i);
            engine.advance(policy, prices, DemandSlice::new(&trace.steps()[i].us_demand), left);
        }
    }

    /// A step-k snapshot restored mid-epoch into the engine that took it,
    /// after that engine ticked on: the epoch cache then holds loads from
    /// later epochs, and the refresh after the restore reuses every
    /// cluster's derived values whose load is the same in bits. The
    /// finished report must equal an uninterrupted run's, byte for byte.
    #[test]
    fn a_snapshot_restored_into_its_warm_engine_resumes_bit_for_bit() {
        let (clusters, trace, prices) = setup();
        let split = 3 * STEPS_PER_HOUR + 7;
        let later = split + 5 * STEPS_PER_HOUR + 4;
        for interval in [12, 5] {
            let config = SimulationConfig::default().with_reallocation_interval(interval);
            let sim =
                crate::simulation::Simulation::new(&clusters, &trace, &prices, config.clone());
            let uninterrupted =
                sim.execute(&mut PriceConsciousPolicy::with_distance_threshold(1500.0));
            let table = sim.price_table();
            let mut engine = SimulationEngine::new(&clusters, &trace.states, config.clone())
                .with_clamped_lead_hours(table.clamped_lead_hours());
            let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
            advance_to(&mut engine, &mut policy, &trace, table, split);
            let (snapshot, loads_at_split) = (engine.snapshot(), engine.epoch.loads.clone());
            advance_to(&mut engine, &mut policy, &trace, table, later);
            let bits = |loads: &[f64]| loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_ne!(bits(&engine.epoch.loads), bits(&loads_at_split), "a warm cache");
            engine.restore(&snapshot);
            advance_to(&mut engine, &mut policy, &trace, table, trace.num_steps());
            let warm = engine.reports();
            assert_eq!(warm.len(), 1);
            assert_eq!(warm[0], uninterrupted, "interval {interval}");
            assert_eq!(warm[0].to_json(), uninterrupted.to_json(), "interval {interval}");
        }
    }

    /// At interval 12 the steps of an epoch lengthen one load run, so a
    /// snapshot taken mid-epoch leaves its last run to grow before the
    /// next one. Each text the engine resumes must equal a fresh encoding
    /// of the same state, byte for byte.
    #[test]
    fn resumed_snapshot_text_equals_a_fresh_encoding_as_the_last_run_grows() {
        let (clusters, trace, prices) = setup();
        let config = SimulationConfig::default().with_reallocation_interval(12);
        let sim = crate::simulation::Simulation::new(&clusters, &trace, &prices, config.clone());
        let table = sim.price_table();
        let mut engine = SimulationEngine::new(&clusters, &trace.states, config)
            .with_clamped_lead_hours(table.clamped_lead_hours());
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let runs = |engine: &SimulationEngine<'_>| {
            engine.state.loads.iter().map(LoadRuns::num_runs).collect::<Vec<_>>()
        };
        // Steps 41 and 45 fall in the 36..48 epoch; 48 starts the next.
        let mut last_runs = Vec::new();
        for end in [0, 41, 41, 45, 48, 61] {
            advance_to(&mut engine, &mut policy, &trace, table, end);
            let mut text = String::from("reply: ");
            engine.write_snapshot_json(&mut text);
            assert_eq!(text, format!("reply: {}", engine.snapshot().to_json()), "step {end}");
            if end == 45 {
                assert_eq!(runs(&engine), last_runs, "steps 41..45 only lengthen the last runs");
            }
            last_runs = runs(&engine);
        }
    }

    /// Energy lanes are not part of a snapshot, so a restored lane would
    /// keep the sums of the steps the restore discards: restore refuses.
    #[test]
    #[should_panic(expected = "an engine with energy lanes cannot be restored")]
    fn an_engine_with_energy_lanes_cannot_be_restored() {
        let (clusters, trace, prices) = setup();
        let config = SimulationConfig::default();
        let sim = crate::simulation::Simulation::new(&clusters, &trace, &prices, config.clone());
        let table = sim.price_table();
        let mut engine = SimulationEngine::new(&clusters, &trace.states, config)
            .with_clamped_lead_hours(table.clamped_lead_hours())
            .with_energy_lanes(&[EnergyModelParams::no_power_management()]);
        let snapshot = engine.snapshot();
        let hour = trace.step_hour(0);
        engine.tick(
            &mut NearestClusterPolicy::new(),
            PriceSlice::new(hour, table.delayed_at(hour).unwrap(), table.billing_at(hour).unwrap()),
            DemandSlice::new(&trace.steps()[0].us_demand),
        );
        engine.restore(&snapshot);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let (clusters, trace, _) = setup();
        let engine = SimulationEngine::new(&clusters, &trace.states, SimulationConfig::default());
        let snapshot = engine.snapshot();
        let json = snapshot.to_json();
        let decoded = EngineSnapshot::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(decoded, snapshot);
        assert!(!json.contains("allocation"), "no cached allocation before the first tick");
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let (clusters, trace, _) = setup();
        let engine = SimulationEngine::new(&clusters, &trace.states, SimulationConfig::default());
        let snapshot = engine.snapshot();
        let small =
            ClusterSet::new(clusters.clusters().iter().take(3).cloned().collect::<Vec<_>>());
        let mut other = SimulationEngine::new(&small, &trace.states, SimulationConfig::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.restore(&snapshot);
        }));
        assert!(result.is_err(), "restoring a 9-cluster snapshot into a 3-cluster engine");
    }

    #[test]
    #[should_panic(expected = "geometry compiled for another hub list")]
    fn shared_geometry_for_another_hub_list_is_rejected() {
        let (clusters, trace, _) = setup();
        let reversed =
            ClusterSet::new(clusters.clusters().iter().rev().cloned().collect::<Vec<_>>());
        let geometry = Arc::new(CompiledPreferences::build(&reversed, &trace.states));
        let config = SimulationConfig::default();
        let _ = SimulationEngine::with_geometry(&clusters, &trace.states, geometry, config);
    }

    #[test]
    #[should_panic(expected = "geometry compiled for another state list")]
    fn shared_geometry_for_another_state_list_is_rejected() {
        let (clusters, trace, _) = setup();
        let reversed: Vec<UsState> = trace.states.iter().rev().copied().collect();
        let geometry = Arc::new(CompiledPreferences::build(&clusters, &reversed));
        let config = SimulationConfig::default();
        let _ = SimulationEngine::with_geometry(&clusters, &trace.states, geometry, config);
    }

    #[test]
    fn malformed_snapshot_json_is_rejected() {
        let missing = JsonValue::parse(r#"{"step":1}"#).unwrap();
        assert!(EngineSnapshot::from_json_value(&missing).is_err());
        let ragged = JsonValue::parse(
            r#"{"step":0,"clamped_lead_hours":0,"cost":[0,0],"energy_wh":[0],
               "hits":[0,0],"overflow_hits":[0,0],"rejected_hits":[0,0],
               "binding_steps":[0,0],"load_series":[[],[]],
               "util_stats":[{"count":0},{"count":0}],
               "distances":{"bin_km":25,"weights":[0],"total_weight":0,"weighted_sum":0}}"#,
        )
        .unwrap();
        let err = EngineSnapshot::from_json_value(&ragged).unwrap_err();
        assert!(err.to_string().contains("energy_wh"), "unexpected error: {err}");
    }

    /// A 30-step price-conscious snapshot, with its allocation, as JSON.
    fn snapshot_json() -> JsonValue {
        let (clusters, trace, prices) = setup();
        let sim = crate::simulation::Simulation::new(
            &clusters,
            &trace,
            &prices,
            SimulationConfig::default(),
        );
        let table = sim.price_table();
        let mut engine =
            SimulationEngine::new(&clusters, &trace.states, SimulationConfig::default());
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        for (i, step) in trace.steps().iter().enumerate().take(30) {
            let hour = trace.step_hour(i);
            engine.tick(
                &mut policy,
                PriceSlice::new(
                    hour,
                    table.delayed_at(hour).unwrap(),
                    table.billing_at(hour).unwrap(),
                ),
                DemandSlice::new(&step.us_demand),
            );
        }
        JsonValue::parse(&engine.snapshot().to_json()).unwrap()
    }

    /// `snapshot` with one edit applied to its top-level fields.
    fn edited(
        snapshot: &JsonValue,
        edit: impl FnOnce(&mut std::collections::BTreeMap<String, JsonValue>),
    ) -> JsonValue {
        let mut v = snapshot.clone();
        let JsonValue::Object(fields) = &mut v else { panic!("a snapshot is an object") };
        edit(fields);
        v
    }

    /// The `index`-th element of the array field `key`.
    fn entry<'v>(
        fields: &'v mut std::collections::BTreeMap<String, JsonValue>,
        key: &str,
        index: usize,
    ) -> &'v mut JsonValue {
        let Some(JsonValue::Array(items)) = fields.get_mut(key) else {
            panic!("{key} is an array")
        };
        &mut items[index]
    }

    #[test]
    fn snapshot_counts_that_are_not_non_negative_integers_are_rejected() {
        let snapshot = snapshot_json();
        assert!(EngineSnapshot::from_json_value(&snapshot).is_ok());
        for bad in [-2.0, 2.5, -2.5, 1e300, f64::INFINITY] {
            for key in ["step", "clamped_lead_hours", "last_alloc_hour"] {
                let v = edited(&snapshot, |f| {
                    f.insert(key.into(), JsonValue::Number(bad));
                });
                assert!(EngineSnapshot::from_json_value(&v).is_err(), "{key} = {bad}");
            }
            let v = edited(&snapshot, |f| *entry(f, "binding_steps", 0) = JsonValue::Number(bad));
            assert!(EngineSnapshot::from_json_value(&v).is_err(), "binding step {bad}");
        }
    }

    #[test]
    fn a_negative_allocation_entry_is_an_error_not_a_panic() {
        let snapshot = edited(&snapshot_json(), |f| {
            let JsonValue::Array(row) = entry(f, "allocation", 0) else { panic!("row array") };
            row[0] = JsonValue::Number(-1.0);
        });
        let err = EngineSnapshot::from_json_value(&snapshot).unwrap_err();
        assert!(err.to_string().contains("allocation"), "unexpected error: {err}");
    }

    #[test]
    fn per_cluster_sample_counts_must_agree_with_the_step_count() {
        let snapshot = snapshot_json();
        let short_series = edited(&snapshot, |f| {
            let JsonValue::Array(samples) = entry(f, "load_series", 2) else { panic!("series") };
            samples.pop();
        });
        let short_stats = edited(&snapshot, |f| {
            let JsonValue::Object(stats) = entry(f, "util_stats", 2) else { panic!("stats") };
            stats.insert("count".into(), JsonValue::Number(29.0));
        });
        let over_bound = edited(&snapshot, |f| {
            *entry(f, "binding_steps", 2) = JsonValue::Number(31.0);
        });
        let more_steps = edited(&snapshot, |f| {
            f.insert("step".into(), JsonValue::Number(31.0));
        });
        for (case, v) in [
            ("load samples", short_series),
            ("utilization count", short_stats),
            ("binding steps", over_bound),
            ("step", more_steps),
        ] {
            let err = EngineSnapshot::from_json_value(&v).unwrap_err();
            assert!(err.to_string().contains("after 3"), "{case}: unexpected error: {err}");
        }
    }
}
