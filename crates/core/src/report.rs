//! Simulation results: costs, distances, per-cluster breakdowns.

use crate::json::{self, JsonValue};
use serde::{Deserialize, Serialize};
use wattroute_routing::allocation::Allocation;
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_workload::trace::STEP_SECONDS;
use wattroute_workload::ClusterSet;

/// An error produced while decoding a report from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportDecodeError(String);

impl ReportDecodeError {
    /// Build an error from a plain message (used by sibling decoders such
    /// as the sweep report).
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ReportDecodeError(message.into())
    }
}

impl std::fmt::Display for ReportDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "report decode error: {}", self.0)
    }
}

impl std::error::Error for ReportDecodeError {}

impl From<json::JsonError> for ReportDecodeError {
    fn from(e: json::JsonError) -> Self {
        ReportDecodeError(e.to_string())
    }
}

// The JSON field readers every decoder in this crate shares (reports,
// sweep reports, engine snapshots). Each error names its field.

pub(crate) fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ReportDecodeError> {
    v.get(key).ok_or_else(|| ReportDecodeError(format!("missing field '{key}'")))
}

pub(crate) fn f64_field(v: &JsonValue, key: &str) -> Result<f64, ReportDecodeError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| ReportDecodeError(format!("field '{key}' is not a number")))
}

pub(crate) fn array_field<'a>(
    v: &'a JsonValue,
    key: &str,
) -> Result<&'a [JsonValue], ReportDecodeError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| ReportDecodeError(format!("field '{key}' is not an array")))
}

pub(crate) fn f64_vec_field(v: &JsonValue, key: &str) -> Result<Vec<f64>, ReportDecodeError> {
    array_field(v, key)?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| ReportDecodeError(format!("field '{key}' has a non-number entry")))
        })
        .collect()
}

pub(crate) fn count_field(v: &JsonValue, key: &str) -> Result<u64, ReportDecodeError> {
    field(v, key)?
        .as_count()
        .ok_or_else(|| ReportDecodeError(format!("field '{key}' is not a non-negative integer")))
}

pub(crate) fn str_field(v: &JsonValue, key: &str) -> Result<String, ReportDecodeError> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| ReportDecodeError(format!("field '{key}' is not a string")))?
        .to_string())
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, ReportDecodeError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| ReportDecodeError(format!("field '{key}' is not a boolean")))
}

/// A demand-weighted histogram over client–server distances, used to report
/// mean and tail (99th percentile) distances without storing every sample
/// (Figure 17 plots both).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceHistogram {
    bin_km: f64,
    weights: Vec<f64>,
    total_weight: f64,
    weighted_sum: f64,
}

impl DistanceHistogram {
    /// Create a histogram with `bins` bins of `bin_km` kilometres each.
    pub fn new(bin_km: f64, bins: usize) -> Self {
        assert!(bin_km > 0.0 && bins > 0);
        Self { bin_km, weights: vec![0.0; bins], total_weight: 0.0, weighted_sum: 0.0 }
    }

    /// Default resolution: 25 km bins out to 6000 km.
    pub fn default_resolution() -> Self {
        Self::new(25.0, 240)
    }

    /// Record `weight` demand served at `distance_km`.
    pub fn add(&mut self, distance_km: f64, weight: f64) {
        if let Some(entry) = self.prepare(distance_km, weight) {
            self.add_steps(&[entry], 1);
        }
    }

    /// What [`Self::add`] adds for one sample, or `None` where it adds
    /// nothing.
    fn prepare(&self, distance_km: f64, weight: f64) -> Option<PreparedDistance> {
        if !(distance_km.is_finite() && weight.is_finite()) || weight <= 0.0 {
            return None;
        }
        let bin = ((distance_km / self.bin_km) as usize).min(self.weights.len() - 1);
        Some(PreparedDistance { bin, weight, weighted_km: distance_km * weight })
    }

    /// Replace `entries` with one step of `allocation`'s served pairs —
    /// each pair's load over one five-minute step at its distance in
    /// `geometry` — prepared in the same walk that reads the distances.
    /// Adding them with [`Self::add_steps`] adds exactly what [`Self::add`]
    /// would for every sample of [`Allocation::distance_samples`].
    pub(crate) fn prepare_step(
        &self,
        allocation: &Allocation,
        geometry: &CompiledPreferences,
        entries: &mut Vec<PreparedDistance>,
    ) {
        entries.clear();
        allocation.for_each_distance_sample(geometry, |distance_km, load| {
            entries.extend(self.prepare(distance_km, load * STEP_SECONDS as f64));
        });
    }

    /// Add `entries`, prepared against this histogram's bins, once per
    /// step for `steps` steps. Every step adds every entry in order, three
    /// adds each, so the float sums are those of calling [`Self::add`]
    /// per step and sample: adding a weight `n` times does not round like
    /// adding `n ×` it once.
    pub(crate) fn add_steps(&mut self, entries: &[PreparedDistance], steps: usize) {
        let mut total_weight = self.total_weight;
        let mut weighted_sum = self.weighted_sum;
        for _ in 0..steps {
            for entry in entries {
                self.weights[entry.bin] += entry.weight;
                total_weight += entry.weight;
                weighted_sum += entry.weighted_km;
            }
        }
        self.total_weight = total_weight;
        self.weighted_sum = weighted_sum;
    }

    /// Total demand-weight recorded.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Demand-weighted mean distance, or `None` if nothing was recorded.
    pub fn mean_km(&self) -> Option<f64> {
        (self.total_weight > 0.0).then(|| self.weighted_sum / self.total_weight)
    }

    /// Demand-weighted percentile (0-100) of the distance distribution,
    /// resolved to bin granularity.
    pub fn percentile_km(&self, p: f64) -> Option<f64> {
        if self.total_weight <= 0.0 {
            return None;
        }
        let target = self.total_weight * (p / 100.0).clamp(0.0, 1.0);
        let mut acc = 0.0;
        for (i, w) in self.weights.iter().enumerate() {
            acc += w;
            if acc >= target {
                return Some((i as f64 + 1.0) * self.bin_km);
            }
        }
        Some(self.weights.len() as f64 * self.bin_km)
    }

    /// Encode as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        json::object([
            ("bin_km", JsonValue::Number(self.bin_km)),
            ("weights", json::number_array(&self.weights)),
            ("total_weight", JsonValue::Number(self.total_weight)),
            ("weighted_sum", JsonValue::Number(self.weighted_sum)),
        ])
    }

    /// Decode from a JSON value produced by [`Self::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, ReportDecodeError> {
        let bin_km = f64_field(v, "bin_km")?;
        let weights = f64_vec_field(v, "weights")?;
        let geometry_ok = bin_km.is_finite() && bin_km > 0.0 && !weights.is_empty();
        if !geometry_ok {
            return Err(ReportDecodeError("histogram geometry is invalid".to_string()));
        }
        Ok(Self {
            bin_km,
            weights,
            total_weight: f64_field(v, "total_weight")?,
            weighted_sum: f64_field(v, "weighted_sum")?,
        })
    }

    /// Merge another histogram with the same geometry.
    pub fn merge(&mut self, other: &DistanceHistogram) {
        assert_eq!(self.bin_km, other.bin_km);
        assert_eq!(self.weights.len(), other.weights.len());
        for (a, b) in self.weights.iter_mut().zip(&other.weights) {
            *a += b;
        }
        self.total_weight += other.total_weight;
        self.weighted_sum += other.weighted_sum;
    }
}

/// One served (cluster, state) pair of an allocation epoch, resolved once
/// against a [`DistanceHistogram`]'s bins: the bin, the step's weight and
/// its distance-weighted term. Replaying it each step of the epoch needs
/// no division, no float-to-index cast and no finiteness check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreparedDistance {
    bin: usize,
    weight: f64,
    weighted_km: f64,
}

/// Cost and load accounting for one cluster over a whole simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Cluster label (e.g. `NY`).
    pub label: String,
    /// Total electricity cost in dollars.
    pub cost_dollars: f64,
    /// Total energy in MWh.
    pub energy_mwh: f64,
    /// Mean utilization over the run (0..1).
    pub mean_utilization: f64,
    /// 95th percentile of the cluster's five-minute hit rate (hits/second).
    pub p95_hits_per_sec: f64,
    /// Peak five-minute hit rate (hits/second).
    pub peak_hits_per_sec: f64,
    /// Total hits served over the run.
    pub total_hits: f64,
    /// Hits assigned beyond the cluster's capacity under
    /// [`OverflowMode::BillAtCapacity`](wattroute_routing::constraints::OverflowMode),
    /// summed over all steps where the cluster was over-subscribed. The
    /// engine bills such demand as if served at capacity (the energy model
    /// saturates), so a nonzero value means the cost figures understate
    /// what serving everything would really take. Always zero under
    /// `OverflowMode::Reject`, where the same demand lands in
    /// [`Self::rejected_hits`] instead.
    pub overflow_hits: f64,
    /// Hits assigned beyond the cluster's capacity under
    /// [`OverflowMode::Reject`](wattroute_routing::constraints::OverflowMode): turned
    /// away rather than billed at capacity, and excluded from
    /// [`Self::total_hits`]. Always zero under the default
    /// `OverflowMode::BillAtCapacity`. The JSON encoding omits the field
    /// when it is zero, so default-mode reports are byte-identical to
    /// pre-rejection reports.
    pub rejected_hits: f64,
    /// The 95/5 bandwidth cap (hits/second) in force for this cluster
    /// during the run, if one was — the calibrated ceiling the router was
    /// held to. Populated only when the run carries a
    /// [`BandwidthTariff`](crate::constraints::BandwidthTariff) (95/5
    /// accounting is opt-in); omitted from JSON when absent so
    /// pre-accounting reports — including cap-constrained ones — are
    /// byte-identical.
    pub bandwidth_cap_hits_per_sec: Option<f64>,
    /// Hours this cluster spent *at* its 95/5 bandwidth cap (load within a
    /// relative 1e-9 of the ceiling, or above it through spill) — the
    /// hours where the constraint actually shaped routing. Counted only
    /// when the run carries a
    /// [`BandwidthTariff`](crate::constraints::BandwidthTariff); the JSON
    /// encoding omits zero values.
    pub bandwidth_binding_hours: f64,
    /// This cluster's 95/5 bandwidth bill in dollars, priced on its
    /// observed [`Self::p95_hits_per_sec`] under the run's
    /// [`BandwidthTariff`](crate::constraints::BandwidthTariff), prorated
    /// by run length. Zero when the run had no tariff; the JSON encoding
    /// omits zero values.
    pub bandwidth_cost_dollars: f64,
}

impl ClusterReport {
    /// Encode as a JSON value. `rejected_hits` is emitted only when
    /// nonzero, so default-mode reports serialize exactly as they did
    /// before rejection accounting existed (golden files stay valid).
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("label", JsonValue::String(self.label.clone())),
            ("cost_dollars", JsonValue::Number(self.cost_dollars)),
            ("energy_mwh", JsonValue::Number(self.energy_mwh)),
            ("mean_utilization", JsonValue::Number(self.mean_utilization)),
            ("p95_hits_per_sec", JsonValue::Number(self.p95_hits_per_sec)),
            ("peak_hits_per_sec", JsonValue::Number(self.peak_hits_per_sec)),
            ("total_hits", JsonValue::Number(self.total_hits)),
            ("overflow_hits", JsonValue::Number(self.overflow_hits)),
        ];
        if self.rejected_hits != 0.0 {
            fields.push(("rejected_hits", JsonValue::Number(self.rejected_hits)));
        }
        if let Some(cap) = self.bandwidth_cap_hits_per_sec {
            fields.push(("bandwidth_cap_hits_per_sec", JsonValue::Number(cap)));
        }
        if self.bandwidth_binding_hours != 0.0 {
            fields
                .push(("bandwidth_binding_hours", JsonValue::Number(self.bandwidth_binding_hours)));
        }
        if self.bandwidth_cost_dollars != 0.0 {
            fields.push(("bandwidth_cost_dollars", JsonValue::Number(self.bandwidth_cost_dollars)));
        }
        json::object_iter(fields)
    }

    /// Decode from a JSON value produced by [`Self::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, ReportDecodeError> {
        Ok(Self {
            label: str_field(v, "label")?,
            cost_dollars: f64_field(v, "cost_dollars")?,
            energy_mwh: f64_field(v, "energy_mwh")?,
            mean_utilization: f64_field(v, "mean_utilization")?,
            p95_hits_per_sec: f64_field(v, "p95_hits_per_sec")?,
            peak_hits_per_sec: f64_field(v, "peak_hits_per_sec")?,
            total_hits: f64_field(v, "total_hits")?,
            overflow_hits: f64_field(v, "overflow_hits")?,
            // Absent in pre-rejection reports and in default-mode reports.
            rejected_hits: v.get("rejected_hits").and_then(JsonValue::as_f64).unwrap_or(0.0),
            // All absent in pre-constraint (and unconstrained) reports.
            bandwidth_cap_hits_per_sec: v
                .get("bandwidth_cap_hits_per_sec")
                .and_then(JsonValue::as_f64),
            bandwidth_binding_hours: v
                .get("bandwidth_binding_hours")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            bandwidth_cost_dollars: v
                .get("bandwidth_cost_dollars")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
        })
    }
}

/// Additive accounting for one tier node (a metro or a region): the sums
/// of its sites' costs, energy, and hit counts. Only additive quantities
/// appear — a tier's 95th percentile is not the sum of its sites' 95th
/// percentiles, so percentile-like fields stay per-cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierNodeReport {
    /// Node label (e.g. a metro's hub code or a region's RTO abbreviation).
    pub label: String,
    /// Number of sites under this node.
    pub sites: usize,
    /// Total electricity cost in dollars, summed over the node's sites.
    pub cost_dollars: f64,
    /// Total energy in MWh, summed over the node's sites.
    pub energy_mwh: f64,
    /// Total hits served, summed over the node's sites.
    pub total_hits: f64,
    /// Overflow hits, summed over the node's sites.
    pub overflow_hits: f64,
    /// Rejected hits, summed over the node's sites.
    pub rejected_hits: f64,
    /// Mean utilization over the node's (site × step) observations, folded
    /// from the sites' online accumulators.
    pub mean_utilization: f64,
    /// The aggregate tier bandwidth cap in force (hits/second), when the
    /// topology carried a finite one.
    pub cap_hits_per_sec: Option<f64>,
}

impl TierNodeReport {
    /// Encode as a JSON value. Like [`ClusterReport::to_json_value`],
    /// zero `rejected_hits` and absent caps are omitted.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("label", JsonValue::String(self.label.clone())),
            ("sites", JsonValue::Number(self.sites as f64)),
            ("cost_dollars", JsonValue::Number(self.cost_dollars)),
            ("energy_mwh", JsonValue::Number(self.energy_mwh)),
            ("total_hits", JsonValue::Number(self.total_hits)),
            ("overflow_hits", JsonValue::Number(self.overflow_hits)),
            ("mean_utilization", JsonValue::Number(self.mean_utilization)),
        ];
        if self.rejected_hits != 0.0 {
            fields.push(("rejected_hits", JsonValue::Number(self.rejected_hits)));
        }
        if let Some(cap) = self.cap_hits_per_sec {
            fields.push(("cap_hits_per_sec", JsonValue::Number(cap)));
        }
        json::object_iter(fields)
    }

    /// Decode from a JSON value produced by [`Self::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, ReportDecodeError> {
        Ok(Self {
            label: str_field(v, "label")?,
            sites: count_field(v, "sites")? as usize,
            cost_dollars: f64_field(v, "cost_dollars")?,
            energy_mwh: f64_field(v, "energy_mwh")?,
            total_hits: f64_field(v, "total_hits")?,
            overflow_hits: f64_field(v, "overflow_hits")?,
            mean_utilization: f64_field(v, "mean_utilization")?,
            rejected_hits: v.get("rejected_hits").and_then(JsonValue::as_f64).unwrap_or(0.0),
            cap_hits_per_sec: v.get("cap_hits_per_sec").and_then(JsonValue::as_f64),
        })
    }
}

/// Per-tier rollups of a hierarchical run: metro and region accounting, in
/// tree index order. Flat runs carry `None` in
/// [`SimulationReport::tiers`], and the JSON encoding omits the field, so
/// flat reports — including trivial single-region embeddings — are
/// byte-identical to pre-hierarchy reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierRollup {
    /// Per-metro accounting, in metro index order.
    pub metros: Vec<TierNodeReport>,
    /// Per-region accounting, in region index order.
    pub regions: Vec<TierNodeReport>,
}

impl TierRollup {
    /// Encode as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        json::object([
            (
                "metros",
                JsonValue::Array(self.metros.iter().map(TierNodeReport::to_json_value).collect()),
            ),
            (
                "regions",
                JsonValue::Array(self.regions.iter().map(TierNodeReport::to_json_value).collect()),
            ),
        ])
    }

    /// Decode from a JSON value produced by [`Self::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, ReportDecodeError> {
        let nodes = |key: &str| -> Result<Vec<TierNodeReport>, ReportDecodeError> {
            array_field(v, key)?.iter().map(TierNodeReport::from_json_value).collect()
        };
        Ok(Self { metros: nodes("metros")?, regions: nodes("regions")? })
    }
}

/// The result of simulating one routing policy over one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Name of the routing policy simulated.
    pub policy: String,
    /// Number of five-minute steps simulated.
    pub steps: usize,
    /// Reaction delay (hours) between market prices and routing decisions.
    pub reaction_delay_hours: u64,
    /// Whether 95/5 bandwidth caps were enforced.
    pub bandwidth_constrained: bool,
    /// Total electricity cost in dollars.
    pub total_cost_dollars: f64,
    /// Total energy in MWh.
    pub total_energy_mwh: f64,
    /// Total hits assigned beyond cluster capacity across the whole run
    /// (the sum of every cluster's [`ClusterReport::overflow_hits`]).
    /// Nonzero means the deployment was over-subscribed at some point and
    /// the cost totals silently assume capacity-saturated service.
    pub total_overflow_hits: f64,
    /// Total hits turned away across the whole run (the sum of every
    /// cluster's [`ClusterReport::rejected_hits`]). Nonzero only under
    /// [`OverflowMode::Reject`](wattroute_routing::constraints::OverflowMode); like the
    /// per-cluster field, the JSON encoding omits it when zero so
    /// default-mode reports are unchanged on disk.
    pub total_rejected_hits: f64,
    /// Total hours any cluster spent at its 95/5 bandwidth cap (the sum of
    /// every cluster's [`ClusterReport::bandwidth_binding_hours`]). Zero on
    /// unconstrained runs; omitted from JSON when zero.
    pub total_bandwidth_binding_hours: f64,
    /// Total 95/5 bandwidth bill in dollars (the sum of every cluster's
    /// [`ClusterReport::bandwidth_cost_dollars`]). Zero when the run had no
    /// [`BandwidthTariff`](crate::constraints::BandwidthTariff); omitted
    /// from JSON when zero.
    pub total_bandwidth_cost_dollars: f64,
    /// Hours at the start of the run whose *delayed* (router-visible) price
    /// fell before the price series began and was clamped to the first
    /// sample. Runs whose price data start exactly at the trace start see
    /// `min(reaction_delay_hours, run hours)` here; supply series extending
    /// `reaction_delay_hours` earlier for faithful routing from step one.
    pub delay_clamped_hours: u64,
    /// Per-cluster breakdown, in cluster order.
    pub clusters: Vec<ClusterReport>,
    /// Demand-weighted mean client–server distance in km.
    pub mean_distance_km: f64,
    /// Demand-weighted 99th-percentile client–server distance in km.
    pub p99_distance_km: f64,
    /// The distance histogram itself (for further analysis).
    pub distances: DistanceHistogram,
    /// Per-tier rollups when the run was hierarchical (a real tree with
    /// metros holding several sites, or tier caps in force). `None` on flat
    /// runs and on trivial single-region embeddings — those *are* the flat
    /// world — and omitted from JSON when `None`, so existing goldens stay
    /// byte-identical.
    pub tiers: Option<TierRollup>,
}

impl SimulationReport {
    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Encode as a JSON value. Like [`ClusterReport::to_json_value`], the
    /// `total_rejected_hits` field is emitted only when nonzero.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("policy", JsonValue::String(self.policy.clone())),
            ("steps", JsonValue::Number(self.steps as f64)),
            ("reaction_delay_hours", JsonValue::Number(self.reaction_delay_hours as f64)),
            ("bandwidth_constrained", JsonValue::Bool(self.bandwidth_constrained)),
            ("total_cost_dollars", JsonValue::Number(self.total_cost_dollars)),
            ("total_energy_mwh", JsonValue::Number(self.total_energy_mwh)),
            ("total_overflow_hits", JsonValue::Number(self.total_overflow_hits)),
            ("delay_clamped_hours", JsonValue::Number(self.delay_clamped_hours as f64)),
            (
                "clusters",
                JsonValue::Array(self.clusters.iter().map(ClusterReport::to_json_value).collect()),
            ),
            ("mean_distance_km", JsonValue::Number(self.mean_distance_km)),
            ("p99_distance_km", JsonValue::Number(self.p99_distance_km)),
            ("distances", self.distances.to_json_value()),
        ];
        if self.total_rejected_hits != 0.0 {
            fields.push(("total_rejected_hits", JsonValue::Number(self.total_rejected_hits)));
        }
        if self.total_bandwidth_binding_hours != 0.0 {
            fields.push((
                "total_bandwidth_binding_hours",
                JsonValue::Number(self.total_bandwidth_binding_hours),
            ));
        }
        if self.total_bandwidth_cost_dollars != 0.0 {
            fields.push((
                "total_bandwidth_cost_dollars",
                JsonValue::Number(self.total_bandwidth_cost_dollars),
            ));
        }
        if let Some(tiers) = &self.tiers {
            fields.push(("tiers", tiers.to_json_value()));
        }
        json::object_iter(fields)
    }

    /// Deserialize from JSON text produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, ReportDecodeError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// Decode from a JSON value produced by [`Self::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, ReportDecodeError> {
        let clusters = array_field(v, "clusters")?
            .iter()
            .map(ClusterReport::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            policy: str_field(v, "policy")?,
            steps: count_field(v, "steps")? as usize,
            reaction_delay_hours: count_field(v, "reaction_delay_hours")?,
            bandwidth_constrained: bool_field(v, "bandwidth_constrained")?,
            total_cost_dollars: f64_field(v, "total_cost_dollars")?,
            total_energy_mwh: f64_field(v, "total_energy_mwh")?,
            total_overflow_hits: f64_field(v, "total_overflow_hits")?,
            total_rejected_hits: v
                .get("total_rejected_hits")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            total_bandwidth_binding_hours: v
                .get("total_bandwidth_binding_hours")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            total_bandwidth_cost_dollars: v
                .get("total_bandwidth_cost_dollars")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            delay_clamped_hours: count_field(v, "delay_clamped_hours")?,
            clusters,
            mean_distance_km: f64_field(v, "mean_distance_km")?,
            p99_distance_km: f64_field(v, "p99_distance_km")?,
            distances: DistanceHistogram::from_json_value(field(v, "distances")?)?,
            tiers: v.get("tiers").map(TierRollup::from_json_value).transpose()?,
        })
    }

    /// This report's cost normalised to a baseline report's cost
    /// (Figures 16 and 18 plot exactly this quantity).
    pub fn normalized_cost_vs(&self, baseline: &SimulationReport) -> f64 {
        assert!(baseline.total_cost_dollars > 0.0, "baseline cost must be positive");
        self.total_cost_dollars / baseline.total_cost_dollars
    }

    /// Percentage savings relative to a baseline (positive = cheaper than
    /// the baseline).
    pub fn savings_percent_vs(&self, baseline: &SimulationReport) -> f64 {
        (1.0 - self.normalized_cost_vs(baseline)) * 100.0
    }

    /// Per-cluster percentage change in cost relative to the same cluster in
    /// a baseline report (Figure 19). Positive = this policy spends more at
    /// that cluster.
    pub fn per_cluster_cost_change_vs(&self, baseline: &SimulationReport) -> Vec<(String, f64)> {
        self.clusters
            .iter()
            .zip(&baseline.clusters)
            .map(|(mine, base)| {
                assert_eq!(mine.label, base.label, "cluster order mismatch");
                let change = if base.cost_dollars > 0.0 {
                    (mine.cost_dollars - base.cost_dollars) / base.cost_dollars * 100.0
                } else {
                    0.0
                };
                (mine.label.clone(), change)
            })
            .collect()
    }

    /// Whether every cluster's 95th percentile stayed at or below the given
    /// per-cluster ceilings (with a relative tolerance).
    pub fn respects_p95_caps(&self, caps: &[f64], tolerance: f64) -> bool {
        self.clusters.len() == caps.len()
            && self
                .clusters
                .iter()
                .zip(caps)
                .all(|(c, cap)| c.p95_hits_per_sec <= cap * (1.0 + tolerance))
    }

    /// Labels of the clusters, for convenience when printing tables.
    pub fn cluster_labels(&self) -> Vec<&str> {
        self.clusters.iter().map(|c| c.label.as_str()).collect()
    }
}

/// Side-by-side comparison of several policies on the same scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyComparison {
    /// The baseline every other report is normalised against.
    pub baseline: SimulationReport,
    /// The alternative policies.
    pub alternatives: Vec<SimulationReport>,
}

/// Build the per-cluster labels for a deployment (kept here so reports and
/// engine agree on ordering).
pub fn cluster_labels(clusters: &ClusterSet) -> Vec<String> {
    clusters.labels().into_iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report(policy: &str, costs: &[f64]) -> SimulationReport {
        let clusters = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| ClusterReport {
                label: format!("C{i}"),
                cost_dollars: c,
                energy_mwh: c / 60.0,
                mean_utilization: 0.3,
                p95_hits_per_sec: 1000.0,
                peak_hits_per_sec: 1200.0,
                total_hits: 1.0e9,
                overflow_hits: 0.0,
                rejected_hits: 0.0,
                bandwidth_cap_hits_per_sec: None,
                bandwidth_binding_hours: 0.0,
                bandwidth_cost_dollars: 0.0,
            })
            .collect::<Vec<_>>();
        SimulationReport {
            policy: policy.to_string(),
            steps: 100,
            reaction_delay_hours: 1,
            bandwidth_constrained: false,
            total_cost_dollars: costs.iter().sum(),
            total_energy_mwh: costs.iter().sum::<f64>() / 60.0,
            total_overflow_hits: 0.0,
            total_rejected_hits: 0.0,
            total_bandwidth_binding_hours: 0.0,
            total_bandwidth_cost_dollars: 0.0,
            delay_clamped_hours: 1,
            clusters,
            mean_distance_km: 500.0,
            p99_distance_km: 900.0,
            distances: DistanceHistogram::default_resolution(),
            tiers: None,
        }
    }

    #[test]
    fn normalisation_and_savings() {
        let baseline = dummy_report("base", &[100.0, 100.0]);
        let cheaper = dummy_report("opt", &[90.0, 70.0]);
        assert!((cheaper.normalized_cost_vs(&baseline) - 0.8).abs() < 1e-12);
        assert!((cheaper.savings_percent_vs(&baseline) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn per_cluster_changes() {
        let baseline = dummy_report("base", &[100.0, 100.0]);
        let alt = dummy_report("opt", &[50.0, 120.0]);
        let changes = alt.per_cluster_cost_change_vs(&baseline);
        assert_eq!(changes.len(), 2);
        assert!((changes[0].1 + 50.0).abs() < 1e-9);
        assert!((changes[1].1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn p95_cap_check() {
        let report = dummy_report("x", &[10.0]);
        assert!(report.respects_p95_caps(&[1000.0], 0.0));
        assert!(report.respects_p95_caps(&[990.0], 0.02));
        assert!(!report.respects_p95_caps(&[900.0], 0.01));
        assert!(!report.respects_p95_caps(&[1000.0, 1000.0], 0.0));
    }

    #[test]
    fn rejected_hits_are_omitted_when_zero_and_round_trip_when_not() {
        // Zero rejections (the default mode): the JSON must not mention the
        // field at all, so pre-rejection goldens stay byte-identical.
        let clean = dummy_report("x", &[10.0, 20.0]);
        let clean_json = clean.to_json();
        assert!(!clean_json.contains("rejected"), "zero rejections must not appear in JSON");
        assert_eq!(SimulationReport::from_json(&clean_json).unwrap(), clean);

        // Nonzero rejections survive a round trip.
        let mut rejecting = dummy_report("y", &[10.0, 20.0]);
        rejecting.clusters[1].rejected_hits = 5.0e6;
        rejecting.total_rejected_hits = 5.0e6;
        let json = rejecting.to_json();
        assert!(json.contains("\"rejected_hits\":5000000"));
        assert!(json.contains("\"total_rejected_hits\":5000000"));
        let back = SimulationReport::from_json(&json).unwrap();
        assert_eq!(back, rejecting);
        assert_eq!(back.clusters[0].rejected_hits, 0.0);
    }

    #[test]
    fn bandwidth_fields_are_omitted_when_absent_and_round_trip_when_not() {
        // Unconstrained, untariffed report: no bandwidth field may appear,
        // so pre-constraint goldens stay byte-identical.
        let clean = dummy_report("x", &[10.0, 20.0]);
        let clean_json = clean.to_json();
        assert!(!clean_json.contains("bandwidth_cap"), "no cap field on unconstrained reports");
        assert!(!clean_json.contains("bandwidth_binding"), "no binding field");
        assert!(!clean_json.contains("bandwidth_cost"), "no cost field");
        assert_eq!(SimulationReport::from_json(&clean_json).unwrap(), clean);

        // A constrained + tariffed report round-trips every new field.
        let mut constrained = dummy_report("y", &[10.0, 20.0]);
        constrained.bandwidth_constrained = true;
        constrained.clusters[0].bandwidth_cap_hits_per_sec = Some(1100.0);
        constrained.clusters[0].bandwidth_binding_hours = 7.25;
        constrained.clusters[0].bandwidth_cost_dollars = 42.5;
        constrained.clusters[1].bandwidth_cap_hits_per_sec = Some(900.0);
        constrained.total_bandwidth_binding_hours = 7.25;
        constrained.total_bandwidth_cost_dollars = 42.5;
        let json = constrained.to_json();
        assert!(json.contains("\"bandwidth_cap_hits_per_sec\":1100"));
        assert!(json.contains("\"total_bandwidth_cost_dollars\":42.5"));
        let back = SimulationReport::from_json(&json).unwrap();
        assert_eq!(back, constrained);
        assert_eq!(back.clusters[1].bandwidth_binding_hours, 0.0);
    }

    #[test]
    fn legacy_json_without_bandwidth_fields_still_parses() {
        // A hand-built pre-constraint report body (no bandwidth_* or
        // rejected fields anywhere) must decode, defaulting the new fields.
        let legacy = r#"{"policy":"legacy","steps":2,"reaction_delay_hours":1,
            "bandwidth_constrained":false,"total_cost_dollars":5.0,
            "total_energy_mwh":0.1,"total_overflow_hits":0,
            "delay_clamped_hours":0,"clusters":[{"label":"NY",
            "cost_dollars":5.0,"energy_mwh":0.1,"mean_utilization":0.5,
            "p95_hits_per_sec":10.0,"peak_hits_per_sec":12.0,
            "total_hits":100.0,"overflow_hits":0}],"mean_distance_km":1.0,
            "p99_distance_km":2.0,"distances":{"bin_km":25.0,
            "weights":[1.0],"total_weight":1.0,"weighted_sum":10.0}}"#;
        let report = SimulationReport::from_json(legacy).unwrap();
        assert_eq!(report.clusters[0].bandwidth_cap_hits_per_sec, None);
        assert_eq!(report.clusters[0].bandwidth_binding_hours, 0.0);
        assert_eq!(report.clusters[0].bandwidth_cost_dollars, 0.0);
        assert_eq!(report.total_bandwidth_binding_hours, 0.0);
        assert_eq!(report.total_bandwidth_cost_dollars, 0.0);
    }

    #[test]
    fn tiers_are_omitted_when_none_and_round_trip_when_not() {
        // Flat reports (tiers: None) must not mention the field, so
        // pre-hierarchy goldens stay byte-identical.
        let flat = dummy_report("x", &[10.0, 20.0]);
        let flat_json = flat.to_json();
        assert!(!flat_json.contains("tiers"), "flat reports carry no tiers field");
        assert_eq!(SimulationReport::from_json(&flat_json).unwrap(), flat);

        // A hierarchical report round-trips every tier node.
        let mut tree = dummy_report("y", &[10.0, 20.0]);
        tree.tiers = Some(TierRollup {
            metros: vec![TierNodeReport {
                label: "NYC".to_string(),
                sites: 2,
                cost_dollars: 30.0,
                energy_mwh: 0.5,
                total_hits: 2.0e9,
                overflow_hits: 0.0,
                rejected_hits: 0.0,
                mean_utilization: 0.3,
                cap_hits_per_sec: Some(5_000.0),
            }],
            regions: vec![TierNodeReport {
                label: "NYISO".to_string(),
                sites: 2,
                cost_dollars: 30.0,
                energy_mwh: 0.5,
                total_hits: 2.0e9,
                overflow_hits: 0.0,
                rejected_hits: 1.0,
                mean_utilization: 0.3,
                cap_hits_per_sec: None,
            }],
        });
        let json = tree.to_json();
        assert!(json.contains("\"tiers\":{\"metros\":"));
        assert!(json.contains("\"cap_hits_per_sec\":5000"));
        let back = SimulationReport::from_json(&json).unwrap();
        assert_eq!(back, tree);
        assert_eq!(back.tiers.as_ref().unwrap().regions[0].rejected_hits, 1.0);
        assert_eq!(back.tiers.as_ref().unwrap().regions[0].cap_hits_per_sec, None);
    }

    #[test]
    fn counts_that_are_not_non_negative_integers_are_rejected() {
        let mut tree = dummy_report("y", &[10.0, 20.0]);
        let node = TierNodeReport {
            label: "NYC".to_string(),
            sites: 2,
            cost_dollars: 30.0,
            energy_mwh: 0.5,
            total_hits: 2.0e9,
            overflow_hits: 0.0,
            rejected_hits: 0.0,
            mean_utilization: 0.3,
            cap_hits_per_sec: None,
        };
        tree.tiers = Some(TierRollup { metros: vec![node.clone()], regions: vec![node] });
        let good = tree.to_json_value();
        assert_eq!(SimulationReport::from_json_value(&good).unwrap(), tree);
        let set = |v: &mut JsonValue, key: &str, x: f64| {
            let JsonValue::Object(fields) = v else { panic!("an object") };
            fields.insert(key.to_string(), JsonValue::Number(x));
        };
        for bad in [-3.0, 2.5, 1e300, -1.0, -0.5, 9.007_199_254_740_994e15, f64::INFINITY] {
            for key in ["steps", "reaction_delay_hours", "delay_clamped_hours"] {
                let mut v = good.clone();
                set(&mut v, key, bad);
                let err = SimulationReport::from_json_value(&v).unwrap_err();
                assert!(err.to_string().contains(key), "{key} = {bad}: {err}");
            }
            let mut v = good.clone();
            let JsonValue::Object(fields) = &mut v else { panic!("an object") };
            let Some(JsonValue::Object(tiers)) = fields.get_mut("tiers") else { panic!("tiers") };
            let Some(JsonValue::Array(metros)) = tiers.get_mut("metros") else { panic!("metros") };
            set(&mut metros[0], "sites", bad);
            let err = SimulationReport::from_json_value(&v).unwrap_err();
            assert!(err.to_string().contains("sites"), "sites = {bad}: {err}");
        }
    }

    #[test]
    fn distance_histogram_mean_and_percentile() {
        let mut h = DistanceHistogram::new(10.0, 100);
        h.add(100.0, 1.0);
        h.add(200.0, 1.0);
        h.add(900.0, 2.0);
        let mean = h.mean_km().unwrap();
        assert!((mean - (100.0 + 200.0 + 1800.0) / 4.0).abs() < 1e-9);
        let p99 = h.percentile_km(99.0).unwrap();
        assert!((900.0..=920.0).contains(&p99));
        let p25 = h.percentile_km(25.0).unwrap();
        assert!(p25 <= 110.0);
        assert_eq!(h.total_weight(), 4.0);
    }

    #[test]
    fn distance_histogram_ignores_bad_samples() {
        let mut h = DistanceHistogram::default_resolution();
        h.add(f64::NAN, 1.0);
        h.add(100.0, -1.0);
        h.add(100.0, 0.0);
        assert_eq!(h.total_weight(), 0.0);
        assert!(h.mean_km().is_none());
        assert!(h.percentile_km(50.0).is_none());
    }

    #[test]
    fn distance_histogram_clamps_overflow_and_merges() {
        let mut a = DistanceHistogram::new(10.0, 10);
        a.add(5000.0, 1.0); // beyond the last bin -> clamped into it
        assert_eq!(a.percentile_km(100.0).unwrap(), 100.0);
        let mut b = DistanceHistogram::new(10.0, 10);
        b.add(15.0, 3.0);
        a.merge(&b);
        assert_eq!(a.total_weight(), 4.0);
        assert!(a.mean_km().unwrap() > 15.0);
    }
}
