//! Hierarchical replay: tick a region → metro → site tree at CDN scale.
//!
//! [`HierarchicalReplay`] is the tree-native counterpart of the flat batch
//! [`Simulation`](crate::simulation::Simulation). It partitions a
//! [`Topology`]'s sites by region, gives each region a *shard* — a
//! region-local structure-of-arrays state block (price rows, demand mask,
//! per-site accumulators, all reused across steps with no per-step
//! allocation) — and replays the whole trace through each shard, either
//! sequentially ([`HierarchicalReplay::run`]) or on scoped worker threads
//! ([`HierarchicalReplay::run_sharded`]). A deterministic merge then folds
//! the shard results, in region order, into one [`SimulationReport`]:
//! per-site [`ClusterReport`]s concatenate in global site order, distance
//! histograms merge bin-wise, and tier rollups fold the sites' online
//! utilization accumulators with [`OnlineStats::merge`].
//!
//! Three equivalences are pinned by `tests/proptest_hierarchy_equivalence.rs`:
//!
//! 1. **Sharded ≡ sequential** — by construction: shards share nothing and
//!    the merge visits regions in index order either way.
//! 2. **Trivial embedding ≡ flat engine** — a one-region tree with one
//!    site per metro and no tier caps (see
//!    [`single_region_of`](wattroute_workload::hierarchy::single_region_of))
//!    replays bit-identical to [`Simulation`](crate::simulation::Simulation)
//!    over the same deployment, and its report carries `tiers: None`, so
//!    even the JSON matches byte for byte.
//! 3. **Conservation** — demand is owned by exactly one region
//!    ([`Topology::assign_states`]), so hits and energy sum across tiers.
//!
//! # Why the shard loop is fast
//!
//! Within one allocation epoch (the engine re-routes at least hourly, and
//! billing prices only change hourly), the allocation — and therefore every
//! per-site quantity the flat engine recomputes each step: loads,
//! utilization, watt-hours, per-step dollars, overflow deltas, binding
//! flags — is *constant*. The shard loop computes those once per
//! reallocation and degrades the per-step work to pure accumulating adds,
//! which is what makes a 1000-site multi-year replay finish in seconds.
//! Every add happens once per step in the same order as the flat engine's,
//! so the hoisting is bit-exact, not approximate. Per-site load series are
//! kept in [`SampleReservoir`]s (exact until the capacity, decimated
//! beyond), so memory stays flat however long the trace runs.

use crate::report::{
    ClusterReport, DistanceHistogram, SimulationReport, TierNodeReport, TierRollup,
};
use crate::simulation::{step_coverage, SimulationConfig};
use wattroute_energy::cost::energy_cost_dollars;
use wattroute_energy::model::ClusterPowerModel;
use wattroute_geo::topology::Topology;
use wattroute_geo::HubId;
use wattroute_market::price_table::PriceTable;
use wattroute_market::time::SimHour;
use wattroute_market::types::PriceSet;
use wattroute_routing::allocation::{Allocation, DistanceTable};
use wattroute_routing::constraints::{ConstraintSet, OverflowMode, TierCaps};
use wattroute_routing::policy::{RoutingContext, RoutingPolicy};
use wattroute_stats::{OnlineStats, SampleReservoir};
use wattroute_workload::hierarchy::site_clusters;
use wattroute_workload::trace::{Trace, STEP_SECONDS};
use wattroute_workload::ClusterSet;

/// A thread-safe factory producing one fresh policy instance per shard.
/// Each region routes with its own instance, so policies may carry mutable
/// caches without synchronisation.
pub type PolicyFactory<'f> = dyn Fn() -> Box<dyn RoutingPolicy> + Sync + 'f;

/// Default per-site load-series reservoir capacity: exact percentiles for
/// traces up to ~14 days of 5-minute steps, decimated (still deterministic)
/// beyond.
pub const DEFAULT_RESERVOIR_CAPACITY: usize = 4096;

/// Everything accumulated by one region's shard over a whole trace.
struct ShardResult {
    labels: Vec<String>,
    cost: Vec<f64>,
    energy_wh: Vec<f64>,
    hits: Vec<f64>,
    overflow_hits: Vec<f64>,
    rejected_hits: Vec<f64>,
    binding_steps: Vec<usize>,
    util_stats: Vec<OnlineStats>,
    reservoirs: Vec<SampleReservoir>,
    peak: Vec<f64>,
    distances: DistanceHistogram,
    policy_name: String,
    clamped_lead_hours: u64,
    /// The region's slice of the globally accounted 95/5 caps, when a
    /// tariff made caps reportable.
    accounted_caps: Option<Vec<f64>>,
}

/// A hierarchical batch replay: topology + trace + prices + configuration.
///
/// See the [module docs](self) for the sharding and equivalence story.
pub struct HierarchicalReplay<'a> {
    topology: &'a Topology,
    trace: &'a Trace,
    prices: &'a PriceSet,
    config: SimulationConfig,
    reservoir_capacity: usize,
}

impl<'a> HierarchicalReplay<'a> {
    /// Bind a replay. Positional constraint vectors in `config` must align
    /// with the topology's site order; if the topology carries tier caps
    /// and the configuration does not already hold a [`TierCaps`], they
    /// are lifted from the topology automatically.
    ///
    /// # Panics
    /// Panics on an empty trace or on constraint vectors whose length does
    /// not match the site count.
    pub fn new(
        topology: &'a Topology,
        trace: &'a Trace,
        prices: &'a PriceSet,
        mut config: SimulationConfig,
    ) -> Self {
        assert!(trace.num_steps() > 0, "trace is empty");
        if config.constraints.tier_caps().is_none() {
            if let Some(tiers) = TierCaps::from_topology(topology) {
                config.constraints = config.constraints.with_tier_caps(tiers);
            }
        }
        config.constraints.validate(topology.num_sites());
        Self { topology, trace, prices, config, reservoir_capacity: DEFAULT_RESERVOIR_CAPACITY }
    }

    /// Override the per-site load-series reservoir capacity (minimum 2).
    /// Percentiles are exact while a trace fits the capacity; longer traces
    /// are decimated deterministically.
    pub fn with_reservoir_capacity(mut self, capacity: usize) -> Self {
        self.reservoir_capacity = capacity;
        self
    }

    /// The configuration in force (tier caps already lifted).
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Replay every region sequentially and merge. Bit-identical to
    /// [`Self::run_sharded`].
    pub fn run(&self, make_policy: &PolicyFactory<'_>) -> SimulationReport {
        let owners = self.topology.assign_states(&self.trace.states);
        let shards: Vec<ShardResult> = (0..self.topology.num_regions())
            .map(|region| {
                let mut policy = make_policy();
                self.run_region(region, &owners, policy.as_mut())
            })
            .collect();
        self.merge(shards)
    }

    /// Replay regions on scoped worker threads (one per region) and merge
    /// deterministically. Shards share nothing, and the merge consumes
    /// results in region index order, so the report is bit-identical to
    /// [`Self::run`].
    pub fn run_sharded(&self, make_policy: &PolicyFactory<'_>) -> SimulationReport {
        let owners = self.topology.assign_states(&self.trace.states);
        let n_regions = self.topology.num_regions();
        let mut slots: Vec<Option<ShardResult>> = Vec::with_capacity(n_regions);
        slots.resize_with(n_regions, || None);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_regions);
            for (region, slot) in slots.iter_mut().enumerate() {
                let owners = &owners;
                handles.push(scope.spawn(move || {
                    let mut policy = make_policy();
                    *slot = Some(self.run_region(region, owners, policy.as_mut()));
                }));
            }
            for handle in handles {
                handle.join().expect("shard thread panicked");
            }
        });
        self.merge(slots.into_iter().map(|s| s.expect("every shard filled")).collect())
    }

    /// Tick one region's shard over the whole trace.
    fn run_region(
        &self,
        region: usize,
        owners: &[usize],
        policy: &mut dyn RoutingPolicy,
    ) -> ShardResult {
        let _shard_span = wattroute_obs::span!("hierarchy.shard");
        let topology = self.topology;
        let (s0, s1) = topology.region_sites(region);
        let n_sites = s1 - s0;
        let trace = self.trace;
        let states = &trace.states;
        let config = &self.config;

        // Region-local deployment, in global site order restricted to the
        // region's contiguous range.
        let region_clusters: ClusterSet = site_clusters_range(topology, s0, s1);
        let labels: Vec<String> =
            region_clusters.labels().into_iter().map(str::to_string).collect();

        // One price column per *distinct* hub (sites share metros), plus a
        // site → column indirection. For a trivial embedding the distinct
        // hubs are exactly the cluster-order hub ids, so the compiled
        // table matches the flat simulation's byte for byte.
        let mut distinct_hubs: Vec<HubId> = Vec::new();
        let hub_row: Vec<usize> = (s0..s1)
            .map(|s| {
                let hub = topology.site_hub(s);
                match distinct_hubs.iter().position(|&h| h == hub) {
                    Some(i) => i,
                    None => {
                        distinct_hubs.push(hub);
                        distinct_hubs.len() - 1
                    }
                }
            })
            .collect();
        let table = PriceTable::build(
            self.prices,
            &distinct_hubs,
            step_coverage(trace),
            config.reaction_delay_hours,
        );

        // The region's slice of the global constraint set, with tier caps
        // localised (this region's metros, this region alone).
        let region_constraints = slice_constraints(&config.constraints, topology, region);
        let tariff = config.bandwidth_tariff.as_ref();
        let accounted_caps: Option<Vec<f64>> =
            tariff.and(config.constraints.bandwidth_caps()).map(|caps| caps[s0..s1].to_vec());

        let power_models: Vec<ClusterPowerModel> = region_clusters
            .clusters()
            .iter()
            .map(|c| ClusterPowerModel::new(config.energy, c.servers))
            .collect();
        let capacities: Vec<f64> =
            region_clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).collect();
        let distance_table = DistanceTable::build(&region_clusters, states);

        // SoA accumulators, allocated once.
        let mut cost = vec![0.0f64; n_sites];
        let mut energy_wh = vec![0.0f64; n_sites];
        let mut hits = vec![0.0f64; n_sites];
        let mut overflow_hits = vec![0.0f64; n_sites];
        let mut rejected_hits = vec![0.0f64; n_sites];
        let mut binding_steps = vec![0usize; n_sites];
        let mut util_stats = vec![OnlineStats::new(); n_sites];
        let mut reservoirs: Vec<SampleReservoir> =
            (0..n_sites).map(|_| SampleReservoir::new(self.reservoir_capacity)).collect();
        let mut peak = vec![0.0f64; n_sites];
        let mut distances = DistanceHistogram::default_resolution();

        // Reused per-hour / per-epoch buffers (no per-step allocation).
        let mut delayed_row = vec![0.0f64; n_sites];
        let mut billing_row = vec![0.0f64; n_sites];
        let mut masked_demand = vec![0.0f64; states.len()];
        let mut price_hour: Option<SimHour> = None;

        // Per-epoch hoisted quantities: constant between reallocations, so
        // the per-step work below is pure adds (see module docs).
        let mut epoch_loads: Vec<f64> = vec![0.0; n_sites];
        let mut epoch_util = vec![0.0f64; n_sites];
        let mut epoch_wh = vec![0.0f64; n_sites];
        let mut epoch_cost_step = vec![0.0f64; n_sites];
        let mut epoch_hits_step = vec![0.0f64; n_sites];
        let mut epoch_overflow_step = vec![0.0f64; n_sites];
        let mut epoch_rejected_step = vec![0.0f64; n_sites];
        let mut epoch_binding = vec![false; n_sites];
        let mut epoch_distances = Vec::new();
        // One allocation recycled across every reallocation of the shard:
        // the policy overwrites it in place via `allocate_into`.
        let mut allocation = Allocation::zeros(n_sites, states.len());

        let step_hours = STEP_SECONDS as f64 / 3600.0;
        let steps = trace.steps();
        let n_steps = steps.len();
        // Walk the trace one allocation epoch at a time. An epoch starts
        // wherever the flat engine would reallocate (step index multiple of
        // the reallocation interval, or an hour boundary) and runs to the
        // next such step, so the allocation — and every hoisted per-site
        // quantity — is constant inside it.
        let mut i = 0;
        while i < n_steps {
            let step = &steps[i];
            let hour = trace.step_hour(i);
            if price_hour != Some(hour) {
                let delayed = table.delayed_at(hour).expect("table covers the trace");
                let billing = table.billing_at(hour).expect("table covers the trace");
                for (c, &row) in hub_row.iter().enumerate() {
                    delayed_row[c] = delayed[row];
                    billing_row[c] = billing[row];
                }
                price_hour = Some(hour);
            }

            for (d, (&owner, &demand)) in
                masked_demand.iter_mut().zip(owners.iter().zip(&step.us_demand))
            {
                *d = if owner == region { demand } else { 0.0 };
            }
            let ctx =
                RoutingContext::new(&region_clusters, states, &masked_demand, &delayed_row, hour)
                    .with_constraints(&region_constraints);
            policy.allocate_into(&mut allocation, &ctx);

            // Hoist everything the flat engine recomputes per step.
            allocation.cluster_loads_into(&mut epoch_loads);
            distances.prepare_step(&allocation, &distance_table, &mut epoch_distances);
            for c in 0..n_sites {
                let cluster = region_clusters.get(c).expect("index in range");
                let raw_utilization = cluster.utilization(epoch_loads[c]);
                let mut served = epoch_loads[c];
                epoch_overflow_step[c] = 0.0;
                epoch_rejected_step[c] = 0.0;
                if raw_utilization > 1.0 {
                    let over = epoch_loads[c] - capacities[c];
                    match config.constraints.overflow() {
                        OverflowMode::BillAtCapacity => {
                            epoch_overflow_step[c] = over * STEP_SECONDS as f64;
                        }
                        OverflowMode::Reject => {
                            epoch_rejected_step[c] = over * STEP_SECONDS as f64;
                            served = capacities[c];
                        }
                    }
                }
                let utilization = raw_utilization.min(1.0);
                epoch_util[c] = utilization;
                let watts = power_models[c].power_watts(utilization);
                epoch_wh[c] = watts * step_hours;
                epoch_cost_step[c] = energy_cost_dollars(epoch_wh[c], billing_row[c]);
                epoch_hits_step[c] = served * STEP_SECONDS as f64;
                epoch_binding[c] = match &accounted_caps {
                    Some(caps) => {
                        caps[c].is_finite()
                            && epoch_loads[c] > 0.0
                            && epoch_loads[c] >= caps[c] * (1.0 - 1e-9)
                    }
                    None => false,
                };
            }

            // The epoch's extent: up to (not including) the next step where
            // the flat engine would reallocate.
            let mut j = i + 1;
            while j < n_steps
                && j % config.reallocate_every_steps != 0
                && trace.step_hour(j) == hour
            {
                j += 1;
            }
            let epoch_len = j - i;

            // Per-step accumulation, site-major: each site's accumulators
            // stay in registers across the epoch's steps. Every per-site add
            // and push still happens once per step, in step order, so the
            // sequence of float operations each site sees is exactly the
            // flat engine's (only the interleaving *across* sites differs,
            // and sites share no state).
            for c in 0..n_sites {
                let wh_step = epoch_wh[c];
                let cost_step = epoch_cost_step[c];
                let hits_step = epoch_hits_step[c];
                let overflow_step = epoch_overflow_step[c];
                let rejected_step = epoch_rejected_step[c];
                let util = epoch_util[c];
                let load = epoch_loads[c];
                let mut wh_acc = energy_wh[c];
                let mut cost_acc = cost[c];
                let mut hits_acc = hits[c];
                let mut overflow_acc = overflow_hits[c];
                let mut rejected_acc = rejected_hits[c];
                let mut peak_acc = peak[c];
                let stats = &mut util_stats[c];
                let reservoir = &mut reservoirs[c];
                for _ in 0..epoch_len {
                    wh_acc += wh_step;
                    cost_acc += cost_step;
                    hits_acc += hits_step;
                    overflow_acc += overflow_step;
                    rejected_acc += rejected_step;
                    stats.push(util);
                    reservoir.push(load);
                    peak_acc = peak_acc.max(load);
                }
                energy_wh[c] = wh_acc;
                cost[c] = cost_acc;
                hits[c] = hits_acc;
                overflow_hits[c] = overflow_acc;
                rejected_hits[c] = rejected_acc;
                peak[c] = peak_acc;
                if epoch_binding[c] {
                    // Integer steps sum exactly, so the whole epoch lands at once.
                    binding_steps[c] += epoch_len;
                }
            }
            // The flat engine's distance accumulate: every entry once per
            // step, in the same step-then-entry order.
            distances.add_steps(&epoch_distances, epoch_len);
            i = j;
        }

        ShardResult {
            labels,
            cost,
            energy_wh,
            hits,
            overflow_hits,
            rejected_hits,
            binding_steps,
            util_stats,
            reservoirs,
            peak,
            distances,
            policy_name: policy.name().to_string(),
            clamped_lead_hours: table.clamped_lead_hours(),
            accounted_caps,
        }
    }

    /// Fold shard results, in region index order, into one report.
    fn merge(&self, shards: Vec<ShardResult>) -> SimulationReport {
        let _merge_span = wattroute_obs::span!("hierarchy.merge");
        let n_steps = self.trace.num_steps();
        let tariff = self.config.bandwidth_tariff.as_ref();
        let policy_name = shards.first().map(|s| s.policy_name.clone()).unwrap_or_default();
        let clamped_lead_hours = shards.first().map_or(0, |s| s.clamped_lead_hours);
        debug_assert!(
            shards.iter().all(|s| s.clamped_lead_hours == clamped_lead_hours),
            "shards compiled against the same price range must clamp identically"
        );

        // Region sites are contiguous in global site order, so concatenating
        // shard outputs in region order reconstructs the global order.
        let mut clusters: Vec<ClusterReport> = Vec::with_capacity(self.topology.num_sites());
        let mut util_stats: Vec<OnlineStats> = Vec::with_capacity(self.topology.num_sites());
        let mut distances = DistanceHistogram::default_resolution();
        for shard in &shards {
            for c in 0..shard.labels.len() {
                let p95 = shard.reservoirs[c].percentile(95.0).unwrap_or(0.0);
                clusters.push(ClusterReport {
                    label: shard.labels[c].clone(),
                    cost_dollars: shard.cost[c],
                    energy_mwh: shard.energy_wh[c] / 1.0e6,
                    mean_utilization: shard.util_stats[c].mean().unwrap_or(0.0),
                    p95_hits_per_sec: p95,
                    peak_hits_per_sec: shard.peak[c],
                    total_hits: shard.hits[c],
                    overflow_hits: shard.overflow_hits[c],
                    rejected_hits: shard.rejected_hits[c],
                    bandwidth_cap_hits_per_sec: shard
                        .accounted_caps
                        .as_ref()
                        .map(|caps| caps[c])
                        .filter(|cap| cap.is_finite()),
                    bandwidth_binding_hours: shard.binding_steps[c] as f64 * STEP_SECONDS as f64
                        / 3600.0,
                    bandwidth_cost_dollars: tariff.map_or(0.0, |t| t.bill_dollars(p95, n_steps)),
                });
                util_stats.push(shard.util_stats[c]);
            }
            distances.merge(&shard.distances);
        }

        let tiers = if self.topology.is_flat_embedding() {
            // The trivial embedding IS the flat world; its report must be
            // byte-identical to the flat engine's, which carries no tiers.
            None
        } else {
            Some(self.tier_rollup(&clusters, &util_stats))
        };

        SimulationReport {
            policy: policy_name,
            steps: n_steps,
            reaction_delay_hours: self.config.reaction_delay_hours,
            bandwidth_constrained: self.config.constraints.is_bandwidth_constrained(),
            total_cost_dollars: clusters.iter().map(|c| c.cost_dollars).sum(),
            // Sum raw watt-hours, divide once — the flat engine's exact
            // arithmetic (summing per-site MWh rounds differently).
            total_energy_mwh: shards.iter().flat_map(|s| s.energy_wh.iter()).sum::<f64>() / 1.0e6,
            total_overflow_hits: clusters.iter().map(|c| c.overflow_hits).sum(),
            total_rejected_hits: clusters.iter().map(|c| c.rejected_hits).sum(),
            total_bandwidth_binding_hours: clusters.iter().map(|c| c.bandwidth_binding_hours).sum(),
            total_bandwidth_cost_dollars: clusters.iter().map(|c| c.bandwidth_cost_dollars).sum(),
            delay_clamped_hours: clamped_lead_hours,
            clusters,
            mean_distance_km: distances.mean_km().unwrap_or(0.0),
            p99_distance_km: distances.percentile_km(99.0).unwrap_or(0.0),
            distances,
            tiers,
        }
    }

    /// Sum the per-site reports over the tree's contiguous ranges, folding
    /// the sites' utilization accumulators with [`OnlineStats::merge`].
    fn tier_rollup(&self, sites: &[ClusterReport], util_stats: &[OnlineStats]) -> TierRollup {
        let topology = self.topology;
        let node = |label: &str, (a, b): (usize, usize), cap: f64| {
            let mut merged = OnlineStats::new();
            for stats in &util_stats[a..b] {
                merged.merge(stats);
            }
            TierNodeReport {
                label: label.to_string(),
                sites: b - a,
                cost_dollars: sites[a..b].iter().map(|c| c.cost_dollars).sum(),
                energy_mwh: sites[a..b].iter().map(|c| c.energy_mwh).sum(),
                total_hits: sites[a..b].iter().map(|c| c.total_hits).sum(),
                overflow_hits: sites[a..b].iter().map(|c| c.overflow_hits).sum(),
                rejected_hits: sites[a..b].iter().map(|c| c.rejected_hits).sum(),
                mean_utilization: merged.mean().unwrap_or(0.0),
                cap_hits_per_sec: cap.is_finite().then_some(cap),
            }
        };
        TierRollup {
            metros: (0..topology.num_metros())
                .map(|m| {
                    node(
                        &topology.metro_labels()[m],
                        topology.metro_sites(m),
                        topology.metro_cap_hits_per_sec(m),
                    )
                })
                .collect(),
            regions: (0..topology.num_regions())
                .map(|r| {
                    node(
                        &topology.region_labels()[r],
                        topology.region_sites(r),
                        topology.region_cap_hits_per_sec(r),
                    )
                })
                .collect(),
        }
    }
}

/// Flatten one region's contiguous site range into a deployable
/// [`ClusterSet`] (global site order preserved within the range).
fn site_clusters_range(topology: &Topology, s0: usize, s1: usize) -> ClusterSet {
    let all = site_clusters(topology);
    ClusterSet::with_shared_hubs(all.clusters()[s0..s1].to_vec())
}

/// The region's slice of a global constraint set: positional vectors cut to
/// the region's site range, tier caps localised to the region's metros and
/// the region's own cap, overflow mode carried over.
fn slice_constraints(global: &ConstraintSet, topology: &Topology, region: usize) -> ConstraintSet {
    let (s0, s1) = topology.region_sites(region);
    let mut set = ConstraintSet::unconstrained().with_overflow(global.overflow());
    if let Some(caps) = global.bandwidth_caps() {
        set = set.with_bandwidth_caps(caps[s0..s1].to_vec());
    }
    if let Some(ceilings) = global.capacity_ceilings() {
        set = set.with_capacity_ceilings(ceilings[s0..s1].to_vec());
    }
    if global.tier_caps().is_some() {
        let (m0, m1) = topology.region_metros(region);
        let site_metro: Vec<usize> = (s0..s1).map(|s| topology.site_metro(s) - m0).collect();
        let site_region = vec![0usize; s1 - s0];
        let metro_caps: Vec<f64> = (m0..m1).map(|m| topology.metro_cap_hits_per_sec(m)).collect();
        let region_caps = vec![topology.region_cap_hits_per_sec(region)];
        set = set.with_tier_caps(TierCaps::new(site_metro, site_region, metro_caps, region_caps));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunOptions;
    use crate::simulation::Simulation;
    use wattroute_market::generator::PriceGenerator;
    use wattroute_market::model::MarketModel;
    use wattroute_market::time::HourRange;
    use wattroute_routing::price_conscious::PriceConsciousPolicy;
    use wattroute_workload::hierarchy::single_region_of;
    use wattroute_workload::SyntheticWorkloadConfig;

    fn short_range(hours: u64) -> HourRange {
        let start = SimHour::from_date(2008, 12, 19);
        HourRange::new(start, start.plus_hours(hours))
    }

    fn pc_factory() -> Box<dyn RoutingPolicy> {
        Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))
    }

    #[test]
    fn trivial_embedding_matches_flat_engine_bit_for_bit() {
        let clusters = ClusterSet::akamai_like_nine();
        let topology = single_region_of(&clusters);
        let range = short_range(48);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::nine_cluster_default(42).realtime_hourly(range);
        let config = SimulationConfig::default();

        let flat = Simulation::new(&clusters, &trace, &prices, config.clone())
            .execute(&mut *pc_factory(), RunOptions::new());
        let replay = HierarchicalReplay::new(&topology, &trace, &prices, config);
        let tree = replay.run(&pc_factory);
        assert_eq!(tree, flat, "trivial embedding must replay bit-identical");
        assert_eq!(tree.to_json(), flat.to_json(), "JSON must match byte for byte");
        assert!(tree.tiers.is_none());
    }

    #[test]
    fn sharded_matches_sequential_on_a_synthetic_tree() {
        let topology = Topology::synthetic(7, 60).with_tier_slack(0.9);
        let range = short_range(36);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 9).realtime_hourly(range);
        let replay =
            HierarchicalReplay::new(&topology, &trace, &prices, SimulationConfig::default());
        let sequential = replay.run(&pc_factory);
        let sharded = replay.run_sharded(&pc_factory);
        assert_eq!(sequential, sharded);
        let tiers = sequential.tiers.as_ref().expect("synthetic tree reports tiers");
        assert_eq!(tiers.metros.len(), 29);
        assert_eq!(tiers.regions.len(), 6);
    }

    #[test]
    fn tier_rollup_conserves_cost_energy_and_hits() {
        let topology = Topology::synthetic(3, 45);
        let range = short_range(24);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 4).realtime_hourly(range);
        let replay =
            HierarchicalReplay::new(&topology, &trace, &prices, SimulationConfig::default());
        let report = replay.run(&pc_factory);
        let tiers = report.tiers.as_ref().expect("tiers present");
        let site_cost: f64 = report.clusters.iter().map(|c| c.cost_dollars).sum();
        let metro_cost: f64 = tiers.metros.iter().map(|m| m.cost_dollars).sum();
        let region_cost: f64 = tiers.regions.iter().map(|r| r.cost_dollars).sum();
        assert!((metro_cost - site_cost).abs() / site_cost.max(1.0) < 1e-9);
        assert!((region_cost - site_cost).abs() / site_cost.max(1.0) < 1e-9);
        let site_hits: f64 = report.clusters.iter().map(|c| c.total_hits).sum();
        let region_hits: f64 = tiers.regions.iter().map(|r| r.total_hits).sum();
        assert!((region_hits - site_hits).abs() / site_hits.max(1.0) < 1e-9);
        assert_eq!(tiers.regions.iter().map(|r| r.sites).sum::<usize>(), 45);
    }
}
