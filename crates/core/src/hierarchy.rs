//! Hierarchical replay: tick a region → metro → site tree at CDN scale.
//!
//! [`HierarchicalReplay`] is the tree-native counterpart of the flat batch
//! [`Simulation`](crate::simulation::Simulation). It partitions a
//! [`Topology`]'s sites by region, gives each region a *shard* — a
//! [`SimulationEngine`] over the region's sites — and replays the whole
//! trace through each shard, either sequentially
//! ([`HierarchicalReplay::run`]) or on scoped worker threads
//! ([`HierarchicalReplay::run_sharded`]). A deterministic merge then folds
//! the shard reports, in region order, into one [`SimulationReport`]:
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
//!    over the same deployment while the trace fits the reservoir capacity
//!    (see below), and its report carries `tiers: None`, so even the JSON
//!    matches byte for byte.
//! 3. **Conservation** — demand is owned by exactly one region
//!    ([`Topology::assign_states`]), so hits and energy sum across tiers.
//!
//! # Each shard is the engine
//!
//! A shard builds a [`SimulationEngine`] over its region's sites, with the
//! replay's configuration and the constraints cut to the region
//! (positional vectors sliced, tier caps localised to the region's metros
//! and the region itself). It drives the engine one batched advance per
//! allocation epoch, as the flat batch driver does: each call gets the
//! hour's delayed and billing prices (one compiled column per distinct
//! hub, read through a site → column indirection) and the demand the
//! region owns (every other region's states masked to zero), and is capped
//! at the steps left in the hour. Routing, the epoch refresh, the
//! accumulate kernel and the run-length load store are therefore the flat
//! engine's own, which is what makes a 1000-site multi-year replay finish
//! in seconds and what makes the equivalences above hold by construction.
//!
//! The one departure is the 95th percentile. When the shard ends, the tree
//! reads each site's off the engine's load runs from every s-th sample
//! alone, where s is the stride a decimating reservoir of the replay's
//! capacity would settle on ([`LoadRuns::percentile_95_every`]): exact
//! while the trace fits the capacity, deterministically decimated beyond.
//! No sample is copied; the runs are the only load store.

use crate::engine::{DemandSlice, PriceSlice, SimulationEngine};
use crate::report::{
    ClusterReport, DistanceHistogram, SimulationReport, TierNodeReport, TierRollup,
};
use crate::simulation::{step_coverage, SimulationConfig};
use wattroute_geo::topology::Topology;
use wattroute_geo::HubId;
use wattroute_market::price_table::PriceTable;
use wattroute_market::types::PriceSet;
use wattroute_routing::constraints::{ConstraintSet, TierCaps};
use wattroute_routing::policy::RoutingPolicy;
use wattroute_stats::OnlineStats;
use wattroute_workload::bandwidth::LoadRuns;
use wattroute_workload::hierarchy::site_clusters;
use wattroute_workload::trace::{Trace, STEPS_PER_HOUR};
use wattroute_workload::ClusterSet;

/// A thread-safe factory producing one fresh policy instance per shard.
/// Each region routes with its own instance, so policies may carry mutable
/// caches without synchronisation.
pub type ShardPolicyFactory<'f> = dyn Fn() -> Box<dyn RoutingPolicy> + Sync + 'f;

/// Default per-site reservoir capacity: how many of a site's five-minute
/// loads its 95th percentile reads. Exact for traces up to ~14 days of
/// 5-minute steps; beyond, the percentile reads every s-th load, for the
/// smallest power of two s that leaves at most this many (still
/// deterministic).
pub const DEFAULT_RESERVOIR_CAPACITY: usize = 4096;

/// What one region's shard hands the merge.
struct ShardResult {
    /// The region engine's report over its sites.
    report: SimulationReport,
    /// Each site's raw watt-hours: the merge sums these and divides once.
    energy_wh: Vec<f64>,
    /// Each site's utilization accumulator, for the tier means.
    util_stats: Vec<OnlineStats>,
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
    /// are lifted from the topology automatically. A [`TierCaps`] the
    /// configuration does hold is the one the replay routes and reports
    /// by.
    ///
    /// # Panics
    /// Panics on an empty trace, on constraint vectors whose length does
    /// not match the site count, or on a configured [`TierCaps`] that
    /// describes a different tree than `topology` (shards are cut by the
    /// topology's regions).
    pub fn new(
        topology: &'a Topology,
        trace: &'a Trace,
        prices: &'a PriceSet,
        mut config: SimulationConfig,
    ) -> Self {
        assert!(trace.num_steps() > 0, "trace is empty");
        match config.constraints.tier_caps() {
            Some(tiers) => assert!(
                tiers.site_metros() == topology.site_metros()
                    && tiers.site_regions() == topology.site_regions()
                    && tiers.metro_caps().len() == topology.num_metros()
                    && tiers.region_caps().len() == topology.num_regions(),
                "configured tier caps describe a different tree than the topology"
            ),
            None => {
                if let Some(tiers) = TierCaps::from_topology(topology) {
                    config.constraints = config.constraints.with_tier_caps(tiers);
                }
            }
        }
        config.constraints.validate(topology.num_sites());
        Self { topology, trace, prices, config, reservoir_capacity: DEFAULT_RESERVOIR_CAPACITY }
    }

    /// Override the per-site reservoir capacity (minimum 2; see
    /// [`DEFAULT_RESERVOIR_CAPACITY`]). Percentiles are exact while a trace
    /// fits the capacity; longer traces are decimated deterministically.
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
    pub fn run(&self, make_policy: &ShardPolicyFactory<'_>) -> SimulationReport {
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
    /// [`Self::run`]. A panic in a shard reaches the caller with the
    /// shard's own payload.
    pub fn run_sharded(&self, make_policy: &ShardPolicyFactory<'_>) -> SimulationReport {
        let owners = self.topology.assign_states(&self.trace.states);
        let shards = crate::pool(self.topology.num_regions(), |region| {
            let mut policy = make_policy();
            self.run_region(region, &owners, policy.as_mut())
        });
        self.merge(shards)
    }

    /// Replay the whole trace through one region's engine.
    fn run_region(
        &self,
        region: usize,
        owners: &[usize],
        policy: &mut dyn RoutingPolicy,
    ) -> ShardResult {
        let _shard_span = wattroute_obs::span!("hierarchy.shard");
        let topology = self.topology;
        let (s0, s1) = topology.region_sites(region);
        let trace = self.trace;
        let steps = trace.steps();

        // Region-local deployment, in global site order restricted to the
        // region's contiguous range.
        let region_clusters: ClusterSet = site_clusters_range(topology, s0, s1);

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
            self.config.reaction_delay_hours,
        );

        let config = self.config.clone().with_constraints(slice_constraints(
            &self.config.constraints,
            topology,
            region,
        ));
        let mut engine = SimulationEngine::new(&region_clusters, &trace.states, config)
            .with_clamped_lead_hours(table.clamped_lead_hours());

        let mut delayed_row = vec![0.0f64; s1 - s0];
        let mut billing_row = vec![0.0f64; s1 - s0];
        let mut masked_demand = vec![0.0f64; trace.states.len()];
        let mut i = 0;
        while i < steps.len() {
            // A trace's hour changes every `STEPS_PER_HOUR` steps, and no
            // call below crosses an hour, so each hour starts a call.
            let hour = trace.step_hour(i);
            if i % STEPS_PER_HOUR == 0 {
                let delayed = table.delayed_at(hour).expect("table covers the trace");
                let billing = table.billing_at(hour).expect("table covers the trace");
                for (c, &row) in hub_row.iter().enumerate() {
                    delayed_row[c] = delayed[row];
                    billing_row[c] = billing[row];
                }
            }
            for (d, (&owner, &demand)) in
                masked_demand.iter_mut().zip(owners.iter().zip(steps[i].us_demand.iter()))
            {
                *d = if owner == region { demand } else { 0.0 };
            }
            let left_in_hour = (STEPS_PER_HOUR - i % STEPS_PER_HOUR).min(steps.len() - i);
            i += engine.advance(
                policy,
                PriceSlice::new(hour, &delayed_row, &billing_row),
                DemandSlice::new(&masked_demand),
                left_in_hour,
            );
        }

        let capacity = self.reservoir_capacity;
        ShardResult {
            report: engine
                .report_with(|runs| runs.percentile_95_every(reservoir_stride(runs, capacity))),
            energy_wh: engine.energy_wh().to_vec(),
            util_stats: engine.util_stats().to_vec(),
        }
    }

    /// Fold shard results, in region index order, into one report.
    fn merge(&self, shards: Vec<ShardResult>) -> SimulationReport {
        let _merge_span = wattroute_obs::span!("hierarchy.merge");
        let first = &shards.first().expect("a topology has at least one region").report;
        let (policy, clamped_lead_hours) = (first.policy.clone(), first.delay_clamped_hours);
        debug_assert!(
            shards.iter().all(|s| s.report.delay_clamped_hours == clamped_lead_hours),
            "shards compiled against the same price range must clamp identically"
        );
        // Sum raw watt-hours, divide once — the flat engine's exact
        // arithmetic (summing per-site MWh rounds differently).
        let total_energy_mwh = shards.iter().flat_map(|s| s.energy_wh.iter()).sum::<f64>() / 1.0e6;

        // Region sites are contiguous in global site order, so concatenating
        // shard outputs in region order reconstructs the global order.
        let mut clusters: Vec<ClusterReport> = Vec::with_capacity(self.topology.num_sites());
        let mut util_stats: Vec<OnlineStats> = Vec::with_capacity(self.topology.num_sites());
        let mut distances = DistanceHistogram::default_resolution();
        for shard in shards {
            clusters.extend(shard.report.clusters);
            util_stats.extend(shard.util_stats);
            distances.merge(&shard.report.distances);
        }

        let tiers =
            if self.topology.is_flat_embedding() && self.config.constraints.tier_caps().is_none() {
                // The trivial embedding IS the flat world; its report must be
                // byte-identical to the flat engine's, which carries no tiers.
                None
            } else {
                Some(self.tier_rollup(&clusters, &util_stats))
            };

        SimulationReport {
            policy,
            steps: self.trace.num_steps(),
            reaction_delay_hours: self.config.reaction_delay_hours,
            bandwidth_constrained: self.config.constraints.is_bandwidth_constrained(),
            total_cost_dollars: clusters.iter().map(|c| c.cost_dollars).sum(),
            total_energy_mwh,
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
    /// Caps come from the configured [`TierCaps`] (uncapped without one).
    fn tier_rollup(&self, sites: &[ClusterReport], util_stats: &[OnlineStats]) -> TierRollup {
        let topology = self.topology;
        let tier_caps = self.config.constraints.tier_caps();
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
                    let cap = tier_caps.map_or(f64::INFINITY, |t| t.metro_caps()[m]);
                    node(&topology.metro_labels()[m], topology.metro_sites(m), cap)
                })
                .collect(),
            regions: (0..topology.num_regions())
                .map(|r| {
                    let cap = tier_caps.map_or(f64::INFINITY, |t| t.region_caps()[r]);
                    node(&topology.region_labels()[r], topology.region_sites(r), cap)
                })
                .collect(),
        }
    }
}

/// The stride a decimating reservoir of `capacity` samples (at least 2)
/// settles on once fed the finite samples of `runs`: the smallest power of
/// two `s` with ⌈samples / s⌉ ≤ capacity.
fn reservoir_stride(runs: &LoadRuns, capacity: usize) -> usize {
    let samples: usize = runs
        .runs()
        .filter(|(load, _)| load.is_finite())
        .map(|(_, count)| usize::try_from(count).expect("a u32 fits in usize"))
        .sum();
    let mut stride = 1;
    while samples.div_ceil(stride) > capacity.max(2) {
        stride *= 2;
    }
    stride
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
    if let Some(tiers) = global.tier_caps() {
        let (m0, m1) = topology.region_metros(region);
        let site_metro: Vec<usize> = (s0..s1).map(|s| topology.site_metro(s) - m0).collect();
        let site_region = vec![0usize; s1 - s0];
        let metro_caps = tiers.metro_caps()[m0..m1].to_vec();
        let region_caps = vec![tiers.region_caps()[region]];
        set = set.with_tier_caps(TierCaps::new(site_metro, site_region, metro_caps, region_caps));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panics::{panic_message, Boom};
    use crate::simulation::Simulation;
    use wattroute_market::generator::PriceGenerator;
    use wattroute_market::model::MarketModel;
    use wattroute_market::time::{HourRange, SimHour};
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

        let flat =
            Simulation::new(&clusters, &trace, &prices, config.clone()).execute(&mut *pc_factory());
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
    fn tier_caps_supplied_in_the_config_replay_like_caps_lifted_from_the_topology() {
        let range = short_range(36);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 9).realtime_hourly(range);
        let config = SimulationConfig::default();
        // A synthetic tree, and a trivial embedding, whose report carries
        // tiers only once caps apply.
        for uncapped in
            [Topology::synthetic(7, 60), single_region_of(&ClusterSet::akamai_like_nine())]
        {
            let capped = uncapped.clone().with_tier_slack(0.5);
            let tiers = TierCaps::from_topology(&capped).expect("a slack of 0.5 caps every tier");
            let supplied_config =
                config.clone().with_constraints(config.constraints.clone().with_tier_caps(tiers));

            let lifted =
                HierarchicalReplay::new(&capped, &trace, &prices, config.clone()).run(&pc_factory);
            let free = HierarchicalReplay::new(&uncapped, &trace, &prices, config.clone())
                .run(&pc_factory);
            assert_ne!(lifted.total_cost_dollars, free.total_cost_dollars, "the caps must bind");
            let supplied = HierarchicalReplay::new(&uncapped, &trace, &prices, supplied_config)
                .run(&pc_factory);
            assert_eq!(supplied, lifted, "caps supplied in the config must route and report");
            assert_eq!(supplied.to_json(), lifted.to_json());
        }
    }

    #[test]
    #[should_panic(expected = "different tree")]
    fn tier_caps_for_another_tree_are_rejected() {
        let clusters = ClusterSet::akamai_like_nine();
        let topology = single_region_of(&clusters);
        let other = Topology::synthetic(7, clusters.len()).with_tier_slack(0.5);
        let tiers = TierCaps::from_topology(&other).expect("a slack of 0.5 caps every tier");
        let range = short_range(1);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 9).realtime_hourly(range);
        let config = SimulationConfig::default()
            .with_constraints(ConstraintSet::unconstrained().with_tier_caps(tiers));
        HierarchicalReplay::new(&topology, &trace, &prices, config);
    }

    #[test]
    fn a_shard_panic_reaches_the_caller_with_its_own_payload() {
        let topology = Topology::synthetic(7, 60);
        let range = short_range(6);
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 9).realtime_hourly(range);
        let replay =
            HierarchicalReplay::new(&topology, &trace, &prices, SimulationConfig::default());
        let boom = || -> Box<dyn RoutingPolicy> { Box::new(Boom::on_call(20)) };
        assert_eq!(panic_message(|| drop(replay.run_sharded(&boom))), "boom from the policy");
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
