//! Property-based bit-identity for the epoch-cached tick accounting.
//!
//! The engine's hot path caches, per allocation epoch, everything that is
//! constant between reallocations (loads, utilization, Wh, the
//! served/overflow/rejected split, binding flags, distance samples read
//! from the engine's compiled geometry), and the policies overwrite one
//! recycled [`Allocation`] through `allocate_into` with reused preference
//! scratch and, for the price-conscious policy, preference orders memoised
//! across reallocations. This test pins the non-negotiable contract of
//! those optimisations: the final [`SimulationReport`] must be
//! **bit-identical** — struct-equal and byte-equal through the JSON
//! encoding — to the *legacy* path, reimplemented here exactly as the
//! pre-epoch-cache engine computed it: a fresh `allocate` by a *fresh
//! policy* per reallocation (so no memo survives from one to the next)
//! and a full per-step recompute of `cluster_loads` / `distance_samples`
//! (the haversine walk) with per-step accounting.
//!
//! The matrix covers the built-in policies (price-conscious, nearest,
//! Akamai-like, joint price-distance) × constraint regimes (nominal
//! ceilings, binding ceilings, 95/5 caps with a tariff, both overflow
//! modes) × the batch driver and the (trivially embedded) sharded
//! hierarchical replay, over 1–2-day windows. Deterministic cases replay
//! the paper's whole 24-day trace: re-routing every step, and at intervals
//! of 12 and 5 steps, where the batch driver advances a whole allocation
//! epoch per call and the run-length load store keeps runs longer than one
//! step; and sweep-24d's grid shape, whose cells share replays across two
//! energy models, against each cell run alone. Block-shape cases replay
//! synthetic deployments of 1, 7, 8, 9, 16, 17 and 175 sites around the
//! accumulate kernel's blocks of eight, with a scripted policy whose loads
//! repeat, flip sign at zero and saturate from one epoch to the next, so
//! the epoch refresh both keeps and re-derives clusters.

#[path = "../../workload/tests/reservoir/mod.rs"]
mod reservoir;

use proptest::prelude::*;
use std::sync::Arc;
use wattroute::hierarchy::{HierarchicalReplay, DEFAULT_RESERVOIR_CAPACITY};
use wattroute::prelude::*;
use wattroute::report::{cluster_labels, ClusterReport, DistanceHistogram, SimulationReport};
use wattroute_energy::cost::energy_cost_dollars;
use wattroute_energy::model::ClusterPowerModel;
use wattroute_geo::topology::Topology;
use wattroute_market::generator::PriceGenerator;
use wattroute_market::model::MarketModel;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_routing::allocation::Allocation;
use wattroute_routing::constraints::OverflowMode;
use wattroute_routing::extensions::JointCostPolicy;
use wattroute_routing::policy::{RoutingContext, RoutingPolicy};
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_stats::{quantiles, OnlineStats};
use wattroute_workload::bandwidth::percentile_95;
use wattroute_workload::hierarchy::{single_region_of, site_clusters};
use wattroute_workload::trace::STEP_SECONDS;

fn window(days: u64) -> HourRange {
    let start = SimHour::from_date(2008, 12, 19);
    HourRange::new(start, start.plus_hours(days * 24))
}

fn policy_for(kind: usize) -> Box<dyn RoutingPolicy> {
    match kind {
        0 => Box::new(NearestClusterPolicy::new()),
        1 => Box::new(AkamaiLikePolicy::default()),
        2 => Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0)),
        3 => Box::new(PriceConsciousPolicy::unconstrained_distance()),
        4 => Box::new(JointCostPolicy::new(0.02)),
        _ => Box::new(Scripted),
    }
}

/// A stateless policy that scripts each cluster's load from the hour, in
/// a five-hour cycle offset by the cluster's index, so that from one epoch
/// to the next a cluster's load repeats, flips between `+0.0` and `-0.0`,
/// saturates, or follows demand. Each load sits on one state.
struct Scripted;

impl RoutingPolicy for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        let n_states = ctx.states().len();
        let matrix = ctx
            .clusters
            .clusters()
            .iter()
            .enumerate()
            .map(|(c, cluster)| {
                let mut row = vec![0.0; n_states];
                let s = c % n_states;
                match (ctx.hour.0 as usize + c) % 5 {
                    // Idle, at `+0.0`: no entry in the support.
                    0 => {}
                    // Idle, at `-0.0`: every entry in the support.
                    1 => row.fill(-0.0),
                    2 => row[s] = 0.37 * cluster.capacity_hits_per_sec(),
                    3 => row[s] = 1.5 * cluster.capacity_hits_per_sec(),
                    _ => row[s] = ctx.demand[s],
                }
                row
            })
            .collect();
        *out = Allocation::from_matrix(matrix);
    }
}

/// The pre-epoch-cache engine, verbatim: one *freshly allocated*
/// `Allocation` per reallocation (the legacy `allocate` path) from a fresh
/// `policy_for(kind)`, and a full recompute of per-cluster loads and
/// distance samples on **every** step with the historical per-step
/// accounting order. The report is assembled exactly as
/// `SimulationEngine::report` assembles it from the raw load series, which
/// is returned alongside it.
///
/// Every fresh policy routes over one shared geometry, lent through its
/// context, as an engine lends its own.
fn legacy_replay(scenario: &Scenario, kind: usize) -> (SimulationReport, Vec<Vec<f64>>) {
    let clusters = &scenario.clusters;
    let trace = &scenario.trace;
    let config = &scenario.config;
    let sim = Simulation::new(clusters, trace, &scenario.prices, config.clone());
    let table = sim.price_table();
    let geometry = Arc::new(CompiledPreferences::build(clusters, &trace.states));

    let n_clusters = clusters.len();
    let step_hours = STEP_SECONDS as f64 / 3600.0;
    let constraints = &config.constraints;
    let tariff = config.bandwidth_tariff.as_ref();
    let accounted_caps = tariff.and(constraints.bandwidth_caps());
    let capacities: Vec<f64> =
        clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).collect();
    let power_models: Vec<ClusterPowerModel> = clusters
        .clusters()
        .iter()
        .map(|c| ClusterPowerModel::new(config.energy, c.servers))
        .collect();

    let mut cost = vec![0.0f64; n_clusters];
    let mut energy_wh = vec![0.0f64; n_clusters];
    let mut hits = vec![0.0f64; n_clusters];
    let mut overflow_hits = vec![0.0f64; n_clusters];
    let mut rejected_hits = vec![0.0f64; n_clusters];
    let mut binding_steps = vec![0usize; n_clusters];
    let mut load_series = vec![Vec::<f64>::new(); n_clusters];
    let mut util_stats = vec![OnlineStats::new(); n_clusters];
    let mut distances = DistanceHistogram::default_resolution();

    let mut cached: Option<Allocation> = None;
    let mut last_alloc_hour: Option<SimHour> = None;
    for (i, step) in trace.steps().iter().enumerate() {
        let hour = trace.step_hour(i);
        let reallocate = cached.is_none()
            || i % config.reallocate_every_steps == 0
            || Some(hour) != last_alloc_hour;
        if reallocate {
            let ctx = RoutingContext::new(
                clusters,
                &geometry,
                &step.us_demand,
                table.delayed_at(hour).expect("table covers the trace"),
                hour,
            )
            .with_constraints(constraints);
            cached = Some(policy_for(kind).allocate(&ctx));
            last_alloc_hour = Some(hour);
        }
        let allocation = cached.as_ref().expect("just populated");
        let loads = allocation.cluster_loads();
        let samples = allocation.distance_samples(clusters, &trace.states);
        let billing = table.billing_at(hour).expect("table covers the trace");

        for c in 0..n_clusters {
            let cluster = clusters.get(c).expect("index in range");
            let raw_utilization = cluster.utilization(loads[c]);
            let mut served = loads[c];
            if raw_utilization > 1.0 {
                let over = loads[c] - capacities[c];
                match constraints.overflow() {
                    OverflowMode::BillAtCapacity => {
                        overflow_hits[c] += over * STEP_SECONDS as f64;
                    }
                    OverflowMode::Reject => {
                        rejected_hits[c] += over * STEP_SECONDS as f64;
                        served = capacities[c];
                    }
                }
            }
            let utilization = raw_utilization.min(1.0);
            let watts = power_models[c].power_watts(utilization);
            let wh = watts * step_hours;
            energy_wh[c] += wh;
            cost[c] += energy_cost_dollars(wh, billing[c]);
            hits[c] += served * STEP_SECONDS as f64;
            util_stats[c].push(utilization);
            load_series[c].push(loads[c]);
            if let Some(caps) = accounted_caps {
                if caps[c].is_finite() && loads[c] > 0.0 && loads[c] >= caps[c] * (1.0 - 1e-9) {
                    binding_steps[c] += 1;
                }
            }
        }
        for (distance_km, weight) in samples {
            distances.add(distance_km, weight * STEP_SECONDS as f64);
        }
    }

    let n_steps = trace.num_steps();
    let labels = cluster_labels(clusters);
    let clusters_report = (0..n_clusters)
        .map(|c| {
            let p95 = quantiles::percentile(&load_series[c], 95.0).unwrap_or(0.0);
            ClusterReport {
                label: labels[c].clone(),
                cost_dollars: cost[c],
                energy_mwh: energy_wh[c] / 1.0e6,
                mean_utilization: util_stats[c].mean().unwrap_or(0.0),
                p95_hits_per_sec: p95,
                peak_hits_per_sec: load_series[c].iter().copied().fold(0.0, f64::max),
                total_hits: hits[c],
                overflow_hits: overflow_hits[c],
                rejected_hits: rejected_hits[c],
                bandwidth_cap_hits_per_sec: accounted_caps
                    .map(|caps| caps[c])
                    .filter(|cap| cap.is_finite()),
                bandwidth_binding_hours: binding_steps[c] as f64 * STEP_SECONDS as f64 / 3600.0,
                bandwidth_cost_dollars: tariff.map_or(0.0, |t| t.bill_dollars(p95, n_steps)),
            }
        })
        .collect::<Vec<_>>();

    let report = SimulationReport {
        policy: policy_for(kind).name().to_string(),
        steps: n_steps,
        reaction_delay_hours: config.reaction_delay_hours,
        bandwidth_constrained: constraints.is_bandwidth_constrained(),
        total_cost_dollars: cost.iter().sum(),
        total_energy_mwh: energy_wh.iter().sum::<f64>() / 1.0e6,
        total_overflow_hits: overflow_hits.iter().sum(),
        total_rejected_hits: rejected_hits.iter().sum(),
        total_bandwidth_binding_hours: clusters_report
            .iter()
            .map(|c| c.bandwidth_binding_hours)
            .sum(),
        total_bandwidth_cost_dollars: clusters_report
            .iter()
            .map(|c| c.bandwidth_cost_dollars)
            .sum(),
        delay_clamped_hours: table.clamped_lead_hours(),
        clusters: clusters_report,
        mean_distance_km: distances.mean_km().unwrap_or(0.0),
        p99_distance_km: distances.percentile_km(99.0).unwrap_or(0.0),
        distances,
        tiers: None,
    };
    (report, load_series)
}

/// The engine driven one [`SimulationEngine::tick`] per step, as the
/// daemon drives it, over the prices [`Simulation`] compiles: its report
/// and its load series.
fn tick_per_step(scenario: &Scenario, kind: usize) -> (SimulationReport, Vec<Vec<f64>>) {
    let trace = &scenario.trace;
    let sim = Simulation::new(&scenario.clusters, trace, &scenario.prices, scenario.config.clone());
    let table = sim.price_table();
    let mut engine =
        SimulationEngine::new(&scenario.clusters, &trace.states, scenario.config.clone())
            .with_clamped_lead_hours(table.clamped_lead_hours());
    let mut policy = policy_for(kind);
    for (i, step) in trace.steps().iter().enumerate() {
        let hour = trace.step_hour(i);
        let prices = PriceSlice::new(
            hour,
            table.delayed_at(hour).expect("table covers the trace"),
            table.billing_at(hour).expect("table covers the trace"),
        );
        engine.tick(policy.as_mut(), prices, DemandSlice::new(&step.us_demand));
    }
    (engine.report(), engine.into_load_series())
}

proptest! {
    #[test]
    fn epoch_cached_reports_are_bit_identical_to_the_legacy_allocating_path(
        seed in 0u64..500,
        days in 1u64..3,
        delay in 0u64..24,
        realloc in prop::sample::select(vec![1usize, 6, 12]),
        policy_kind in 0usize..5,
        // 0: nominal ceilings · 1: binding ceilings + Reject ·
        // 2: 95/5 caps + tariff · 3: 95/5 caps + tariff + Reject
        regime in 0usize..4,
    ) {
        let mut scenario = Scenario::custom_window(seed, window(days));
        scenario.config = scenario
            .config
            .with_reaction_delay(delay)
            .with_reallocation_interval(realloc);
        match regime {
            1 => {
                // Shrink the deployment so capacity ceilings genuinely
                // bind and demand is turned away.
                scenario.clusters = scenario.clusters.scaled(0.05);
                scenario.config = scenario.config.with_overflow(OverflowMode::Reject);
            }
            2 | 3 => {
                let caps = scenario.bandwidth_caps_from_baseline();
                scenario.config = scenario
                    .config
                    .with_bandwidth_caps(caps)
                    .with_bandwidth_tariff(wattroute::constraints::BandwidthTariff::default_cdn());
                if regime == 3 {
                    scenario.config = scenario.config.with_overflow(OverflowMode::Reject);
                }
            }
            _ => {}
        }

        assert_engines_match_legacy(&scenario, policy_kind);
    }
}

/// The batch engine and the sharded hierarchical replay (through the
/// trivial single-region embedding), each with one long-lived policy per
/// run, must both reproduce [`legacy_replay`] byte for byte.
///
/// The tree keeps each site's load series in a reservoir that decimates
/// past its capacity, while the flat engine keeps every load, so their
/// 95th percentiles part ways on traces longer than the capacity. The
/// reservoir is sized to hold the whole trace: this checks routing and
/// accounting, not that store.
fn assert_engines_match_legacy(scenario: &Scenario, kind: usize) {
    let (legacy, _) = legacy_replay(scenario, kind);
    assert_batch_matches(scenario, kind, &legacy);
}

fn assert_batch_matches(scenario: &Scenario, kind: usize, legacy: &SimulationReport) {
    let batch = scenario.execute(&mut *policy_for(kind), RunOptions::new());
    assert_eq!(legacy, &batch, "legacy allocating path != epoch-cached batch engine");
    assert_eq!(
        legacy.to_json_value().to_string(),
        batch.to_json_value().to_string(),
        "JSON encodings differ"
    );

    let topology = single_region_of(&scenario.clusters);
    let replay = HierarchicalReplay::new(
        &topology,
        &scenario.trace,
        &scenario.prices,
        scenario.config.clone(),
    )
    .with_reservoir_capacity(scenario.trace.num_steps().max(DEFAULT_RESERVOIR_CAPACITY));
    let sharded = replay.run_sharded(&move || policy_for(kind));
    assert!(sharded.tiers.is_none(), "trivial embedding must not report tiers");
    assert_eq!(legacy, &sharded, "legacy allocating path != sharded replay");
    assert_eq!(
        legacy.to_json_value().to_string(),
        sharded.to_json_value().to_string(),
        "sharded JSON encoding differs"
    );
}

/// The paper's scale, which the sampled windows above stay far short of:
/// §6.2's 24-day trace (6912 steps) re-routed on every step, so each
/// hour's delayed price row is routed twelve times and the long-lived
/// policy's memoised orders are reused eleven times in twelve.
/// Price-conscious routing at 1500 km, relaxed and under the 95/5 caps
/// calibrated from the Akamai-like baseline.
#[test]
fn paper_scale_24_day_replay_is_bit_identical_to_the_legacy_path() {
    let mut scenario = Scenario::akamai_24_day(2009);
    assert_eq!(scenario.trace.num_steps(), 6912);
    assert_eq!(scenario.config.reallocate_every_steps, 1);
    let price_conscious_1500 = 2;
    assert_engines_match_legacy(&scenario, price_conscious_1500);

    let caps = CalibratedScenario::calibrate(&scenario).p95_caps().to_vec();
    scenario.config = scenario.config.with_bandwidth_caps(caps);
    assert_engines_match_legacy(&scenario, price_conscious_1500);
}

/// The 24-day trace at re-allocation intervals where the batch driver
/// advances several steps per call: 12 (hourly epochs) and 5, which does
/// not divide an hour, so its epochs also end at hour boundaries. The
/// Akamai-like calibration run, then price-conscious routing at 1500 km,
/// relaxed and under the calibrated 95/5 caps: each batch run (and the
/// sharded trivial embedding) must equal both a tick-per-step engine loop
/// and the legacy path, and the calibrated caps must equal the 95th
/// percentiles of the legacy load series.
fn assert_paper_scale_interval_matches_legacy(interval: usize) {
    let mut scenario = Scenario::akamai_24_day(2009);
    assert_eq!(scenario.trace.num_steps(), 6912);
    scenario.config = scenario.config.with_reallocation_interval(interval);
    let (akamai_like, price_conscious_1500) = (1, 2);

    let (legacy, legacy_loads) = legacy_replay(&scenario, akamai_like);
    assert_eq!(tick_per_step(&scenario, akamai_like).0, legacy, "tick per step != legacy");
    assert_batch_matches(&scenario, akamai_like, &legacy);
    let calibrated = CalibratedScenario::calibrate(&scenario);
    assert_eq!(calibrated.baseline(), &legacy, "calibration run != legacy");
    let caps: Vec<u64> = calibrated.p95_caps().iter().map(|c| c.to_bits()).collect();
    let raw: Vec<u64> = legacy_loads
        .iter()
        .map(|series| percentile_95(series).expect("non-empty").to_bits())
        .collect();
    assert_eq!(caps, raw, "calibrated caps != p95 of the legacy series");

    for constrained in [false, true] {
        if constrained {
            scenario.config = scenario.config.with_bandwidth_caps(calibrated.p95_caps().to_vec());
        }
        let (legacy, _) = legacy_replay(&scenario, price_conscious_1500);
        assert_eq!(tick_per_step(&scenario, price_conscious_1500).0, legacy, "tick per step");
        assert_batch_matches(&scenario, price_conscious_1500, &legacy);
    }
}

#[test]
fn paper_scale_24_day_replay_at_an_hourly_interval_is_bit_identical_to_the_legacy_path() {
    assert_paper_scale_interval_matches_legacy(12);
}

#[test]
fn paper_scale_24_day_replay_at_a_5_step_interval_is_bit_identical_to_the_legacy_path() {
    assert_paper_scale_interval_matches_legacy(5);
}

/// The sharded trivial embedding past its default reservoir capacity: the
/// 24-day trace (6912 steps, over [`DEFAULT_RESERVOIR_CAPACITY`]) decimates
/// every site's reservoir. The tree's report is the flat report with each
/// cluster's 95th percentile read instead from a default-capacity
/// reservoir fed that cluster's five-minute load series in step order.
#[test]
fn paper_scale_trivial_tree_reads_each_p95_from_a_decimated_reservoir() {
    let scenario = Scenario::akamai_24_day(2009);
    assert!(scenario.trace.num_steps() > DEFAULT_RESERVOIR_CAPACITY);
    let price_conscious_1500 = 2;
    // The flat run, with every cluster's load series; the tests above pin
    // the legacy path equal to the batch run.
    let (flat, loads) = legacy_replay(&scenario, price_conscious_1500);

    let mut expected = flat;
    let mut decimated = 0;
    for (cluster, series) in expected.clusters.iter_mut().zip(&loads) {
        let (kept, _) = reservoir::decimate(series.iter().copied(), DEFAULT_RESERVOIR_CAPACITY);
        let p95 = quantiles::percentile(&kept, 95.0).expect("a non-empty series");
        decimated += usize::from(p95.to_bits() != cluster.p95_hits_per_sec.to_bits());
        cluster.p95_hits_per_sec = p95;
    }
    assert!(decimated > 0, "decimation must move some cluster's 95th percentile");

    let topology = single_region_of(&scenario.clusters);
    let replay = HierarchicalReplay::new(
        &topology,
        &scenario.trace,
        &scenario.prices,
        scenario.config.clone(),
    );
    let tree = replay.run_sharded(&move || policy_for(price_conscious_1500));
    assert_eq!(tree, expected, "trivial tree != flat report with reservoir percentiles");
    assert_eq!(tree.to_json(), expected.to_json(), "JSON encodings differ");
}

/// sweep-24d's grid shape on the paper's whole 24-day trace: per energy
/// model an Akamai-like baseline, then price-conscious cells at three
/// thresholds, relaxed and under the baseline's 95/5 caps. The two models'
/// baselines route identically, so their caps agree bit for bit and every
/// optimizer cell shares its replay with its twin under the other model.
/// Each grouped cell must equal that cell run alone, struct and JSON.
fn assert_paper_scale_grouped_sweep_matches_each_cell_alone(base: SimulationConfig) {
    let s = Scenario::akamai_24_day(2009);
    assert_eq!(s.trace.num_steps(), 6912);
    let models =
        [EnergyModelParams::new(250.0, 0.0, 1.1), EnergyModelParams::new(250.0, 0.65, 1.3)];
    let alone = |config: &SimulationConfig, policy: &mut dyn RoutingPolicy| {
        Simulation::new(&s.clusters, &s.trace, &s.prices, config.clone()).execute(policy)
    };

    let mut expected = Vec::new();
    let mut baselines = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
    for (i, &model) in models.iter().enumerate() {
        let config = base.clone().with_energy(model);
        expected.push(alone(&config, &mut AkamaiLikePolicy::default()));
        baselines.add_point(format!("base:{i}"), config, AkamaiLikePolicy::default);
    }
    let baselines = baselines.execute(RunOptions::new());
    let caps_of = |i: usize| -> Vec<f64> {
        baselines.runs[i].report.clusters.iter().map(|c| c.p95_hits_per_sec).collect()
    };
    let bits = |caps: Vec<f64>| caps.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(caps_of(0)), bits(caps_of(1)), "baseline loads ignore the energy model");

    let mut grid = ScenarioSweep::new(&s.clusters, &s.trace, &s.prices);
    for (i, &model) in models.iter().enumerate() {
        let relaxed = base.clone().with_energy(model);
        let follow = relaxed.clone().with_bandwidth_caps(caps_of(i));
        for km in [0.0, 1500.0, 2500.0] {
            for (kind, config) in [("relaxed", &relaxed), ("follow", &follow)] {
                let mut policy = PriceConsciousPolicy::with_distance_threshold(km);
                expected.push(alone(config, &mut policy));
                grid.add_point(format!("{kind}:{i}:{km}"), config.clone(), move || {
                    PriceConsciousPolicy::with_distance_threshold(km)
                });
            }
        }
    }
    let grid = grid.execute(RunOptions::new());

    let runs: Vec<_> = baselines.runs.iter().chain(&grid.runs).collect();
    assert_eq!(runs.len(), expected.len());
    for (run, alone) in runs.into_iter().zip(&expected) {
        assert_eq!(&run.report, alone, "{}: grouped != alone", run.label);
        assert_eq!(
            run.report.to_json_value().to_string(),
            alone.to_json_value().to_string(),
            "{}: JSON encodings differ",
            run.label
        );
    }
}

#[test]
fn paper_scale_grouped_sweep_equals_each_cell_run_alone() {
    assert_paper_scale_grouped_sweep_matches_each_cell_alone(Scenario::akamai_24_day(2009).config);
}

#[test]
fn paper_scale_grouped_sweep_equals_each_cell_run_alone_under_a_tariff_and_reject() {
    let config = Scenario::akamai_24_day(2009)
        .config
        .with_bandwidth_tariff(wattroute::constraints::BandwidthTariff::default_cdn())
        .with_overflow(OverflowMode::Reject);
    assert_paper_scale_grouped_sweep_matches_each_cell_alone(config);
}

/// The seed of every block-shape input.
const BLOCK_SEED: u64 = 2009;

/// `n` synthetic sites: a tree of fewer sites than metro hubs puts one
/// site at each of the first `n` hubs, and shares the paper's nine
/// clusters' total capacity out among them.
fn synthetic_sites(n: usize) -> ClusterSet {
    site_clusters(&Topology::synthetic(BLOCK_SEED, n))
}

/// The second region (NYISO) of the seeded 1000-site tree: a tree-1000
/// shard's deployment, 175 sites, 35 at each of five metro hubs — 21 whole
/// blocks and 7 clusters more.
fn region_sized_sites() -> ClusterSet {
    let topology = Topology::synthetic(BLOCK_SEED, 1000);
    let (s0, s1) = topology.region_sites(1);
    ClusterSet::with_shared_hubs(site_clusters(&topology).clusters()[s0..s1].to_vec())
}

/// The accumulate kernel accounts clusters in blocks of eight, and the
/// epoch refresh re-derives only the clusters whose load moved. Over one
/// day, `clusters` must replay as the legacy per-step path does — through
/// the batch driver, the sharded trivial embedding and one tick per step,
/// reports struct-equal and JSON-equal and load series equal in bits — at
/// intervals 1, 5 and 12, under both overflow modes and under a tariff
/// whose caps bind, for the price-conscious policy and for [`Scripted`],
/// whose loads repeat, flip sign at zero and saturate from one epoch to
/// the next.
fn assert_block_shape_matches_legacy(clusters: ClusterSet) {
    let n_clusters = clusters.len();
    let range = window(1);
    let trace = SyntheticWorkloadConfig { seed: BLOCK_SEED, ..Default::default() }.generate(range);
    let prices = PriceGenerator::new(MarketModel::calibrated(), BLOCK_SEED).realtime_hourly(range);
    let caps: Vec<f64> =
        clusters.clusters().iter().map(|c| 0.37 * c.capacity_hits_per_sec()).collect();
    let base = Scenario { clusters, trace, prices, config: SimulationConfig::default() };
    let (price_conscious_1500, scripted) = (2, 5);
    for interval in [1, 5, 12] {
        // 0: overflow billed at capacity · 1: overflow rejected ·
        // 2: 95/5 caps at the scripted fixed load, billed by a tariff
        for regime in 0..3 {
            let mut scenario = base.clone();
            scenario.config = scenario.config.with_reallocation_interval(interval);
            match regime {
                1 => scenario.config = scenario.config.with_overflow(OverflowMode::Reject),
                2 => {
                    scenario.config =
                        scenario.config.with_bandwidth_caps(caps.clone()).with_bandwidth_tariff(
                            wattroute::constraints::BandwidthTariff::default_cdn(),
                        )
                }
                _ => {}
            }
            for kind in [price_conscious_1500, scripted] {
                let case = format!(
                    "{n_clusters} clusters, interval {interval}, regime {regime}, policy {kind}"
                );
                let (legacy, legacy_loads) = legacy_replay(&scenario, kind);
                assert_batch_matches(&scenario, kind, &legacy);
                let (ticked, ticked_loads) = tick_per_step(&scenario, kind);
                assert_eq!(ticked, legacy, "{case}: tick per step != legacy");
                assert_eq!(ticked.to_json(), legacy.to_json(), "{case}: JSON encodings differ");
                let bits = |loads: &[Vec<f64>]| -> Vec<Vec<u64>> {
                    loads.iter().map(|s| s.iter().map(|x| x.to_bits()).collect()).collect()
                };
                assert_eq!(bits(&ticked_loads), bits(&legacy_loads), "{case}: load series differ");
                if kind == scripted {
                    let flips = legacy_loads.iter().any(|series| {
                        series
                            .windows(2)
                            .any(|w| w[0].to_bits() == 0 && w[1] == 0.0 && w[1].is_sign_negative())
                    });
                    assert!(flips, "{case}: some load must flip from +0.0 to -0.0");
                    let saturated = legacy.total_overflow_hits + legacy.total_rejected_hits;
                    assert!(saturated > 0.0, "{case}: some cluster must saturate");
                    if regime == 2 {
                        assert!(
                            legacy.total_bandwidth_binding_hours > 0.0,
                            "{case}: caps must bind"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_block_shape_replays_as_the_legacy_path() {
    // A lone cluster, a block one short, a whole block, a whole block and
    // one more (the nine-cluster shape), two whole blocks, and two and one.
    for n in [1, 7, 8, 9, 16, 17] {
        assert_block_shape_matches_legacy(synthetic_sites(n));
    }
}

#[test]
fn a_region_sized_deployment_replays_as_the_legacy_path() {
    let clusters = region_sized_sites();
    assert_eq!(clusters.len(), 175);
    assert_block_shape_matches_legacy(clusters);
}
