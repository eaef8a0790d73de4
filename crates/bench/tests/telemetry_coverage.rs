//! Every instrumented subsystem records into the telemetry registry.
//!
//! One run of each — a batch replay, a two-deployment sweep, a sharded
//! tree replay, a Monte Carlo run and a greedy placement search — with
//! telemetry on must raise the count of each span histogram it promises
//! (see `docs/observability.md`) and of the compile and cache counters.
//! The registry is process-wide, so this file holds a single test.

use wattroute::hierarchy::HierarchicalReplay;
use wattroute::montecarlo::MonteCarlo;
use wattroute::prelude::*;
use wattroute::sweep::ScenarioSweep;
use wattroute_bench::HARNESS_SEED;
use wattroute_geo::topology::Topology;
use wattroute_market::generator::PriceGenerator;
use wattroute_market::model::MarketModel;
use wattroute_market::time::SimHour;
use wattroute_obs::{telemetry, RegistrySnapshot, Telemetry};
use wattroute_optimizer::{
    DeploymentOptimizer, GreedyDescent, SearchBudget, SearchSpace, SweepEvaluator,
};
use wattroute_routing::policy::RoutingPolicy;

fn days(year: u32, month: u32, day: u32, n: u64) -> HourRange {
    let start = SimHour::from_date(year, month, day);
    HourRange::new(start, start.plus_hours(n * 24))
}

fn price_conscious() -> PriceConsciousPolicy {
    PriceConsciousPolicy::with_distance_threshold(1500.0)
}

fn histogram_count(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    snapshot.histogram(name).map_or(0, |h| h.count)
}

fn counter(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

#[test]
fn every_instrumented_subsystem_records_with_telemetry_on() {
    Telemetry::enable();
    let before = telemetry().snapshot();

    // Batch replay: the engine's phase spans and its price-row lookup,
    // on two threads where the host has two cores. The spans record one
    // engine call in eight, whatever the interval: ⌈calls / 8⌉ of each
    // 48-hour replay's calls, one a step at the one-step interval and one
    // an hour at the hourly one.
    let scenario = Scenario::custom_window(HARNESS_SEED, days(2008, 12, 19, 2));
    let ticks = || histogram_count(&telemetry().snapshot(), "engine.tick");
    let mut tick_counts = Vec::new();
    for interval in [1, 12] {
        let config = scenario.config.clone().with_reallocation_interval(interval);
        let replay = Scenario { config, ..scenario.clone() };
        let start = ticks();
        let _ = replay.execute(&mut price_conscious(), RunOptions::new());
        tick_counts.push(ticks() - start);
    }

    // Sweep: the mirror deployment shares the default's hubs, so its
    // compiled artifacts come from the cache.
    let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
    let mirror = sweep.add_deployment("mirror", &scenario.clusters);
    sweep.add_point("pc", scenario.config.clone(), price_conscious);
    sweep.add_point_on(mirror, "pc-mirror", scenario.config.clone(), price_conscious);
    let _ = sweep.execute(RunOptions::new());

    // Sharded tree replay: per-shard runs and the merge.
    let topology = Topology::synthetic(HARNESS_SEED, 60).with_tier_slack(1.1);
    let range = days(2007, 1, 1, 2);
    let trace =
        SyntheticWorkloadConfig { seed: HARNESS_SEED, ..Default::default() }.generate(range);
    let prices =
        PriceGenerator::new(MarketModel::calibrated(), HARNESS_SEED).realtime_hourly(range);
    let config = SimulationConfig::default().with_reallocation_interval(12);
    let _ = HierarchicalReplay::new(&topology, &trace, &prices, config)
        .run_sharded(&|| Box::new(price_conscious()) as Box<dyn RoutingPolicy>);

    // Monte Carlo: per-path replays over two workers.
    let model = MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids());
    let _ = MonteCarlo::new(
        &scenario.clusters,
        &scenario.trace,
        model,
        scenario.config.clone(),
        HARNESS_SEED,
    )
    .with_paths(8)
    .with_threads(2)
    .run();

    // Placement search: candidate evaluations.
    let (space, start) = SearchSpace::from_deployment(&scenario.clusters, 800);
    let mut evaluator =
        SweepEvaluator::new(&scenario.trace, &scenario.prices, scenario.config.clone());
    let _ = DeploymentOptimizer::new(space)
        .with_budget(SearchBudget::smoke())
        .with_start(start)
        .run(&mut GreedyDescent::default(), &mut evaluator);

    let after = telemetry().snapshot();
    Telemetry::disable();

    let steps = scenario.trace.num_steps() as u64;
    assert_eq!(tick_counts, [steps.div_ceil(8), 48u64.div_ceil(8)], "engine.tick spans");

    let mut histograms = vec![
        "engine.tick",
        "engine.tick.realloc",
        "engine.tick.accumulate",
        "engine.price_view",
        "sweep.replay",
        "hierarchy.shard",
        "hierarchy.merge",
        "montecarlo.path",
    ];
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        histograms.extend(["engine.replay.route_wait", "engine.replay.account_wait"]);
    }
    for name in histograms {
        assert!(
            histogram_count(&after, name) > histogram_count(&before, name),
            "histogram {name} recorded nothing"
        );
    }
    for name in [
        "optimizer.evaluations",
        "sweep.artifact_cache.hits",
        "sweep.artifact_cache.misses",
        "market.billing_matrix.builds",
        "routing.compiled_preferences.builds",
    ] {
        assert!(counter(&after, name) > counter(&before, name), "counter {name} did not rise");
    }
}
