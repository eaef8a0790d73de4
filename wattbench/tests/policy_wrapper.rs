//! The timing wrapper is invisible to the program: wrapped and unwrapped
//! runs give bit-identical reports through every entry point the traced run
//! wraps, and the wrapper forwards `attach_preferences` — one that dropped
//! it would make every sweep cell compile its own preference geometry.

use std::sync::{Mutex, PoisonError};
use wattbench::timed::{recorder, Recorder, TimedPolicy};
use wattroute::geo::topology::Topology;
use wattroute::prelude::*;
use wattroute_bench::daemon::{serve, DaemonOptions};

/// The compile counters are process-wide: the tests take turns.
static COUNTERS: Mutex<()> = Mutex::new(());

fn price_conscious(sink: Option<&Recorder>) -> Box<dyn RoutingPolicy> {
    let policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
    match sink {
        Some(sink) => Box::new(TimedPolicy::new(policy, sink)),
        None => Box::new(policy),
    }
}

fn scenario() -> Scenario {
    let start = SimHour::from_date(2008, 12, 19);
    Scenario::custom_window(11, HourRange::new(start, start.plus_hours(24)))
}

/// A report's JSON and the preference compiles it took.
fn counted(run: impl FnOnce() -> SimulationReport) -> (String, usize) {
    let before = CompiledPreferences::build_count();
    let report = run();
    (report.to_json(), CompiledPreferences::build_count() - before)
}

#[test]
fn scenario_sweep_is_unchanged_by_the_wrapper() {
    let _turn = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let scenario = scenario();
    let sweep = |sink: Option<Recorder>| {
        let before = CompiledPreferences::build_count();
        let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
        for label in ["a", "b"] {
            let sink = sink.clone();
            sweep.add_boxed_point(
                label,
                scenario.config.clone(),
                Box::new(move || price_conscious(sink.as_ref())),
            );
        }
        let report = sweep.execute(RunOptions::new());
        (report.to_json(), CompiledPreferences::build_count() - before)
    };
    let (plain, plain_builds) = sweep(None);
    let sink = recorder();
    let (wrapped, wrapped_builds) = sweep(Some(sink.clone()));
    assert_eq!(plain, wrapped);
    assert_eq!(plain_builds, 1, "the sweep shares one compiled geometry");
    assert_eq!(wrapped_builds, plain_builds, "the wrapper must forward attach_preferences");
    let trace = wattbench::timed::take(&sink);
    assert_eq!(trace.lives.len(), 2, "one policy life per cell");
    assert_eq!(trace.call_ns.len(), 2 * scenario.trace.num_steps());
}

#[test]
fn hierarchical_replay_is_unchanged_by_the_wrapper() {
    let _turn = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let topology = Topology::synthetic(3, 60).with_tier_slack(1.1);
    let start = SimHour::from_date(2007, 1, 1);
    let range = HourRange::new(start, start.plus_hours(48));
    let trace = SyntheticWorkloadConfig { seed: 3, ..Default::default() }.generate(range);
    let prices = PriceGenerator::new(MarketModel::calibrated(), 3).realtime_hourly(range);
    let config = SimulationConfig::default().with_reallocation_interval(12);
    let replay = HierarchicalReplay::new(&topology, &trace, &prices, config);
    let sink = recorder();
    let (plain, plain_builds) = counted(|| replay.run_sharded(&|| price_conscious(None)));
    let (wrapped, wrapped_builds) =
        counted(|| replay.run_sharded(&|| price_conscious(Some(&sink))));
    assert_eq!(plain, wrapped);
    assert_eq!(wrapped_builds, plain_builds);
    let trace = wattbench::timed::take(&sink);
    assert_eq!(trace.lives.len(), topology.num_regions(), "one policy life per shard");
}

#[test]
fn daemon_is_unchanged_by_the_wrapper() {
    let _turn = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let scenario = scenario();
    // Relative to the package root, where `cargo test` runs.
    let socket = format!(".wattbench-test-{}.sock", std::process::id());
    let serve_with = |policy: &mut dyn RoutingPolicy| {
        let _ = std::fs::remove_file(&socket);
        serve(&scenario, policy, &DaemonOptions::free_run(&socket)).expect("serve")
    };
    let (plain, plain_builds) = counted(|| serve_with(price_conscious(None).as_mut()));
    let sink = recorder();
    let (wrapped, wrapped_builds) = counted(|| serve_with(price_conscious(Some(&sink)).as_mut()));
    assert_eq!(plain, wrapped);
    assert_eq!(wrapped_builds, plain_builds);
    let batch = scenario.execute(price_conscious(None).as_mut(), RunOptions::new());
    assert_eq!(plain, batch.to_json(), "the daemon reproduces the batch run");
    assert_eq!(wattbench::timed::take(&sink).call_ns.len(), scenario.trace.num_steps());
}
