//! Property-based proof that telemetry is *transparent*: running the same
//! simulation with telemetry on — every span recording into its
//! histogram — produces a [`SimulationReport`] byte-identical (through the
//! JSON encoding) to the telemetry-off run, across policies, constraint
//! regimes, and both execution topologies (the flat batch driver and the
//! sharded hierarchical replay).
//!
//! This is the contract that lets `crates/bench/tests/goldens.rs` re-run
//! `sweep_smoke` and `mc_smoke` with `WATTROUTE_TELEMETRY=1` against the
//! same fixtures in tier-1: telemetry observes the engine, it never
//! steers it.
//!
//! The enabled flag and the registry are process globals, so this binary
//! holds no test that assumes telemetry is off (see the `[[test]]` entry in
//! `Cargo.toml`), and its two properties take turns: each case body holds
//! [`TELEMETRY`] while it toggles telemetry, so one test's `disable` never
//! lands inside the other's telemetry-on window.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};
use wattroute::hierarchy::HierarchicalReplay;
use wattroute::prelude::*;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_obs::{telemetry, Telemetry};
use wattroute_routing::policy::RoutingPolicy;
use wattroute_workload::hierarchy::single_region_of;

/// Serialises the case bodies of this binary's tests, which share the
/// process-global telemetry state.
static TELEMETRY: Mutex<()> = Mutex::new(());

/// Take [`TELEMETRY`]. A case that failed while holding it poisons it;
/// every case sets the telemetry state it needs before relying on it, so
/// later cases proceed and report their own result instead of a cascade
/// of poison errors.
fn exclusive_telemetry() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner)
}

fn window(days: u64) -> HourRange {
    let start = SimHour::from_date(2008, 12, 19);
    HourRange::new(start, start.plus_hours(days * 24))
}

fn policy_for(threshold: f64) -> Box<dyn RoutingPolicy> {
    if threshold < 0.0 {
        Box::new(AkamaiLikePolicy::default())
    } else {
        Box::new(PriceConsciousPolicy::with_distance_threshold(threshold))
    }
}

/// How many spans the `span` histogram has recorded so far.
fn spans_recorded(span: &str) -> u64 {
    telemetry().snapshot().histogram(span).map_or(0, |h| h.count)
}

/// Run `f` with telemetry on, then restore the off state. Returns how many
/// `span` spans the run recorded: the histogram's count after it less the
/// count before. The caller holds [`TELEMETRY`], so no other case records
/// in between.
fn with_telemetry_on<T>(span: &str, f: impl FnOnce() -> T) -> (T, u64) {
    let before = spans_recorded(span);
    Telemetry::enable();
    let result = f();
    Telemetry::disable();
    (result, spans_recorded(span) - before)
}

proptest! {
    // Telemetry on must not change a single byte of the batch driver's
    // report.
    #[test]
    fn batch_report_is_byte_identical_with_telemetry_on(
        seed in 0u64..500,
        days in 1u64..3,
        delay in 0u64..12,
        realloc in prop::sample::select(vec![1usize, 5, 12]),
        constrained in prop::sample::select(vec![false, true]),
        // -1 encodes the Akamai-like baseline policy.
        threshold in prop::sample::select(vec![-1.0f64, 0.0, 1500.0, f64::INFINITY]),
    ) {
        let _telemetry = exclusive_telemetry();
        let mut scenario = Scenario::custom_window(seed, window(days));
        scenario.config = scenario
            .config
            .with_reaction_delay(delay)
            .with_reallocation_interval(realloc);
        if constrained {
            let caps = scenario.bandwidth_caps_from_baseline();
            scenario.config = scenario.config.with_bandwidth_caps(caps);
        }

        Telemetry::disable();
        let off = scenario.execute(&mut *policy_for(threshold), RunOptions::new());

        let (on, events) = with_telemetry_on("engine.tick", || {
            scenario.execute(&mut *policy_for(threshold), RunOptions::new())
        });

        prop_assert_eq!(&off, &on, "telemetry changed the report");
        prop_assert_eq!(off.to_json_value().to_string(), on.to_json_value().to_string());
        prop_assert!(events > 0, "a telemetry-on run must record engine.tick spans");
    }

    // Same transparency through the sharded hierarchical topology.
    #[test]
    fn hierarchical_replay_is_byte_identical_with_telemetry_on(
        seed in 0u64..300,
        days in 1u64..3,
        realloc in prop::sample::select(vec![1usize, 12]),
        threshold in prop::sample::select(vec![-1.0f64, 1500.0]),
    ) {
        let _telemetry = exclusive_telemetry();
        let mut scenario = Scenario::custom_window(seed, window(days));
        scenario.config = scenario.config.with_reallocation_interval(realloc);
        let topology = single_region_of(&scenario.clusters);

        Telemetry::disable();
        let replay = HierarchicalReplay::new(
            &topology,
            &scenario.trace,
            &scenario.prices,
            scenario.config.clone(),
        );
        let off = replay.run_sharded(&move || policy_for(threshold));

        let (on, events) = with_telemetry_on("hierarchy.shard", || {
            replay.run_sharded(&move || policy_for(threshold))
        });

        prop_assert_eq!(&off, &on, "telemetry changed the sharded replay report");
        prop_assert_eq!(off.to_json_value().to_string(), on.to_json_value().to_string());
        prop_assert!(events > 0, "a sharded replay must record hierarchy.shard spans");
    }
}
