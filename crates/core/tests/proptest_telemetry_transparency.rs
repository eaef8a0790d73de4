//! Property-based proof that telemetry is *transparent*: running the same
//! simulation with telemetry fully on — spans recording, trace sink
//! appending JSONL events to a temp file — produces a [`SimulationReport`]
//! byte-identical (through the JSON encoding) to the telemetry-off run,
//! across policies, constraint regimes, and both execution topologies
//! (the flat batch driver and the sharded hierarchical replay).
//!
//! This is the contract that lets `crates/bench/tests/goldens.rs` re-run
//! `sweep_smoke` and `mc_smoke` with `WATTROUTE_TELEMETRY=1` against the
//! same fixtures in tier-1: telemetry observes the engine, it never
//! steers it.
//!
//! The enabled flag and the trace sink are process globals, so this binary
//! holds no test that assumes telemetry is off (see the `[[test]]` entry in
//! `Cargo.toml`), and its two properties take turns: each case body holds
//! [`TELEMETRY`] while it toggles telemetry, so one test's `disable` never
//! lands inside the other's telemetry-on window.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};
use wattroute::hierarchy::HierarchicalReplay;
use wattroute::prelude::*;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_obs::Telemetry;
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

/// Run `f` with telemetry fully on: spans enabled and a JSONL trace sink
/// installed at a temp path. Restores the off state afterwards and
/// removes the trace file, returning how many event lines it held.
fn with_telemetry_on<T>(tag: &str, f: impl FnOnce() -> T) -> (T, usize) {
    let path =
        std::env::temp_dir().join(format!("wr_transparency_{tag}_{}.jsonl", std::process::id()));
    Telemetry::enable();
    Telemetry::trace_to(&path).expect("install trace sink");
    let result = f();
    Telemetry::trace_close();
    Telemetry::disable();
    let events = std::fs::read_to_string(&path).map_or(0, |text| text.lines().count());
    let _ = std::fs::remove_file(&path);
    (result, events)
}

proptest! {
    // Full-on telemetry (spans + trace sink) must not change a single
    // byte of the batch driver's report.
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

        let (on, events) = with_telemetry_on("batch", || {
            scenario.execute(&mut *policy_for(threshold), RunOptions::new())
        });

        prop_assert_eq!(&off, &on, "telemetry changed the report");
        prop_assert_eq!(off.to_json_value().to_string(), on.to_json_value().to_string());
        prop_assert!(events > 0, "a fully-on run must have traced span events");
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

        let (on, events) = with_telemetry_on("tree", || {
            replay.run_sharded(&move || policy_for(threshold))
        });

        prop_assert_eq!(&off, &on, "telemetry changed the sharded replay report");
        prop_assert_eq!(off.to_json_value().to_string(), on.to_json_value().to_string());
        prop_assert!(events > 0, "sharded replay must have traced span events");
    }
}
