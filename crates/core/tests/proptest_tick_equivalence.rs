//! Property-based bit-identity between the batch driver and the tick core.
//!
//! For arbitrary windows, seeds, reaction delays, reallocation intervals
//! and constraint regimes, replaying a trace one [`SimulationEngine::tick`]
//! at a time must reproduce `Simulation::execute` **bit for bit** — and
//! must keep doing so when the run is interrupted at a random mid-trace
//! step by a snapshot that travels through its JSON wire encoding and is
//! restored into a *freshly built* engine (the daemon failover story).
//!
//! A second property pins the engine's resumable snapshot text: every
//! [`SimulationEngine::write_snapshot_json`] text, however many snapshots
//! and restores came before it, equals a fresh encoding of the same state
//! byte for byte, decodes to it bit for bit, and resumes the run.

use proptest::prelude::*;
use wattroute::engine::{DemandSlice, EngineSnapshot, PriceSlice, SimulationEngine};
use wattroute::json::JsonValue;
use wattroute::prelude::*;
use wattroute::report::SimulationReport;
use wattroute_market::price_table::PriceTable;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_routing::policy::RoutingPolicy;

/// Replay `sim`'s trace through a tick engine, snapshotting at `cut`
/// (step index), JSON-round-tripping the snapshot, and finishing the run
/// in a freshly built engine restored from the decoded snapshot.
fn tick_replay_with_handover(
    scenario: &Scenario,
    policy_a: &mut dyn RoutingPolicy,
    policy_b: &mut dyn RoutingPolicy,
    cut: usize,
) -> SimulationReport {
    let sim = Simulation::new(
        &scenario.clusters,
        &scenario.trace,
        &scenario.prices,
        scenario.config.clone(),
    );
    let table = sim.price_table();
    let trace = &scenario.trace;

    let mut engine =
        SimulationEngine::new(&scenario.clusters, &trace.states, scenario.config.clone())
            .with_clamped_lead_hours(table.clamped_lead_hours());
    for (i, step) in trace.steps().iter().enumerate().take(cut) {
        let hour = trace.step_hour(i);
        engine.tick(
            policy_a,
            PriceSlice::new(hour, table.delayed_at(hour).unwrap(), table.billing_at(hour).unwrap()),
            DemandSlice::new(&step.us_demand),
        );
    }

    // Hand over through the wire encoding into a brand-new engine (and a
    // brand-new policy instance — policy caches must not carry results).
    let encoded = engine.snapshot().to_json();
    let decoded = EngineSnapshot::from_json_value(&JsonValue::parse(&encoded).expect("valid json"))
        .expect("lossless snapshot");
    let mut resumed =
        SimulationEngine::new(&scenario.clusters, &trace.states, scenario.config.clone());
    resumed.restore(&decoded);

    for (i, step) in trace.steps().iter().enumerate().skip(cut) {
        let hour = trace.step_hour(i);
        resumed.tick(
            policy_b,
            PriceSlice::new(hour, table.delayed_at(hour).unwrap(), table.billing_at(hour).unwrap()),
            DemandSlice::new(&step.us_demand),
        );
    }
    resumed.report()
}

/// Tick `engine` one step at a time up to step `end` of `scenario`'s trace.
fn tick_to(
    engine: &mut SimulationEngine<'_>,
    policy: &mut dyn RoutingPolicy,
    scenario: &Scenario,
    table: &PriceTable,
    end: usize,
) {
    let trace = &scenario.trace;
    while engine.steps() < end {
        let i = engine.steps();
        let hour = trace.step_hour(i);
        engine.tick(
            policy,
            PriceSlice::new(hour, table.delayed_at(hour).unwrap(), table.billing_at(hour).unwrap()),
            DemandSlice::new(&trace.steps()[i].us_demand),
        );
    }
}

/// Write `engine`'s snapshot text and check it: it equals a fresh encoding
/// of the engine's state byte for byte, and decodes to that state with
/// every float's bits (its own fresh encoding is the same text). Returns
/// the decoded snapshot.
fn checked_snapshot(engine: &mut SimulationEngine<'_>, at: &str) -> EngineSnapshot {
    let mut text = String::new();
    engine.write_snapshot_json(&mut text);
    let fresh = engine.snapshot();
    assert_eq!(text, fresh.to_json(), "resumed text != fresh encoding ({at})");
    let decoded = EngineSnapshot::from_json_value(&JsonValue::parse(&text).expect("valid json"))
        .expect("lossless snapshot");
    assert_eq!(decoded, fresh, "decoded snapshot ({at})");
    assert_eq!(decoded.to_json(), text, "decoded snapshot's bits ({at})");
    decoded
}

proptest! {
    #[test]
    fn tick_replay_with_snapshot_handover_is_bit_identical_to_batch(
        seed in 0u64..1000,
        days in 1u64..4,
        delay in 0u64..30,
        realloc in prop::sample::select(vec![1usize, 5, 12]),
        constrained in prop::sample::select(vec![false, true]),
        threshold in prop::sample::select(vec![0.0f64, 1500.0, f64::INFINITY]),
        cut_frac in 0.0f64..1.0,
    ) {
        let start = SimHour::from_date(2008, 12, 19);
        let mut scenario =
            Scenario::custom_window(seed, HourRange::new(start, start.plus_hours(days * 24)));
        scenario.config = scenario
            .config
            .with_reaction_delay(delay)
            .with_reallocation_interval(realloc);
        if constrained {
            let caps = scenario.bandwidth_caps_from_baseline();
            scenario.config = scenario.config.with_bandwidth_caps(caps);
        }

        let batch = scenario.execute(
            &mut PriceConsciousPolicy::with_distance_threshold(threshold),
            RunOptions::new(),
        );

        let cut = ((scenario.trace.num_steps() as f64) * cut_frac) as usize;
        let incremental = tick_replay_with_handover(
            &scenario,
            &mut PriceConsciousPolicy::with_distance_threshold(threshold),
            &mut PriceConsciousPolicy::with_distance_threshold(threshold),
            cut,
        );

        prop_assert_eq!(&batch, &incremental, "batch != tick replay (cut at step {})", cut);
        // Bit-for-bit through the JSON encoding as well.
        prop_assert_eq!(
            batch.to_json_value().to_string(),
            incremental.to_json_value().to_string()
        );
    }
}

// Snapshots at random steps of a tick replay, including one before the
// first tick and two with no tick between, each checked by
// `checked_snapshot`. One of them is restored twice: into the engine that
// wrote it, after that engine ticked on and wrote a longer text, and into
// a freshly built engine. Both engines finish the trace, snapshotting on
// the way, and must report the batch run's bits.
proptest! {
    #[test]
    fn resumed_snapshot_texts_equal_fresh_encodings_and_restore_bit_for_bit(
        seed in 0u64..1000,
        days in 1u64..3,
        realloc in prop::sample::select(vec![1usize, 5, 12]),
        constrained in prop::sample::select(vec![false, true]),
        cut_fracs in prop::collection::vec(0.0f64..1.0, 1..5),
        restore_frac in 0.0f64..1.0,
        ahead_frac in 0.0f64..1.0,
    ) {
        let start = SimHour::from_date(2008, 12, 19);
        let mut scenario =
            Scenario::custom_window(seed, HourRange::new(start, start.plus_hours(days * 24)));
        scenario.config = scenario.config.with_reallocation_interval(realloc);
        if constrained {
            let caps = scenario.bandwidth_caps_from_baseline();
            scenario.config = scenario.config.with_bandwidth_caps(caps);
        }
        let threshold = 1500.0;
        let batch = scenario
            .execute(&mut PriceConsciousPolicy::with_distance_threshold(threshold), RunOptions::new());
        let sim = Simulation::new(
            &scenario.clusters,
            &scenario.trace,
            &scenario.prices,
            scenario.config.clone(),
        );
        let table = sim.price_table();
        let steps = scenario.trace.num_steps();
        let at = |frac: f64| ((steps as f64) * frac) as usize;
        // Snapshot steps in order, the first one twice.
        let mut cuts: Vec<usize> = cut_fracs.iter().map(|&f| at(f)).collect();
        cuts.push(cuts[0]);
        cuts.sort_unstable();
        let restore_step = at(restore_frac);
        let ahead = restore_step + (((steps - restore_step) as f64) * ahead_frac) as usize;
        let new_engine = || {
            SimulationEngine::new(&scenario.clusters, &scenario.trace.states, scenario.config.clone())
                .with_clamped_lead_hours(table.clamped_lead_hours())
        };
        let finish = |engine: &mut SimulationEngine<'_>, policy: &mut dyn RoutingPolicy| {
            let from = engine.steps();
            for &cut in cuts.iter().filter(|&&cut| cut > from) {
                tick_to(engine, policy, &scenario, table, cut);
                checked_snapshot(engine, &format!("step {cut}"));
            }
            tick_to(engine, policy, &scenario, table, steps);
            checked_snapshot(engine, "the end");
            engine.report()
        };

        let mut warm = new_engine();
        let mut policy = PriceConsciousPolicy::with_distance_threshold(threshold);
        checked_snapshot(&mut warm, "before the first tick");
        for &cut in cuts.iter().filter(|&&cut| cut < restore_step) {
            tick_to(&mut warm, &mut policy, &scenario, table, cut);
            checked_snapshot(&mut warm, &format!("step {cut}"));
        }
        tick_to(&mut warm, &mut policy, &scenario, table, restore_step);
        let restored = checked_snapshot(&mut warm, &format!("step {restore_step}"));
        tick_to(&mut warm, &mut policy, &scenario, table, ahead);
        checked_snapshot(&mut warm, &format!("step {ahead}, before the restore"));
        warm.restore(&restored);
        checked_snapshot(&mut warm, "restored into the warm engine");
        let warm_report = finish(&mut warm, &mut policy);

        let mut fresh = new_engine();
        fresh.restore(&restored);
        checked_snapshot(&mut fresh, "restored into a fresh engine");
        let fresh_report =
            finish(&mut fresh, &mut PriceConsciousPolicy::with_distance_threshold(threshold));

        for (name, report) in [("warm", &warm_report), ("fresh", &fresh_report)] {
            prop_assert_eq!(&batch, report, "batch != {} restore (step {})", name, restore_step);
            prop_assert_eq!(batch.to_json(), report.to_json(), "{} restore", name);
        }
    }
}
