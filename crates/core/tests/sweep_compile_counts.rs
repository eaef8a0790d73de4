//! Compile-count instrumentation test for the sweep artifact cache.
//!
//! This file intentionally holds a single `#[test]` so it runs as the only
//! code in its process: the build counters on [`BillingMatrix`],
//! [`PriceTable`] and [`CompiledPreferences`] are process-global, and any
//! concurrently running test that compiles price tables would make exact
//! assertions racy. Keep it that way — add further compile-count
//! scenarios inside this one test, not as siblings.

use wattroute::prelude::*;
use wattroute::run::RunOptions;
use wattroute::sweep::{CompiledArtifacts, ScenarioSweep};
use wattroute_market::price_table::{BillingMatrix, PriceTable};
use wattroute_market::time::SimHour;
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_workload::ClusterSet;

/// A grid varying two deployments × two reaction delays × two policies
/// (eight runs) must compile each deployment's billing matrix and ranked
/// preference geometry exactly once, and one delayed view per
/// (deployment, delay) — runs themselves compile nothing.
#[test]
fn two_deployments_times_two_delays_compile_each_artifact_once() {
    let start = SimHour::from_date(2008, 12, 19);
    let scenario = Scenario::custom_window(23, HourRange::new(start, start.plus_hours(36)));
    let east = ClusterSet::new(
        scenario
            .clusters
            .clusters()
            .iter()
            .filter(|c| matches!(c.label.as_str(), "MA" | "NY" | "VA" | "NJ"))
            .cloned()
            .collect::<Vec<_>>(),
    );

    let mut sweep =
        ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices).with_threads(2);
    let east_id = sweep.add_deployment("east", &east);
    for dep in [0, east_id] {
        for delay in [0u64, 4] {
            let config = scenario.config.clone().with_reaction_delay(delay);
            sweep.add_point_on(dep, format!("pc:{dep}:{delay}"), config.clone(), || {
                PriceConsciousPolicy::with_distance_threshold(1500.0)
            });
            sweep.add_point_on(
                dep,
                format!("base:{dep}:{delay}"),
                config,
                AkamaiLikePolicy::default,
            );
        }
    }
    assert_eq!(sweep.len(), 8);

    let billing_before = BillingMatrix::build_count();
    let views_before = PriceTable::view_count();
    let prefs_before = CompiledPreferences::build_count();

    let report = sweep.execute(RunOptions::new());

    assert_eq!(report.runs.len(), 8);
    assert_eq!(
        BillingMatrix::build_count() - billing_before,
        2,
        "one billing matrix per deployment, shared across delays and runs"
    );
    assert_eq!(
        PriceTable::view_count() - views_before,
        4,
        "one delayed view per (deployment, delay)"
    );
    assert_eq!(
        CompiledPreferences::build_count() - prefs_before,
        2,
        "one ranked preference geometry per deployment, shared across all runs"
    );

    // The shared artifacts must not have changed results: spot-check one
    // cell against a fresh, per-run-compiled sequential simulation.
    let config = scenario.config.clone().with_reaction_delay(4);
    let sequential = Simulation::new(&east, &scenario.trace, &scenario.prices, config)
        .execute(&mut PriceConsciousPolicy::with_distance_threshold(1500.0));
    assert_eq!(report.get(&format!("pc:{east_id}:4")), Some(&sequential));

    // Scenario 2: a persistent cache across *sequences* of sweeps (what
    // the deployment optimizer does per search iteration). The first sweep
    // compiles both hub lists; a second sweep over the same deployments —
    // including a capacity-rescaled variant, which shares the nine-cluster
    // hub list — must compile nothing at all.
    let scaled = scenario.clusters.scaled(0.5);
    let build_sweep = |with_scaled: bool| {
        let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices)
            .with_threads(2);
        let east_id = sweep.add_deployment("east", &east);
        sweep.add_point_on(0, "nine:pc", scenario.config.clone(), || {
            PriceConsciousPolicy::with_distance_threshold(1500.0)
        });
        sweep.add_point_on(east_id, "east:pc", scenario.config.clone(), || {
            PriceConsciousPolicy::with_distance_threshold(1500.0)
        });
        if with_scaled {
            let scaled_id = sweep.add_deployment("scaled", &scaled);
            sweep.add_point_on(scaled_id, "scaled:pc", scenario.config.clone(), || {
                PriceConsciousPolicy::with_distance_threshold(1500.0)
            });
        }
        sweep
    };

    let billing_before = BillingMatrix::build_count();
    let views_before = PriceTable::view_count();
    let prefs_before = CompiledPreferences::build_count();

    let mut cache = CompiledArtifacts::new();
    build_sweep(false).execute(RunOptions::new().reuse_artifacts(&mut cache));
    assert_eq!(BillingMatrix::build_count() - billing_before, 2);
    assert_eq!(PriceTable::view_count() - views_before, 2);
    assert_eq!(CompiledPreferences::build_count() - prefs_before, 2);
    assert_eq!((cache.hub_list_hits(), cache.hub_list_misses()), (0, 2));

    build_sweep(true).execute(RunOptions::new().reuse_artifacts(&mut cache));
    assert_eq!(
        BillingMatrix::build_count() - billing_before,
        2,
        "revisited hub lists (incl. the capacity-rescaled variant) must not recompile billing"
    );
    assert_eq!(
        PriceTable::view_count() - views_before,
        2,
        "revisited (hub list, delay) cells must not build new views"
    );
    assert_eq!(
        CompiledPreferences::build_count() - prefs_before,
        2,
        "revisited hub lists must not recompile preference geometry"
    );
    assert_eq!((cache.hub_list_hits(), cache.hub_list_misses()), (3, 2));

    // Scenario 3: constraints are run-state, not compiled geometry. A
    // calibrated constraint axis (three cap multipliers plus the
    // unconstrained regime, all over the default deployment at one delay)
    // must compile exactly one billing matrix, one preference geometry and
    // one delayed view — the constrained-vs-unconstrained dimension adds
    // zero compilation work.
    let calibrated = CalibratedScenario::calibrate(&scenario);
    let billing_before = BillingMatrix::build_count();
    let views_before = PriceTable::view_count();
    let prefs_before = CompiledPreferences::build_count();

    let mut sweep =
        ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices).with_threads(2);
    sweep.add_constraint_axis(
        0,
        "pc",
        scenario.config.clone(),
        [1.0, 1.1, 1.3, f64::INFINITY]
            .iter()
            .map(|&m| (format!("x{m}"), calibrated.constraints(&scenario.config.constraints, m))),
        || PriceConsciousPolicy::with_distance_threshold(1500.0),
    );
    assert_eq!(sweep.len(), 4);
    let report = sweep.execute(RunOptions::new());
    assert_eq!(report.runs.len(), 4);
    assert!(report.get("pc@x1").unwrap().bandwidth_constrained);
    assert!(!report.get("pc@xinf").unwrap().bandwidth_constrained);

    assert_eq!(
        BillingMatrix::build_count() - billing_before,
        1,
        "a constraint axis must not compile extra billing matrices"
    );
    assert_eq!(
        PriceTable::view_count() - views_before,
        1,
        "a constraint axis must not build extra delayed views"
    );
    assert_eq!(
        CompiledPreferences::build_count() - prefs_before,
        1,
        "a constraint axis must not recompile preference geometry"
    );
}
