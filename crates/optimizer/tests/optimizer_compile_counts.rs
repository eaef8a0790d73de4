//! Compile-count instrumentation for the optimizer's evaluator, extending
//! the exact-count methodology of the core crate's
//! `sweep_compile_counts.rs`.
//!
//! This file intentionally holds a single `#[test]` so it runs as the
//! only code in its process: the build counters on [`BillingMatrix`],
//! [`PriceTable`] and [`CompiledPreferences`] are process-global, and any
//! concurrently running test that compiles price tables would make exact
//! assertions racy. Keep it that way — add further compile-count
//! scenarios inside this one test, not as siblings.

use std::collections::BTreeSet;
use wattroute::prelude::*;
use wattroute_market::price_table::{BillingMatrix, PriceTable};
use wattroute_market::time::SimHour;
use wattroute_optimizer::{
    price_conscious_factory, DeploymentOptimizer, GreedyDescent, SearchBudget, SearchSpace,
    SweepEvaluator,
};
use wattroute_routing::price_conscious::CompiledPreferences;

/// The optimizer re-visiting a hub list — in a later batch, or through a
/// capacity-only move — must not recompile any artifact: exactly one
/// billing matrix, one preference geometry and one delayed view per
/// distinct *active-hub set* the search ever touches.
#[test]
fn optimizer_compiles_each_visited_hub_list_exactly_once() {
    let start_hour = SimHour::from_date(2008, 12, 19);
    let scenario =
        Scenario::custom_window(47, HourRange::new(start_hour, start_hour.plus_hours(24)))
            .with_energy(EnergyModelParams::optimistic_future());
    let config = scenario.config.clone().with_overflow(OverflowMode::Reject);

    // Scenario 1: hand-driven evaluator batches. Three hubs, coarse
    // quantum; batch 2 re-visits batch 1's hub lists exactly.
    let (nine_space, _) = SearchSpace::from_deployment(&scenario.clusters, 800);
    let three = SearchSpace::new(nine_space.hubs()[..3].to_vec(), 6, 800);
    let policy = price_conscious_factory(1500.0);
    let mut evaluator = SweepEvaluator::new(&scenario.trace, &scenario.prices, config.clone());

    let billing_before = BillingMatrix::build_count();
    let views_before = PriceTable::view_count();
    let prefs_before = CompiledPreferences::build_count();

    // Batch 1: two all-active splits (one hub list) and one subset split
    // (a second hub list).
    let batch1 = [vec![4, 1, 1], vec![1, 4, 1], vec![3, 3, 0]];
    let sets1: Vec<_> = batch1.iter().map(|s| three.materialize(s)).collect();
    evaluator.evaluate(&sets1, &policy);
    assert_eq!(BillingMatrix::build_count() - billing_before, 2);
    assert_eq!(PriceTable::view_count() - views_before, 2);
    assert_eq!(CompiledPreferences::build_count() - prefs_before, 2);

    // Batch 2: revisit both hub lists with different capacity splits —
    // zero recompiles.
    let batch2 = [vec![2, 2, 2], vec![5, 1, 0]];
    let sets2: Vec<_> = batch2.iter().map(|s| three.materialize(s)).collect();
    evaluator.evaluate(&sets2, &policy);
    assert_eq!(
        BillingMatrix::build_count() - billing_before,
        2,
        "revisited hub lists must hit the CompiledArtifacts cache, not recompile"
    );
    assert_eq!(PriceTable::view_count() - views_before, 2);
    assert_eq!(CompiledPreferences::build_count() - prefs_before, 2);
    assert_eq!(evaluator.artifacts().hub_list_misses(), 2);
    assert_eq!(evaluator.artifacts().hub_list_hits(), 3);

    // Scenario 2: a full strategy run. Count the distinct active-hub sets
    // in the audit trail; global compile counters must have moved by
    // exactly that much.
    let billing_before = BillingMatrix::build_count();
    let views_before = PriceTable::view_count();
    let prefs_before = CompiledPreferences::build_count();

    let (space, start) = SearchSpace::from_deployment(&scenario.clusters, 800);
    let mut evaluator = SweepEvaluator::new(&scenario.trace, &scenario.prices, config);
    let report = DeploymentOptimizer::new(space)
        .with_budget(SearchBudget::smoke())
        .with_start(start)
        .run(&mut GreedyDescent::default(), &mut evaluator);

    let distinct_hub_sets: BTreeSet<Vec<usize>> = report
        .iterations
        .iter()
        .flat_map(|it| it.candidates.iter())
        .map(|c| {
            c.split
                .iter()
                .enumerate()
                .filter(|(_, &u)| u > 0)
                .map(|(i, _)| i)
                .collect::<Vec<usize>>()
        })
        .collect();
    let compiled = distinct_hub_sets.len();
    assert_eq!(
        BillingMatrix::build_count() - billing_before,
        compiled,
        "one billing matrix per distinct active-hub set over the whole search"
    );
    assert_eq!(PriceTable::view_count() - views_before, compiled);
    assert_eq!(CompiledPreferences::build_count() - prefs_before, compiled);
    assert_eq!(report.cache.hub_list_misses, compiled);
    assert_eq!(
        report.cache.hub_list_hits + report.cache.hub_list_misses,
        report.evaluations,
        "every evaluation resolves its hub list exactly once"
    );

    // Scenario 3: the same search *under calibrated 95/5 caps*. The
    // constraints travel in per-run configuration, not compiled geometry,
    // so a constrained greedy descent over the same space compiles exactly
    // one artifact set per distinct active-hub set it visits — and its
    // cache hit rate is no worse than the unconstrained run's.
    let calibrated = CalibratedScenario::calibrate(&scenario);
    let billing_before = BillingMatrix::build_count();

    let (space, start) = SearchSpace::from_deployment(&scenario.clusters, 800);
    let mut evaluator = SweepEvaluator::new(
        &scenario.trace,
        &scenario.prices,
        scenario.config.clone().with_overflow(OverflowMode::Reject),
    );
    evaluator.set_hub_caps(Some(calibrated.hub_caps(1.0)));
    let constrained = DeploymentOptimizer::new(space)
        .with_budget(SearchBudget::smoke())
        .with_start(start)
        .run(&mut GreedyDescent::default(), &mut evaluator);

    let constrained_distinct: BTreeSet<Vec<usize>> = constrained
        .iterations
        .iter()
        .flat_map(|it| it.candidates.iter())
        .map(|c| {
            c.split
                .iter()
                .enumerate()
                .filter(|(_, &u)| u > 0)
                .map(|(i, _)| i)
                .collect::<Vec<usize>>()
        })
        .collect();
    assert_eq!(
        BillingMatrix::build_count() - billing_before,
        constrained_distinct.len(),
        "calibrated caps must not invalidate CompiledArtifacts reuse"
    );
    assert_eq!(constrained.cache.hub_list_misses, constrained_distinct.len());
    assert!(
        constrained.cache.hit_rate().unwrap_or(0.0) >= report.cache.hit_rate().unwrap_or(0.0),
        "a constrained search must reuse the cache at least as well as an unconstrained one \
         (constrained {:?} vs unconstrained {:?})",
        constrained.cache.hit_rate(),
        report.cache.hit_rate(),
    );
}
