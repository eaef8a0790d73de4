//! Golden-file smoke run for the deployment optimizer: a tiny, fully
//! deterministic five-hub search — greedy descent plus seeded local
//! search on a 36-hour window — whose `OptimizerReport` JSON (both
//! strategies, full audit trails) is checked into
//! `crates/bench/golden/optimize_smoke.json`. The fixture is checked by
//! `crates/bench/tests/goldens.rs` in tier-1; any change to the search
//! order, the objective arithmetic, the evaluator or the engine
//! underneath fails it instead of silently shifting placements.
//!
//! The binary prints the JSON to stdout (pipe it to the golden file to
//! re-bless after an *intentional* behaviour change).

use wattroute::json::{self, JsonValue};
use wattroute::objective::Objective;
use wattroute::prelude::*;
use wattroute_bench::HARNESS_SEED;
use wattroute_energy::model::EnergyModelParams;
use wattroute_market::time::SimHour;
use wattroute_optimizer::{
    DeploymentOptimizer, GreedyDescent, LocalSearch, SearchBudget, SearchSpace, SweepEvaluator,
};
use wattroute_workload::ClusterSet;

fn smoke_json() -> JsonValue {
    let start = SimHour::from_date(2008, 12, 19);
    let scenario =
        Scenario::custom_window(HARNESS_SEED, HourRange::new(start, start.plus_hours(36)))
            .with_energy(EnergyModelParams::optimistic_future());
    let config = scenario.config.clone().with_overflow(OverflowMode::Reject);

    // Five of the nine clusters, coarse quantum: a space small enough
    // that the whole search fits a smoke run.
    let five = ClusterSet::new(
        scenario
            .clusters
            .clusters()
            .iter()
            .filter(|c| matches!(c.label.as_str(), "CA1" | "NY" | "IL" | "VA" | "TX1"))
            .cloned()
            .collect::<Vec<_>>(),
    );
    let (space, start_split) = SearchSpace::from_deployment(&five, 800);

    let optimizer = DeploymentOptimizer::new(space)
        .with_objective(Objective::default_qos())
        .with_budget(SearchBudget::smoke())
        .with_start(start_split);
    let run = |strategy: &mut dyn wattroute_optimizer::OptimizerStrategy| {
        let mut evaluator = SweepEvaluator::new(&scenario.trace, &scenario.prices, config.clone());
        optimizer.run(strategy, &mut evaluator).to_json_value()
    };
    json::object([
        ("greedy", run(&mut GreedyDescent::default())),
        ("local_search", run(&mut LocalSearch::seeded(HARNESS_SEED))),
    ])
}

fn main() {
    wattroute_obs::Telemetry::enable_from_env();
    println!("{}", smoke_json());
}
