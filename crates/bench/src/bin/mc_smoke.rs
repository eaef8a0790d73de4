//! Golden-file smoke run for the Monte Carlo price engine: a small, fully
//! deterministic 16-path replay of the two-day harness scenario — the
//! price-conscious policy against the Akamai-like baseline, with a CVaR
//! tail summary — whose [`SavingsDistribution`] JSON is checked into
//! `crates/bench/golden/mc_smoke.json`. The fixture is checked by
//! `crates/bench/tests/goldens.rs` in tier-1, with telemetry off and on;
//! any change to the path-seed stream, the generator, the replay core or
//! the aggregation fails it instead of silently shifting results.
//!
//! The binary prints the JSON to stdout (pipe it to the golden file to
//! re-bless after an *intentional* behaviour change).

use wattroute::montecarlo::{MonteCarlo, SavingsDistribution};
use wattroute::prelude::*;
use wattroute_bench::HARNESS_SEED;
use wattroute_market::time::SimHour;

const N_PATHS: usize = 16;

fn smoke_distribution() -> SavingsDistribution {
    // Two days at the turn of 2008/2009, matching the other smoke grids.
    let start = SimHour::from_date(2008, 12, 19);
    let range = HourRange::new(start, start.plus_hours(2 * 24));
    let scenario = Scenario::custom_window(HARNESS_SEED, range);
    let model = MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids());
    // Two worker threads on purpose: the aggregate is pinned to be
    // thread-count invariant, so exercising the parallel path here costs
    // nothing in reproducibility.
    MonteCarlo::new(
        &scenario.clusters,
        &scenario.trace,
        model,
        scenario.config.clone(),
        HARNESS_SEED,
    )
    .with_paths(N_PATHS)
    .with_threads(2)
    .run()
}

fn main() {
    wattroute_obs::Telemetry::enable_from_env();
    println!("{}", smoke_distribution().to_json());
}
