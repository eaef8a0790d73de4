//! Golden-file smoke run for the sweep engine: a small, fully
//! deterministic Figure-17-style grid — three thresholds × two bandwidth
//! regimes plus one multi-deployment point routing a five-cluster eastern
//! subset — whose `SweepReport` JSON is checked into
//! `crates/bench/golden/sweep_smoke.json`. The fixture is checked by
//! `crates/bench/tests/goldens.rs` in tier-1, with telemetry off and on;
//! any engine refactor that changes a simulated number fails it instead
//! of silently shifting results.
//!
//! The binary prints the JSON to stdout (pipe it to the golden file to
//! re-bless after an *intentional* behaviour change).

use wattroute::prelude::*;
use wattroute::sweep::{ScenarioSweep, SweepReport};
use wattroute_bench::HARNESS_SEED;
use wattroute_energy::model::EnergyModelParams;
use wattroute_market::time::SimHour;
use wattroute_routing::baseline::AkamaiLikePolicy;

const THRESHOLDS: [f64; 3] = [0.0, 1100.0, 1500.0];

fn smoke_report() -> SweepReport {
    // Four days at the turn of 2008/2009 — long enough for price structure
    // to matter, short enough for a smoke run.
    let start = SimHour::from_date(2008, 12, 19);
    let range = HourRange::new(start, start.plus_hours(4 * 24));
    let scenario = Scenario::custom_window(HARNESS_SEED, range)
        .with_energy(EnergyModelParams::optimistic_future());
    let baseline = scenario.baseline_report();
    let caps: Vec<f64> = baseline.clusters.iter().map(|c| c.p95_hits_per_sec).collect();

    // A second deployment exercises the multi-deployment grid path: the
    // eastern five of the nine clusters, routed over the same trace and
    // prices.
    let east = wattroute_workload::ClusterSet::new(
        scenario
            .clusters
            .clusters()
            .iter()
            .filter(|c| matches!(c.label.as_str(), "MA" | "NY" | "VA" | "NJ" | "IL"))
            .cloned()
            .collect::<Vec<_>>(),
    );

    let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
    sweep.add_point("baseline", scenario.config.clone(), AkamaiLikePolicy::default);
    for (i, &threshold) in THRESHOLDS.iter().enumerate() {
        sweep.add_point(format!("relaxed:{i}"), scenario.config.clone(), move || {
            PriceConsciousPolicy::with_distance_threshold(threshold)
        });
        sweep.add_point(
            format!("follow:{i}"),
            scenario.config.clone().with_bandwidth_caps(caps.clone()),
            move || PriceConsciousPolicy::with_distance_threshold(threshold),
        );
    }
    let east_id = sweep.add_deployment("east-five", &east);
    sweep.add_point_on(east_id, "east:relaxed", scenario.config.clone(), || {
        PriceConsciousPolicy::with_distance_threshold(1100.0)
    });
    sweep.execute(RunOptions::new())
}

fn main() {
    wattroute_obs::Telemetry::enable_from_env();
    println!("{}", smoke_report().to_json());
}
