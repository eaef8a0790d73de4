//! Golden-file smoke run for the calibrate → constrain → account
//! pipeline: a tiny deterministic grid — one baseline calibration pass,
//! then the price-conscious optimizer under the calibrated 95/5 caps at
//! three slack multipliers (1.0×, 1.2×, ∞), all priced under the default
//! CDN transit tariff so every report carries the new bandwidth
//! accounting fields — whose `SweepReport` JSON is checked into
//! `crates/bench/golden/bandwidth_smoke.json`. The fixture is checked by
//! `crates/bench/tests/goldens.rs` in tier-1; any change to constraint
//! derivation, cap enforcement or 95/5 billing fails it instead of
//! silently shifting results.
//!
//! The binary prints the JSON to stdout (pipe it to the golden file to
//! re-bless after an *intentional* behaviour change).

use wattroute::prelude::*;
use wattroute::sweep::{ScenarioSweep, SweepReport};
use wattroute_bench::HARNESS_SEED;
use wattroute_energy::model::EnergyModelParams;
use wattroute_market::time::SimHour;
use wattroute_routing::baseline::AkamaiLikePolicy;

const THRESHOLD_KM: f64 = 1500.0;
const MULTIPLIERS: [f64; 3] = [1.0, 1.2, f64::INFINITY];

fn smoke_report() -> SweepReport {
    // Three days at the turn of 2008/2009 — enough for the caps to bind,
    // short enough for a smoke run.
    let start = SimHour::from_date(2008, 12, 19);
    let range = HourRange::new(start, start.plus_hours(3 * 24));
    let scenario = Scenario::custom_window(HARNESS_SEED, range)
        .with_energy(EnergyModelParams::optimistic_future());

    // Calibrate: one baseline pass fixes the per-cluster 95/5 levels.
    let calibrated = CalibratedScenario::calibrate(&scenario);

    // Constrain + account: the optimizer under the calibrated caps at
    // three slack levels, everything billed under the default tariff.
    let tariff_config =
        scenario.config.clone().with_bandwidth_tariff(BandwidthTariff::default_cdn());
    let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
    sweep.add_point("baseline", tariff_config.clone(), AkamaiLikePolicy::default);
    sweep.add_constraint_axis(
        0,
        "pc",
        tariff_config,
        MULTIPLIERS.iter().enumerate().map(|(i, &m)| {
            (format!("{i}"), calibrated.constraints(&scenario.config.constraints, m))
        }),
        || PriceConsciousPolicy::with_distance_threshold(THRESHOLD_KM),
    );
    sweep.execute(RunOptions::new())
}

fn main() {
    wattroute_obs::Telemetry::enable_from_env();
    println!("{}", smoke_report().to_json());
}
