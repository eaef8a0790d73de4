//! Monte Carlo savings distributions and replay throughput.
//!
//! Replays the harness scenario over seeded price paths and prints what the
//! rest of the repo's point estimates hide: the p5/p50/p95 bands of the
//! electric bill and the savings percentage, the CVaR tail of the bill,
//! per-cluster cost bands, and the shrinking confidence interval on the
//! mean savings as the path budget grows. A throughput table reports
//! paths/sec at 16/64/256 paths — first run cold (process start, fresh
//! compiled preferences), second run warm — the yardstick for Monte Carlo
//! speed-ups.

use std::time::Instant;
use wattroute::montecarlo::MonteCarlo;
use wattroute::prelude::*;
use wattroute_bench::{banner, fmt, full_mode, print_table, HARNESS_SEED};
use wattroute_market::time::SimHour;

fn main() {
    wattroute_obs::Telemetry::enable_from_env();
    banner("mc_savings", "Monte Carlo price paths: savings distributions and throughput");

    // One week fast / the 24-day window in full mode: long enough for the
    // diurnal and weekly structure the router exploits, short enough that a
    // 256-path draw stays interactive.
    let start = SimHour::from_date(2008, 12, 19);
    let days = if full_mode() { 24 } else { 7 };
    let scenario =
        Scenario::custom_window(HARNESS_SEED, HourRange::new(start, start.plus_hours(days * 24)));
    let model = MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids());
    let mc = |paths: usize| {
        MonteCarlo::new(
            &scenario.clusters,
            &scenario.trace,
            model.clone(),
            scenario.config.clone(),
            HARNESS_SEED,
        )
        .with_paths(paths)
    };

    let dist = mc(64).run();
    println!(
        "\n{} vs {} over {days} days, 64 paths, master seed {HARNESS_SEED}:",
        dist.policy, dist.baseline
    );
    let band = |label: &str, b: &wattroute::montecarlo::BandSummary, unit: &str| {
        vec![
            label.to_string(),
            fmt(b.mean, 2),
            fmt(b.p5, 2),
            fmt(b.p50, 2),
            fmt(b.p95, 2),
            unit.to_string(),
        ]
    };
    print_table(
        &["metric", "mean", "p5", "p50", "p95", "unit"],
        &[
            band("bill", &dist.bill, "$"),
            band("baseline bill", &dist.baseline_bill, "$"),
            band("savings", &dist.savings_percent, "%"),
        ],
    );
    println!(
        "  CVaR[{:.2}](bill) = ${}  (mean + ${} of tail exposure)",
        dist.cvar_alpha,
        fmt(dist.bill_cvar_dollars, 2),
        fmt(dist.bill_cvar_dollars - dist.bill.mean, 2),
    );

    println!("\nPer-cluster cost bands ($):");
    print_table(
        &["cluster", "mean", "p5", "p95"],
        &dist
            .clusters
            .iter()
            .map(|c| {
                vec![c.label.clone(), fmt(c.cost.mean, 2), fmt(c.cost.p5, 2), fmt(c.cost.p95, 2)]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nConvergence and throughput (cold first, then warm):");
    let mut rows = Vec::new();
    for paths in [16usize, 64, 256] {
        let engine = mc(paths);
        let cold_start = Instant::now();
        let d = engine.run();
        let cold = cold_start.elapsed().as_secs_f64();
        let warm_start = Instant::now();
        let _ = engine.run();
        let warm = warm_start.elapsed().as_secs_f64();
        rows.push(vec![
            paths.to_string(),
            fmt(d.savings_percent.mean, 3),
            fmt(d.mean_savings_ci90_width().unwrap_or(0.0), 3),
            fmt(paths as f64 / cold, 1),
            fmt(paths as f64 / warm, 1),
        ]);
    }
    print_table(&["paths", "mean savings %", "ci90 width", "cold paths/s", "warm paths/s"], &rows);
}
