//! `hierarchy_smoke` — replay a seeded synthetic region → metro → site
//! tree through [`HierarchicalReplay`] and assert a wall-clock budget.
//!
//! CI runs this twice in `--release`: a 200-site two-month tree as the
//! fast gate, and the acceptance-scale 1000-site two-year replay that must
//! finish in single-digit seconds. Prints one JSON summary line per replay
//! on stdout (site/metro/region counts, total cost, elapsed seconds,
//! set-up seconds, mode) so the numbers land in the job log; exits
//! non-zero if the sharded and sequential replays disagree, or if
//! `--budget-secs` is exceeded by a replay or by the set-up: building the
//! topology and generating the trace and prices, timed together.
//!
//! ```text
//! hierarchy_smoke [--sites N] [--days D] [--seed N] [--budget-secs S]
//!                 [--mode sharded|sequential|both]
//! ```
//!
//! `--mode both` (the default) runs sequential then sharded and asserts
//! bit-identity between them; the budget applies to the set-up and to each
//! run separately.

use std::process::ExitCode;
use std::time::Instant;
use wattroute::hierarchy::HierarchicalReplay;
use wattroute::json::{self, JsonValue};
use wattroute::prelude::*;
use wattroute::report::SimulationReport;
use wattroute_geo::topology::Topology;
use wattroute_market::generator::PriceGenerator;
use wattroute_market::model::MarketModel;
use wattroute_market::time::SimHour;
use wattroute_routing::policy::RoutingPolicy;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn make_policy() -> Box<dyn RoutingPolicy> {
    Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))
}

fn summary_line(
    mode: &str,
    topology: &Topology,
    report: &SimulationReport,
    elapsed_secs: f64,
    setup_secs: f64,
) -> JsonValue {
    json::object([
        ("mode", JsonValue::String(mode.to_string())),
        ("sites", JsonValue::Number(topology.num_sites() as f64)),
        ("metros", JsonValue::Number(topology.num_metros() as f64)),
        ("regions", JsonValue::Number(topology.num_regions() as f64)),
        ("steps", JsonValue::Number(report.steps as f64)),
        ("total_cost_dollars", JsonValue::Number(report.total_cost_dollars)),
        ("total_energy_mwh", JsonValue::Number(report.total_energy_mwh)),
        ("tier_rollup", JsonValue::Bool(report.tiers.is_some())),
        ("elapsed_secs", JsonValue::Number(elapsed_secs)),
        ("setup_secs", JsonValue::Number(setup_secs)),
    ])
}

/// Whether `secs` exceeds the budget, if there is one; says so on stderr.
fn exceeds_budget(budget_secs: Option<f64>, what: &str, secs: f64) -> bool {
    match budget_secs {
        Some(budget) if secs > budget => {
            eprintln!("hierarchy_smoke: {what} took {secs:.2}s > budget {budget}s");
            true
        }
        _ => false,
    }
}

fn main() -> ExitCode {
    wattroute_obs::Telemetry::enable_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sites: usize = flag_value(&args, "--sites").map_or(200, |v| v.parse().expect("--sites N"));
    let days: u64 = flag_value(&args, "--days").map_or(60, |v| v.parse().expect("--days D"));
    let seed: u64 = flag_value(&args, "--seed").map_or(42, |v| v.parse().expect("--seed N"));
    let budget_secs: Option<f64> =
        flag_value(&args, "--budget-secs").map(|v| v.parse().expect("--budget-secs S"));
    let mode = flag_value(&args, "--mode").unwrap_or("both");
    if !matches!(mode, "sharded" | "sequential" | "both") {
        eprintln!("hierarchy_smoke: unknown --mode '{mode}' (expected sharded|sequential|both)");
        return ExitCode::from(2);
    }

    let setup = Instant::now();
    let topology = Topology::synthetic(seed, sites).with_tier_slack(1.1);
    let start = SimHour::from_date(2007, 1, 1);
    let range = HourRange::new(start, start.plus_hours(days * 24));
    let trace =
        SyntheticWorkloadConfig { seed, ..SyntheticWorkloadConfig::default() }.generate(range);
    let prices = PriceGenerator::new(MarketModel::calibrated(), seed).realtime_hourly(range);
    let setup_secs = setup.elapsed().as_secs_f64();
    eprintln!(
        "hierarchy_smoke: {} sites / {} metros / {} regions, {days} days ({} steps), seed {seed}, \
         set up in {setup_secs:.2}s",
        topology.num_sites(),
        topology.num_metros(),
        topology.num_regions(),
        days * 12 * 24,
    );
    let config = SimulationConfig::default().with_reallocation_interval(12);
    let replay = HierarchicalReplay::new(&topology, &trace, &prices, config);

    let mut over_budget = exceeds_budget(budget_secs, "set-up", setup_secs);
    let mut timed = |label: &str, report: &SimulationReport, elapsed: f64| {
        println!("{}", summary_line(label, &topology, report, elapsed, setup_secs));
        over_budget |= exceeds_budget(budget_secs, &format!("{label} replay"), elapsed);
    };

    let mut sequential: Option<SimulationReport> = None;
    if mode != "sharded" {
        let t0 = Instant::now();
        let report = replay.run(&make_policy);
        timed("sequential", &report, t0.elapsed().as_secs_f64());
        sequential = Some(report);
    }
    if mode != "sequential" {
        let t0 = Instant::now();
        let report = replay.run_sharded(&make_policy);
        timed("sharded", &report, t0.elapsed().as_secs_f64());
        if let Some(sequential) = &sequential {
            if &report != sequential {
                eprintln!("hierarchy_smoke: sharded and sequential replays DISAGREE");
                return ExitCode::FAILURE;
            }
            eprintln!("hierarchy_smoke: sharded ≡ sequential (bit-identical)");
        }
    }

    if over_budget {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
