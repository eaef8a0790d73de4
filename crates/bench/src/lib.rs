//! Experiment harness shared by the per-figure binaries in `src/bin/`.
//!
//! Every table and figure in the paper's evaluation has a binary named
//! `figNN_*` that regenerates its rows/series; this library holds the code
//! those binaries share: the default data windows, the savings sweeps, and
//! small table-printing helpers. `EXPERIMENTS.md` at the workspace root
//! records paper-vs-measured values produced by these harnesses.
//!
//! # Fast vs full mode
//!
//! The paper's long experiments cover 39 months of hourly prices. By default
//! the harness binaries run a shortened window (several months) so the whole
//! suite completes quickly; pass `--full` to any binary to run the exact
//! paper window. The *shape* of every result is unchanged; only statistical
//! noise shrinks in full mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;

use wattroute::prelude::*;
use wattroute::report::SimulationReport;
use wattroute_energy::model::EnergyModelParams;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_market::types::PriceSet;
use wattroute_optimizer::{policy_factory, price_conscious_factory, SweepEvaluator};
use wattroute_workload::trace::Trace;

/// Whether `--full` was passed on the command line.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The price-analysis window: the paper's full 39 months in `--full` mode,
/// otherwise a representative 9-month slice (which still spans seasons and
/// the 2008 fuel-price run-up start).
pub fn price_window() -> HourRange {
    if full_mode() {
        HourRange::paper_39_months()
    } else {
        HourRange::new(SimHour::from_date(2008, 1, 1), SimHour::from_date(2008, 10, 1))
    }
}

/// The long-simulation window (Figures 18-20): 39 months in `--full` mode,
/// otherwise 4 months.
pub fn long_simulation_window() -> HourRange {
    if full_mode() {
        HourRange::paper_39_months()
    } else {
        HourRange::new(SimHour::from_date(2008, 3, 1), SimHour::from_date(2008, 7, 1))
    }
}

/// The seed shared by all harness binaries so figures are mutually
/// consistent.
pub const HARNESS_SEED: u64 = 2009;

/// Print a header naming the experiment and the paper artifact it
/// regenerates.
pub fn banner(figure: &str, description: &str) {
    println!("================================================================");
    println!("{figure}: {description}");
    println!(
        "mode: {}",
        if full_mode() { "FULL (paper window)" } else { "fast (pass --full for the paper window)" }
    );
    println!("================================================================");
}

/// Print a simple aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format a float with a fixed number of decimals.
pub fn fmt(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// The 24-day scenario shared by the Figure 15-17 harnesses.
pub fn scenario_24_day() -> Scenario {
    Scenario::akamai_24_day(HARNESS_SEED)
}

/// The long synthetic scenario shared by the Figure 18-20 harnesses.
pub fn scenario_long() -> Scenario {
    Scenario::synthetic_over(HARNESS_SEED, long_simulation_window())
}

/// One row of a savings sweep: energy-model label, relaxed and constrained
/// savings percentages.
#[derive(Debug, Clone)]
pub struct SavingsRow {
    /// Energy model label, e.g. `(0%, 1.1)`.
    pub label: String,
    /// Savings (%) with 95/5 constraints relaxed.
    pub relaxed_percent: f64,
    /// Savings (%) obeying the baseline's 95/5 constraints.
    pub constrained_percent: f64,
}

/// Figure 15: maximum savings vs energy-model parameters, with and without
/// the 95/5 constraints, at a fixed distance threshold.
///
/// Runs as two parallel [`ScenarioSweep`]s sharing one compiled price
/// table: first every model's Akamai-like baseline (whose observed 95th
/// percentiles become the "follow 95/5" caps), then the relaxed and
/// constrained optimizer runs for every model.
pub fn elasticity_savings_sweep(
    scenario: &Scenario,
    distance_threshold_km: f64,
    models: &[(String, EnergyModelParams)],
) -> Vec<SavingsRow> {
    let mut baselines = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
    for (i, (_, params)) in models.iter().enumerate() {
        baselines.add_point(
            format!("base:{i}"),
            scenario.config.clone().with_energy(*params),
            AkamaiLikePolicy::default,
        );
    }
    let baselines = baselines.execute(RunOptions::new());

    let mut grid = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
    for (i, (_, params)) in models.iter().enumerate() {
        let caps: Vec<f64> =
            baselines.runs[i].report.clusters.iter().map(|c| c.p95_hits_per_sec).collect();
        let config = scenario.config.clone().with_energy(*params);
        grid.add_point(format!("relaxed:{i}"), config.clone(), move || {
            PriceConsciousPolicy::with_distance_threshold(distance_threshold_km)
        });
        grid.add_point(format!("follow:{i}"), config.with_bandwidth_caps(caps), move || {
            PriceConsciousPolicy::with_distance_threshold(distance_threshold_km)
        });
    }
    let grid = grid.execute(RunOptions::new());

    // Both sweeps return one run per point in grid order, so rows pair up
    // by index.
    models
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            let baseline = &baselines.runs[i].report;
            SavingsRow {
                label: label.clone(),
                relaxed_percent: grid.runs[2 * i].report.savings_percent_vs(baseline),
                constrained_percent: grid.runs[2 * i + 1].report.savings_percent_vs(baseline),
            }
        })
        .collect()
}

/// One row of a distance-threshold sweep (Figures 16-18).
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// Distance threshold in km.
    pub threshold_km: f64,
    /// Normalised cost (vs the baseline allocation) with 95/5 relaxed.
    pub normalized_cost_relaxed: f64,
    /// Normalised cost obeying the baseline 95/5 constraints.
    pub normalized_cost_constrained: f64,
    /// Demand-weighted mean client–server distance (relaxed run), km.
    pub mean_distance_km: f64,
    /// Demand-weighted 99th-percentile distance (relaxed run), km.
    pub p99_distance_km: f64,
    /// Mean distance for the constrained run, km.
    pub mean_distance_constrained_km: f64,
    /// 99th-percentile distance for the constrained run, km.
    pub p99_distance_constrained_km: f64,
}

/// Sweep the price optimizer's distance threshold against a fixed baseline.
///
/// All `2 × thresholds` runs (relaxed and 95/5-constrained per threshold)
/// execute as one parallel [`ScenarioSweep`] over a shared compiled price
/// table.
pub fn distance_threshold_sweep(
    scenario: &Scenario,
    baseline: &SimulationReport,
    caps: &[f64],
    thresholds_km: &[f64],
) -> Vec<ThresholdRow> {
    let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
    for (i, &threshold_km) in thresholds_km.iter().enumerate() {
        sweep.add_point(format!("relaxed:{i}"), scenario.config.clone(), move || {
            PriceConsciousPolicy::with_distance_threshold(threshold_km)
        });
        sweep.add_point(
            format!("follow:{i}"),
            scenario.config.clone().with_bandwidth_caps(caps.to_vec()),
            move || PriceConsciousPolicy::with_distance_threshold(threshold_km),
        );
    }
    let report = sweep.execute(RunOptions::new());
    thresholds_km
        .iter()
        .enumerate()
        .map(|(i, &threshold_km)| {
            let relaxed = report.get(&format!("relaxed:{i}")).expect("point ran");
            let constrained = report.get(&format!("follow:{i}")).expect("point ran");
            ThresholdRow {
                threshold_km,
                normalized_cost_relaxed: relaxed.normalized_cost_vs(baseline),
                normalized_cost_constrained: constrained.normalized_cost_vs(baseline),
                mean_distance_km: relaxed.mean_distance_km,
                p99_distance_km: relaxed.p99_distance_km,
                mean_distance_constrained_km: constrained.mean_distance_km,
                p99_distance_constrained_km: constrained.p99_distance_km,
            }
        })
        .collect()
}

/// The distance thresholds swept by Figures 16-18.
pub fn standard_thresholds() -> Vec<f64> {
    vec![0.0, 250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0, 1750.0, 2000.0, 2500.0]
}

/// One row of a deployment-dimension sweep: how much price-conscious
/// routing saves when the clusters sit *here* rather than there.
#[derive(Debug, Clone)]
pub struct DeploymentRow {
    /// Deployment label.
    pub label: String,
    /// Number of clusters in the deployment.
    pub clusters: usize,
    /// The deployment's Akamai-like baseline cost in dollars.
    pub baseline_cost_dollars: f64,
    /// Savings (%) of the price-conscious optimizer over that baseline.
    pub savings_percent: f64,
    /// Demand-weighted mean client–server distance of the optimized run, km.
    pub mean_distance_km: f64,
    /// Demand-weighted 99th-percentile distance of the optimized run, km.
    pub p99_distance_km: f64,
}

/// Sweep the *deployment* dimension (the paper's Figures 15–19 intuition
/// that savings depend on where the clusters are): for every candidate
/// cluster set, run the Akamai-like baseline and the price-conscious
/// optimizer at one distance threshold, through the deployment
/// optimizer's [`SweepEvaluator`] — the same batch evaluator the
/// placement search uses. Both policy batches share one persistent
/// [`CompiledArtifacts`](wattroute::sweep::CompiledArtifacts) cache, so
/// each distinct hub list compiles its billing matrix and ranked
/// preference geometry exactly once across the whole grid —
/// capacity-rebalanced variants of one deployment share everything but
/// their runs.
///
/// The trace is per-client-state and therefore deployment-independent;
/// `prices` must cover every hub any deployment uses.
pub fn deployment_savings_sweep(
    deployments: &[(String, ClusterSet)],
    trace: &Trace,
    prices: &PriceSet,
    config: &SimulationConfig,
    distance_threshold_km: f64,
) -> Vec<DeploymentRow> {
    assert!(!deployments.is_empty(), "need at least one deployment");
    let sets: Vec<ClusterSet> = deployments.iter().map(|(_, c)| c.clone()).collect();
    let mut evaluator = SweepEvaluator::new(trace, prices, config.clone());
    // One combined sweep: every (deployment, policy) cell runs on one
    // worker pool, sharing the compiled artifacts.
    let mut rows = evaluator.evaluate_grid(
        &sets,
        &[
            policy_factory(AkamaiLikePolicy::default),
            price_conscious_factory(distance_threshold_km),
        ],
    );
    let optimized = rows.pop().expect("two policy rows");
    let baselines = rows.pop().expect("two policy rows");
    deployments
        .iter()
        .enumerate()
        .map(|(i, (label, clusters))| {
            let baseline = &baselines[i];
            let optimized = &optimized[i];
            DeploymentRow {
                label: label.clone(),
                clusters: clusters.len(),
                baseline_cost_dollars: baseline.total_cost_dollars,
                savings_percent: optimized.savings_percent_vs(baseline),
                mean_distance_km: optimized.mean_distance_km,
                p99_distance_km: optimized.p99_distance_km,
            }
        })
        .collect()
}

/// Reaction-delay sweep (Figure 20): percentage cost increase relative to
/// an immediate reaction, for a given energy model and distance threshold.
///
/// Each delay needs its own delayed-price table, but the runs themselves
/// execute in parallel as one [`ScenarioSweep`] (tables are compiled once
/// per distinct delay and shared).
pub fn reaction_delay_sweep(
    scenario: &Scenario,
    distance_threshold_km: f64,
    delays_hours: &[u64],
) -> Vec<(u64, f64)> {
    let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
    sweep.add_point("reference", scenario.config.clone().with_reaction_delay(0), move || {
        PriceConsciousPolicy::with_distance_threshold(distance_threshold_km)
    });
    for (i, &delay) in delays_hours.iter().enumerate() {
        sweep.add_point(
            format!("delay:{i}"),
            scenario.config.clone().with_reaction_delay(delay),
            move || PriceConsciousPolicy::with_distance_threshold(distance_threshold_km),
        );
    }
    let report = sweep.execute(RunOptions::new());
    let reference = report.get("reference").expect("reference ran");
    delays_hours
        .iter()
        .enumerate()
        .map(|(i, &delay)| {
            let run = report.get(&format!("delay:{i}")).expect("point ran");
            let increase = (run.total_cost_dollars / reference.total_cost_dollars - 1.0) * 100.0;
            (delay, increase)
        })
        .collect()
}

/// One point of the savings-vs-bandwidth-slack curve (`fig_bandwidth`).
#[derive(Debug, Clone)]
pub struct SlackRow {
    /// The cap multiplier (`f64::INFINITY` = bandwidth unconstrained).
    pub multiplier: f64,
    /// Savings (%) of the price-conscious optimizer over the calibration
    /// baseline, at this slack level.
    pub savings_percent: f64,
    /// Total hours any cluster spent pinned at its 95/5 cap (zero without
    /// a tariff — binding accounting is tariff-gated).
    pub binding_hours: f64,
    /// The run's full report.
    pub report: SimulationReport,
}

/// The savings-vs-bandwidth-slack curve (§4/§6.1 made a sweep): calibrate
/// a scenario once against its baseline assignment, then run the
/// price-conscious optimizer under the calibrated 95/5 caps scaled by each
/// multiplier — `1.0` is the paper's "follow original 95/5 constraints"
/// regime, `f64::INFINITY` removes the caps entirely and reproduces the
/// unconstrained run bit-for-bit. All points run as one [`ScenarioSweep`]
/// constraint axis over shared compiled artifacts. An optional
/// [`BandwidthTariff`] adds the 95/5 accounting fields (observed p95 bill,
/// binding hours) to every report.
pub fn bandwidth_slack_sweep(
    scenario: &Scenario,
    calibrated: &CalibratedScenario,
    distance_threshold_km: f64,
    multipliers: &[f64],
    tariff: Option<BandwidthTariff>,
) -> Vec<SlackRow> {
    let mut config = scenario.config.clone();
    if let Some(tariff) = tariff {
        config = config.with_bandwidth_tariff(tariff);
    }
    let mut sweep = ScenarioSweep::new(&scenario.clusters, &scenario.trace, &scenario.prices);
    sweep.add_constraint_axis(
        0,
        "pc",
        config,
        multipliers.iter().enumerate().map(|(i, &m)| {
            (format!("{i}"), calibrated.constraints(&scenario.config.constraints, m))
        }),
        move || PriceConsciousPolicy::with_distance_threshold(distance_threshold_km),
    );
    let grid = sweep.execute(RunOptions::new());
    multipliers
        .iter()
        .enumerate()
        .map(|(i, &multiplier)| {
            let report = grid.get(&format!("pc@{i}")).expect("point ran").clone();
            SlackRow {
                multiplier,
                savings_percent: report.savings_percent_vs(calibrated.baseline()),
                binding_hours: report.total_bandwidth_binding_hours,
                report,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_ordered() {
        assert!(price_window().len_hours() > 24 * 200);
        assert!(long_simulation_window().len_hours() >= 24 * 100);
    }

    #[test]
    fn table_printing_does_not_panic() {
        banner("FigX", "smoke test");
        print_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4444".into()]],
        );
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn sweeps_produce_rows() {
        // Tiny scenario to keep the unit test quick.
        let start = SimHour::from_date(2008, 12, 19);
        let scenario = Scenario::custom_window(3, HourRange::new(start, start.plus_hours(24)))
            .with_energy(EnergyModelParams::optimistic_future());
        let baseline = scenario.baseline_report();
        let caps: Vec<f64> = baseline.clusters.iter().map(|c| c.p95_hits_per_sec).collect();
        let rows = distance_threshold_sweep(&scenario, &baseline, &caps, &[0.0, 1500.0]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].normalized_cost_relaxed <= rows[0].normalized_cost_relaxed + 1e-9);
        let delays = reaction_delay_sweep(&scenario, 1500.0, &[0, 3]);
        assert_eq!(delays.len(), 2);
        assert!((delays[0].1).abs() < 1e-9);
    }

    #[test]
    fn slack_sweep_is_anchored_by_the_unconstrained_run() {
        let start = SimHour::from_date(2008, 12, 19);
        let scenario = Scenario::custom_window(3, HourRange::new(start, start.plus_hours(36)))
            .with_energy(EnergyModelParams::optimistic_future());
        let calibrated = CalibratedScenario::calibrate(&scenario);
        let rows = bandwidth_slack_sweep(
            &scenario,
            &calibrated,
            1500.0,
            &[1.0, f64::INFINITY],
            Some(BandwidthTariff::default_cdn()),
        );
        assert_eq!(rows.len(), 2);
        assert!(rows[0].report.bandwidth_constrained);
        assert!(!rows[1].report.bandwidth_constrained);
        assert!(rows[1].savings_percent >= rows[0].savings_percent - 1e-9);
        // The tariff prices every run, constrained or not.
        assert!(rows.iter().all(|r| r.report.total_bandwidth_cost_dollars > 0.0));
        // Binding hours only exist where caps do.
        assert_eq!(rows[1].binding_hours, 0.0);
    }

    #[test]
    fn deployment_sweep_produces_one_row_per_deployment() {
        let start = SimHour::from_date(2008, 12, 19);
        let scenario = Scenario::custom_window(3, HourRange::new(start, start.plus_hours(24)))
            .with_energy(EnergyModelParams::optimistic_future());
        let nine = scenario.clusters.clone();
        let rebalanced = nine.scaled(0.8);
        let rows = deployment_savings_sweep(
            &[("nine".into(), nine), ("rebalanced".into(), rebalanced)],
            &scenario.trace,
            &scenario.prices,
            &scenario.config,
            1500.0,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "nine");
        assert_eq!(rows[0].clusters, 9);
        assert!(rows.iter().all(|r| r.baseline_cost_dollars > 0.0));
        assert!(rows.iter().all(|r| r.mean_distance_km >= 0.0));
    }
}
