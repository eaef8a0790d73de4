//! Deployment-placement search (the §6.3 thought experiment, automated):
//! instead of enumerating hand-picked capacity splits like
//! `deployment_grid`, let the optimizer *search* the space — the
//! nine-cluster budget spread over the nine original hubs plus six extra
//! candidate hubs in cheap midwestern/southern markets. Both strategies
//! run on the same grid; the table reports objective improvements,
//! evaluation throughput and how hard the compiled-artifact cache worked.
//!
//! Pass `--json` to also dump each strategy's full `OptimizerReport`
//! audit trail (every candidate, every objective term) to stdout.

use std::time::Instant;
use wattroute::objective::Objective;
use wattroute::prelude::*;
use wattroute_bench::{banner, fmt, full_mode, print_table, HARNESS_SEED};
use wattroute_energy::model::EnergyModelParams;
use wattroute_geo::HubId;
use wattroute_market::generator::PriceGenerator;
use wattroute_market::model::MarketModel;
use wattroute_optimizer::{
    CandidateHub, DeploymentOptimizer, GreedyDescent, LocalSearch, OptimizerReport,
    OptimizerStrategy, SearchBudget, SearchSpace, SweepEvaluator,
};
use wattroute_workload::derive::WeeklyProfile;

/// Capacity quantum: one search move shifts this many servers.
const QUANTUM: u32 = 800;

fn main() {
    banner("Deployment optimizer", "Searching capacity splits over candidate hubs");
    let emit_json = std::env::args().any(|a| a == "--json");
    let constrained_mode = std::env::args().any(|a| a == "--constrained");

    let range = if full_mode() {
        HourRange::new(SimHour::from_date(2008, 1, 1), SimHour::from_date(2008, 7, 1))
    } else {
        HourRange::akamai_24_days()
    };
    let trace = if full_mode() {
        let base = SyntheticWorkloadConfig { seed: HARNESS_SEED, ..Default::default() }
            .generate(HourRange::akamai_24_days());
        WeeklyProfile::from_trace(&base)
            .expect("24-day trace covers every hour-of-week")
            .replay(range)
    } else {
        SyntheticWorkloadConfig { seed: HARNESS_SEED, ..Default::default() }.generate(range)
    };
    // Calibrated prices for *all* market hubs, so the search may activate
    // hubs the nine-cluster deployment never used.
    let prices =
        PriceGenerator::new(MarketModel::calibrated(), HARNESS_SEED).realtime_hourly(range);
    let mut config = SimulationConfig::default()
        .with_energy(EnergyModelParams::optimistic_future())
        // Turned-away demand must be visible to the objective, not billed
        // away silently.
        .with_overflow(OverflowMode::Reject);
    if full_mode() {
        config = config.with_reallocation_interval(12);
    }

    // Candidates: the nine original hubs (seeded with the incumbent
    // split) plus six extra hubs in historically cheaper markets.
    let nine = ClusterSet::akamai_like_nine();
    let (nine_space, nine_split) = SearchSpace::from_deployment(&nine, QUANTUM);
    let mut hubs = nine_space.hubs().to_vec();
    for (label, hub) in [
        ("MN", HubId::MinneapolisMn),
        ("MO", HubId::StLouisMo),
        ("OH", HubId::ColumbusOh),
        ("TX3", HubId::HoustonTx),
        ("DC", HubId::WashingtonDc),
        ("PA", HubId::PittsburghPa),
    ] {
        hubs.push(CandidateHub::new(label, hub));
    }
    let space = SearchSpace::new(hubs, nine_space.total_units(), QUANTUM);
    let mut start = nine_split;
    start.resize(space.num_hubs(), 0);

    let objective = Objective::default_qos();
    let optimizer = DeploymentOptimizer::new(space.clone())
        .with_objective(objective.clone())
        .with_budget(SearchBudget { max_evaluations: 400, ..SearchBudget::default() })
        .with_start(start);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut reports: Vec<OptimizerReport> = Vec::new();
    // One evaluator (and compiled-artifact cache) per strategy, kept
    // alive so a constrained re-run can share the warmed cache.
    let mut evaluators: Vec<SweepEvaluator<'_>> = Vec::new();
    let strategies: Vec<Box<dyn OptimizerStrategy>> =
        vec![Box::new(GreedyDescent::default()), Box::new(LocalSearch::seeded(HARNESS_SEED))];
    for mut strategy in strategies {
        let mut evaluator = SweepEvaluator::new(&trace, &prices, config.clone());
        let started = Instant::now();
        let report = optimizer.run(strategy.as_mut(), &mut evaluator);
        let elapsed = started.elapsed().as_secs_f64();
        evaluators.push(evaluator);
        rows.push(vec![
            report.strategy.clone(),
            report.evaluations.to_string(),
            fmt(report.evaluations as f64 / elapsed, 1),
            format!("${}", fmt(report.start.total_dollars(), 0)),
            format!("${}", fmt(report.best.total_dollars(), 0)),
            format!("{}%", fmt(report.improvement_percent(), 2)),
            format!("{}%", fmt(report.cache.hit_rate().unwrap_or(0.0) * 100.0, 1)),
            report.cache.hub_lists_compiled.to_string(),
            report.best_hubs.join("+"),
        ]);
        reports.push(report);
    }

    print_table(
        &[
            "strategy",
            "evals",
            "evals/s",
            "start obj",
            "best obj",
            "improved",
            "cache hits",
            "hub lists",
            "best hubs",
        ],
        &rows,
    );
    println!();
    println!(
        "Objective: energy dollars + ${}/Mhit SLA penalty on rejected demand",
        objective.sla_penalty_per_mhit
    );
    println!(
        "(capacity quantum {QUANTUM} servers, {} candidate hubs, {} units)",
        space.num_hubs(),
        space.total_units()
    );
    println!("Reading: the search sheds capacity from expensive north-eastern hubs toward");
    println!("cheap midwestern/southern candidates, beating every hand-picked deployment_grid");
    println!("split — and nearly every evaluation reuses the compiled-artifact cache, since");
    println!("capacity-only moves never change the hub list.");

    if constrained_mode {
        // The same search *under calibrated 95/5 caps*: one baseline pass
        // over the incumbent nine-cluster deployment fixes per-hub
        // bandwidth ceilings (hubs the baseline never used stay
        // unconstrained — a fresh hub would negotiate a fresh contract),
        // and every candidate is simulated with those caps resolved
        // against its own active hubs. Constraints are run-state, not
        // compiled geometry, so each constrained search runs on its
        // unconstrained sibling's *warmed* evaluator: every artifact the
        // first pass compiled is reused, and the cumulative cache hit
        // rate can only rise.
        let scenario = wattroute::scenario::Scenario {
            clusters: nine.clone(),
            trace: trace.clone(),
            prices: prices.clone(),
            config: config.clone(),
        };
        let calibrated = CalibratedScenario::calibrate(&scenario);
        let hub_caps = calibrated.hub_caps(1.0);

        println!();
        println!("Constrained search (calibrated 95/5 caps @ 1.0x on the nine incumbent hubs):");
        let mut constrained_rows: Vec<Vec<String>> = Vec::new();
        let strategies: Vec<Box<dyn OptimizerStrategy>> =
            vec![Box::new(GreedyDescent::default()), Box::new(LocalSearch::seeded(HARNESS_SEED))];
        for ((mut strategy, unconstrained), evaluator) in
            strategies.into_iter().zip(&reports).zip(evaluators.iter_mut())
        {
            evaluator.set_hub_caps(Some(hub_caps.clone()));
            let report = optimizer.run(strategy.as_mut(), evaluator);
            let hit_rate = report.cache.hit_rate().unwrap_or(0.0);
            let unconstrained_hit_rate = unconstrained.cache.hit_rate().unwrap_or(0.0);
            assert!(
                hit_rate >= unconstrained_hit_rate - 1e-12,
                "{}: calibrated caps must not invalidate CompiledArtifacts reuse \
                 (constrained hit rate {hit_rate:.4} < unconstrained {unconstrained_hit_rate:.4})",
                report.strategy,
            );
            constrained_rows.push(vec![
                report.strategy.clone(),
                report.evaluations.to_string(),
                format!("${}", fmt(report.best.total_dollars(), 0)),
                format!("{}%", fmt(report.improvement_percent(), 2)),
                format!("{}%", fmt(hit_rate * 100.0, 1)),
                format!("{}%", fmt(unconstrained_hit_rate * 100.0, 1)),
                report.best_hubs.join("+"),
            ]);
            if emit_json {
                println!("{}", report.to_json());
            }
        }
        print_table(
            &["strategy", "evals", "best obj", "improved", "cache hits", "(uncon.)", "best hubs"],
            &constrained_rows,
        );
        println!("checked: constrained cache hit rate >= unconstrained, per strategy");
    }

    if emit_json {
        for report in &reports {
            println!("{}", report.to_json());
        }
    }
}
