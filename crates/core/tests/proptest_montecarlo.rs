//! Property-based determinism contracts for the Monte Carlo engine.
//!
//! Two pins from the module docs ([`wattroute::montecarlo`]):
//!
//! 1. an `n_paths = 1` run of path `k` is **bit-identical** to a direct
//!    [`Simulation`] replay of the prices a fresh [`PriceGenerator`] draws
//!    under [`path_seed`]`(master, k)` — the workspace-reuse machinery
//!    (engine snapshot restore, flat billing buffer, shared compiled
//!    preferences) must be invisible in the numbers;
//! 2. the aggregate [`SavingsDistribution`] is **byte-identical** across
//!    worker-thread counts — a path's prices depend only on
//!    `(model, master_seed, k, range)`, never on which thread drew them.

use proptest::prelude::*;
use wattroute::montecarlo::MonteCarlo;
use wattroute::prelude::*;
use wattroute_market::generator::{path_seed, PriceGenerator};
use wattroute_market::time::{HourRange, SimHour};

/// A window shorter than the largest sampled reaction delay, so the
/// lead-hour clamp is exercised; built without a [`Scenario`] because these
/// properties draw their own price paths and would waste a full price-set
/// generation per case.
fn day_window() -> HourRange {
    let start = SimHour::from_date(2008, 6, 1);
    HourRange::new(start, start.plus_hours(18))
}

fn workload(range: HourRange) -> (ClusterSet, Trace) {
    let clusters = ClusterSet::akamai_like_nine();
    let trace = SyntheticWorkloadConfig { seed: 11, ..Default::default() }.generate(range);
    (clusters, trace)
}

proptest! {
    #[test]
    fn single_path_reproduces_a_direct_simulation_replay(
        master in 0u64..512,
        k in 0u64..64,
        delay in 0u64..30,
        realloc in prop::sample::select(vec![1usize, 5, 12]),
    ) {
        let range = day_window();
        let (clusters, trace) = workload(range);
        let config = SimulationConfig::default()
            .with_reaction_delay(delay)
            .with_reallocation_interval(realloc);
        let model = MarketModel::calibrated().restricted_to(&clusters.hub_ids());

        // Reference: draw path k's prices directly and run the batch driver.
        let prices =
            PriceGenerator::new(model.clone(), path_seed(master, k)).realtime_hourly(range);
        let sim = Simulation::new(&clusters, &trace, &prices, config.clone());
        let optimized = sim.execute(&mut PriceConsciousPolicy::with_distance_threshold(1500.0));
        let baseline = sim.execute(&mut AkamaiLikePolicy::default());

        let dist = MonteCarlo::new(&clusters, &trace, model, config, master)
            .with_paths(1)
            .with_first_path(k)
            .with_threads(1)
            .run();

        prop_assert_eq!(dist.per_path.len(), 1);
        let path = &dist.per_path[0];
        prop_assert_eq!(path.path, k);
        prop_assert_eq!(path.seed, path_seed(master, k));
        // Bit-for-bit, not approximately: the engine restores to a pristine
        // snapshot and the billing buffer indexes exactly like the table.
        prop_assert_eq!(path.cost_dollars, optimized.total_cost_dollars);
        prop_assert_eq!(path.baseline_cost_dollars, baseline.total_cost_dollars);
        prop_assert_eq!(path.savings_percent, optimized.savings_percent_vs(&baseline));
        prop_assert_eq!(
            path.unserved_hits,
            optimized.total_overflow_hits + optimized.total_rejected_hits
        );
        prop_assert_eq!(path.mean_distance_km, optimized.mean_distance_km);
        prop_assert_eq!(path.bandwidth_cost_dollars, optimized.total_bandwidth_cost_dollars);
        // One sample collapses every band statistic onto the one replay.
        prop_assert_eq!(dist.bill.p50, optimized.total_cost_dollars);
        prop_assert_eq!(dist.baseline_bill.p50, baseline.total_cost_dollars);
        prop_assert_eq!(dist.clusters.len(), optimized.clusters.len());
        for (band, cluster) in dist.clusters.iter().zip(&optimized.clusters) {
            prop_assert_eq!(&band.label, &cluster.label);
            prop_assert_eq!(band.cost.mean, cluster.cost_dollars);
        }
    }

    #[test]
    fn aggregate_json_is_invariant_to_worker_thread_count(
        master in 0u64..512,
        n_paths in 1usize..6,
        delay in 0u64..30,
    ) {
        let (clusters, trace) = workload(day_window());
        let config = SimulationConfig::default().with_reaction_delay(delay);
        let model = MarketModel::calibrated().restricted_to(&clusters.hub_ids());

        let run = |threads: usize| {
            MonteCarlo::new(&clusters, &trace, model.clone(), config.clone(), master)
                .with_paths(n_paths)
                .with_threads(threads)
                .run()
        };
        let serial = run(1);
        let parallel = run(4);
        prop_assert_eq!(&serial, &parallel, "distribution differs across thread counts");
        prop_assert_eq!(serial.to_json(), parallel.to_json());
    }
}
