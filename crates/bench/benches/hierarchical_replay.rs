//! Criterion benchmark: hierarchical replay throughput at CDN scale.
//!
//! Three tree sizes — the paper's 29-hub world embedded one-site-per-metro,
//! a 200-site build-out, and a 1000-site deployment — each replayed over
//! the same two-day trace, sequentially and sharded. Each shard is a
//! `SimulationEngine` over its region, whose epoch cache keeps per-step
//! work to accumulating adds, so throughput should scale near-linearly in
//! site count rather than in (sites × steps × power-model evaluations).

use criterion::{criterion_group, criterion_main, Criterion};
use wattroute::hierarchy::HierarchicalReplay;
use wattroute::prelude::*;
use wattroute_geo::topology::Topology;
use wattroute_market::generator::PriceGenerator;
use wattroute_market::model::MarketModel;
use wattroute_market::time::SimHour;
use wattroute_routing::policy::RoutingPolicy;

fn make_policy() -> Box<dyn RoutingPolicy> {
    Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))
}

fn bench_hierarchical_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchical_replay");
    group.sample_size(10);

    let start = SimHour::from_date(2008, 12, 19);
    let window = HourRange::new(start, start.plus_hours(2 * 24));
    let trace = SyntheticWorkloadConfig::default().generate(window);
    let prices = PriceGenerator::new(MarketModel::calibrated(), 7).realtime_hourly(window);
    let config = SimulationConfig::default().with_reallocation_interval(12);

    for sites in [29usize, 200, 1000] {
        let topology = Topology::synthetic(7, sites).with_tier_slack(1.1);
        group.bench_function(&format!("two_days_{sites}_sites_sequential"), |b| {
            let replay = HierarchicalReplay::new(&topology, &trace, &prices, config.clone());
            b.iter(|| replay.run(&make_policy));
        });
        group.bench_function(&format!("two_days_{sites}_sites_sharded"), |b| {
            let replay = HierarchicalReplay::new(&topology, &trace, &prices, config.clone());
            b.iter(|| replay.run_sharded(&make_policy));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_hierarchical_replay);
criterion_main!(benches);
