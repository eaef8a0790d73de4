//! Criterion benchmark: per-step latency of the routing policies.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use wattroute_geo::UsState;
use wattroute_market::time::SimHour;
use wattroute_routing::prelude::*;
use wattroute_workload::ClusterSet;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_policies");

    let nine = ClusterSet::akamai_like_nine();
    let twenty_nine = ClusterSet::even_29_hub(800);
    let states: Vec<UsState> = UsState::all().collect();
    let demand: Vec<f64> = states.iter().map(|s| s.population() as f64 / 250.0).collect();
    let prices9: Vec<f64> = (0..9).map(|i| 40.0 + 5.0 * i as f64).collect();
    let prices29: Vec<f64> = (0..29).map(|i| 40.0 + 2.0 * i as f64).collect();
    let geometry9 = Arc::new(CompiledPreferences::build(&nine, &states));
    let geometry29 = Arc::new(CompiledPreferences::build(&twenty_nine, &states));

    group.bench_function("nearest_9_clusters_51_states", |b| {
        let ctx = RoutingContext::new(&nine, &geometry9, &demand, &prices9, SimHour(12));
        let mut policy = NearestClusterPolicy::new();
        b.iter(|| policy.allocate(&ctx));
    });

    group.bench_function("akamai_like_9_clusters_51_states", |b| {
        let ctx = RoutingContext::new(&nine, &geometry9, &demand, &prices9, SimHour(12));
        let mut policy = AkamaiLikePolicy::default();
        b.iter(|| policy.allocate(&ctx));
    });

    group.bench_function("price_conscious_9_clusters_51_states", |b| {
        let ctx = RoutingContext::new(&nine, &geometry9, &demand, &prices9, SimHour(12));
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        b.iter(|| policy.allocate(&ctx));
    });

    group.bench_function("price_conscious_29_clusters_51_states", |b| {
        let ctx = RoutingContext::new(&twenty_nine, &geometry29, &demand, &prices29, SimHour(12));
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        b.iter(|| policy.allocate(&ctx));
    });

    group.bench_function("joint_cost_9_clusters_51_states", |b| {
        let ctx = RoutingContext::new(&nine, &geometry9, &demand, &prices9, SimHour(12));
        let mut policy = JointCostPolicy::new(0.02);
        b.iter(|| policy.allocate(&ctx));
    });

    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
