//! Property-based tests for the price-conscious optimizer's allocation
//! invariants: for arbitrary prices, demands, thresholds, and bandwidth
//! regimes, a feasible step (total demand within the deployment's effective
//! ceilings) is always served in full without overrunning any ceiling.

use proptest::prelude::*;
use std::sync::Arc;
use wattroute_geo::UsState;
use wattroute_market::time::SimHour;
use wattroute_routing::allocation::Allocation;
use wattroute_routing::baseline::{AkamaiLikePolicy, NearestClusterPolicy, StaticCheapestPolicy};
use wattroute_routing::constraints::{ConstraintSet, OverflowMode};
use wattroute_routing::extensions::CarbonAwarePolicy;
use wattroute_routing::policy::{RoutingContext, RoutingPolicy};
use wattroute_routing::price_conscious::{CompiledPreferences, PriceConsciousPolicy};
use wattroute_workload::ClusterSet;

const N_CLUSTERS: usize = 9;

fn states() -> Vec<UsState> {
    UsState::all().collect()
}

/// Per-cluster prices in a realistic $/MWh band (negative prices included —
/// RTOs do clear below zero).
fn prices() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-20.0f64..500.0, N_CLUSTERS..N_CLUSTERS + 1)
}

/// Raw per-state demand weights, later scaled to a feasible total.
fn demand_weights() -> impl Strategy<Value = Vec<f64>> {
    let n = states().len();
    prop::collection::vec(0.0f64..1.0, n..n + 1)
}

/// Scale raw weights so total demand is `fill` of the given total ceiling.
fn scale_demand(weights: &[f64], ceiling_total: f64, fill: f64) -> Vec<f64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        return vec![0.0; weights.len()];
    }
    let scale = ceiling_total * fill / sum;
    weights.iter().map(|w| w * scale).collect()
}

proptest! {
    #[test]
    fn feasible_demand_is_fully_served_within_capacity(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
        fill in 0.05f64..0.95,
    ) {
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let total_cap: f64 =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).sum();
        let demand = scale_demand(&weights, total_cap, fill);

        let geometry = Arc::new(CompiledPreferences::build(&clusters, &states));
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &price_vec, SimHour(0));
        let mut policy = PriceConsciousPolicy::with_distance_threshold(threshold);
        let allocation = policy.allocate(&ctx);

        prop_assert!(
            allocation.serves_demand(&demand, 1e-6),
            "threshold {threshold}: allocation must serve all feasible demand"
        );
        let loads = allocation.cluster_loads();
        for (c, load) in loads.iter().enumerate() {
            let cap = clusters.get(c).unwrap().capacity_hits_per_sec();
            prop_assert!(
                *load <= cap * (1.0 + 1e-9) + 1e-6,
                "cluster {c} overloaded: {load} > {cap}"
            );
        }
    }

    #[test]
    fn feasible_demand_respects_bandwidth_caps(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
        cap_fracs in prop::collection::vec(0.3f64..1.2, N_CLUSTERS..N_CLUSTERS + 1),
        fill in 0.05f64..0.9,
    ) {
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let bw_caps: Vec<f64> = clusters
            .clusters()
            .iter()
            .zip(&cap_fracs)
            .map(|(c, frac)| c.capacity_hits_per_sec() * frac)
            .collect();
        // The effective ceiling per cluster is min(capacity, bandwidth cap).
        let effective: Vec<f64> = clusters
            .clusters()
            .iter()
            .zip(&bw_caps)
            .map(|(c, bw)| c.capacity_hits_per_sec().min(*bw))
            .collect();
        let demand = scale_demand(&weights, effective.iter().sum(), fill);

        let geometry = Arc::new(CompiledPreferences::build(&clusters, &states));
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &price_vec, SimHour(0))
            .with_bandwidth_caps(bw_caps);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(threshold);
        let allocation = policy.allocate(&ctx);

        prop_assert!(allocation.serves_demand(&demand, 1e-6));
        let loads = allocation.cluster_loads();
        for (c, load) in loads.iter().enumerate() {
            prop_assert!(
                *load <= effective[c] * (1.0 + 1e-9) + 1e-6,
                "cluster {c} exceeds its effective (capacity ∧ 95/5) ceiling: {load} > {}",
                effective[c]
            );
        }
    }

    #[test]
    fn any_derived_constraint_set_is_respected_by_every_policy(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
        cap_fracs in prop::collection::vec(0.3f64..1.2, N_CLUSTERS..N_CLUSTERS + 1),
        overflow in prop::sample::select(
            vec![OverflowMode::BillAtCapacity, OverflowMode::Reject]
        ),
        fill in 0.05f64..0.9,
    ) {
        // A ConstraintSet of the general shape a calibration pass derives:
        // 95/5 bandwidth caps (possibly above nominal — routing still
        // clamps at nominal capacity) and either overflow mode. No feasible
        // allocation may ever exceed any cluster's effective (capacity ∧
        // bandwidth) cap, for the baseline policies and the
        // price-conscious optimizer alike.
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let nominal: Vec<f64> =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).collect();
        let bw_caps: Vec<f64> = nominal.iter().zip(&cap_fracs).map(|(n, f)| n * f).collect();
        let set = ConstraintSet::unconstrained()
            .with_bandwidth_caps(bw_caps.clone())
            .with_overflow(overflow);

        let effective: Vec<f64> = (0..N_CLUSTERS)
            .map(|c| set.effective_cap(c, nominal[c]))
            .collect();
        let demand = scale_demand(&weights, effective.iter().sum(), fill);
        let geometry = Arc::new(CompiledPreferences::build(&clusters, &states));
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &price_vec, SimHour(0))
            .with_constraints(&set);

        let mean_prices = price_vec.clone();
        let mut policies: Vec<Box<dyn RoutingPolicy>> = vec![
            Box::new(NearestClusterPolicy::new()),
            Box::new(StaticCheapestPolicy::new(mean_prices)),
            Box::new(PriceConsciousPolicy::with_distance_threshold(threshold)),
        ];
        for policy in &mut policies {
            let allocation = policy.allocate(&ctx);
            prop_assert!(
                allocation.serves_demand(&demand, 1e-6),
                "{}: feasible demand must be fully served",
                policy.name()
            );
            for (c, load) in allocation.cluster_loads().iter().enumerate() {
                prop_assert!(
                    *load <= effective[c] * (1.0 + 1e-9) + 1e-6,
                    "{}: cluster {c} exceeds its effective cap: {load} > {} (overflow {overflow:?})",
                    policy.name(),
                    effective[c]
                );
            }
        }
    }

    #[test]
    fn infeasible_demand_is_still_fully_served(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
        overfill in 1.1f64..5.0,
    ) {
        // The paper treats capacity as a soft planning constraint: requests
        // must land somewhere even when the deployment is over-subscribed
        // (the simulator's overflow accounting makes that visible).
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let total_cap: f64 =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).sum();
        let demand = scale_demand(&weights, total_cap, overfill);

        let geometry = Arc::new(CompiledPreferences::build(&clusters, &states));
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &price_vec, SimHour(0));
        let mut policy = PriceConsciousPolicy::with_distance_threshold(threshold);
        let allocation = policy.allocate(&ctx);
        prop_assert!(allocation.serves_demand(&demand, 1e-6));
    }

    #[test]
    fn repeat_allocations_with_compiled_candidates_are_deterministic(
        weights in demand_weights(),
        price_vec in prices(),
        threshold in 0.0f64..6000.0,
    ) {
        // The policy derives per-threshold candidate structures from the
        // context's geometry on first use; a fresh policy must produce the
        // same allocation as a warmed one.
        let clusters = ClusterSet::akamai_like_nine();
        let states = states();
        let total_cap: f64 =
            clusters.clusters().iter().map(|c| c.capacity_hits_per_sec()).sum();
        let demand = scale_demand(&weights, total_cap, 0.5);
        let geometry = Arc::new(CompiledPreferences::build(&clusters, &states));
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &price_vec, SimHour(0));

        let mut warmed = PriceConsciousPolicy::with_distance_threshold(threshold);
        let first = warmed.allocate(&ctx);
        let second = warmed.allocate(&ctx);
        let mut fresh = PriceConsciousPolicy::with_distance_threshold(threshold);
        let cold = fresh.allocate(&ctx);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }
}

/// Every bit of an allocation.
fn bits(a: &Allocation) -> Vec<u64> {
    a.matrix().iter().flatten().map(|x| x.to_bits()).collect()
}

/// One long-lived instance of each policy that derives state from the
/// context's geometry routes the nine-cluster deployment and its reversal
/// alternately — equal size, different hub order — and must allocate on
/// every call exactly as a fresh instance does.
#[test]
fn one_instance_routes_alternating_geometries_like_a_fresh_one() {
    let nine = ClusterSet::akamai_like_nine().scaled(0.05);
    let reversed = ClusterSet::new(nine.clusters().iter().rev().cloned().collect::<Vec<_>>());
    let states = states();
    let deployments = [&nine, &reversed];
    let geometries = deployments.map(|d| Arc::new(CompiledPreferences::build(d, &states)));
    let intensity: Vec<f64> = (0..N_CLUSTERS).map(|c| 0.3 + 0.05 * ((c * 5) % 7) as f64).collect();
    let carbon = |side: usize| {
        let mut row = intensity.clone();
        if side == 1 {
            row.reverse();
        }
        CarbonAwarePolicy::new(1500.0, row)
    };
    let mut price_conscious = PriceConsciousPolicy::with_distance_threshold(1500.0);
    let mut carbon_aware = carbon(0);
    let mut akamai = AkamaiLikePolicy::default();
    for (call, side) in [0, 1, 0, 0, 1, 1, 0, 1].into_iter().enumerate() {
        let (clusters, geometry) = (deployments[side], &geometries[side]);
        let prices: Vec<f64> =
            (0..N_CLUSTERS).map(|c| 20.0 + ((call * 31 + c * 17) % 41) as f64).collect();
        let demand: Vec<f64> = (0..states.len())
            .map(|s| 200.0 + ((call * 7919 + s * 104_729) % 3000) as f64)
            .collect();
        let ctx = RoutingContext::new(clusters, geometry, &demand, &prices, SimHour(call as u64));
        carbon_aware.carbon_intensity = carbon(side).carbon_intensity;
        let pairs: [(&mut dyn RoutingPolicy, Box<dyn RoutingPolicy>); 3] = [
            (&mut price_conscious, Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))),
            (&mut carbon_aware, Box::new(carbon(side))),
            (&mut akamai, Box::new(AkamaiLikePolicy::default())),
        ];
        for (long_lived, mut fresh) in pairs {
            let name = long_lived.name().to_string();
            let mut out = Allocation::zeros(1, 1);
            long_lived.allocate_into(&mut out, &ctx);
            assert_eq!(bits(&out), bits(&fresh.allocate(&ctx)), "{name}, call {call}");
        }
    }
}
