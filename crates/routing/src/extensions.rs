//! Future-work policies sketched in §8 of the paper.
//!
//! * [`CarbonAwarePolicy`] — "a socially responsible service operator may
//!   instead choose to use an environmental impact cost function": identical
//!   machinery to the price optimizer, but the per-cluster cost vector is a
//!   time-varying carbon intensity (tCO₂/MWh) instead of a dollar price.
//! * [`JointCostPolicy`] — "existing systems already have frameworks in
//!   place that engineer traffic to optimize for bandwidth costs,
//!   performance and reliability. Dynamic energy costs represent another
//!   input that should be integrated into such frameworks": a weighted
//!   scalarisation of electricity price and client-server distance, the
//!   simplest form of that joint optimisation.

use crate::allocation::Allocation;
use crate::policy::{
    assign_by_preference_into, AssignWorkspace, RoutingContext, RoutingKey, RoutingPolicy,
    WholeOrders,
};
use crate::price_conscious::{CompiledPreferences, ThresholdRouter};
use wattroute_geo::distance::RankedHub;

/// Route to the cluster whose grid currently has the lowest carbon
/// intensity, subject to a distance threshold — the §8 "Environmental Cost"
/// idea on the price optimizer's own machinery: the same split of the
/// context's geometry and the same lazily ranked memo, keyed on the
/// intensity row and threshold instead of the price row and threshold.
#[derive(Debug, Clone)]
pub struct CarbonAwarePolicy {
    /// Maximum client-to-cluster distance in km.
    pub distance_threshold_km: f64,
    /// Carbon intensity per cluster in tCO₂/MWh for the current hour,
    /// aligned with cluster order. Updated by the caller each step.
    pub carbon_intensity: Vec<f64>,
    /// Intensity differences below this threshold (tCO₂/MWh) are ignored and
    /// the nearer cluster wins.
    pub intensity_threshold: f64,
    router: ThresholdRouter,
}

impl CarbonAwarePolicy {
    /// Create a carbon-aware policy.
    pub fn new(distance_threshold_km: f64, carbon_intensity: Vec<f64>) -> Self {
        Self {
            distance_threshold_km,
            carbon_intensity,
            intensity_threshold: 0.02,
            router: ThresholdRouter::default(),
        }
    }
}

impl RoutingPolicy for CarbonAwarePolicy {
    fn name(&self) -> &str {
        "carbon-aware"
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        assert_eq!(
            self.carbon_intensity.len(),
            ctx.clusters.len(),
            "carbon intensities must align with the deployment"
        );
        let Self { distance_threshold_km, carbon_intensity, intensity_threshold, router } = self;
        router.route(out, ctx, *distance_threshold_km, carbon_intensity, *intensity_threshold);
    }

    fn routing_key(&self) -> Option<RoutingKey> {
        // Field by field, so a new field must be keyed before it compiles;
        // the router's split, memo and scratch never change an
        // allocation.
        let Self { distance_threshold_km, carbon_intensity, intensity_threshold, router: _ } = self;
        Some(
            RoutingKey::of::<Self>()
                .with(*distance_threshold_km)
                .with_all(carbon_intensity)
                .with(*intensity_threshold),
        )
    }
}

/// Reused scoring buffers for [`JointCostPolicy`]: the scored list the
/// per-state ranking sorts in place, and the call's orders, state after
/// state.
#[derive(Debug, Clone, Default)]
struct JointScratch {
    scored: Vec<RankedHub>,
    orders: Vec<usize>,
}

/// Minimise `price + distance_weight · distance_km`, i.e. fold the network
/// proximity objective and the electricity price into one scalar cost.
#[derive(Debug, Clone, Default)]
pub struct JointCostPolicy {
    /// Dollars-per-MWh-equivalent penalty applied per km of client-server
    /// distance. `0.0` reduces to pure price optimisation; large values
    /// reduce to nearest-cluster routing.
    pub distance_weight: f64,
    workspace: AssignWorkspace,
    scratch: JointScratch,
}

impl JointCostPolicy {
    /// Create a joint policy with the given distance weight.
    pub fn new(distance_weight: f64) -> Self {
        assert!(distance_weight >= 0.0, "distance weight must be non-negative");
        Self { distance_weight, ..Default::default() }
    }
}

impl RoutingPolicy for JointCostPolicy {
    fn name(&self) -> &str {
        "joint-price-distance"
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        let Self { distance_weight, workspace, scratch } = self;
        let geometry: &CompiledPreferences = ctx.geometry;
        let w = *distance_weight;
        let n_clusters = ctx.clusters.len();
        let JointScratch { scored, orders } = scratch;
        orders.clear();
        for state_idx in 0..ctx.states().len() {
            // Score in cluster-index order, so equal scores keep the
            // cluster-order tie-break of a stable sort.
            scored.clear();
            scored.extend(
                (0..n_clusters).map(|i| (i, ctx.prices[i] + w * geometry.km(i, state_idx))),
            );
            scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"));
            orders.extend(scored.iter().map(|(i, _)| *i));
        }
        let orders = &orders[..];
        let mut cheapest_first =
            WholeOrders::new(|state| &orders[state * n_clusters..(state + 1) * n_clusters]);
        assign_by_preference_into(ctx, workspace, out, &mut cheapest_first);
    }

    fn routing_key(&self) -> Option<RoutingKey> {
        let Self { distance_weight, workspace: _, scratch: _ } = self;
        Some(RoutingKey::of::<Self>().with(*distance_weight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_geo::{HubId, UsState};
    use wattroute_market::time::SimHour;
    use wattroute_workload::ClusterSet;

    use std::sync::Arc;

    fn ctx<'a>(
        clusters: &'a ClusterSet,
        geometry: &'a Arc<CompiledPreferences>,
        demand: &'a [f64],
        prices: &'a [f64],
    ) -> RoutingContext<'a> {
        RoutingContext::new(clusters, geometry, demand, prices, SimHour(0))
    }

    /// The geometry of a deployment and state list, as an engine compiles it.
    fn compile(clusters: &ClusterSet, states: &[UsState]) -> Arc<CompiledPreferences> {
        Arc::new(CompiledPreferences::build(clusters, states))
    }

    #[test]
    fn carbon_aware_prefers_clean_grid_within_threshold() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let prices = vec![50.0; 9];
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        let nyc = clusters.index_of_hub(HubId::NewYorkNy).unwrap();
        let mut intensity = vec![0.6; 9];
        intensity[boston] = 0.55;
        intensity[nyc] = 0.20; // NYC grid is much cleaner this hour
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let mut policy = CarbonAwarePolicy::new(1500.0, intensity);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[nyc][0], 1000.0);
        assert_eq!(policy.name(), "carbon-aware");
    }

    #[test]
    fn carbon_ties_go_to_nearer_cluster() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let prices = vec![50.0; 9];
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        // All intensities within the 0.02 threshold of each other.
        let intensity = vec![0.50; 9];
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let mut policy = CarbonAwarePolicy::new(1500.0, intensity);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[boston][0], 1000.0);
    }

    #[test]
    fn carbon_distance_threshold_is_enforced() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let prices = vec![50.0; 9];
        let pa = clusters.index_of_hub(HubId::PaloAltoCa).unwrap();
        let mut intensity = vec![0.6; 9];
        intensity[pa] = 0.0; // hydro-clean but across the country
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let mut policy = CarbonAwarePolicy::new(1500.0, intensity);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[pa][0], 0.0);
        assert!(a.serves_demand(&demand, 1e-9));
    }

    #[test]
    #[should_panic(expected = "align with the deployment")]
    fn carbon_length_mismatch_panics() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1.0];
        let prices = vec![50.0; 9];
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let mut policy = CarbonAwarePolicy::new(1000.0, vec![0.5; 3]);
        let _ = policy.allocate(&c);
    }

    #[test]
    fn joint_policy_interpolates_between_price_and_distance() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        let austin = clusters.index_of_hub(HubId::AustinTx).unwrap();
        let mut prices = vec![80.0; 9];
        prices[austin] = 20.0;
        prices[boston] = 75.0;
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);

        // Pure price: Austin wins despite the distance.
        let a_price = JointCostPolicy::new(0.0).allocate(&c);
        assert_eq!(a_price.matrix()[austin][0], 1000.0);

        // Heavy distance weight: Boston wins.
        let a_dist = JointCostPolicy::new(10.0).allocate(&c);
        assert_eq!(a_dist.matrix()[boston][0], 1000.0);

        // Intermediate weight: $60 price advantage vs ~2700 km extra
        // distance. At $0.01/km the distance penalty (~$27) is smaller than
        // the price advantage, so Austin still wins; at $0.05/km it is not.
        let a_mid_low = JointCostPolicy::new(0.01).allocate(&c);
        assert_eq!(a_mid_low.matrix()[austin][0], 1000.0);
        let a_mid_high = JointCostPolicy::new(0.05).allocate(&c);
        assert_eq!(a_mid_high.matrix()[boston][0], 1000.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_distance_weight_rejected() {
        let _ = JointCostPolicy::new(-1.0);
    }

    #[test]
    fn joint_orders_match_a_fresh_haversine_scoring_bit_for_bit() {
        use crate::policy::assign_by_preference;
        use wattroute_geo::{hubs, state_to_hub_km};
        // Small clusters, so the pour walks deep into each order; the
        // 29-hub deployment puts many clusters at similar scores.
        for clusters in [ClusterSet::akamai_like_nine(), ClusterSet::even_29_hub(1000)] {
            let clusters = clusters.scaled(0.02);
            let states: Vec<UsState> = UsState::all().collect();
            let geometry = compile(&clusters, &states);
            let demand: Vec<f64> = (0..states.len()).map(|i| 300.0 + 41.0 * i as f64).collect();
            let prices: Vec<f64> =
                (0..clusters.len()).map(|c| 20.0 + ((c * 37) % 23) as f64).collect();
            let c = ctx(&clusters, &geometry, &demand, &prices);
            for weight in [0.0, 0.004, 0.02, 10.0] {
                // Every cluster scored afresh in cluster order, then
                // stable-sorted: the ranking the policy replaced.
                let expected = assign_by_preference(&c, |_, state| {
                    let mut scored: Vec<RankedHub> = clusters
                        .clusters()
                        .iter()
                        .enumerate()
                        .map(|(i, cl)| {
                            (i, prices[i] + weight * state_to_hub_km(state, hubs::hub(cl.hub)))
                        })
                        .collect();
                    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"));
                    scored.into_iter().map(|(i, _)| i).collect()
                });
                let got = JointCostPolicy::new(weight).allocate(&c);
                let bits = |a: &Allocation| -> Vec<u64> {
                    a.matrix().iter().flatten().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&expected), "weight {weight}");
            }
        }
    }

    #[test]
    fn joint_shared_preferences_allocate_identically_without_recompiling() {
        let clusters = ClusterSet::akamai_like_nine();
        let states: Vec<UsState> = UsState::all().collect();
        let demand: Vec<f64> = (0..states.len()).map(|i| 100.0 + 29.0 * i as f64).collect();
        let prices: Vec<f64> = (0..9).map(|i| 25.0 + 9.0 * i as f64).collect();
        let shared = compile(&clusters, &states);

        // One instance per weight routes the shared geometry twice, and
        // matches a fresh instance over a geometry of its own.
        for weight in [0.0, 0.01, 0.05, 10.0] {
            let own = compile(&clusters, &states);
            let alone =
                JointCostPolicy::new(weight).allocate(&ctx(&clusters, &own, &demand, &prices));
            let mut borrowed = JointCostPolicy::new(weight);
            for _ in 0..2 {
                let b = borrowed.allocate(&ctx(&clusters, &shared, &demand, &prices));
                assert_eq!(alone.matrix(), b.matrix(), "weight {weight}");
            }
        }
    }
}
