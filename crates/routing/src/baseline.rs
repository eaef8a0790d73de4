//! Baseline routing policies the paper compares against.
//!
//! * [`NearestClusterPolicy`] — the "optimal distance" scheme obtained by
//!   setting the price optimizer's distance threshold to zero (§6.1): every
//!   client goes to the geographically closest cluster.
//! * [`AkamaiLikePolicy`] — a stand-in for "Akamai's original allocation".
//!   The real mapping balances performance, partially replicated objects and
//!   bandwidth contracts; we model it as mostly-nearest routing with a
//!   deterministic fraction of each state's traffic sent to the
//!   second-nearest cluster (clients kept on-net even when that network's
//!   servers are farther away, §4). This is the normalisation baseline for
//!   Figures 15-19.
//! * [`StaticCheapestPolicy`] — "place all servers in the cheapest market"
//!   (§6.3, Figure 18): every request is served from the hub with the lowest
//!   long-run average price, subject to capacity.
//!
//! The nearest-cluster and Akamai-like baselines read their distance
//! orders from the context's [`CompiledPreferences`]: each state's
//! ascending-distance ranking, compiled once per engine and lent to the
//! pour as borrowed slices, never re-sorted or copied per reallocation.
//! The ranking's stable sort from cluster-index order gives exactly the
//! tie-break the old per-realloc sort used, so the migration is
//! bit-identical. The static placement sorts its mean prices once, when
//! it is built.

use crate::allocation::Allocation;
use crate::policy::{
    assign_by_preference_into, AssignWorkspace, RoutingContext, RoutingKey, RoutingPolicy,
    WholeOrders,
};
use crate::price_conscious::CompiledPreferences;
use std::sync::Arc;

/// Route every client state to its nearest cluster (ties broken by cluster
/// order), overflowing to the next nearest when capacity or bandwidth caps
/// bind.
#[derive(Debug, Clone, Default)]
pub struct NearestClusterPolicy {
    workspace: AssignWorkspace,
}

impl NearestClusterPolicy {
    /// Create the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutingPolicy for NearestClusterPolicy {
    fn name(&self) -> &str {
        "nearest-cluster"
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        let geometry: &CompiledPreferences = ctx.geometry;
        let mut nearest_first = WholeOrders::new(|state| geometry.order(state));
        assign_by_preference_into(ctx, &mut self.workspace, out, &mut nearest_first);
    }

    fn routing_key(&self) -> Option<RoutingKey> {
        // Field by field, so a new field must be keyed or declared
        // routing-neutral before it compiles.
        let Self { workspace: _ } = self;
        Some(RoutingKey::of::<Self>())
    }
}

/// Reused buffers for the Akamai-like baseline's two-share pour: the split
/// demand vectors, the two partial allocations merged into the output, and
/// the secondary share's preference orders.
#[derive(Debug, Clone, Default)]
struct AkamaiScratch {
    primary_demand: Vec<f64>,
    secondary_demand: Vec<f64>,
    primary: Allocation,
    secondary: Allocation,
    /// Each state's distance order rotated left by one (second nearest
    /// first, nearest last), state after state, compiled from
    /// `rotated_from`.
    rotated: Vec<usize>,
    /// The geometry `rotated` was compiled from, kept alive so that a
    /// context lending another compilation is told apart in O(1), by
    /// address.
    rotated_from: Option<Arc<CompiledPreferences>>,
}

/// An Akamai-like baseline: most of a state's demand goes to the nearest
/// cluster, a fixed fraction goes to the second nearest (standing in for
/// network-topology and contractual effects that keep some clients on
/// farther servers).
#[derive(Debug, Clone)]
pub struct AkamaiLikePolicy {
    /// Fraction of each state's demand sent to the second-nearest cluster.
    pub secondary_fraction: f64,
    workspace: AssignWorkspace,
    scratch: AkamaiScratch,
}

impl Default for AkamaiLikePolicy {
    fn default() -> Self {
        Self::new(0.2)
    }
}

impl AkamaiLikePolicy {
    /// Create the baseline with a given secondary fraction (clamped to
    /// `[0, 0.5]`).
    pub fn new(secondary_fraction: f64) -> Self {
        Self {
            secondary_fraction: secondary_fraction.clamp(0.0, 0.5),
            workspace: AssignWorkspace::new(),
            scratch: AkamaiScratch::default(),
        }
    }
}

impl RoutingPolicy for AkamaiLikePolicy {
    fn name(&self) -> &str {
        "akamai-like"
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        // Split each state's demand into a primary share (nearest) and a
        // secondary share (second nearest) and run the capacity-aware engine
        // on each share separately, then merge.
        let n_clusters = ctx.clusters.len();
        let n_states = ctx.states().len();
        let geometry: &CompiledPreferences = ctx.geometry;
        let fraction = self.secondary_fraction;
        let AkamaiScratch {
            primary_demand,
            secondary_demand,
            primary,
            secondary,
            rotated,
            rotated_from,
        } = &mut self.scratch;
        if !rotated_from.as_ref().is_some_and(|from| Arc::ptr_eq(from, ctx.geometry)) {
            rotated.clear();
            for state in 0..n_states {
                let start = rotated.len();
                rotated.extend_from_slice(geometry.order(state));
                if n_clusters > 1 {
                    rotated[start..].rotate_left(1); // prefer the second nearest first
                }
            }
            *rotated_from = Some(Arc::clone(ctx.geometry));
        }

        primary_demand.clear();
        primary_demand.extend(ctx.demand.iter().map(|d| d * (1.0 - fraction)));
        secondary_demand.clear();
        secondary_demand.extend(ctx.demand.iter().map(|d| d * fraction));

        let primary_ctx = RoutingContext { demand: primary_demand, ..ctx.clone() };
        let mut nearest_first = WholeOrders::new(|state| geometry.order(state));
        assign_by_preference_into(&primary_ctx, &mut self.workspace, primary, &mut nearest_first);

        let secondary_ctx = RoutingContext { demand: secondary_demand, ..ctx.clone() };
        let rotated = &rotated[..];
        let mut second_first =
            WholeOrders::new(|state| &rotated[state * n_clusters..(state + 1) * n_clusters]);
        assign_by_preference_into(
            &secondary_ctx,
            &mut self.workspace,
            secondary,
            &mut second_first,
        );

        // Outside both supports each share is `+0.0`, so their sum is not
        // above zero and adds nothing: every add is made over the union,
        // in row-major order.
        out.reset(n_clusters, n_states);
        primary.for_each_in_either_support(secondary, |c, s, primary_load, secondary_load| {
            let total = primary_load + secondary_load;
            if total > 0.0 {
                out.add(c, s, total);
            }
        });
    }

    fn routing_key(&self) -> Option<RoutingKey> {
        let Self { secondary_fraction, workspace: _, scratch: _ } = self;
        Some(RoutingKey::of::<Self>().with(*secondary_fraction))
    }
}

/// Send everything to the cheapest market on average — the static placement
/// of §6.3 — overflowing to the next cheapest when caps bind.
#[derive(Debug, Clone)]
pub struct StaticCheapestPolicy {
    /// Long-run mean price per cluster (aligned with cluster order).
    mean_prices: Vec<f64>,
    /// Every cluster by ascending mean price (a stable sort, so equal means
    /// keep cluster order), fixed when the policy is built.
    order: Vec<usize>,
    workspace: AssignWorkspace,
}

impl StaticCheapestPolicy {
    /// Create the policy from long-run mean prices per cluster.
    ///
    /// # Panics
    /// Panics when `mean_prices` is empty or holds a NaN.
    pub fn new(mean_prices: Vec<f64>) -> Self {
        assert!(!mean_prices.is_empty(), "need at least one cluster");
        let mut order: Vec<usize> = (0..mean_prices.len()).collect();
        order.sort_by(|&a, &b| mean_prices[a].partial_cmp(&mean_prices[b]).expect("finite prices"));
        Self { mean_prices, order, workspace: AssignWorkspace::new() }
    }
}

impl RoutingPolicy for StaticCheapestPolicy {
    fn name(&self) -> &str {
        "static-cheapest-hub"
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        assert_eq!(
            self.mean_prices.len(),
            ctx.clusters.len(),
            "mean prices must align with the deployment"
        );
        let order = &self.order[..];
        let mut cheapest_first = WholeOrders::new(|_| order);
        assign_by_preference_into(ctx, &mut self.workspace, out, &mut cheapest_first);
    }

    fn routing_key(&self) -> Option<RoutingKey> {
        // The order is derived from the mean prices, which the key holds.
        let Self { mean_prices, order: _, workspace: _ } = self;
        Some(RoutingKey::of::<Self>().with_all(mean_prices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_geo::{HubId, UsState};
    use wattroute_market::time::SimHour;
    use wattroute_workload::ClusterSet;

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
    fn nearest_sends_massachusetts_to_boston() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA, UsState::CA];
        let demand = [1000.0, 2000.0];
        let prices = vec![50.0; 9];
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let mut policy = NearestClusterPolicy::new();
        let a = policy.allocate(&c);
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        assert_eq!(a.matrix()[boston][0], 1000.0);
        // California goes to one of the two California clusters.
        let ca1 = clusters.index_of_hub(HubId::PaloAltoCa).unwrap();
        let ca2 = clusters.index_of_hub(HubId::LosAngelesCa).unwrap();
        assert_eq!(a.matrix()[ca1][1] + a.matrix()[ca2][1], 2000.0);
        assert!(a.serves_demand(&demand, 1e-9));
        assert_eq!(policy.name(), "nearest-cluster");
    }

    #[test]
    fn akamai_like_splits_between_two_nearest() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let prices = vec![50.0; 9];
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let mut policy = AkamaiLikePolicy::default();
        let a = policy.allocate(&c);
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        assert!((a.matrix()[boston][0] - 800.0).abs() < 1e-6);
        // The remaining 20% went somewhere else, and everything is served.
        assert!(a.serves_demand(&demand, 1e-9));
        let non_boston: f64 = a
            .cluster_loads()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != boston)
            .map(|(_, l)| l)
            .sum();
        assert!((non_boston - 200.0).abs() < 1e-6);
    }

    #[test]
    fn akamai_like_has_longer_distances_than_nearest() {
        let clusters = ClusterSet::akamai_like_nine();
        let states: Vec<UsState> = UsState::all().collect();
        let demand: Vec<f64> = states.iter().map(|s| s.population() as f64 / 1000.0).collect();
        let prices = vec![50.0; 9];
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let near = NearestClusterPolicy::new().allocate(&c);
        let akamai = AkamaiLikePolicy::default().allocate(&c);
        let d_near = near.mean_distance_km(&clusters, &states).unwrap();
        let d_akamai = akamai.mean_distance_km(&clusters, &states).unwrap();
        assert!(d_akamai > d_near, "{d_akamai} vs {d_near}");
    }

    #[test]
    fn baselines_reuse_shared_geometry_without_recompiling() {
        let clusters = ClusterSet::akamai_like_nine();
        let states: Vec<UsState> = UsState::all().collect();
        let demand: Vec<f64> = (0..states.len()).map(|i| 50.0 + 13.0 * i as f64).collect();
        let prices = vec![50.0; 9];
        let (own, shared) = (compile(&clusters, &states), compile(&clusters, &states));
        let alone = ctx(&clusters, &own, &demand, &prices);
        let sharing = ctx(&clusters, &shared, &demand, &prices);

        let near = |c: &RoutingContext<'_>| NearestClusterPolicy::new().allocate(c);
        assert_eq!(near(&alone), near(&sharing));

        let mut akamai = AkamaiLikePolicy::default();
        assert_eq!(AkamaiLikePolicy::default().allocate(&alone), akamai.allocate(&sharing));
        let rotated_from = akamai.scratch.rotated_from.as_ref().expect("routed");
        assert!(Arc::ptr_eq(rotated_from, &shared), "the rotated orders are the shared geometry's");
    }

    #[test]
    fn static_cheapest_prefers_lowest_mean_price() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::NY, UsState::CA];
        let demand = [1000.0, 1000.0];
        let prices = vec![50.0; 9]; // current prices are irrelevant to the static policy
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        // Chicago (index 4) has the lowest long-run mean.
        let mut means = vec![60.0; 9];
        means[4] = 38.0;
        let mut policy = StaticCheapestPolicy::new(means);
        let a = policy.allocate(&c);
        assert!((a.cluster_loads()[4] - 2000.0).abs() < 1e-6);
        assert_eq!(policy.name(), "static-cheapest-hub");
    }

    #[test]
    fn static_cheapest_overflows_in_price_order() {
        let clusters = ClusterSet::akamai_like_nine().scaled(0.01);
        let states = [UsState::CA];
        let cap = clusters.get(4).unwrap().capacity_hits_per_sec();
        let demand = [cap * 3.0];
        let prices = vec![50.0; 9];
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let mut means = vec![60.0; 9];
        means[4] = 30.0;
        means[5] = 35.0;
        let a = StaticCheapestPolicy::new(means).allocate(&c);
        let loads = a.cluster_loads();
        assert!((loads[4] - cap).abs() < 1e-6);
        assert!(loads[5] > 0.0);
        assert!(a.serves_demand(&demand, 1e-6));
    }

    #[test]
    #[should_panic(expected = "align with the deployment")]
    fn static_cheapest_length_mismatch_panics() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::NY];
        let demand = [1.0];
        let prices = vec![50.0; 9];
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let _ = StaticCheapestPolicy::new(vec![1.0, 2.0]).allocate(&c);
    }

    #[test]
    fn secondary_fraction_is_clamped() {
        assert_eq!(AkamaiLikePolicy::new(0.9).secondary_fraction, 0.5);
        assert_eq!(AkamaiLikePolicy::new(-0.1).secondary_fraction, 0.0);
    }
}
