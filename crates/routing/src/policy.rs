//! The routing-policy interface and the shared assignment engine.
//!
//! Every policy sees the same per-step picture (the [`RoutingContext`]):
//! which clusters exist, how much demand each client state is offering,
//! what each cluster's (possibly delayed) electricity price is, and what
//! capacity / 95-5 bandwidth ceilings apply. A policy produces an
//! [`Allocation`]. The heavy lifting — filling clusters in a preference
//! order while respecting ceilings — is shared by all policies through
//! [`assign_by_preference`].

use crate::allocation::Allocation;
use crate::constraints::ConstraintSet;
use crate::price_conscious::CompiledPreferences;
use std::any::TypeId;
use std::borrow::Cow;
use std::sync::Arc;
use wattroute_geo::UsState;
use wattroute_market::time::SimHour;
use wattroute_workload::ClusterSet;

/// Everything a policy may consult when allocating one 5-minute step.
#[derive(Debug, Clone)]
pub struct RoutingContext<'a> {
    /// The deployment being routed over.
    pub clusters: &'a ClusterSet,
    /// Client states, aligned with `demand`.
    pub states: &'a [UsState],
    /// Demand per state in hits/second.
    pub demand: &'a [f64],
    /// Electricity price per cluster in $/MWh (already delayed by the
    /// simulator's reaction delay).
    pub prices: &'a [f64],
    /// The hour this step belongs to.
    pub hour: SimHour,
    /// The constraints in force: capacity ceilings, 95/5 bandwidth caps,
    /// overflow mode. Usually a *borrow* of the run's one
    /// [`ConstraintSet`] — the simulator builds a context per
    /// reallocation, so an owned cap vector here would be a per-step
    /// allocation on the hot path (it used to be).
    pub constraints: Cow<'a, ConstraintSet>,
}

impl<'a> RoutingContext<'a> {
    /// Build an unconstrained context (nominal capacities, no bandwidth
    /// caps). Allocates nothing.
    pub fn new(
        clusters: &'a ClusterSet,
        states: &'a [UsState],
        demand: &'a [f64],
        prices: &'a [f64],
        hour: SimHour,
    ) -> Self {
        assert_eq!(states.len(), demand.len(), "state/demand length mismatch");
        assert_eq!(clusters.len(), prices.len(), "cluster/price length mismatch");
        Self {
            clusters,
            states,
            demand,
            prices,
            hour,
            constraints: Cow::Owned(ConstraintSet::unconstrained()),
        }
    }

    /// Borrow a caller-owned constraint set (the simulator's per-run set).
    /// No vectors are cloned, however many contexts are built from it.
    pub fn with_constraints(mut self, constraints: &'a ConstraintSet) -> Self {
        constraints.validate(self.clusters.len());
        self.constraints = Cow::Borrowed(constraints);
        self
    }

    /// Attach 95/5 bandwidth ceilings (hits/second per cluster) to an
    /// owned constraint set — the convenient form for tests and one-off
    /// contexts; long-running callers should [`Self::with_constraints`] a
    /// borrowed set instead.
    pub fn with_bandwidth_caps(mut self, caps: Vec<f64>) -> Self {
        assert_eq!(caps.len(), self.clusters.len(), "bandwidth cap length mismatch");
        self.constraints = Cow::Owned(self.constraints.into_owned().with_bandwidth_caps(caps));
        self
    }

    /// The effective ceiling for a cluster: the minimum of its capacity
    /// (nominal, or the constraint set's explicit ceiling) and, when 95/5
    /// caps are in force, its bandwidth cap.
    pub fn effective_cap(&self, cluster: usize) -> f64 {
        let nominal = self.clusters.get(cluster).expect("index in range").capacity_hits_per_sec();
        self.constraints.effective_cap(cluster, nominal)
    }

    /// Total demand offered this step.
    pub fn total_demand(&self) -> f64 {
        self.demand.iter().sum()
    }
}

/// A request-routing policy.
pub trait RoutingPolicy {
    /// Short human-readable name for reports.
    fn name(&self) -> &str;

    /// Allocate one step's demand to clusters.
    fn allocate(&mut self, ctx: &RoutingContext<'_>) -> Allocation;

    /// Allocate one step's demand into a caller-owned [`Allocation`].
    ///
    /// This is the buffer-recycling twin of [`Self::allocate`]: a
    /// long-running engine hands the same allocation back every
    /// reallocation, so steady-state routing performs no heap allocation.
    /// `out` may hold stale loads from a previous call (even with a
    /// different shape) — implementations must fully overwrite it, which
    /// [`Allocation::reset`] does in place.
    ///
    /// The default implementation delegates to [`Self::allocate`], so the
    /// two paths are *definitionally* result-identical for policies that
    /// do not override it; policies that do must keep them bit-identical
    /// (pinned for the built-in policies by
    /// `crates/routing/tests/proptest_policies.rs` and the engine-level
    /// epoch-equivalence property test).
    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        *out = self.allocate(ctx);
    }

    /// Offer the policy shared, pre-compiled ranked-distance geometry for
    /// the deployment and state list it is about to route (see
    /// [`CompiledPreferences`]). Policies that do not use the geometry
    /// ignore the offer — the default implementation is a no-op — so
    /// callers (the scenario-sweep runner) can make it unconditionally.
    /// Accepting the offer must never change results, only avoid
    /// recompiles: implementations fall back to a self-compile when the
    /// attached geometry does not match a context they are handed.
    fn attach_preferences(&mut self, prefs: &Arc<CompiledPreferences>) {
        let _ = prefs;
    }

    /// An exact key for how this policy routes, or `None` — the default,
    /// which promises nothing.
    ///
    /// Returning a key is a promise: every instance with an equal key,
    /// freshly built, has the same [`Self::name`] and allocates every
    /// sequence of contexts identically, bit for bit, call after call. A
    /// scenario sweep leans on it: cells whose routing inputs agree bit
    /// for bit and whose policies share a key replay one allocation
    /// stream, through one policy instance, instead of one each. Build
    /// the key from the policy's type and every configuration value that
    /// shapes its allocations with [`RoutingKey`]. Wrappers, and policies
    /// whose allocations depend on anything else, keep the default.
    fn routing_key(&self) -> Option<RoutingKey> {
        None
    }
}

/// An exact description of how a policy routes: its type, plus the bits
/// of every configuration value that shapes its allocations (see
/// [`RoutingPolicy::routing_key`]). Keys compare bit for bit, not by
/// float equality or a hash: `0.0` and `-0.0` give different keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingKey {
    policy: TypeId,
    bits: Vec<u64>,
}

impl RoutingKey {
    /// The key of policy type `P`, before any configuration value.
    pub fn of<P: RoutingPolicy + 'static>() -> Self {
        Self { policy: TypeId::of::<P>(), bits: Vec::new() }
    }

    /// Add one configuration value.
    pub fn with(mut self, value: f64) -> Self {
        self.bits.push(value.to_bits());
        self
    }

    /// Add a list of configuration values, with its length.
    pub fn with_all(mut self, values: &[f64]) -> Self {
        self.bits.push(values.len() as u64);
        self.bits.extend(values.iter().map(|v| v.to_bits()));
        self
    }
}

/// Assign demand to clusters by per-state preference lists.
///
/// For each state (processed in descending demand, so large states get
/// first pick of scarce capacity), the `preferences` callback supplies an
/// ordered list of candidate cluster indices. Demand is poured into the
/// candidates in order, up to each cluster's effective ceiling. Demand that
/// no candidate can absorb spills, in a final pass, onto the cluster with
/// the most remaining ceiling (and, if every ceiling is exhausted, onto the
/// first candidate regardless — requests must be served somewhere, which
/// mirrors the paper's treatment of capacity as a soft planning constraint).
///
/// When the context's constraints carry [`TierCaps`](crate::constraints::TierCaps),
/// the pour additionally respects each candidate's metro and region
/// aggregate ceilings — the effective headroom of a site is
/// `site ∧ metro ∧ region` — and the spill target is the cluster with the
/// most *tier-aware* headroom. Flat deployments (no tier caps) take the
/// original per-cluster path, byte-identical to before.
pub fn assign_by_preference<F>(ctx: &RoutingContext<'_>, mut preferences: F) -> Allocation
where
    F: FnMut(usize, UsState) -> Vec<usize>,
{
    let mut workspace = AssignWorkspace::new();
    let mut allocation = Allocation::zeros(ctx.clusters.len(), ctx.states.len());
    assign_by_preference_into(ctx, &mut workspace, &mut allocation, |state_idx, state, buf| {
        let candidates = preferences(state_idx, state);
        buf.clear();
        buf.extend_from_slice(&candidates);
    });
    allocation
}

/// Reusable scratch for [`assign_by_preference_into`]: the per-call vectors
/// the pour engine needs (remaining tier headroom, the demand-sorted state
/// order, and the candidate list the preference callback writes into). A
/// policy owns one workspace and hands it back every reallocation, so the
/// steady-state assignment performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct AssignWorkspace {
    remaining_cap: Vec<f64>,
    order: Vec<usize>,
    candidates: Vec<usize>,
    metro_rem: Vec<f64>,
    region_rem: Vec<f64>,
}

impl AssignWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The buffer-recycling twin of [`assign_by_preference`]: identical pour
/// logic, but the allocation, the engine's scratch vectors, and the
/// per-state candidate list all live in caller-owned storage. The
/// `preferences` callback writes each state's ordered candidate cluster
/// indices into the buffer it is handed (cleared by the caller first).
pub fn assign_by_preference_into<F>(
    ctx: &RoutingContext<'_>,
    workspace: &mut AssignWorkspace,
    out: &mut Allocation,
    mut preferences: F,
) where
    F: FnMut(usize, UsState, &mut Vec<usize>),
{
    if ctx.constraints.tier_caps().is_some() {
        return assign_by_preference_tiered_into(ctx, workspace, out, preferences);
    }
    let n_clusters = ctx.clusters.len();
    let n_states = ctx.states.len();
    out.reset(n_clusters, n_states);
    let AssignWorkspace { remaining_cap, order, candidates, .. } = workspace;
    remaining_cap.clear();
    remaining_cap.extend((0..n_clusters).map(|c| ctx.effective_cap(c)));

    // Process states in descending demand.
    order.clear();
    order.extend(0..n_states);
    order.sort_by(|&a, &b| ctx.demand[b].partial_cmp(&ctx.demand[a]).expect("finite demand"));

    for &state_idx in order.iter() {
        let mut unserved = ctx.demand[state_idx];
        if unserved <= 0.0 {
            continue;
        }
        candidates.clear();
        preferences(state_idx, ctx.states[state_idx], candidates);
        debug_assert!(
            candidates.iter().all(|&c| c < n_clusters),
            "preference list contains an out-of-range cluster index"
        );

        for &cluster in candidates.iter() {
            if unserved <= 0.0 {
                break;
            }
            let take = unserved.min(remaining_cap[cluster].max(0.0));
            if take > 0.0 {
                out.add(cluster, state_idx, take);
                remaining_cap[cluster] -= take;
                unserved -= take;
            }
        }

        if unserved > 0.0 {
            // Spill to the cluster with the most remaining headroom, or the
            // first candidate if everything is saturated.
            let spill_target = (0..n_clusters)
                .max_by(|&a, &b| {
                    remaining_cap[a].partial_cmp(&remaining_cap[b]).expect("finite caps")
                })
                .filter(|&c| remaining_cap[c] > 0.0)
                .or_else(|| candidates.first().copied())
                .unwrap_or(0);
            out.add(spill_target, state_idx, unserved);
            remaining_cap[spill_target] -= unserved;
        }
    }

    debug_assert!(out.serves_demand(ctx.demand, 1e-6));
}

/// The tier-aware variant of [`assign_by_preference`]: identical pour
/// order, but each take is bounded by the candidate's site, metro, and
/// region headroom simultaneously, all three tiers are drawn down in SoA
/// vectors as demand lands, and spill targets maximise the min-of-three
/// headroom.
fn assign_by_preference_tiered_into<F>(
    ctx: &RoutingContext<'_>,
    workspace: &mut AssignWorkspace,
    out: &mut Allocation,
    mut preferences: F,
) where
    F: FnMut(usize, UsState, &mut Vec<usize>),
{
    let tiers = ctx.constraints.tier_caps().expect("caller checked tier caps");
    let n_clusters = ctx.clusters.len();
    let n_states = ctx.states.len();
    out.reset(n_clusters, n_states);
    let AssignWorkspace { remaining_cap, order, candidates, metro_rem, region_rem } = workspace;
    remaining_cap.clear();
    remaining_cap.extend((0..n_clusters).map(|c| ctx.effective_cap(c)));
    metro_rem.clear();
    metro_rem.extend_from_slice(tiers.metro_caps());
    region_rem.clear();
    region_rem.extend_from_slice(tiers.region_caps());
    let site_metro = tiers.site_metros();
    let site_region = tiers.site_regions();

    // Tier-aware headroom of one site: the least of what the site, its
    // metro, and its region can still absorb.
    let headroom = |cap: &[f64], metro: &[f64], region: &[f64], c: usize| -> f64 {
        cap[c].min(metro[site_metro[c]]).min(region[site_region[c]])
    };

    order.clear();
    order.extend(0..n_states);
    order.sort_by(|&a, &b| ctx.demand[b].partial_cmp(&ctx.demand[a]).expect("finite demand"));

    for &state_idx in order.iter() {
        let mut unserved = ctx.demand[state_idx];
        if unserved <= 0.0 {
            continue;
        }
        candidates.clear();
        preferences(state_idx, ctx.states[state_idx], candidates);
        debug_assert!(
            candidates.iter().all(|&c| c < n_clusters),
            "preference list contains an out-of-range cluster index"
        );

        for &cluster in candidates.iter() {
            if unserved <= 0.0 {
                break;
            }
            let take =
                unserved.min(headroom(remaining_cap, metro_rem, region_rem, cluster).max(0.0));
            if take > 0.0 {
                out.add(cluster, state_idx, take);
                remaining_cap[cluster] -= take;
                metro_rem[site_metro[cluster]] -= take;
                region_rem[site_region[cluster]] -= take;
                unserved -= take;
            }
        }

        if unserved > 0.0 {
            // Spill onto the site with the most tier-aware headroom; when
            // every tier is exhausted, onto the first candidate regardless
            // (demand must be served somewhere).
            let spill_target = (0..n_clusters)
                .max_by(|&a, &b| {
                    headroom(remaining_cap, metro_rem, region_rem, a)
                        .partial_cmp(&headroom(remaining_cap, metro_rem, region_rem, b))
                        .expect("finite caps")
                })
                .filter(|&c| headroom(remaining_cap, metro_rem, region_rem, c) > 0.0)
                .or_else(|| candidates.first().copied())
                .unwrap_or(0);
            out.add(spill_target, state_idx, unserved);
            remaining_cap[spill_target] -= unserved;
            metro_rem[site_metro[spill_target]] -= unserved;
            region_rem[site_region[spill_target]] -= unserved;
        }
    }

    debug_assert!(out.serves_demand(ctx.demand, 1e-6));
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_workload::ClusterSet;

    fn two_state_ctx<'a>(
        clusters: &'a ClusterSet,
        states: &'a [UsState],
        demand: &'a [f64],
        prices: &'a [f64],
    ) -> RoutingContext<'a> {
        RoutingContext::new(clusters, states, demand, prices, SimHour(0))
    }

    #[test]
    fn preference_order_is_respected() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA, UsState::CA];
        let demand = [1000.0, 2000.0];
        let prices = vec![50.0; 9];
        let ctx = two_state_ctx(&clusters, &states, &demand, &prices);
        // Everyone prefers cluster 4 (Chicago).
        let allocation = assign_by_preference(&ctx, |_, _| vec![4]);
        assert_eq!(allocation.cluster_loads()[4], 3000.0);
        assert!(allocation.serves_demand(&demand, 1e-9));
    }

    #[test]
    fn capacity_overflow_goes_to_next_preference() {
        let clusters = ClusterSet::akamai_like_nine().scaled(0.001); // tiny clusters
        let states = [UsState::NY];
        let cap0 = clusters.get(0).unwrap().capacity_hits_per_sec();
        let demand = [cap0 * 2.5];
        let prices = vec![50.0; 9];
        let ctx = two_state_ctx(&clusters, &states, &demand, &prices);
        let allocation = assign_by_preference(&ctx, |_, _| vec![0, 1, 2]);
        let loads = allocation.cluster_loads();
        assert!((loads[0] - cap0).abs() < 1e-6, "first choice filled to capacity");
        assert!(loads[1] > 0.0, "overflow to second choice");
        assert!(allocation.serves_demand(&demand, 1e-6));
    }

    #[test]
    fn demand_is_always_served_even_when_all_caps_exhausted() {
        let clusters = ClusterSet::akamai_like_nine().scaled(1e-6);
        let states = [UsState::CA, UsState::TX];
        let demand = [1.0e6, 0.5e6];
        let prices = vec![50.0; 9];
        let ctx = two_state_ctx(&clusters, &states, &demand, &prices);
        let allocation = assign_by_preference(&ctx, |_, _| vec![0]);
        assert!(allocation.serves_demand(&demand, 1e-6));
    }

    #[test]
    fn bandwidth_caps_tighten_effective_ceiling() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [10_000.0];
        let prices = vec![50.0; 9];
        let bw: Vec<f64> = (0..9).map(|i| if i == 2 { 4_000.0 } else { 1.0e9 }).collect();
        let ctx = two_state_ctx(&clusters, &states, &demand, &prices).with_bandwidth_caps(bw);
        assert_eq!(ctx.effective_cap(2), 4_000.0);
        let allocation = assign_by_preference(&ctx, |_, _| vec![2, 3]);
        let loads = allocation.cluster_loads();
        assert!((loads[2] - 4_000.0).abs() < 1e-6);
        assert!((loads[3] - 6_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_demand_states_are_skipped() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA, UsState::CA];
        let demand = [0.0, 100.0];
        let prices = vec![50.0; 9];
        let ctx = two_state_ctx(&clusters, &states, &demand, &prices);
        let allocation = assign_by_preference(&ctx, |_, _| vec![0]);
        assert_eq!(allocation.total_load(), 100.0);
    }

    #[test]
    fn metro_cap_binds_across_sites_sharing_a_metro() {
        use crate::constraints::{ConstraintSet, TierCaps};
        // Nine clusters; put the first two in one capped metro, the rest in
        // an uncapped second metro. One region, uncapped.
        let clusters = ClusterSet::akamai_like_nine();
        let site_metro: Vec<usize> = (0..9).map(|c| usize::from(c >= 2)).collect();
        let tiers = TierCaps::new(
            site_metro,
            vec![0; 9],
            vec![5_000.0, f64::INFINITY],
            vec![f64::INFINITY],
        );
        let constraints = ConstraintSet::unconstrained().with_tier_caps(tiers);
        let states = [UsState::MA];
        let demand = [20_000.0];
        let prices = vec![50.0; 9];
        let ctx = RoutingContext::new(&clusters, &states, &demand, &prices, SimHour(0))
            .with_constraints(&constraints);
        // Preference order 0, 1, 2: both metro-0 sites together may absorb
        // only 5 000 despite ample per-site capacity.
        let allocation = assign_by_preference(&ctx, |_, _| vec![0, 1, 2]);
        let loads = allocation.cluster_loads();
        assert!((loads[0] - 5_000.0).abs() < 1e-9, "metro cap bounds the first site");
        assert_eq!(loads[1], 0.0, "metro headroom already spent");
        assert!((loads[2] - 15_000.0).abs() < 1e-9, "rest flows to the uncapped metro");
        assert!(allocation.serves_demand(&demand, 1e-6));
    }

    #[test]
    fn region_cap_binds_and_exhausted_tiers_still_serve() {
        use crate::constraints::{ConstraintSet, TierCaps};
        let clusters = ClusterSet::akamai_like_nine();
        // Every site its own metro; one region capped below total demand.
        let tiers =
            TierCaps::new((0..9).collect(), vec![0; 9], vec![f64::INFINITY; 9], vec![1_000.0]);
        let constraints = ConstraintSet::unconstrained().with_tier_caps(tiers);
        let states = [UsState::NY];
        let demand = [4_000.0];
        let prices = vec![50.0; 9];
        let ctx = RoutingContext::new(&clusters, &states, &demand, &prices, SimHour(0))
            .with_constraints(&constraints);
        let allocation = assign_by_preference(&ctx, |_, _| vec![3]);
        let loads = allocation.cluster_loads();
        // 1 000 fits under the region cap via the preferred site; the
        // remaining 3 000 has nowhere with headroom and spills onto the
        // first candidate — demand is always served.
        assert!((loads[3] - 4_000.0).abs() < 1e-9);
        assert!(allocation.serves_demand(&demand, 1e-6));
    }

    #[test]
    fn uncapped_tiers_match_flat_assignment() {
        use crate::constraints::{ConstraintSet, TierCaps};
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA, UsState::CA, UsState::TX];
        let demand = [9_000.0, 2.0e6, 3.0e5];
        let prices = vec![50.0; 9];
        let flat_ctx = RoutingContext::new(&clusters, &states, &demand, &prices, SimHour(0));
        let flat = assign_by_preference(&flat_ctx, |i, _| vec![i % 9, (i + 3) % 9]);
        let tiers = TierCaps::new(
            (0..9).collect(),
            vec![0; 9],
            vec![f64::INFINITY; 9],
            vec![f64::INFINITY],
        );
        let constraints = ConstraintSet::unconstrained().with_tier_caps(tiers);
        let tiered_ctx = RoutingContext::new(&clusters, &states, &demand, &prices, SimHour(0))
            .with_constraints(&constraints);
        let tiered = assign_by_preference(&tiered_ctx, |i, _| vec![i % 9, (i + 3) % 9]);
        assert_eq!(flat.matrix(), tiered.matrix(), "infinite tier caps change nothing");
    }

    #[test]
    fn into_variant_with_reused_buffers_matches_allocating_path() {
        use crate::constraints::{ConstraintSet, TierCaps};
        let clusters = ClusterSet::akamai_like_nine().scaled(0.01);
        let states = [UsState::MA, UsState::CA, UsState::TX];
        let prices = vec![50.0; 9];
        let tiers = TierCaps::new(
            (0..9).map(|c| c / 3).collect(),
            vec![0; 9],
            vec![40_000.0, f64::INFINITY, 25_000.0],
            vec![f64::INFINITY],
        );
        let constraints = ConstraintSet::unconstrained().with_tier_caps(tiers);

        // One workspace and one output allocation survive every call —
        // across demands AND across the flat/tiered engine switch — and
        // must keep matching the allocating path exactly.
        let mut ws = AssignWorkspace::new();
        let mut out = Allocation::zeros(1, 1); // wrong shape on purpose
        for demand in [[9_000.0, 2.0e6, 3.0e5], [0.0, 1.0e5, 777.0]] {
            let flat_ctx = RoutingContext::new(&clusters, &states, &demand, &prices, SimHour(0));
            let expected = assign_by_preference(&flat_ctx, |i, _| vec![i % 9, (i + 3) % 9]);
            assign_by_preference_into(&flat_ctx, &mut ws, &mut out, |i, _, buf| {
                buf.extend([i % 9, (i + 3) % 9])
            });
            assert_eq!(out, expected, "flat pour must be identical");

            let tiered_ctx = RoutingContext::new(&clusters, &states, &demand, &prices, SimHour(0))
                .with_constraints(&constraints);
            let expected = assign_by_preference(&tiered_ctx, |i, _| vec![i % 9, (i + 3) % 9]);
            assign_by_preference_into(&tiered_ctx, &mut ws, &mut out, |i, _, buf| {
                buf.extend([i % 9, (i + 3) % 9])
            });
            assert_eq!(out, expected, "tiered pour must be identical");
        }
    }

    #[test]
    fn every_public_config_field_reaches_the_built_in_keys() {
        use crate::baseline::{AkamaiLikePolicy, NearestClusterPolicy, StaticCheapestPolicy};
        use crate::extensions::{CarbonAwarePolicy, JointCostPolicy};
        use crate::price_conscious::PriceConsciousPolicy;

        fn key(policy: &dyn RoutingPolicy) -> RoutingKey {
            policy.routing_key().expect("every built-in policy is keyed")
        }
        /// `base` keys like a twin and unlike each variant.
        fn assert_keyed<P: RoutingPolicy>(base: impl Fn() -> P, variants: Vec<(&str, P)>) {
            assert_eq!(key(&base()), key(&base()), "equal configurations, equal keys");
            for (field, variant) in variants {
                assert_ne!(key(&base()), key(&variant), "{field} must reach the key");
            }
        }

        let pc = || PriceConsciousPolicy::with_distance_threshold(0.0);
        let mut negative_zero = pc();
        negative_zero.config.distance_threshold_km = -0.0;
        let mut price_threshold = pc();
        price_threshold.config.price_threshold = 4.0;
        assert_keyed(
            pc,
            vec![
                ("distance_threshold_km sign", negative_zero),
                ("price_threshold", price_threshold),
            ],
        );

        let mut fraction = AkamaiLikePolicy::default();
        fraction.secondary_fraction = 0.3;
        assert_keyed(AkamaiLikePolicy::default, vec![("secondary_fraction", fraction)]);

        assert_keyed(
            || JointCostPolicy::new(0.02),
            vec![("distance_weight", JointCostPolicy::new(0.03))],
        );

        let carbon = || CarbonAwarePolicy::new(1500.0, vec![0.5; 9]);
        let (mut distance, mut intensity, mut threshold) = (carbon(), carbon(), carbon());
        distance.distance_threshold_km = 1000.0;
        intensity.carbon_intensity[4] = 0.4;
        threshold.intensity_threshold = 0.05;
        assert_keyed(
            carbon,
            vec![
                ("distance_threshold_km", distance),
                ("carbon_intensity", intensity),
                ("intensity_threshold", threshold),
            ],
        );

        let means = || StaticCheapestPolicy::new(vec![40.0; 9]);
        assert_keyed(means, vec![("mean prices", StaticCheapestPolicy::new(vec![40.0; 8]))]);

        // The policy's type is part of its key, whatever its bits.
        let nearest = key(&NearestClusterPolicy::new());
        assert_eq!(nearest, key(&NearestClusterPolicy::new()));
        assert_ne!(nearest, key(&PriceConsciousPolicy::with_distance_threshold(0.0)));
        assert_ne!(key(&AkamaiLikePolicy::new(0.02)), key(&JointCostPolicy::new(0.02)));
    }

    #[test]
    fn policies_are_keyless_by_default() {
        struct Everywhere;
        impl RoutingPolicy for Everywhere {
            fn name(&self) -> &str {
                "everywhere"
            }
            fn allocate(&mut self, ctx: &RoutingContext<'_>) -> Allocation {
                assign_by_preference(ctx, |_, _| vec![0])
            }
        }
        assert_eq!(Everywhere.routing_key(), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1.0, 2.0];
        let prices = vec![50.0; 9];
        let _ = RoutingContext::new(&clusters, &states, &demand, &prices, SimHour(0));
    }
}
