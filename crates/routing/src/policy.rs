//! The routing-policy interface and the shared assignment engine.
//!
//! Every policy sees the same per-step picture (the [`RoutingContext`]):
//! which clusters exist, how far each client state is from each of them,
//! how much demand each state is offering, what each cluster's (possibly
//! delayed) electricity price is, and what capacity / 95-5 bandwidth
//! ceilings apply. A policy produces an
//! [`Allocation`]. The heavy lifting — filling clusters in a preference
//! order while respecting ceilings — is shared by all policies through
//! [`assign_by_preference_into`], which borrows each state's order from
//! the policy's [`PreferenceSource`].

use crate::allocation::Allocation;
use crate::constraints::ConstraintSet;
use crate::price_conscious::CompiledPreferences;
use std::any::TypeId;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::marker::PhantomData;
use std::sync::Arc;
use wattroute_geo::UsState;
use wattroute_market::time::SimHour;
use wattroute_workload::ClusterSet;

/// Everything a policy may consult when allocating one 5-minute step.
#[derive(Debug, Clone)]
pub struct RoutingContext<'a> {
    /// The deployment being routed over.
    pub clusters: &'a ClusterSet,
    /// The client–cluster geometry of the run, compiled for `clusters`'
    /// hub list and the client states `demand` is aligned with. The engine
    /// compiles it once (or a sweep or Monte Carlo run shares one) and
    /// lends it to every context. A policy that derives state from it
    /// keeps that state while contexts lend the same [`Arc`], compared by
    /// address.
    pub geometry: &'a Arc<CompiledPreferences>,
    /// Demand per state in hits/second.
    pub demand: &'a [f64],
    /// Electricity price per cluster in $/MWh (already delayed by the
    /// simulator's reaction delay).
    ///
    /// Prices must be finite. Ingestion checks it (the CSV reader and the
    /// live price feed reject anything else); the router does not: the
    /// price-conscious ranking panics with "finite prices" on a NaN, and an
    /// infinite price would reach dollar accounting unchecked.
    pub prices: &'a [f64],
    /// The hour this step belongs to.
    pub hour: SimHour,
    /// The constraints in force: 95/5 bandwidth caps, tier caps, overflow
    /// mode. Usually a *borrow* of the run's one
    /// [`ConstraintSet`] — the simulator builds a context per
    /// reallocation, so an owned cap vector here would be a per-step
    /// allocation on the hot path (it used to be).
    pub constraints: Cow<'a, ConstraintSet>,
}

impl<'a> RoutingContext<'a> {
    /// Build an unconstrained context (nominal capacities, no bandwidth
    /// caps) over `geometry`, whose states `demand` is aligned with.
    /// Allocates nothing.
    ///
    /// # Panics
    /// Panics if `geometry` was compiled for another hub list than
    /// `clusters`', or if `demand` or `prices` has the wrong length.
    pub fn new(
        clusters: &'a ClusterSet,
        geometry: &'a Arc<CompiledPreferences>,
        demand: &'a [f64],
        prices: &'a [f64],
        hour: SimHour,
    ) -> Self {
        assert!(
            geometry.hub_ids().iter().eq(clusters.clusters().iter().map(|c| &c.hub)),
            "geometry compiled for another deployment"
        );
        assert_eq!(geometry.states().len(), demand.len(), "state/demand length mismatch");
        assert_eq!(clusters.len(), prices.len(), "cluster/price length mismatch");
        Self {
            clusters,
            geometry,
            demand,
            prices,
            hour,
            constraints: Cow::Owned(ConstraintSet::unconstrained()),
        }
    }

    /// The client states, aligned with `demand`: the geometry's.
    pub fn states(&self) -> &'a [UsState] {
        let geometry: &'a CompiledPreferences = self.geometry;
        geometry.states()
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

    /// The effective ceiling for a cluster: the minimum of its nominal
    /// capacity and, when 95/5 caps are in force, its bandwidth cap.
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

    /// Allocate one step's demand into a caller-owned [`Allocation`].
    ///
    /// A long-running engine hands the same allocation back every
    /// reallocation, so steady-state routing performs no heap allocation.
    /// `out` may hold stale loads from a previous call (even with a
    /// different shape) — implementations must fully overwrite it, which
    /// [`Allocation::reset`] does in place.
    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>);

    /// Allocate one step's demand into a fresh [`Allocation`]: a zeroed
    /// one of the context's shape, filled by [`Self::allocate_into`]. A
    /// wrapper that overrides both must keep them bit-identical.
    fn allocate(&mut self, ctx: &RoutingContext<'_>) -> Allocation {
        let mut out = Allocation::zeros(ctx.clusters.len(), ctx.states().len());
        self.allocate_into(&mut out, ctx);
        out
    }

    /// Does nothing, and nothing in this workspace calls it. A policy
    /// reads the run's geometry from every [`RoutingContext::geometry`]
    /// instead. The method stays only so that outside wrappers which still
    /// forward it keep compiling; it will be removed.
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

/// Where the pour reads each client state's preference order — cluster
/// indices, most preferred first — lent as borrowed slices in two stages.
///
/// The pour asks for a state's [`head`](Self::head) first, and for its
/// whole [`order`](Self::order) only when it walks past the head with
/// demand still unserved. A source whose order is costly to finish pays
/// for the rest only when capacity pushes the pour that far: the
/// price-conscious memo lends a state's cheap set as its head and ranks
/// its costlier clusters on demand.
///
/// The contract between the pour and a source:
/// * the order in which the pour asks for states is unspecified;
/// * the pour may ask for one state's head more than once per call;
/// * within one call, a state's head is a prefix of its whole order, and
///   is non-empty whenever the whole order is.
pub trait PreferenceSource {
    /// A prefix of the state's order: the clusters the pour tries first.
    fn head(&mut self, state: usize) -> &[usize];

    /// The state's whole order, beginning with its head.
    fn order(&mut self, state: usize) -> &[usize];
}

/// A [`PreferenceSource`] whose orders are fixed before the pour starts:
/// it lends each state's whole order at once, as its head too.
pub(crate) struct WholeOrders<'a, F>(F, PhantomData<&'a [usize]>);

impl<'a, F: FnMut(usize) -> &'a [usize]> WholeOrders<'a, F> {
    /// Lend `order(state)` as each state's order.
    pub(crate) fn new(order: F) -> Self {
        Self(order, PhantomData)
    }
}

impl<'a, F: FnMut(usize) -> &'a [usize]> PreferenceSource for WholeOrders<'a, F> {
    fn head(&mut self, state: usize) -> &[usize] {
        (self.0)(state)
    }

    fn order(&mut self, state: usize) -> &[usize] {
        (self.0)(state)
    }
}

/// Assign demand to clusters by per-state preference lists.
///
/// The allocating convenience form of [`assign_by_preference_into`]: the
/// `preferences` callback returns each state's ordered candidate cluster
/// indices, and may be called more than once for a state.
pub fn assign_by_preference<F>(ctx: &RoutingContext<'_>, preferences: F) -> Allocation
where
    F: FnMut(usize, UsState) -> Vec<usize>,
{
    /// The callback as a source: one list, kept for the state last asked.
    struct Lists<'a, F> {
        states: &'a [UsState],
        preferences: F,
        state: Option<usize>,
        list: Vec<usize>,
    }

    impl<F: FnMut(usize, UsState) -> Vec<usize>> PreferenceSource for Lists<'_, F> {
        fn head(&mut self, state: usize) -> &[usize] {
            self.order(state)
        }

        fn order(&mut self, state: usize) -> &[usize] {
            if self.state != Some(state) {
                self.list = (self.preferences)(state, self.states[state]);
                self.state = Some(state);
            }
            &self.list
        }
    }

    let mut lists = Lists { states: ctx.states(), preferences, state: None, list: Vec::new() };
    let mut allocation = Allocation::zeros(ctx.clusters.len(), ctx.states().len());
    assign_by_preference_into(ctx, &mut AssignWorkspace::new(), &mut allocation, &mut lists);
    allocation
}

/// The share of a ceiling that the demand aimed at it may fill for the
/// pour to place every state whole without sorting.
const WHOLE_FIT: f64 = 1.0 - 1e-9;

/// One tier's ceilings during a pour: what each node (site, metro or
/// region) can still absorb, and the demand first choices aim at it.
#[derive(Debug, Clone, Default)]
struct TierRoom {
    remaining: Vec<f64>,
    aimed: Vec<f64>,
}

impl TierRoom {
    fn fill(&mut self, caps: impl Iterator<Item = f64>) {
        self.remaining.clear();
        self.remaining.extend(caps);
        self.aimed.clear();
        self.aimed.resize(self.remaining.len(), 0.0);
    }

    /// Aim `demand` more at `node`: whether its aimed total still fits
    /// its ceiling with the sort-free margin.
    fn aim(&mut self, node: usize, demand: f64) -> bool {
        self.aimed[node] += demand;
        self.aimed[node] <= self.remaining[node] * WHOLE_FIT
    }
}

/// Reusable scratch for [`assign_by_preference_into`]: each tier's
/// remaining and aimed ceilings, the demand-sorted state order (which the
/// next sorted pour starts from) and the sort-free placements. A policy
/// owns one workspace and hands it back every reallocation, so the
/// steady-state assignment performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct AssignWorkspace {
    sites: TierRoom,
    metros: TierRoom,
    regions: TierRoom,
    order: Vec<usize>,
    placements: Vec<(usize, usize)>,
}

impl AssignWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Pour one step's demand into clusters by per-state preference orders,
/// into caller-owned storage: `out` (fully overwritten), the pour's
/// scratch in `workspace`, and the orders lent by `prefs` (see
/// [`PreferenceSource`]).
///
/// Positive-demand states are poured in descending demand, equal demands
/// in state order, so large states get first pick of scarce capacity;
/// states with zero or negative demand route nothing. A NaN demand
/// panics with "finite demand". Each state's demand fills its candidates
/// in order, up to each cluster's [`RoutingContext::effective_cap`].
/// Demand no candidate can absorb spills onto the cluster with the most
/// remaining ceiling, and, if every ceiling is exhausted, onto the
/// state's first candidate regardless: requests must be served
/// somewhere, which mirrors the paper's treatment of capacity as a soft
/// planning constraint.
///
/// When the constraints carry [`TierCaps`](crate::constraints::TierCaps),
/// each take is also bounded by the candidate's metro and region
/// headroom (a site's headroom is `site ∧ metro ∧ region`), and the spill
/// target is the cluster with the most tier-aware headroom. One loop
/// serves both; a flat deployment draws down per-site ceilings only.
///
/// **Sort-free placement.** Before sorting, the pour reads every
/// positive-demand state's first choice and sums the demand aimed at each
/// site, and under tier caps at each metro and region. When every sum is
/// at most its ceiling × (1 − 10⁻⁹), the sorted pour would land each
/// state whole on its first choice, in any order, so the pour places them
/// there directly and skips the sort. This is exact: before a state's
/// turn, a ceiling has taken at most one subtraction per earlier state,
/// each rounding by at most 2⁻⁵³ of the ceiling, and the sums round
/// alike; for 51 states that is about 10⁻¹⁴ of the ceiling, far inside
/// the margin, so every take is the state's whole demand, bit for bit.
/// Anything else (a sum over its margin, a state with an empty order, a
/// NaN demand) runs the sorted pour.
pub fn assign_by_preference_into<P: PreferenceSource + ?Sized>(
    ctx: &RoutingContext<'_>,
    workspace: &mut AssignWorkspace,
    out: &mut Allocation,
    prefs: &mut P,
) {
    let n_clusters = ctx.clusters.len();
    out.reset(n_clusters, ctx.states().len());
    let AssignWorkspace { sites, metros, regions, order, placements } = workspace;
    sites.fill((0..n_clusters).map(|c| ctx.effective_cap(c)));
    match ctx.constraints.tier_caps() {
        None => pour(ctx, Sites(sites), order, placements, out, prefs),
        Some(tiers) => {
            metros.fill(tiers.metro_caps().iter().copied());
            regions.fill(tiers.region_caps().iter().copied());
            let room = Tiers {
                sites,
                metros,
                regions,
                site_metro: tiers.site_metros(),
                site_region: tiers.site_regions(),
            };
            pour(ctx, room, order, placements, out, prefs);
        }
    }
    debug_assert!(out.serves_demand(ctx.demand, 1e-6));
}

/// The ceilings one pour draws down: per site, or per site, metro and
/// region under tier caps.
trait Headroom {
    /// What `site` can still absorb.
    fn headroom(&self, site: usize) -> f64;

    /// Land `amount` on `site`.
    fn draw(&mut self, site: usize, amount: f64);

    /// Aim a state's whole `demand` at `site`, its first choice: whether
    /// every ceiling over the site still fits its aimed total.
    fn aim(&mut self, site: usize, demand: f64) -> bool;
}

/// Per-site ceilings: a flat deployment.
struct Sites<'w>(&'w mut TierRoom);

impl Headroom for Sites<'_> {
    fn headroom(&self, site: usize) -> f64 {
        self.0.remaining[site]
    }

    fn draw(&mut self, site: usize, amount: f64) {
        self.0.remaining[site] -= amount;
    }

    fn aim(&mut self, site: usize, demand: f64) -> bool {
        self.0.aim(site, demand)
    }
}

/// Site, metro and region ceilings: a site's headroom is the least of
/// what it, its metro and its region can still absorb.
struct Tiers<'w> {
    sites: &'w mut TierRoom,
    metros: &'w mut TierRoom,
    regions: &'w mut TierRoom,
    site_metro: &'w [usize],
    site_region: &'w [usize],
}

impl Headroom for Tiers<'_> {
    fn headroom(&self, site: usize) -> f64 {
        self.sites.remaining[site]
            .min(self.metros.remaining[self.site_metro[site]])
            .min(self.regions.remaining[self.site_region[site]])
    }

    fn draw(&mut self, site: usize, amount: f64) {
        self.sites.remaining[site] -= amount;
        self.metros.remaining[self.site_metro[site]] -= amount;
        self.regions.remaining[self.site_region[site]] -= amount;
    }

    fn aim(&mut self, site: usize, demand: f64) -> bool {
        self.sites.aim(site, demand)
            && self.metros.aim(self.site_metro[site], demand)
            && self.regions.aim(self.site_region[site], demand)
    }
}

fn pour<H: Headroom, P: PreferenceSource + ?Sized>(
    ctx: &RoutingContext<'_>,
    mut room: H,
    order: &mut Vec<usize>,
    placements: &mut Vec<(usize, usize)>,
    out: &mut Allocation,
    prefs: &mut P,
) {
    if place_whole(ctx, &mut room, placements, out, prefs) {
        return;
    }
    sort_by_demand(ctx.demand, order);

    for &state in order.iter() {
        let mut unserved = ctx.demand[state];
        let head = prefs.head(state);
        let (first, walked) = (head.first().copied(), head.len());
        fill(head, state, &mut unserved, &mut room, out);
        if unserved > 0.0 {
            fill(&prefs.order(state)[walked..], state, &mut unserved, &mut room, out);
        }
        if unserved > 0.0 {
            let spill_target = (0..ctx.clusters.len())
                .max_by(|&a, &b| {
                    room.headroom(a).partial_cmp(&room.headroom(b)).expect("finite caps")
                })
                .filter(|&c| room.headroom(c) > 0.0)
                .or(first)
                .unwrap_or(0);
            out.add(spill_target, state, unserved);
            room.draw(spill_target, unserved);
        }
    }
}

/// Sort the positive-demand states into `order`: descending demand, equal
/// demands in state order. A positive float's bits order like its value,
/// so the key `(Reverse(bits), state)` gives the order a stable descending
/// sort of the demands gives the positive ones, on exact integer keys and
/// without the states that route nothing. The key is unique per state, so
/// every correct sort of one set gives the same permutation.
///
/// `order` holds the previous sorted pour's order, and demand moves little
/// between a policy's calls. So it keeps the states still positive, in
/// their old order, and when those are every positive state it
/// insertion-sorts them, in time linear in the states plus the pairs the
/// demand swapped; otherwise it collects and sorts them afresh.
fn sort_by_demand(demand: &[f64], order: &mut Vec<usize>) {
    let key = |state: usize| (Reverse(demand[state].to_bits()), state);
    let mut positive = 0;
    for &d in demand {
        assert!(!d.is_nan(), "finite demand");
        positive += usize::from(d > 0.0);
    }
    order.retain(|&state| demand.get(state).is_some_and(|&d| d > 0.0));
    if order.len() != positive {
        order.clear();
        order.extend((0..demand.len()).filter(|&state| demand[state] > 0.0));
        order.sort_unstable_by_key(|&state| key(state));
        return;
    }
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && key(order[j]) < key(order[j - 1]) {
            order.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// Pour a state's unserved demand into `candidates` in order, each take
/// bounded by the candidate's headroom.
fn fill<H: Headroom>(
    candidates: &[usize],
    state: usize,
    unserved: &mut f64,
    room: &mut H,
    out: &mut Allocation,
) {
    for &cluster in candidates {
        if *unserved <= 0.0 {
            break;
        }
        let take = unserved.min(room.headroom(cluster).max(0.0));
        if take > 0.0 {
            out.add(cluster, state, take);
            room.draw(cluster, take);
            *unserved -= take;
        }
    }
}

/// The sort-free placement (see [`assign_by_preference_into`]): aim each
/// positive-demand state's whole demand at its first choice and, when
/// every ceiling fits its aimed total, land each state there. Returns
/// `false`, having written nothing, when any does not.
fn place_whole<H: Headroom, P: PreferenceSource + ?Sized>(
    ctx: &RoutingContext<'_>,
    room: &mut H,
    placements: &mut Vec<(usize, usize)>,
    out: &mut Allocation,
    prefs: &mut P,
) -> bool {
    placements.clear();
    for (state, &demand) in ctx.demand.iter().enumerate() {
        if demand <= 0.0 {
            continue;
        }
        // A NaN demand fails its aim; the sorted pour reports it.
        match prefs.head(state).first() {
            Some(&first) if room.aim(first, demand) => placements.push((state, first)),
            _ => return false,
        }
    }
    for &(state, first) in placements.iter() {
        out.add(first, state, ctx.demand[state]);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_workload::ClusterSet;

    fn two_state_ctx<'a>(
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
    fn preference_order_is_respected() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA, UsState::CA];
        let demand = [1000.0, 2000.0];
        let prices = vec![50.0; 9];
        let geometry = compile(&clusters, &states);
        let ctx = two_state_ctx(&clusters, &geometry, &demand, &prices);
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
        let geometry = compile(&clusters, &states);
        let ctx = two_state_ctx(&clusters, &geometry, &demand, &prices);
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
        let geometry = compile(&clusters, &states);
        let ctx = two_state_ctx(&clusters, &geometry, &demand, &prices);
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
        let geometry = compile(&clusters, &states);
        let ctx = two_state_ctx(&clusters, &geometry, &demand, &prices).with_bandwidth_caps(bw);
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
        let geometry = compile(&clusters, &states);
        let ctx = two_state_ctx(&clusters, &geometry, &demand, &prices);
        let allocation = assign_by_preference(&ctx, |_, _| vec![0]);
        assert_eq!(allocation.total_load(), 100.0);
    }

    #[test]
    #[should_panic(expected = "finite demand")]
    fn a_nan_demand_panics_in_the_sorted_pour() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA, UsState::CA, UsState::TX];
        // The NaN fails its aim, so the sorted pour runs, and must report
        // it rather than leave the state out as if it had no demand.
        let demand = [100.0, f64::NAN, 50.0];
        let prices = vec![50.0; 9];
        let geometry = compile(&clusters, &states);
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0));
        let _ = assign_by_preference(&ctx, |_, _| vec![0]);
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
        let geometry = compile(&clusters, &states);
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0))
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
        let geometry = compile(&clusters, &states);
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0))
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
        let geometry = compile(&clusters, &states);
        let flat_ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0));
        let flat = assign_by_preference(&flat_ctx, |i, _| vec![i % 9, (i + 3) % 9]);
        let tiers = TierCaps::new(
            (0..9).collect(),
            vec![0; 9],
            vec![f64::INFINITY; 9],
            vec![f64::INFINITY],
        );
        let constraints = ConstraintSet::unconstrained().with_tier_caps(tiers);
        let tiered_ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0))
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
        // across demands AND across the flat/tiered switch — and must keep
        // matching the allocating path exactly.
        let lists: Vec<Vec<usize>> = (0..states.len()).map(|i| vec![i % 9, (i + 3) % 9]).collect();
        let mut lent = WholeOrders::new(|i: usize| lists[i].as_slice());
        let mut ws = AssignWorkspace::new();
        let mut out = Allocation::zeros(1, 1); // wrong shape on purpose
        let geometry = compile(&clusters, &states);
        for demand in [[9_000.0, 2.0e6, 3.0e5], [0.0, 1.0e5, 777.0]] {
            let flat_ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0));
            let expected = assign_by_preference(&flat_ctx, |i, _| lists[i].clone());
            assign_by_preference_into(&flat_ctx, &mut ws, &mut out, &mut lent);
            assert_eq!(out, expected, "flat pour must be identical");

            let tiered_ctx =
                RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0))
                    .with_constraints(&constraints);
            let expected = assign_by_preference(&tiered_ctx, |i, _| lists[i].clone());
            assign_by_preference_into(&tiered_ctx, &mut ws, &mut out, &mut lent);
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
            fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
                *out = assign_by_preference(ctx, |_, _| vec![0]);
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
        let geometry = compile(&clusters, &states);
        let _ = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0));
    }
}
