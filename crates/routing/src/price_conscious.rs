//! The paper's price-conscious request router (§6.1).
//!
//! > "Given a client, the price-conscious optimizer maps it to a cluster
//! > with the lowest price, only considering clusters within some maximum
//! > radial geographic distance. For clients that do not have any clusters
//! > within that maximum distance, the routing scheme finds the closest
//! > cluster and considers any other nearby clusters (< 50 km). If the
//! > selected cluster is nearing its capacity (or the 95/5 boundary), the
//! > optimizer iteratively finds another good cluster."
//!
//! Two parameters modulate its behaviour: a **distance threshold** (0 ⇒
//! optimal-distance routing, larger than the coast-to-coast distance ⇒
//! optimal-price routing) and a **price threshold** (differentials smaller
//! than $5/MWh are ignored, so ties go to the nearer cluster).

use crate::allocation::Allocation;
use crate::policy::{
    assign_by_preference_into, AssignWorkspace, RoutingContext, RoutingKey, RoutingPolicy,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wattroute_geo::distance::RankedHub;
use wattroute_geo::{distance, hubs, HubId, UsState};
use wattroute_market::differential::DEFAULT_PRICE_THRESHOLD;
use wattroute_workload::ClusterSet;

/// Configuration of the price-conscious optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriceConsciousConfig {
    /// Maximum radial client-to-cluster distance considered, in km.
    /// `0.0` degenerates to nearest-cluster routing; anything larger than
    /// the East-West coast distance (~4100 km) gives pure price routing.
    pub distance_threshold_km: f64,
    /// Price differentials smaller than this ($/MWh) are ignored; the
    /// nearer cluster wins such ties. The paper uses $5/MWh.
    pub price_threshold: f64,
}

impl Default for PriceConsciousConfig {
    fn default() -> Self {
        Self { distance_threshold_km: 1500.0, price_threshold: DEFAULT_PRICE_THRESHOLD }
    }
}

/// Distance-dependent candidate structure for one client state, derived
/// once per (compiled geometry, distance threshold) and reused across
/// reallocations, next to the state's memoised preference order.
/// Geography never changes within a split; the delayed prices change at
/// most hourly, so the order ranked from them is reused until they do.
#[derive(Debug, Clone)]
struct StateCandidates {
    /// Clusters within the distance threshold (or the paper's nearest +
    /// 50 km fallback set), sorted by ascending distance.
    candidates: Vec<RankedHub>,
    /// The remaining clusters, sorted by ascending distance — the
    /// last-resort overflow tail appended after the priced candidates.
    tail: Vec<usize>,
    /// The preference order last ranked for this state. Empty until the
    /// pour first asks for the state.
    order: Vec<usize>,
    /// The [`ThresholdSplit::generation`] `order` was ranked in; `0`
    /// (never a live generation) until it is first ranked.
    ranked_in: u64,
}

// Compile-count instrumentation lives on the `wattroute_obs` registry: the
// `routing.compiled_preferences.builds` counter tracks every
// [`CompiledPreferences::build`] call so tests can assert that sweeps share
// one compiled geometry per (deployment, state list) instead of letting
// every run recompile its own. Registry counters are always live, so those
// pins hold without enabling telemetry.

/// The expensive, threshold-*independent* half of the price-conscious
/// optimizer's geometry: for every client state, all clusters ranked by
/// ascending population-weighted distance.
///
/// Depends only on the deployment's hub list and the client state list —
/// not on the distance threshold and not on prices — so one compilation can
/// be shared read-only (behind an [`Arc`]) by every run of a scenario sweep
/// that routes the same deployment over the same trace, whatever their
/// thresholds, delays, or bandwidth caps. Per-threshold candidate splits
/// and per-step price rankings are derived from it cheaply (no distance
/// computation, no sorting).
#[derive(Debug, Clone)]
pub struct CompiledPreferences {
    hub_ids: Vec<HubId>,
    states: Vec<UsState>,
    /// Per state: every cluster index with its distance, ascending.
    ranked: Vec<Vec<RankedHub>>,
}

impl CompiledPreferences {
    /// Compile the ranked-distance geometry for a deployment and client
    /// state list.
    pub fn build(clusters: &ClusterSet, states: &[UsState]) -> Self {
        wattroute_obs::counter!("routing.compiled_preferences.builds").inc();
        let hub_ids = clusters.hub_ids();
        let hub_refs: Vec<&wattroute_geo::Hub> = hub_ids.iter().map(|id| hubs::hub(*id)).collect();
        let ranked = states
            .iter()
            .map(|&state| distance::hubs_within_threshold(state, &hub_refs, f64::INFINITY))
            .collect();
        Self { hub_ids, states: states.to_vec(), ranked }
    }

    /// Whether this compilation was built for the context's deployment hub
    /// list and state list. Compares in place: this runs on every
    /// reallocation of every policy that rides the geometry.
    pub fn matches(&self, ctx: &RoutingContext<'_>) -> bool {
        self.states == ctx.states
            && self.hub_ids.len() == ctx.clusters.len()
            && self.hub_ids.iter().zip(ctx.clusters.clusters()).all(|(&id, c)| id == c.hub)
    }

    /// The hub list this geometry was compiled for, in cluster order.
    pub fn hub_ids(&self) -> &[HubId] {
        &self.hub_ids
    }

    /// The client state list this geometry was compiled for.
    pub fn states(&self) -> &[UsState] {
        &self.states
    }

    /// Total number of [`CompiledPreferences::build`] calls in this
    /// process. Instrumentation for compile-count tests; only deltas
    /// measured in a dedicated process (a single-test integration binary)
    /// are meaningful, since any concurrently running code may compile too.
    /// Reads the `routing.compiled_preferences.builds` counter on the
    /// global [`wattroute_obs`] registry.
    pub fn build_count() -> usize {
        wattroute_obs::counter!("routing.compiled_preferences.builds").get() as usize
    }

    /// Ranked `(cluster index, distance)` pairs for one client state,
    /// ascending by distance. Stable-sorted from cluster-index order, so
    /// equidistant clusters keep their deployment order — the same
    /// tie-break every in-crate distance sort uses, which is what lets the
    /// baselines and extension policies ride this geometry bit-identically.
    pub(crate) fn ranked(&self, state_idx: usize) -> &[RankedHub] {
        &self.ranked[state_idx]
    }

    /// Derive the per-threshold candidate/tail split from the ranked
    /// geometry: candidates are the clusters within `threshold_km` (with
    /// the paper's nearest + 50 km fallback when none are), the tail is
    /// every other cluster, both in ascending-distance order.
    fn threshold_split(&self, threshold_km: f64) -> Vec<StateCandidates> {
        self.ranked
            .iter()
            .map(|ranked| {
                let within: Vec<RankedHub> =
                    ranked.iter().copied().filter(|(_, d)| *d <= threshold_km).collect();
                let candidates = if !within.is_empty() || ranked.is_empty() {
                    within
                } else {
                    // Fallback: nearest cluster plus any within 50 km of it.
                    let nearest = ranked[0].1;
                    ranked.iter().copied().filter(|(_, d)| *d <= nearest + 50.0).collect()
                };
                let tail = ranked
                    .iter()
                    .filter(|(i, _)| !candidates.iter().any(|(c, _)| c == i))
                    .map(|(i, _)| *i)
                    .collect();
                StateCandidates { candidates, tail, order: Vec::new(), ranked_in: 0 }
            })
            .collect()
    }
}

/// Make sure `slot` holds compiled geometry matching `ctx`, lazily
/// self-compiling (and counting an own-build) when it does not. The shared
/// entry point for every policy that rides [`CompiledPreferences`]; returns
/// `true` when a recompile happened so callers can invalidate anything they
/// derived from the previous geometry.
pub(crate) fn ensure_compiled(
    slot: &mut Option<Arc<CompiledPreferences>>,
    own_builds: &mut usize,
    ctx: &RoutingContext<'_>,
) -> bool {
    if slot.as_ref().is_some_and(|c| c.matches(ctx)) {
        return false;
    }
    *slot = Some(Arc::new(CompiledPreferences::build(ctx.clusters, ctx.states)));
    *own_builds += 1;
    true
}

/// A [`CompiledPreferences`] specialised to one distance threshold — the
/// cheap, per-policy half of the compilation — plus the memo of per-state
/// preference orders ranked over it.
///
/// A state's order is a function of the split (geometry and distance
/// threshold), the price threshold and the delayed price row, never of
/// demand. A new geometry or distance threshold builds a new split, which
/// drops the memo with it; a price row or price threshold that differs in
/// any bit from the current generation's starts a new generation, which
/// stales every order ranked in an older one.
#[derive(Debug, Clone)]
struct ThresholdSplit {
    distance_threshold_km: f64,
    per_state: Vec<StateCandidates>,
    /// Counts the distinct (price row, price threshold) keys seen in a
    /// row; `0` before the first.
    generation: u64,
    /// The delayed price row of the current generation.
    prices: Vec<f64>,
    /// The price threshold of the current generation.
    price_threshold: f64,
}

impl ThresholdSplit {
    fn new(compiled: &CompiledPreferences, distance_threshold_km: f64) -> Self {
        Self {
            distance_threshold_km,
            per_state: compiled.threshold_split(distance_threshold_km),
            generation: 0,
            prices: Vec::new(),
            price_threshold: 0.0,
        }
    }

    /// Key the memo on `prices` and `price_threshold`: start a new
    /// generation unless both equal the current one's bit for bit.
    fn key_on(&mut self, prices: &[f64], price_threshold: f64) {
        let same = self.generation != 0
            && self.price_threshold.to_bits() == price_threshold.to_bits()
            && self.prices.len() == prices.len()
            && self.prices.iter().zip(prices).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.generation += 1;
            self.prices.clear();
            self.prices.extend_from_slice(prices);
            self.price_threshold = price_threshold;
        }
    }
}

/// Reusable re-ranking scratch: the cheap-set/rest partition buffers the
/// per-state price ranking is built in. Owned by the policy so steady-state
/// reallocation allocates nothing.
#[derive(Debug, Clone, Default)]
struct RankScratch {
    cheap: Vec<RankedHub>,
    rest: Vec<RankedHub>,
}

/// The distance-constrained electricity price optimizer.
#[derive(Debug, Clone, Default)]
pub struct PriceConsciousPolicy {
    /// Tunable parameters.
    pub config: PriceConsciousConfig,
    /// Compiled ranked-distance geometry for the deployment and state list
    /// last routed over — either attached by a sweep (shared) or compiled
    /// lazily by this instance.
    compiled: Option<Arc<CompiledPreferences>>,
    /// Candidate/tail split derived from `compiled` for the current
    /// distance threshold, with the memo of preference orders ranked over
    /// it.
    split: Option<ThresholdSplit>,
    /// How many times *this instance* compiled its own geometry (attached
    /// shared geometry does not count). Instrumentation for tests proving
    /// that shared preferences eliminate per-run recompiles.
    own_geometry_builds: usize,
    /// Pour-engine scratch reused across reallocations.
    workspace: AssignWorkspace,
    /// Price re-ranking scratch reused across states and reallocations.
    scratch: RankScratch,
}

impl PriceConsciousPolicy {
    /// Create a policy with an explicit configuration.
    pub fn new(config: PriceConsciousConfig) -> Self {
        Self { config, ..Default::default() }
    }

    /// Create a policy with the given distance threshold and the default
    /// $5/MWh price threshold.
    pub fn with_distance_threshold(distance_threshold_km: f64) -> Self {
        Self::new(PriceConsciousConfig { distance_threshold_km, ..Default::default() })
    }

    /// "Optimal price" variant: no effective distance constraint.
    pub fn unconstrained_distance() -> Self {
        Self::with_distance_threshold(50_000.0)
    }

    /// Attach shared, pre-compiled ranked-distance geometry (typically from
    /// a scenario sweep's artifact cache). The policy routes with it as
    /// long as it matches the contexts it is handed; a mismatching context
    /// falls back to a lazy self-compile, so attaching can never change
    /// results — only avoid recompiles.
    pub fn with_shared_preferences(mut self, prefs: Arc<CompiledPreferences>) -> Self {
        self.attach_shared_preferences(&prefs);
        self
    }

    /// In-place form of [`Self::with_shared_preferences`].
    pub fn attach_shared_preferences(&mut self, prefs: &Arc<CompiledPreferences>) {
        self.compiled = Some(prefs.clone());
        self.split = None;
    }

    /// How many times this instance compiled its own geometry (a run fed
    /// shared preferences that match its contexts reports `0`).
    pub fn own_geometry_builds(&self) -> usize {
        self.own_geometry_builds
    }
}

/// Preference order for one client state, written into `out`: candidate
/// clusters within the distance threshold (with the paper's nearest + 50 km
/// fallback), sorted by price with sub-threshold differences broken by
/// distance, followed by the remaining clusters by distance (so capacity
/// overflow degrades gracefully rather than arbitrarily). The
/// distance-dependent parts come precomputed (`candidates` and `tail`
/// from the state's [`StateCandidates`]); only the price-dependent ranking
/// happens here, entirely in the caller's reused `scratch`/`out` buffers.
fn preference_order_into(
    price_threshold: f64,
    prices: &[f64],
    candidates: &[RankedHub],
    tail: &[usize],
    scratch: &mut RankScratch,
    out: &mut Vec<usize>,
) {
    // Split candidates into those whose price is within the price
    // threshold of the cheapest candidate ("as good as the cheapest";
    // among these the nearest wins, because sub-threshold differentials
    // are ignored) and the remainder, ordered by price then distance.
    // Doing it in two stages, rather than with a price-or-distance
    // comparator, keeps the ordering a total order.
    let cheapest = candidates.iter().map(|(i, _)| prices[*i]).fold(f64::INFINITY, f64::min);
    scratch.cheap.clear();
    scratch.rest.clear();
    for &(i, d) in candidates {
        if prices[i] <= cheapest + price_threshold {
            scratch.cheap.push((i, d));
        } else {
            scratch.rest.push((i, d));
        }
    }
    // `candidates` is pre-sorted by distance, so `cheap` (a stable
    // partition of it) already is too.
    scratch.rest.sort_by(|(ia, da), (ib, db)| {
        prices[*ia]
            .partial_cmp(&prices[*ib])
            .expect("finite prices")
            .then(da.partial_cmp(db).expect("finite distances"))
    });

    out.extend(scratch.cheap.iter().chain(scratch.rest.iter()).map(|(i, _)| *i));
    // The out-of-threshold clusters, by distance, as a last resort for
    // overflow.
    out.extend_from_slice(tail);
}

impl RoutingPolicy for PriceConsciousPolicy {
    fn name(&self) -> &str {
        "price-conscious"
    }

    fn allocate(&mut self, ctx: &RoutingContext<'_>) -> Allocation {
        let mut out = Allocation::zeros(ctx.clusters.len(), ctx.states.len());
        self.allocate_into(&mut out, ctx);
        out
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        if !self.compiled.as_ref().is_some_and(|c| c.matches(ctx)) {
            self.compiled = Some(Arc::new(CompiledPreferences::build(ctx.clusters, ctx.states)));
            self.split = None;
            self.own_geometry_builds += 1;
        }
        let threshold = self.config.distance_threshold_km;
        if !self.split.as_ref().is_some_and(|s| s.distance_threshold_km == threshold) {
            let compiled = self.compiled.as_ref().expect("compiled above");
            self.split = Some(ThresholdSplit::new(compiled, threshold));
        }
        let Self { config, split, workspace, scratch, .. } = self;
        let split = split.as_mut().expect("derived above");
        let price_threshold = config.price_threshold;
        split.key_on(ctx.prices, price_threshold);
        let generation = split.generation;
        // The pour runs on every call, since it depends on demand; the
        // ranking runs only for states it asks for whose memoised order
        // is from an older generation.
        assign_by_preference_into(ctx, workspace, out, |state_idx, _, buf| {
            let StateCandidates { candidates, tail, order, ranked_in } =
                &mut split.per_state[state_idx];
            if *ranked_in != generation {
                order.clear();
                preference_order_into(
                    price_threshold,
                    ctx.prices,
                    candidates,
                    tail,
                    scratch,
                    order,
                );
                *ranked_in = generation;
            }
            buf.extend_from_slice(order);
        });
    }

    fn attach_preferences(&mut self, prefs: &Arc<CompiledPreferences>) {
        self.attach_shared_preferences(prefs);
    }

    fn routing_key(&self) -> Option<RoutingKey> {
        // Named field by field, so a new field does not compile until it
        // is keyed or declared routing-neutral: the geometry, memo and
        // scratch never change an allocation.
        let Self {
            config: PriceConsciousConfig { distance_threshold_km, price_threshold },
            compiled: _,
            split: _,
            own_geometry_builds: _,
            workspace: _,
            scratch: _,
        } = self;
        Some(RoutingKey::of::<Self>().with(*distance_threshold_km).with(*price_threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_geo::HubId;
    use wattroute_market::time::SimHour;
    use wattroute_workload::ClusterSet;

    fn ctx<'a>(
        clusters: &'a ClusterSet,
        states: &'a [UsState],
        demand: &'a [f64],
        prices: &'a [f64],
    ) -> RoutingContext<'a> {
        RoutingContext::new(clusters, states, demand, prices, SimHour(0))
    }

    fn nine_prices(base: f64) -> Vec<f64> {
        vec![base; 9]
    }

    #[test]
    fn zero_threshold_degenerates_to_nearest() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        // Make Boston expensive: a nearest-distance scheme must still pick it.
        let mut prices = nine_prices(30.0);
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        prices[boston] = 500.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(0.0);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[boston][0], 1000.0);
    }

    #[test]
    fn unconstrained_threshold_chases_the_cheapest_hub() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let mut prices = nine_prices(80.0);
        let austin = clusters.index_of_hub(HubId::AustinTx).unwrap();
        prices[austin] = 20.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::unconstrained_distance();
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[austin][0], 1000.0);
        assert_eq!(policy.name(), "price-conscious");
    }

    #[test]
    fn distance_threshold_excludes_far_cheap_clusters() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let mut prices = nine_prices(80.0);
        // Palo Alto is nearly free, but ~4300km from Massachusetts clients.
        let pa = clusters.index_of_hub(HubId::PaloAltoCa).unwrap();
        prices[pa] = 1.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[pa][0], 0.0, "Palo Alto is beyond the 1500km threshold");
        assert!(a.serves_demand(&demand, 1e-9));
    }

    #[test]
    fn sub_threshold_differentials_prefer_the_nearer_cluster() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let boston = clusters.index_of_hub(HubId::BostonMa).unwrap();
        let nyc = clusters.index_of_hub(HubId::NewYorkNy).unwrap();
        // NYC is $3 cheaper — below the $5 threshold, so Boston (nearer) wins.
        let mut prices = nine_prices(60.0);
        prices[boston] = 50.0;
        prices[nyc] = 47.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[boston][0], 1000.0);

        // Make the differential exceed the threshold and NYC wins.
        let mut prices2 = nine_prices(60.0);
        prices2[boston] = 50.0;
        prices2[nyc] = 40.0;
        let c2 = ctx(&clusters, &states, &demand, &prices2);
        let a2 = policy.allocate(&c2);
        assert_eq!(a2.matrix()[nyc][0], 1000.0);
    }

    #[test]
    fn capacity_pressure_spills_to_next_cheapest_candidate() {
        let clusters = ClusterSet::akamai_like_nine().scaled(0.01);
        let states = [UsState::NY];
        let nyc = clusters.index_of_hub(HubId::NewYorkNy).unwrap();
        let nj = clusters.index_of_hub(HubId::NewarkNj).unwrap();
        let cap = clusters.get(nyc).unwrap().capacity_hits_per_sec();
        let demand = [cap * 1.5];
        let mut prices = nine_prices(90.0);
        prices[nyc] = 20.0;
        prices[nj] = 30.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1000.0);
        let a = policy.allocate(&c);
        let loads = a.cluster_loads();
        assert!((loads[nyc] - cap).abs() < 1e-6, "cheapest candidate fills first");
        assert!(loads[nj] > 0.0, "overflow moves to the next cheapest nearby cluster");
        assert!(a.serves_demand(&demand, 1e-6));
    }

    #[test]
    fn bandwidth_caps_respected() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::CA];
        let demand = [100_000.0];
        let pa = clusters.index_of_hub(HubId::PaloAltoCa).unwrap();
        let la = clusters.index_of_hub(HubId::LosAngelesCa).unwrap();
        let mut prices = nine_prices(70.0);
        prices[pa] = 10.0;
        // Cap Palo Alto's 95/5 ceiling below the offered demand.
        let mut caps = vec![f64::INFINITY; 9];
        caps[pa] = 30_000.0;
        let c = ctx(&clusters, &states, &demand, &prices).with_bandwidth_caps(caps);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1000.0);
        let a = policy.allocate(&c);
        let loads = a.cluster_loads();
        assert!(loads[pa] <= 30_000.0 + 1e-6);
        assert!(loads[la] > 0.0, "the rest lands on the other in-threshold cluster");
    }

    #[test]
    fn remote_states_fall_back_to_nearest_cluster() {
        // Montana has no cluster within 1100 km in this deployment; the
        // fallback must still serve it from the nearest cluster.
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MT];
        let demand = [500.0];
        let prices = nine_prices(50.0);
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1100.0);
        let a = policy.allocate(&c);
        assert!(a.serves_demand(&demand, 1e-9));
    }

    #[test]
    fn mutating_the_threshold_recompiles_candidates() {
        // `config` is a public field; a changed threshold must invalidate
        // the compiled candidate sets, not silently reuse them.
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::MA];
        let demand = [1000.0];
        let mut prices = nine_prices(80.0);
        let austin = clusters.index_of_hub(HubId::AustinTx).unwrap();
        prices[austin] = 20.0;
        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(0.0);
        let near = policy.allocate(&c);
        assert_eq!(near.matrix()[austin][0], 0.0, "0 km threshold routes to the nearest cluster");
        policy.config.distance_threshold_km = 50_000.0;
        let far = policy.allocate(&c);
        assert_eq!(far.matrix()[austin][0], 1000.0, "the new threshold must take effect");
    }

    /// Every bit of an allocation, for bit-for-bit comparisons.
    fn bits(a: &Allocation) -> Vec<Vec<u64>> {
        a.matrix().iter().map(|row| row.iter().map(|x| x.to_bits()).collect()).collect()
    }

    #[test]
    fn memoised_orders_match_a_fresh_policy_per_call() {
        // Small clusters, so the pour spills past first choices and the
        // whole preference order shapes the allocation.
        let nine = ClusterSet::akamai_like_nine().scaled(0.05);
        let reversed = ClusterSet::new(nine.clusters().iter().rev().cloned().collect::<Vec<_>>());
        let states: Vec<UsState> = UsState::all().collect();
        let nine_prefs = Arc::new(CompiledPreferences::build(&nine, &states));
        let reversed_prefs = Arc::new(CompiledPreferences::build(&reversed, &states));
        let row = |seed: u64| -> Vec<f64> {
            (0..9u64).map(|i| 20.0 + ((seed * 7919 + i * 104_729) % 97) as f64).collect()
        };
        let (a, b) = (row(1), row(2));
        let wy = states.iter().position(|&s| s == UsState::WY).unwrap();
        let demand = |scale: f64, wy_demand: f64| -> Vec<f64> {
            let mut d: Vec<f64> =
                (0..states.len()).map(|i| scale * (500.0 + 373.0 * (i % 11) as f64)).collect();
            d[wy] = wy_demand;
            d
        };
        let quiet_wy = demand(1.0, 0.0);

        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0)
            .with_shared_preferences(nine_prefs.clone());
        // Route one context through the long-lived policy and a fresh one,
        // returning the memo generation the long-lived policy routed in.
        let mut out = Allocation::zeros(1, 1);
        let mut route = |policy: &mut PriceConsciousPolicy,
                         clusters: &ClusterSet,
                         prices: &[f64],
                         demand: &[f64]| {
            let c = ctx(clusters, &states, demand, prices);
            policy.allocate_into(&mut out, &c);
            let fresh = PriceConsciousPolicy::new(policy.config).allocate(&c);
            assert_eq!(bits(&out), bits(&fresh), "memoised policy diverged from a fresh one");
            policy.split.as_ref().expect("routed").generation
        };
        let wy_entry = |p: &PriceConsciousPolicy| p.split.as_ref().unwrap().per_state[wy].clone();

        let mut generations = vec![route(&mut policy, &nine, &a, &quiet_wy)];
        assert!(wy_entry(&policy).order.is_empty(), "a zero-demand state is never ranked");
        generations.push(route(&mut policy, &nine, &a, &demand(1.3, 0.0))); // row repeats
        generations.push(route(&mut policy, &nine, &b, &quiet_wy)); // row changes
        generations.push(route(&mut policy, &nine, &a, &quiet_wy)); // and changes back
        assert_eq!(generations, [1, 1, 2, 3], "only a changed row starts a generation");
        assert!(wy_entry(&policy).order.is_empty());
        // WY gets demand in the middle of a generation.
        assert_eq!(route(&mut policy, &nine, &a, &demand(1.0, 4000.0)), 3);
        assert_eq!(wy_entry(&policy).ranked_in, 3, "lazily ranked in the current generation");
        assert_eq!(wy_entry(&policy).order.len(), 9);

        policy.config.distance_threshold_km = 800.0;
        assert_eq!(route(&mut policy, &nine, &a, &demand(1.0, 4000.0)), 1, "new split");
        policy.config.price_threshold = 40.0;
        assert_eq!(route(&mut policy, &nine, &a, &demand(1.0, 4000.0)), 2, "new key");
        assert_eq!(route(&mut policy, &nine, &a, &demand(0.7, 4000.0)), 2);

        // New geometry under an identical price row: every memoised order
        // indexes the old cluster order, so all of them must go.
        policy.attach_preferences(&reversed_prefs);
        route(&mut policy, &reversed, &a, &demand(1.0, 4000.0));
        route(&mut policy, &reversed, &b, &demand(1.0, 4000.0));
        policy.attach_preferences(&nine_prefs);
        route(&mut policy, &nine, &b, &demand(1.0, 4000.0));
        // A context the attached geometry does not match self-compiles.
        route(&mut policy, &reversed, &b, &demand(1.0, 4000.0));
        assert_eq!(policy.own_geometry_builds(), 1);
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = PriceConsciousConfig::default();
        assert_eq!(cfg.price_threshold, 5.0);
        assert_eq!(cfg.distance_threshold_km, 1500.0);
    }

    #[test]
    fn shared_preferences_allocate_identically_without_recompiling() {
        let clusters = ClusterSet::akamai_like_nine();
        let states: Vec<UsState> = UsState::all().collect();
        let demand: Vec<f64> = (0..states.len()).map(|i| 100.0 + 37.0 * i as f64).collect();
        let prices: Vec<f64> = (0..9).map(|i| 30.0 + 11.0 * i as f64).collect();
        let shared = Arc::new(CompiledPreferences::build(&clusters, &states));

        for threshold in [0.0, 800.0, 1500.0, 50_000.0] {
            let c = ctx(&clusters, &states, &demand, &prices);
            let mut own = PriceConsciousPolicy::with_distance_threshold(threshold);
            let mut borrowed = PriceConsciousPolicy::with_distance_threshold(threshold)
                .with_shared_preferences(shared.clone());
            let a = own.allocate(&c);
            let b = borrowed.allocate(&c);
            assert_eq!(a.matrix(), b.matrix(), "threshold {threshold}");
            assert_eq!(own.own_geometry_builds(), 1);
            assert_eq!(borrowed.own_geometry_builds(), 0, "shared geometry must be reused");
        }
    }

    #[test]
    fn mismatching_shared_preferences_fall_back_to_self_compile() {
        let clusters = ClusterSet::akamai_like_nine();
        let other =
            ClusterSet::new(clusters.clusters().iter().take(3).cloned().collect::<Vec<_>>());
        let states = [UsState::MA];
        let demand = [1000.0];
        let prices = nine_prices(50.0);
        // Geometry compiled for a *different* deployment.
        let wrong = Arc::new(CompiledPreferences::build(&other, &states));
        assert_eq!(wrong.hub_ids().len(), 3);
        assert_eq!(wrong.states(), &states[..]);

        let c = ctx(&clusters, &states, &demand, &prices);
        let mut policy =
            PriceConsciousPolicy::with_distance_threshold(1500.0).with_shared_preferences(wrong);
        let a = policy.allocate(&c);
        assert_eq!(policy.own_geometry_builds(), 1, "mismatch must trigger a self-compile");
        let mut fresh = PriceConsciousPolicy::with_distance_threshold(1500.0);
        assert_eq!(a.matrix(), fresh.allocate(&c).matrix());
    }

    #[test]
    fn attach_preferences_trait_hook_reaches_the_policy() {
        let clusters = ClusterSet::akamai_like_nine();
        let states = [UsState::NY];
        let demand = [2000.0];
        let prices = nine_prices(60.0);
        let shared = Arc::new(CompiledPreferences::build(&clusters, &states));
        let mut policy: Box<dyn RoutingPolicy> =
            Box::new(PriceConsciousPolicy::with_distance_threshold(1000.0));
        policy.attach_preferences(&shared);
        let c = ctx(&clusters, &states, &demand, &prices);
        let _ = policy.allocate(&c);
        // And the default no-op implementation is callable on any policy.
        let mut baseline: Box<dyn RoutingPolicy> =
            Box::new(crate::baseline::NearestClusterPolicy::new());
        baseline.attach_preferences(&shared);
    }
}
