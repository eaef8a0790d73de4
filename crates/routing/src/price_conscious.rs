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
    assign_by_preference_into, AssignWorkspace, PreferenceSource, RoutingContext, RoutingKey,
    RoutingPolicy,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wattroute_geo::{hubs, state_to_hub_km, HubId, UsState};
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
/// reallocations, next to the memo of the state's preference order.
/// Geography never changes within a split; the cost row changes at most
/// hourly, so the order ranked from it is reused until it does.
///
/// The candidates are the clusters within the distance threshold (or the
/// paper's nearest + 50 km fallback set), and they are a prefix of the
/// state's nearest-first order: its first `runs` hub runs, which hold its
/// first `clusters` clusters. The rest of that order is the tail, the
/// last-resort overflow appended after the priced candidates.
#[derive(Debug, Clone)]
struct StateCandidates {
    runs: usize,
    clusters: usize,
    /// The order ranked so far in generation `ranked_in`: the cheap set
    /// (its first `head_len` entries, the pour's head), then — once
    /// `whole` — the other candidates by cost, then the tail.
    order: Vec<usize>,
    head_len: usize,
    /// Candidates costing at most this are in the cheap set.
    cheap_limit: f64,
    /// The [`ThresholdSplit::generation`] `order` was ranked in; `0`
    /// (never a live generation) until the pour first asks for the state.
    ranked_in: u64,
    whole: bool,
}

/// A maximal run of consecutive clusters at one hub, `start..end` in
/// cluster order. Every client state is equally far from each of them.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    end: usize,
}

// Compile-count instrumentation lives on the `wattroute_obs` registry: the
// `routing.compiled_preferences.builds` counter tracks every
// [`CompiledPreferences::build`] call so tests can assert that sweeps and
// Monte Carlo runs share one compiled geometry per (deployment, state
// list) instead of letting every engine compile its own. Registry
// counters are always live, so those pins hold without enabling
// telemetry.

/// The client–cluster geometry of one deployment and client state list:
/// the population-weighted distance from every state to every cluster's
/// hub ([`state_to_hub_km`]), and every state's clusters nearest first.
///
/// The paper's router considers only clusters "within some maximum radial
/// geographic distance" of a client, so this geometry is a fixed input of
/// every routing decision of a run. It depends only on the deployment's
/// hub list and the client state list — not on capacities, thresholds or
/// prices. An engine owns one behind an [`Arc`] (a scenario sweep or a
/// Monte Carlo run shares one compilation across its engines) and lends
/// it to the policy through every [`RoutingContext`]; its epoch refresh
/// reads its distance samples from the same table. Per-threshold
/// candidate splits and per-step rankings are derived from it without
/// computing or sorting a distance.
///
/// It also records the deployment's *hub runs*: maximal runs of
/// consecutive clusters at one hub, such as a tree region's metro of
/// sites. A distance is a property of the hub, so each state ranks its
/// runs by distance once, stably, and its cluster order is that run order
/// expanded run by run, in index order — exactly the stable per-cluster
/// sort. Two runs at one hub with another hub between them stay two runs.
#[derive(Debug, Clone)]
pub struct CompiledPreferences {
    hub_ids: Vec<HubId>,
    states: Vec<UsState>,
    /// The distance of every (cluster, state) pair in km, in the flat
    /// row-major `cluster × state` layout of an [`Allocation`].
    km: Vec<f64>,
    /// The hub runs, in cluster order.
    runs: Vec<Run>,
    /// Per state, state after state: every hub run by ascending distance,
    /// equidistant runs in cluster order.
    run_orders: Vec<Run>,
    /// Per state, state after state: every cluster index by ascending
    /// distance (the state's run order expanded), so a pour can borrow a
    /// state's order as one slice.
    orders: Vec<usize>,
}

impl CompiledPreferences {
    /// Compile the geometry of a deployment and client state list.
    pub fn build(clusters: &ClusterSet, states: &[UsState]) -> Self {
        wattroute_obs::counter!("routing.compiled_preferences.builds").inc();
        let hub_ids = clusters.hub_ids();
        let (n_clusters, n_states) = (hub_ids.len(), states.len());
        // Sized exactly: a doubling `collect` rounds a 1000-site tree's
        // shard tables up to 128 KiB blocks, which raised that replay's
        // peak RSS by about 5 MB (glibc, 2 vCPUs).
        let mut km = Vec::with_capacity(n_clusters * n_states);
        for &id in &hub_ids {
            let hub = hubs::hub(id);
            km.extend(states.iter().map(|&state| state_to_hub_km(state, hub)));
        }
        let mut runs: Vec<Run> = Vec::new();
        for (cluster, &id) in hub_ids.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if hub_ids[run.start] == id => run.end = cluster + 1,
                _ => runs.push(Run { start: cluster, end: cluster + 1 }),
            }
        }
        let mut run_orders = Vec::with_capacity(n_states * runs.len());
        let mut orders = Vec::with_capacity(n_states * n_clusters);
        for state in 0..n_states {
            let start = run_orders.len();
            run_orders.extend_from_slice(&runs);
            run_orders[start..].sort_by(|a, b| {
                km[a.start * n_states + state]
                    .partial_cmp(&km[b.start * n_states + state])
                    .expect("distances are finite")
            });
            for run in &run_orders[start..] {
                orders.extend(run.start..run.end);
            }
        }
        Self { hub_ids, states: states.to_vec(), km, runs, run_orders, orders }
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

    /// The distance from client state `state_idx` to cluster `cluster`,
    /// in km.
    pub(crate) fn km(&self, cluster: usize, state_idx: usize) -> f64 {
        self.km[cluster * self.states.len() + state_idx]
    }

    /// One client state's clusters, nearest first. Stable-sorted from
    /// cluster-index order, so equidistant clusters keep their deployment
    /// order — the same tie-break every in-crate distance sort uses, which
    /// is what lets the baselines and extension policies ride this
    /// geometry bit-identically.
    pub(crate) fn order(&self, state_idx: usize) -> &[usize] {
        let n = self.hub_ids.len();
        &self.orders[state_idx * n..(state_idx + 1) * n]
    }

    /// One client state's hub runs, nearest first, equidistant runs in
    /// cluster order: [`Self::order`] run by run.
    fn run_order(&self, state_idx: usize) -> &[Run] {
        let n = self.runs.len();
        &self.run_orders[state_idx * n..(state_idx + 1) * n]
    }

    /// Derive the per-threshold candidate/tail split from the ranked
    /// geometry: candidates are the hub runs within `threshold_km` (with
    /// the paper's nearest + 50 km fallback when none are), the tail is
    /// every other cluster. Distances ascend along a run order, so the
    /// candidates are a prefix of it.
    fn threshold_split(&self, threshold_km: f64) -> Vec<StateCandidates> {
        (0..self.states.len())
            .map(|state| {
                let order = self.run_order(state);
                let km = |run: &Run| self.km(run.start, state);
                let within =
                    |limit_km: f64| order.iter().take_while(|&run| km(run) <= limit_km).count();
                let runs = match (within(threshold_km), order.first()) {
                    // Fallback: nearest cluster plus any within 50 km of it.
                    (0, Some(nearest)) => within(km(nearest) + 50.0),
                    (runs, _) => runs,
                };
                StateCandidates {
                    runs,
                    clusters: order[..runs].iter().map(|run| run.end - run.start).sum(),
                    order: Vec::new(),
                    head_len: 0,
                    cheap_limit: 0.0,
                    ranked_in: 0,
                    whole: false,
                }
            })
            .collect()
    }
}

/// What one generation ranks: single clusters, or hub runs whose clusters
/// all share one cost.
trait Ranked: Copy {
    /// The cluster whose cost and rank stand for this item's.
    fn first(self) -> usize;

    /// Append this item's clusters to an order, in index order.
    fn write(self, order: &mut Vec<usize>);
}

impl Ranked for usize {
    fn first(self) -> usize {
        self
    }

    fn write(self, order: &mut Vec<usize>) {
        order.push(self);
    }
}

impl Ranked for Run {
    fn first(self) -> usize {
        self.start
    }

    fn write(self, order: &mut Vec<usize>) {
        order.extend(self.start..self.end);
    }
}

/// Write the cheap set of `candidates` into `order`: those costing at most
/// the cheapest plus `cost_threshold`, in candidate order. Returns that
/// limit.
fn cheap_set<R: Ranked>(
    candidates: &[R],
    costs: &[f64],
    cost_threshold: f64,
    order: &mut Vec<usize>,
) -> f64 {
    let cheapest = candidates.iter().map(|r| costs[r.first()]).fold(f64::INFINITY, f64::min);
    let limit = cheapest + cost_threshold;
    order.clear();
    for &r in candidates {
        if costs[r.first()] <= limit {
            r.write(order);
        }
    }
    limit
}

/// Append the candidates that cost more than `cheap_limit` to `order`, by
/// (cost rank, candidate position) as integer keys.
fn rank_costlier<R: Ranked>(
    candidates: &[R],
    costs: &[f64],
    cheap_limit: f64,
    rank: &[u32],
    keys: &mut Vec<u64>,
    order: &mut Vec<usize>,
) {
    let cheap = |r: &R| costs[r.first()] <= cheap_limit;
    keys.clear();
    keys.extend(
        candidates
            .iter()
            .enumerate()
            .filter(|&(_, r)| !cheap(r))
            .map(|(position, r)| (u64::from(rank[r.first()]) << 32) | position as u64),
    );
    keys.sort_unstable();
    for &key in keys.iter() {
        candidates[key as u32 as usize].write(order);
    }
}

/// A [`CompiledPreferences`] specialised to one distance threshold — the
/// cheap, per-policy half of the compilation — plus the memo of per-state
/// preference orders ranked over it, lent to the pour as a
/// [`PreferenceSource`].
///
/// A state's order is a function of the split (geometry and distance
/// threshold), the cost threshold and the cost row (the delayed prices,
/// or the carbon intensities), never of demand. A context lending another
/// compilation of the geometry, or a new distance threshold, builds a new
/// split, which drops the memo with it; a cost row or cost threshold that
/// differs in any bit from the current generation's starts a new
/// generation, which stales every order ranked in an older one.
///
/// The memo ranks lazily, in two stages. A state's head is its cheap set
/// — the candidates costing at most the cheapest plus the cost threshold,
/// nearest first — found by one scan with no sort. The rest (the other
/// candidates by cost then distance, then the tail) is ranked only when
/// the pour walks past the head, from a dense rank of the cost row made at
/// most once per generation: equal costs share a rank, so sorting the
/// candidates by (rank, distance position) as integers gives exactly the
/// (cost, distance) order of a stable float sort, ties included. When the
/// cheap set is empty (a negative or NaN cost threshold), the head is the
/// whole order.
///
/// A generation whose cost row compares equal (`==`) across every hub run
/// ranks hub runs instead of clusters: the scan, the dense rank and the
/// (rank, position) sort each see one item per run, and a run is expanded
/// into its clusters, in index order, only when the head or the rest is
/// written. That is exact: a run's clusters share a distance, so they are
/// consecutive in the state's nearest-first order, and they share a cost,
/// so they share a rank and cheapness; a stable order by a key constant on
/// contiguous index ranges, expanded range by range, is the per-cluster
/// order. Price rows are per hub, so they rank runs. A row that differs
/// inside a run (per-site carbon intensities) ranks runs of one — single
/// clusters — in the same code, as does every generation of a deployment
/// whose hub runs are all single clusters.
#[derive(Debug, Clone)]
struct ThresholdSplit {
    /// The geometry the split was derived from, kept alive so that a
    /// context lending another compilation is told apart in O(1), by
    /// address.
    geometry: Arc<CompiledPreferences>,
    distance_threshold_km: f64,
    per_state: Vec<StateCandidates>,
    /// Counts the distinct (cost row, cost threshold) keys seen in a row;
    /// `0` before the first.
    generation: u64,
    /// The cost row of the current generation.
    costs: Vec<f64>,
    /// The cost threshold of the current generation.
    cost_threshold: f64,
    /// Whether the current generation ranks hub runs: some run holds more
    /// than one cluster, and the cost row is equal across every run.
    by_hub: bool,
    /// Dense rank of each ranked item's cost, indexed by the item's first
    /// cluster, made in generation `rank_in`.
    rank: Vec<u32>,
    rank_in: u64,
    /// Scratch: ranked items' first clusters by cost, and a state's
    /// (rank, position) keys.
    by_cost: Vec<usize>,
    keys: Vec<u64>,
}

impl ThresholdSplit {
    fn new(geometry: &Arc<CompiledPreferences>, distance_threshold_km: f64) -> Self {
        Self {
            geometry: Arc::clone(geometry),
            distance_threshold_km,
            per_state: geometry.threshold_split(distance_threshold_km),
            generation: 0,
            costs: Vec::new(),
            cost_threshold: 0.0,
            by_hub: false,
            rank: Vec::new(),
            rank_in: 0,
            by_cost: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Key the memo on `costs` and `cost_threshold`: start a new
    /// generation unless both equal the current one's bit for bit.
    fn key_on(&mut self, costs: &[f64], cost_threshold: f64) {
        let same = self.generation != 0
            && self.cost_threshold.to_bits() == cost_threshold.to_bits()
            && self.costs.len() == costs.len()
            && self.costs.iter().zip(costs).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.generation += 1;
            self.costs.clear();
            self.costs.extend_from_slice(costs);
            self.cost_threshold = cost_threshold;
            let runs = &self.geometry.runs;
            self.by_hub = runs.len() < costs.len()
                && runs.iter().all(|run| {
                    costs[run.start + 1..run.end].iter().all(|&cost| cost == costs[run.start])
                });
        }
    }

    /// Restamp `state`'s memo with its cheap set in the current generation,
    /// unless it already holds this generation's ranking.
    fn scan(&mut self, state: usize) {
        let Self { geometry, per_state, generation, costs, cost_threshold, by_hub, .. } = self;
        let entry = &mut per_state[state];
        if entry.ranked_in == *generation {
            return;
        }
        entry.cheap_limit = if *by_hub {
            let candidates = &geometry.run_order(state)[..entry.runs];
            cheap_set(candidates, costs, *cost_threshold, &mut entry.order)
        } else {
            let candidates = &geometry.order(state)[..entry.clusters];
            cheap_set(candidates, costs, *cost_threshold, &mut entry.order)
        };
        entry.head_len = entry.order.len();
        entry.ranked_in = *generation;
        entry.whole = false;
        if entry.head_len == 0 {
            self.rank_rest(state);
            let entry = &mut self.per_state[state];
            entry.head_len = entry.order.len();
        }
    }

    /// Append the rest of `state`'s order after its cheap set: the other
    /// candidates by (cost rank, distance position), then the tail.
    fn rank_rest(&mut self, state: usize) {
        self.rank_row();
        let Self { geometry, per_state, costs, by_hub, rank, keys, .. } = self;
        let entry = &mut per_state[state];
        let (limit, order) = (entry.cheap_limit, &mut entry.order);
        if *by_hub {
            let candidates = &geometry.run_order(state)[..entry.runs];
            rank_costlier(candidates, costs, limit, rank, keys, order);
        } else {
            let candidates = &geometry.order(state)[..entry.clusters];
            rank_costlier(candidates, costs, limit, rank, keys, order);
        }
        order.extend_from_slice(&geometry.order(state)[entry.clusters..]);
        entry.whole = true;
    }

    /// Rank the current cost row densely, once per generation, over the
    /// items it ranks (hub runs or clusters): the cheapest get rank 0, and
    /// equal costs (`0.0` and `-0.0` included) share a rank.
    fn rank_row(&mut self) {
        if self.rank_in == self.generation {
            return;
        }
        let Self { geometry, costs, by_hub, rank, by_cost, .. } = self;
        by_cost.clear();
        if *by_hub {
            by_cost.extend(geometry.runs.iter().map(|run| run.start));
        } else {
            by_cost.extend(0..costs.len());
        }
        by_cost.sort_unstable_by(|&a, &b| costs[a].partial_cmp(&costs[b]).expect("finite prices"));
        rank.clear();
        rank.resize(costs.len(), 0);
        let mut dense = 0;
        for (k, &i) in by_cost.iter().enumerate() {
            if k > 0 && costs[i] != costs[by_cost[k - 1]] {
                dense += 1;
            }
            rank[i] = dense;
        }
        self.rank_in = self.generation;
    }
}

impl PreferenceSource for ThresholdSplit {
    fn head(&mut self, state: usize) -> &[usize] {
        self.scan(state);
        let entry = &self.per_state[state];
        &entry.order[..entry.head_len]
    }

    fn order(&mut self, state: usize) -> &[usize] {
        self.scan(state);
        if !self.per_state[state].whole {
            self.rank_rest(state);
        }
        &self.per_state[state].order
    }
}

/// The threshold-ranking kernel the price-conscious and carbon-aware
/// policies share: route each state to the lowest-cost clusters within a
/// distance threshold, cost differences below a threshold going to the
/// nearer cluster. Holds the split of the context's geometry for the
/// current distance threshold, with its memo, and the pour's workspace.
#[derive(Debug, Clone, Default)]
pub(crate) struct ThresholdRouter {
    split: Option<ThresholdSplit>,
    workspace: AssignWorkspace,
}

impl ThresholdRouter {
    /// Allocate one step by the per-cluster `costs` row.
    pub(crate) fn route(
        &mut self,
        out: &mut Allocation,
        ctx: &RoutingContext<'_>,
        distance_threshold_km: f64,
        costs: &[f64],
        cost_threshold: f64,
    ) {
        let current = self.split.as_ref().is_some_and(|s| {
            Arc::ptr_eq(&s.geometry, ctx.geometry)
                && s.distance_threshold_km == distance_threshold_km
        });
        if !current {
            self.split = Some(ThresholdSplit::new(ctx.geometry, distance_threshold_km));
        }
        let split = self.split.as_mut().expect("derived above");
        split.key_on(costs, cost_threshold);
        // The pour runs on every call, since it depends on demand; the
        // memo ranks only what the pour reaches.
        assign_by_preference_into(ctx, &mut self.workspace, out, split);
    }
}

/// The distance-constrained electricity price optimizer.
#[derive(Debug, Clone, Default)]
pub struct PriceConsciousPolicy {
    /// Tunable parameters.
    pub config: PriceConsciousConfig,
    /// Split, preference-order memo and pour workspace, reused across
    /// reallocations.
    router: ThresholdRouter,
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
}

impl RoutingPolicy for PriceConsciousPolicy {
    fn name(&self) -> &str {
        "price-conscious"
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        let PriceConsciousConfig { distance_threshold_km, price_threshold } = self.config;
        self.router.route(out, ctx, distance_threshold_km, ctx.prices, price_threshold);
    }

    fn routing_key(&self) -> Option<RoutingKey> {
        // Named field by field, so a new field does not compile until it
        // is keyed or declared routing-neutral: the router's split, memo
        // and scratch never change an allocation.
        let Self {
            config: PriceConsciousConfig { distance_threshold_km, price_threshold },
            router: _,
        } = self;
        Some(RoutingKey::of::<Self>().with(*distance_threshold_km).with(*price_threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wattroute_geo::distance::{self, RankedHub};
    use wattroute_geo::topology::Topology;
    use wattroute_geo::HubId;
    use wattroute_market::time::SimHour;
    use wattroute_workload::hierarchy::site_clusters;
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
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
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
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
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
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
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
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let a = policy.allocate(&c);
        assert_eq!(a.matrix()[boston][0], 1000.0);

        // Make the differential exceed the threshold and NYC wins.
        let mut prices2 = nine_prices(60.0);
        prices2[boston] = 50.0;
        prices2[nyc] = 40.0;
        let c2 = ctx(&clusters, &geometry, &demand, &prices2);
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
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
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
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices).with_bandwidth_caps(caps);
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
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
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
        let geometry = compile(&clusters, &states);
        let c = ctx(&clusters, &geometry, &demand, &prices);
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

    /// The preference order the memo replaced, verbatim: the threshold
    /// split of the state's hubs ranked by distance as the geometry once
    /// ranked them, then the two-stage comparator ranking. Returns the
    /// state's cheap set and its whole order.
    fn reference_order(
        compiled: &CompiledPreferences,
        state_idx: usize,
        threshold_km: f64,
        prices: &[f64],
        price_threshold: f64,
    ) -> (Vec<usize>, Vec<usize>) {
        let hub_refs: Vec<&wattroute_geo::Hub> =
            compiled.hub_ids().iter().map(|&id| hubs::hub(id)).collect();
        let state = compiled.states()[state_idx];
        let ranked = distance::hubs_within_threshold(state, &hub_refs, f64::INFINITY);
        let within: Vec<RankedHub> =
            ranked.iter().copied().filter(|(_, d)| *d <= threshold_km).collect();
        let candidates = if !within.is_empty() || ranked.is_empty() {
            within
        } else {
            let nearest = ranked[0].1;
            ranked.iter().copied().filter(|(_, d)| *d <= nearest + 50.0).collect()
        };
        let tail: Vec<usize> = ranked
            .iter()
            .filter(|(i, _)| !candidates.iter().any(|(c, _)| c == i))
            .map(|(i, _)| *i)
            .collect();
        let mut scratch = (Vec::new(), Vec::new());
        let mut order = Vec::new();
        preference_order_into(
            price_threshold,
            prices,
            &candidates,
            &tail,
            &mut scratch,
            &mut order,
        );
        (scratch.0.iter().map(|(i, _)| *i).collect(), order)
    }

    /// Verbatim copy of the comparator ranking the memo replaced (its
    /// scratch struct is a tuple here).
    fn preference_order_into(
        price_threshold: f64,
        prices: &[f64],
        candidates: &[RankedHub],
        tail: &[usize],
        scratch: &mut (Vec<RankedHub>, Vec<RankedHub>),
        out: &mut Vec<usize>,
    ) {
        let cheapest = candidates.iter().map(|(i, _)| prices[*i]).fold(f64::INFINITY, f64::min);
        scratch.0.clear();
        scratch.1.clear();
        for &(i, d) in candidates {
            if prices[i] <= cheapest + price_threshold {
                scratch.0.push((i, d));
            } else {
                scratch.1.push((i, d));
            }
        }
        scratch.1.sort_by(|(ia, da), (ib, db)| {
            prices[*ia]
                .partial_cmp(&prices[*ib])
                .expect("finite prices")
                .then(da.partial_cmp(db).expect("finite distances"))
        });

        out.extend(scratch.0.iter().chain(scratch.1.iter()).map(|(i, _)| *i));
        out.extend_from_slice(tail);
    }

    #[test]
    fn memoised_orders_match_a_fresh_policy_per_call() {
        // Small clusters, so the pour spills past first choices and the
        // whole preference order shapes the allocation.
        let nine = ClusterSet::akamai_like_nine().scaled(0.05);
        let reversed = ClusterSet::new(nine.clusters().iter().rev().cloned().collect::<Vec<_>>());
        let states: Vec<UsState> = UsState::all().collect();
        let nine_prefs = compile(&nine, &states);
        let reversed_prefs = compile(&reversed, &states);
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
        let only_wy = |wy_demand: f64| demand(0.0, wy_demand);

        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        // Route one context through the long-lived policy and a fresh one,
        // returning the memo generation the long-lived policy routed in.
        // The fresh policy routes over a geometry of its own.
        let mut out = Allocation::zeros(1, 1);
        let mut route = |policy: &mut PriceConsciousPolicy,
                         clusters: &ClusterSet,
                         geometry: &Arc<CompiledPreferences>,
                         prices: &[f64],
                         demand: &[f64]| {
            policy.allocate_into(&mut out, &ctx(clusters, geometry, demand, prices));
            let own = compile(clusters, &states);
            let fresh = PriceConsciousPolicy::new(policy.config)
                .allocate(&ctx(clusters, &own, demand, prices));
            assert_eq!(bits(&out), bits(&fresh), "memoised policy diverged from a fresh one");
            let split = policy.router.split.as_ref().expect("routed");
            assert!(Arc::ptr_eq(&split.geometry, geometry), "the split is the context's");
            split.generation
        };
        let wy_entry =
            |p: &PriceConsciousPolicy| p.router.split.as_ref().unwrap().per_state[wy].clone();

        let mut generations = vec![route(&mut policy, &nine, &nine_prefs, &a, &quiet_wy)];
        assert_eq!(wy_entry(&policy).ranked_in, 0, "a zero-demand state is never ranked");
        assert!(wy_entry(&policy).order.is_empty());
        generations.push(route(&mut policy, &nine, &nine_prefs, &a, &demand(1.3, 0.0))); // row repeats
        generations.push(route(&mut policy, &nine, &nine_prefs, &b, &quiet_wy)); // row changes
        generations.push(route(&mut policy, &nine, &nine_prefs, &a, &quiet_wy)); // and changes back
        assert_eq!(generations, [1, 1, 2, 3], "only a changed row starts a generation");
        assert!(wy_entry(&policy).order.is_empty());

        // WY gets demand in the middle of a generation. A pour that stops
        // inside its cheap set leaves just the cheap set in the memo...
        let (cheap, whole) = reference_order(&nine_prefs, wy, 1500.0, &a, 5.0);
        assert!(!cheap.is_empty() && cheap.len() < 9, "WY must have a rest to rank");
        assert_eq!(route(&mut policy, &nine, &nine_prefs, &a, &only_wy(1.0)), 3);
        let entry = wy_entry(&policy);
        assert_eq!(entry.ranked_in, 3, "lazily ranked in the current generation");
        assert_eq!((&entry.order, entry.head_len, entry.whole), (&cheap, cheap.len(), false));
        // ...and a pour that walks past it memoises the whole order.
        assert_eq!(route(&mut policy, &nine, &nine_prefs, &a, &only_wy(1.0e9)), 3);
        let entry = wy_entry(&policy);
        assert_eq!((&entry.order, entry.head_len, entry.whole), (&whole, cheap.len(), true));
        assert_eq!(entry.order.len(), 9);
        assert_eq!(route(&mut policy, &nine, &nine_prefs, &a, &demand(1.0, 4000.0)), 3);
        assert_eq!(
            wy_entry(&policy).order,
            whole,
            "the whole order stays memoised for the generation"
        );

        policy.config.distance_threshold_km = 800.0;
        assert_eq!(
            route(&mut policy, &nine, &nine_prefs, &a, &demand(1.0, 4000.0)),
            1,
            "new split"
        );
        policy.config.price_threshold = 40.0;
        assert_eq!(route(&mut policy, &nine, &nine_prefs, &a, &demand(1.0, 4000.0)), 2, "new key");
        assert_eq!(route(&mut policy, &nine, &nine_prefs, &a, &demand(0.7, 4000.0)), 2);

        // New geometry under an identical price row: every memoised order
        // indexes the old cluster order, so all of them must go.
        assert_eq!(route(&mut policy, &reversed, &reversed_prefs, &a, &demand(1.0, 4000.0)), 1);
        route(&mut policy, &reversed, &reversed_prefs, &b, &demand(1.0, 4000.0));
        assert_eq!(route(&mut policy, &nine, &nine_prefs, &b, &demand(1.0, 4000.0)), 1);
        // Another compilation of the same geometry is told apart by
        // address alone, and allocates alike.
        let nine_again = compile(&nine, &states);
        assert_eq!(route(&mut policy, &nine, &nine_again, &b, &demand(1.0, 4000.0)), 1);
        assert_eq!(route(&mut policy, &nine, &nine_again, &b, &demand(0.9, 4000.0)), 1);
    }

    /// Prices that tie, sit exactly one threshold apart ($5 and $2.50),
    /// straddle a threshold by a hair, differ only in sign (`±0.0`) or are
    /// infinite.
    const PALETTE: [f64; 16] = [
        40.0,
        45.0,
        50.0,
        35.0,
        42.5,
        47.5,
        44.999_999_999,
        45.000_000_001,
        0.0,
        -0.0,
        5.0,
        -5.0,
        2.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0e300,
    ];

    /// One region of a synthetic 200-site tree: one hub run per metro.
    fn tree_region(seed: u64) -> ClusterSet {
        let topology = Topology::synthetic(seed, 200);
        let (s0, s1) = topology.region_sites(seed as usize % topology.num_regions());
        ClusterSet::with_shared_hubs(site_clusters(&topology).clusters()[s0..s1].to_vec())
    }

    /// Deployments whose hub runs are single clusters: 9 and 29 clusters,
    /// and 18 that place two clusters at every hub, nine apart, so equal
    /// distances tie across runs. Then three whose runs are longer: each of
    /// the nine hubs three times in a row, an `A A B A` layout that puts
    /// two runs at one hub, and one region of a synthetic tree.
    fn deployments(tree_seed: u64) -> Vec<ClusterSet> {
        let nine = ClusterSet::akamai_like_nine();
        let doubled = nine.clusters().iter().chain(nine.clusters()).cloned().collect::<Vec<_>>();
        let tripled = nine.clusters().iter().flat_map(|c| [c, c, c]).cloned().collect::<Vec<_>>();
        let (a, b) = (&nine.clusters()[0], &nine.clusters()[3]);
        let split_runs = [a, a, b, a].into_iter().cloned().collect::<Vec<_>>();
        vec![
            nine,
            ClusterSet::even_29_hub(1000),
            ClusterSet::with_shared_hubs(doubled),
            ClusterSet::with_shared_hubs(tripled),
            ClusterSet::with_shared_hubs(split_runs),
            tree_region(tree_seed),
        ]
    }

    /// Whether some hub run of `clusters` holds more than one cluster.
    fn has_long_runs(clusters: &ClusterSet) -> bool {
        clusters.clusters().windows(2).any(|pair| pair[0].hub == pair[1].hub)
    }

    proptest! {
        #[test]
        fn head_then_rest_equals_the_comparator_ranking(
            deployment in 0usize..6,
            tree_seed in 0u64..1000,
            picks in prop::collection::vec(0usize..PALETTE.len(), 29..30),
            threshold_km in prop::sample::select(vec![0.0, 300.0, 800.0, 1500.0, 2500.0, 5.0e4]),
            price_threshold in prop::sample::select(vec![5.0, 2.5, 0.0, -0.0, -1.0, f64::INFINITY]),
            asks in prop::collection::vec(0usize..3, 51..52),
        ) {
            let clusters = &deployments(tree_seed)[deployment];
            let states: Vec<UsState> = UsState::all().collect();
            let compiled = compile(clusters, &states);
            let n = clusters.len();
            // The first cluster at each cluster's hub: rows drawn by it are
            // per hub, equal across every run, as price rows are.
            let hub_of = |c: usize| clusters.index_of_hub(clusters.clusters()[c].hub).unwrap();
            let by_hub: Vec<f64> = (0..n).map(|c| PALETTE[picks[hub_of(c) % 29]]).collect();
            let by_cluster: Vec<f64> = (0..n).map(|c| PALETTE[picks[c % 29]]).collect();
            // Per hub, except that the first hub's clusters alternate 0.0
            // and -0.0: equal inside every run, though not bit for bit.
            let signed_zeros: Vec<f64> = (0..n)
                .map(|c| if hub_of(c) == 0 { [0.0, -0.0][c % 2] } else { by_hub[c] })
                .collect();
            let mut split = ThresholdSplit::new(&compiled, threshold_km);
            // One generation per row, so each re-stamps what the last ranked
            // and the ranking switches between hub runs and clusters.
            for (row, per_hub) in [(by_hub, true), (by_cluster, false), (signed_zeros, true)] {
                split.key_on(&row, price_threshold);
                if per_hub {
                    prop_assert_eq!(split.by_hub, has_long_runs(clusters), "ranks hub runs");
                }
                for (s, &ask) in asks.iter().enumerate() {
                    let (cheap, whole) =
                        reference_order(&compiled, s, threshold_km, &row, price_threshold);
                    // The pour may ask for a head twice, or skip straight to
                    // the order; either way head ++ rest is the old ranking.
                    let head = split.head(s).to_vec();
                    if ask == 1 {
                        prop_assert_eq!(split.head(s), &head[..]);
                    }
                    let expected_head = if cheap.is_empty() { &whole } else { &cheap };
                    prop_assert_eq!(&head, expected_head);
                    if ask != 2 {
                        prop_assert_eq!(split.order(s), &whole[..]);
                        prop_assert_eq!(split.head(s), &head[..]);
                    }
                }
            }
        }
    }

    #[test]
    fn a_nan_cost_anywhere_panics_when_the_rest_is_ranked() {
        let states: Vec<UsState> = UsState::all().collect();
        for clusters in deployments(7) {
            let compiled = compile(&clusters, &states);
            for nan_at in 0..clusters.len() {
                let mut row = vec![40.0; clusters.len()];
                row[nan_at] = f64::NAN;
                let mut split = ThresholdSplit::new(&compiled, 1500.0);
                split.key_on(&row, 5.0);
                let ranked =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| split.order(0).len()));
                let payload = ranked.expect_err("a NaN cost must not rank");
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned());
                assert_eq!(message.as_deref(), Some("finite prices"), "NaN at {nan_at}");
            }
        }
    }

    #[test]
    fn a_price_row_policy_over_a_tree_shard_builds_its_split_once() {
        // A region of the 1000-site tree, shrunk so that demand overflows
        // the cheap sets and the rest is ranked too.
        let topology = Topology::synthetic(2009, 1000);
        let (s0, s1) = topology.region_sites(0);
        let region = site_clusters(&topology).clusters()[s0..s1].to_vec();
        let clusters = ClusterSet::with_shared_hubs(region).scaled(0.05);
        assert!(has_long_runs(&clusters));
        let states: Vec<UsState> = UsState::all().collect();
        let geometry = compile(&clusters, &states);
        let demand: Vec<f64> = (0..states.len()).map(|i| 500.0 + 373.0 * (i % 11) as f64).collect();
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        for hour in 1..=48u64 {
            // One price per hub, read through a site → hub indirection as
            // the tree's shards read theirs; every hub's changes hourly.
            let prices: Vec<f64> = (0..clusters.len())
                .map(|c| clusters.index_of_hub(clusters.clusters()[c].hub).unwrap() as u64)
                .map(|first| 20.0 + ((hour * 7919 + first * 104_729) % 97) as f64)
                .collect();
            let a = policy.allocate(&ctx(&clusters, &geometry, &demand, &prices));
            assert!(a.serves_demand(&demand, 1e-6));
            let split = policy.router.split.as_ref().expect("routed");
            assert!(Arc::ptr_eq(&split.geometry, &geometry));
            assert_eq!(split.generation, hour, "one split across every hour, no rebuild");
            assert!(split.by_hub, "a price row ranks hub runs");
            assert_eq!(split.rank_in, hour, "the rest was ranked this hour");
        }
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
        let shared = compile(&clusters, &states);

        for threshold in [0.0, 800.0, 1500.0, 50_000.0] {
            let own = compile(&clusters, &states);
            let mut alone = PriceConsciousPolicy::with_distance_threshold(threshold);
            let mut borrowed = PriceConsciousPolicy::with_distance_threshold(threshold);
            let a = alone.allocate(&ctx(&clusters, &own, &demand, &prices));
            let b = borrowed.allocate(&ctx(&clusters, &shared, &demand, &prices));
            assert_eq!(bits(&a), bits(&b), "threshold {threshold}");
            let split = borrowed.router.split.as_ref().expect("routed");
            assert!(Arc::ptr_eq(&split.geometry, &shared), "the shared geometry is the one used");
        }
    }

    #[test]
    #[should_panic(expected = "geometry compiled for another deployment")]
    fn a_context_rejects_geometry_compiled_for_another_deployment() {
        let clusters = ClusterSet::akamai_like_nine();
        let other = ClusterSet::new(clusters.clusters().iter().rev().cloned().collect::<Vec<_>>());
        let states = [UsState::MA];
        let wrong = compile(&other, &states);
        let _ = ctx(&clusters, &wrong, &[1000.0], &nine_prices(50.0));
    }
}
