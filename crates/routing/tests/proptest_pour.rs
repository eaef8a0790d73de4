//! Property test: the one generic pour — two-stage preference source,
//! sort-free placement, one loop for flat and tier-aware headroom —
//! allocates bit for bit like the two pours it replaced, kept below
//! verbatim as the reference.
//!
//! Cases aim demand at ceilings to within 10⁻¹² to 10⁻⁶ of them,
//! relatively, on either side of the sort-free margin; use caps of `0.0`,
//! `-0.0` and `∞`, zero and `-0.0` demand, tied demands, subnormal
//! demands and demands near 10³⁰², and empty preference lists; and put
//! tier caps that bind only at a metro or only at a region. Each case
//! also checks that the data alone chose the path: the pour skipped its
//! sort exactly when every aimed total fit its ceiling with the margin.
//!
//! A second property runs sequences of demand rows through one workspace,
//! whose sorted pour starts from the order it left: each call must pour
//! its states in the order, and allocate the bits, of a fresh workspace.

use proptest::prelude::*;
use std::sync::Arc;
use wattroute_geo::UsState;
use wattroute_market::time::SimHour;
use wattroute_routing::allocation::Allocation;
use wattroute_routing::constraints::{ConstraintSet, TierCaps};
use wattroute_routing::policy::{
    assign_by_preference_into, AssignWorkspace, PreferenceSource, RoutingContext,
};
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_workload::ClusterSet;

/// Scratch of the reference pours (the old `AssignWorkspace`'s fields).
#[derive(Default)]
struct RefWorkspace {
    remaining_cap: Vec<f64>,
    order: Vec<usize>,
    candidates: Vec<usize>,
    metro_rem: Vec<f64>,
    region_rem: Vec<f64>,
}

/// The flat pour the generic one replaced, verbatim.
fn reference_pour<F>(
    ctx: &RoutingContext<'_>,
    workspace: &mut RefWorkspace,
    out: &mut Allocation,
    mut preferences: F,
) where
    F: FnMut(usize, UsState, &mut Vec<usize>),
{
    if ctx.constraints.tier_caps().is_some() {
        return reference_tiered_pour(ctx, workspace, out, preferences);
    }
    let n_clusters = ctx.clusters.len();
    let n_states = ctx.states().len();
    out.reset(n_clusters, n_states);
    let RefWorkspace { remaining_cap, order, candidates, .. } = workspace;
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
        preferences(state_idx, ctx.states()[state_idx], candidates);
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

/// The tier-aware pour the generic one replaced, verbatim.
fn reference_tiered_pour<F>(
    ctx: &RoutingContext<'_>,
    workspace: &mut RefWorkspace,
    out: &mut Allocation,
    mut preferences: F,
) where
    F: FnMut(usize, UsState, &mut Vec<usize>),
{
    let tiers = ctx.constraints.tier_caps().expect("caller checked tier caps");
    let n_clusters = ctx.clusters.len();
    let n_states = ctx.states().len();
    out.reset(n_clusters, n_states);
    let RefWorkspace { remaining_cap, order, candidates, metro_rem, region_rem } = workspace;
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
        preferences(state_idx, ctx.states()[state_idx], candidates);
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

/// Lends each state's list in two stages — a head of `head_len[state]`
/// entries, then the whole list — and counts what the pour asks for.
struct TwoStage<'a> {
    lists: &'a [Vec<usize>],
    head_len: &'a [usize],
    head_asks: Vec<usize>,
    order_asks: Vec<usize>,
}

impl PreferenceSource for TwoStage<'_> {
    fn head(&mut self, state: usize) -> &[usize] {
        self.head_asks[state] += 1;
        &self.lists[state][..self.head_len[state]]
    }

    fn order(&mut self, state: usize) -> &[usize] {
        self.order_asks[state] += 1;
        &self.lists[state]
    }
}

/// Lends each state's whole list as its head too, and records the states
/// the pour asks heads for, in the order it asks.
struct Recorded<'a> {
    lists: &'a [Vec<usize>],
    asked: Vec<usize>,
}

impl PreferenceSource for Recorded<'_> {
    fn head(&mut self, state: usize) -> &[usize] {
        self.asked.push(state);
        &self.lists[state]
    }

    fn order(&mut self, state: usize) -> &[usize] {
        &self.lists[state]
    }
}

/// SplitMix64, seeded per case, for the case builder's many draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Which ceilings a case places its aimed totals against.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Binding {
    /// Site caps only, no tier caps.
    Flat,
    /// Tier caps that bind only at a metro.
    Metro,
    /// Tier caps that bind only at a region.
    Region,
    /// Site, metro and region caps all near their aimed totals.
    Every,
}

/// The size of a case's positive demands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Magnitude {
    /// Tens to thousands of hits per second.
    Ordinary,
    /// Below the smallest normal float.
    Subnormal,
    /// Within a few powers of ten of the largest float: 51 of them still
    /// sum, and scale by a ceiling's offset, without overflow.
    Huge,
    /// Each demand one of the above.
    Mixed,
}

impl Magnitude {
    const ALL: [Magnitude; 4] =
        [Magnitude::Ordinary, Magnitude::Subnormal, Magnitude::Huge, Magnitude::Mixed];

    fn draw(self, draws: &mut Draws) -> f64 {
        match self {
            Magnitude::Ordinary => 10.0 + 5_000.0 * draws.unit(),
            Magnitude::Subnormal => f64::from_bits(1 + draws.next() % ((1 << 52) - 1)),
            Magnitude::Huge => 1.0e300 * (1.0 + 99.0 * draws.unit()),
            Magnitude::Mixed => draws
                .pick(&[Magnitude::Ordinary, Magnitude::Subnormal, Magnitude::Huge])
                .draw(draws),
        }
    }
}

/// Relative offsets of a ceiling from the demand aimed at it: inside,
/// at and outside the sort-free margin of 10⁻⁹, and far from it.
const OFFSETS: [f64; 13] =
    [-1e-6, -1e-9, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-9, 2e-9, 1e-8, 1e-6, 0.5, 3.0];

/// A ceiling for `aimed` total demand: near it, or `0.0`, `-0.0` or `∞`.
fn ceiling(draws: &mut Draws, aimed: f64, tight: bool) -> f64 {
    match draws.below(if tight { 12 } else { 4 }) {
        0 => f64::INFINITY,
        1 if tight => 0.0,
        2 if tight => -0.0,
        _ if !tight => f64::INFINITY,
        _ => {
            let offset = draws.pick(&OFFSETS);
            if aimed > 0.0 {
                aimed * (1.0 + offset)
            } else {
                1.0e4 * draws.unit()
            }
        }
    }
}

/// Every aimed total at most its ceiling × (1 − 10⁻⁹), summed in state
/// order as the pour sums them; a node nothing aims at is never checked.
fn fits(aimed: &[f64], caps: &[f64]) -> bool {
    aimed.iter().zip(caps).all(|(a, c)| *a == 0.0 || *a <= c * (1.0 - 1e-9))
}

fn bits(a: &Allocation) -> Vec<u64> {
    a.matrix().iter().flatten().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn the_pour_matches_the_reference_pours(
        seed in 0u64..u64::MAX,
        n_states in 1usize..52,
        binding in prop::sample::select(
            vec![Binding::Flat, Binding::Metro, Binding::Region, Binding::Every]
        ),
        loose in prop::sample::select(vec![false, true]),
    ) {
        let mut draws = Draws(seed);
        let clusters = ClusterSet::akamai_like_nine();
        let n = clusters.len();
        let states: Vec<UsState> = UsState::all().take(n_states).collect();

        // Preference lists: shuffled prefixes of every cluster, in one case
        // of four now and then empty; each with a head of 1..=len entries.
        let empties = draws.below(4) == 0;
        let mut lists = Vec::new();
        let mut head_len = Vec::new();
        for _ in 0..n_states {
            let mut all: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                all.swap(i, draws.below(i + 1));
            }
            let len = if empties && draws.below(20) == 0 { 0 } else { 1 + draws.below(n) };
            all.truncate(len);
            head_len.push(if len == 0 { 0 } else { 1 + draws.below(len) });
            lists.push(all);
        }
        // Demands of one magnitude per case — ordinary, subnormal, near
        // the top of the float range, or all three mixed — with ties drawn
        // from a pool of three values.
        let magnitude = draws.pick(&Magnitude::ALL);
        let pool: Vec<f64> = (0..3).map(|_| magnitude.draw(&mut draws)).collect();
        let demand: Vec<f64> = (0..n_states)
            .map(|_| match draws.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => draws.pick(&pool),
                _ => magnitude.draw(&mut draws),
            })
            .collect();

        // Tree: sites 0..9 under three metros, the metros under two regions.
        let site_metro: Vec<usize> = (0..n).map(|c| c % 3).collect();
        let site_region: Vec<usize> = site_metro.iter().map(|m| m % 2).collect();
        let mut site_aim = vec![0.0; n];
        let mut metro_aim = vec![0.0; 3];
        let mut region_aim = vec![0.0; 2];
        for (s, &d) in demand.iter().enumerate() {
            if d > 0.0 && !lists[s].is_empty() {
                let first = lists[s][0];
                site_aim[first] += d;
                metro_aim[site_metro[first]] += d;
                region_aim[site_region[first]] += d;
            }
        }
        // Loose cases leave one ceiling near its aim and the rest roomy,
        // so the sort-free placement runs as often as the sorted pour.
        let near = draws.below(n);
        let site_tight = |c: usize| matches!(binding, Binding::Flat | Binding::Every)
            && (!loose || c == near);
        let site_caps: Vec<f64> =
            (0..n).map(|c| ceiling(&mut draws, site_aim[c], site_tight(c))).collect();
        let metro_tight = matches!(binding, Binding::Metro | Binding::Every);
        let metro_caps: Vec<f64> = (0..3)
            .map(|m| ceiling(&mut draws, metro_aim[m], metro_tight && (!loose || m == near % 3)))
            .collect();
        let region_tight = matches!(binding, Binding::Region | Binding::Every);
        let region_caps: Vec<f64> = (0..2)
            .map(|r| ceiling(&mut draws, region_aim[r], region_tight && (!loose || r == near % 2)))
            .collect();

        let mut constraints = ConstraintSet::unconstrained().with_bandwidth_caps(site_caps);
        if binding != Binding::Flat {
            constraints = constraints.with_tier_caps(TierCaps::new(
                site_metro.clone(),
                site_region.clone(),
                metro_caps.clone(),
                region_caps.clone(),
            ));
        }
        let prices = vec![50.0; n];
        let geometry = Arc::new(CompiledPreferences::build(&clusters, &states));
        let ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0))
            .with_constraints(&constraints);

        let mut expected = Allocation::zeros(n, n_states);
        reference_pour(&ctx, &mut RefWorkspace::default(), &mut expected, |s, _, buf| {
            buf.extend_from_slice(&lists[s])
        });
        let mut source = TwoStage {
            lists: &lists,
            head_len: &head_len,
            head_asks: vec![0; n_states],
            order_asks: vec![0; n_states],
        };
        let mut out = Allocation::zeros(1, 1);
        assign_by_preference_into(&ctx, &mut AssignWorkspace::new(), &mut out, &mut source);
        prop_assert_eq!(bits(&out), bits(&expected), "{:?} loose={} seed={}", binding, loose, seed);

        // The data alone chose the path: a head asked twice means the
        // sorted pour ran after the aim pass bailed.
        let caps: Vec<f64> = (0..n).map(|c| ctx.effective_cap(c)).collect();
        let empty_first = (0..n_states).any(|s| demand[s] > 0.0 && lists[s].is_empty());
        let tiered = binding != Binding::Flat;
        let sort_free = !empty_first
            && fits(&site_aim, &caps)
            && (!tiered || (fits(&metro_aim, &metro_caps) && fits(&region_aim, &region_caps)));
        let sorted = source.head_asks.iter().any(|&asks| asks > 1);
        prop_assert_eq!(sorted, !sort_free, "{:?} loose={} seed={}", binding, loose, seed);
        if sort_free {
            prop_assert!(source.order_asks.iter().all(|&asks| asks == 0));
        }
        prop_assert!(source.order_asks.iter().all(|&asks| asks <= 1));
    }
}

/// Site ceiling in the reuse property: below every positive demand, so no
/// first choice fits and every call with demand runs the sorted pour.
const REUSE_CAP: f64 = 50.0;

proptest! {
    #[test]
    fn a_reused_workspace_pours_like_a_fresh_one(seed in 0u64..u64::MAX, calls in 2usize..16) {
        let mut draws = Draws(seed);
        let clusters = ClusterSet::akamai_like_nine();
        let n = clusters.len();
        let lists: Vec<Vec<usize>> = (0..51)
            .map(|_| {
                let mut all: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    all.swap(i, draws.below(i + 1));
                }
                all
            })
            .collect();
        let constraints = ConstraintSet::unconstrained().with_bandwidth_caps(vec![REUSE_CAP; n]);
        let prices = vec![50.0; n];
        // Every positive demand is at least 100, and ties come from a pool.
        let pool: Vec<f64> = (0..3).map(|_| 100.0 + 5_000.0 * draws.unit()).collect();
        let fresh_demand = |draws: &mut Draws| match draws.below(6) {
            0 => 0.0,
            1 | 2 => draws.pick(&pool),
            _ => 100.0 + 5_000.0 * draws.unit(),
        };
        let mut n_states = 1 + draws.below(51);
        let mut demand: Vec<f64> = (0..n_states).map(|_| fresh_demand(&mut draws)).collect();
        let mut workspace = AssignWorkspace::new();
        let mut out = Allocation::zeros(1, 1);
        for call in 0..calls {
            if call > 0 {
                // A reshape now and then; else each state keeps its demand,
                // drifts, turns zero, or is drawn anew (which revives one
                // that was zero, or ties it with others).
                if draws.below(6) == 0 {
                    n_states = 1 + draws.below(51);
                    demand.resize_with(n_states, || 0.0);
                }
                for d in demand.iter_mut() {
                    match draws.below(8) {
                        0 => *d = 0.0,
                        1 | 2 => *d = fresh_demand(&mut draws),
                        3..=5 if *d > 0.0 => *d = (*d * (0.9 + 0.2 * draws.unit())).max(100.0),
                        _ => {}
                    }
                }
            }
            let states: Vec<UsState> = UsState::all().take(n_states).collect();
            let geometry = Arc::new(CompiledPreferences::build(&clusters, &states));
            let ctx = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0))
                .with_constraints(&constraints);

            let mut reused = Recorded { lists: &lists, asked: Vec::new() };
            assign_by_preference_into(&ctx, &mut workspace, &mut out, &mut reused);
            let mut fresh = Recorded { lists: &lists, asked: Vec::new() };
            let mut expected = Allocation::zeros(1, 1);
            assign_by_preference_into(&ctx, &mut AssignWorkspace::new(), &mut expected, &mut fresh);

            prop_assert_eq!(&reused.asked, &fresh.asked, "call {} seed={}", call, seed);
            prop_assert_eq!(bits(&out), bits(&expected), "call {} seed={}", call, seed);
            // The sort-free placement asks each positive state's head once
            // and succeeds only if none is left to ask again.
            let positive = demand.iter().filter(|&&d| d > 0.0).count();
            prop_assert_eq!(fresh.asked.len() > positive, positive > 0, "the sorted pour ran");
        }
    }
}
