//! Property test: the carbon-aware policy, now on the price-conscious
//! policy's split of the context's geometry and lazily ranked memo, allocates bit for
//! bit like its own ranking did before the move, kept below verbatim as
//! the reference. Rows tie, sit exactly one threshold apart, straddle it
//! by a hair or differ only in sign; small clusters make the pour walk
//! past each state's cheap set; a long-lived policy routes a row, its
//! repeat and a new row.

use proptest::prelude::*;
use std::sync::Arc;
use wattroute_geo::distance::RankedHub;
use wattroute_geo::{distance, hubs, UsState};
use wattroute_market::time::SimHour;
use wattroute_routing::allocation::Allocation;
use wattroute_routing::extensions::CarbonAwarePolicy;
use wattroute_routing::policy::{assign_by_preference, RoutingContext, RoutingPolicy};
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_workload::ClusterSet;

/// The carbon-aware policy's own ranking before it moved onto the
/// price-conscious memo, verbatim: the reference its allocations must
/// match bit for bit.
fn preference_by_cost(
    ctx: &RoutingContext<'_>,
    state: UsState,
    costs: &[f64],
    distance_threshold_km: f64,
    cost_threshold: f64,
) -> Vec<usize> {
    let hub_refs: Vec<&wattroute_geo::Hub> =
        ctx.clusters.hub_ids().iter().map(|id| hubs::hub(*id)).collect();
    let candidates = distance::hubs_within_threshold(state, &hub_refs, distance_threshold_km);
    // Same two-stage ordering as the price-conscious policy: candidates
    // whose cost is within `cost_threshold` of the best candidate are ranked
    // by distance, the remainder by cost then distance. This keeps the
    // ordering a genuine total order.
    let best = candidates.iter().map(|(i, _)| costs[*i]).fold(f64::INFINITY, f64::min);
    let (mut cheap_set, mut rest): (Vec<RankedHub>, Vec<RankedHub>) =
        candidates.iter().copied().partition(|(i, _)| costs[*i] <= best + cost_threshold);
    cheap_set.sort_by(|(_, da), (_, db)| da.partial_cmp(db).expect("finite distances"));
    rest.sort_by(|(ia, da), (ib, db)| {
        costs[*ia]
            .partial_cmp(&costs[*ib])
            .expect("finite costs")
            .then(da.partial_cmp(db).expect("finite distances"))
    });
    let mut order: Vec<usize> = cheap_set.iter().chain(rest.iter()).map(|(i, _)| *i).collect();
    let mut rest: Vec<RankedHub> = (0..ctx.clusters.len())
        .filter(|i| !order.contains(i))
        .map(|i| (i, distance::state_to_hub_km(state, hub_refs[i])))
        .collect();
    rest.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
    order.extend(rest.into_iter().map(|(i, _)| i));
    order
}

/// Intensities that tie, sit exactly one 0.02 threshold apart, straddle
/// it by a hair or differ only in sign (`±0.0`).
const INTENSITIES: [f64; 10] =
    [0.5, 0.52, 0.54, 0.48, 0.519_999_999, 0.520_000_001, 0.0, -0.0, 0.02, 0.9];

proptest! {
    #[test]
    fn carbon_allocations_match_the_old_ranking_bit_for_bit(
        deployment in 0usize..3,
        picks in prop::collection::vec(0usize..INTENSITIES.len(), 29..30),
        threshold_km in prop::sample::select(vec![0.0, 500.0, 1100.0, 1500.0, 5.0e4]),
        intensity_threshold in prop::sample::select(vec![0.02, 0.0, 0.01, -0.0]),
        (scale, seed) in (prop::sample::select(vec![0.002, 0.05, 1.0]), 0u64..1_000_000),
    ) {
        let nine = ClusterSet::akamai_like_nine();
        let doubled: Vec<_> = nine.clusters().iter().chain(nine.clusters()).cloned().collect();
        let clusters = [nine, ClusterSet::even_29_hub(1000), ClusterSet::with_shared_hubs(doubled)]
            [deployment]
            .scaled(scale);
        let states: Vec<UsState> = UsState::all().collect();
        let geometry = Arc::new(CompiledPreferences::build(&clusters, &states));
        let prices = vec![50.0; clusters.len()];
        let mut policy = CarbonAwarePolicy::new(threshold_km, Vec::new());
        policy.intensity_threshold = intensity_threshold;
        let mut out = Allocation::zeros(1, 1);
        // Three hours on one long-lived policy: a row, a repeat (memo
        // hit) and a rotated row (new generation), each with new demand.
        for hour in [0, 0, 1] {
            let intensity: Vec<f64> = (0..clusters.len())
                .map(|c| INTENSITIES[picks[(c + hour * 7) % 29]])
                .collect();
            let demand: Vec<f64> = (0..states.len() as u64)
                .map(|s| ((seed + s * 7919 + hour as u64 * 104_729) % 4000) as f64)
                .collect();
            let c = RoutingContext::new(&clusters, &geometry, &demand, &prices, SimHour(0));
            policy.carbon_intensity = intensity.clone();
            policy.allocate_into(&mut out, &c);
            let expected = assign_by_preference(&c, |_, state| {
                preference_by_cost(&c, state, &intensity, threshold_km, intensity_threshold)
            });
            prop_assert_eq!(&out, &expected, "hour {}", hour);
            let bits = |a: &Allocation| -> Vec<u64> {
                a.matrix().iter().flatten().map(|x| x.to_bits()).collect()
            };
            prop_assert_eq!(bits(&out), bits(&expected));
        }
    }
}
