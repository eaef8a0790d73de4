//! The threshold router ranks a tree shard's *hub runs* — consecutive
//! sites at one metro hub, which share every distance and every price —
//! instead of its sites. This pins that it routes a capped synthetic tree
//! exactly as the per-cluster comparator ranking does.
//!
//! A 200-site tree is replayed over three days through
//! [`HierarchicalReplay::run_sharded`], at tier slack 1.0 and 1.1 and
//! reallocation intervals 1 and 12, under two policies:
//! * the price-conscious policy, whose price rows are per hub, so every
//!   generation ranks hub runs;
//! * the carbon-aware policy fed per-site intensities that differ inside a
//!   metro in three hours of four, so those hours rank single sites and
//!   the fourth ranks hub runs.
//!
//! Each report must encode to the same JSON, byte for byte, as the same
//! replay under a reference policy that ranks every cluster with the
//! comparator the memo replaced and pours through the public
//! [`assign_by_preference`].

use wattroute::hierarchy::{HierarchicalReplay, ShardPolicyFactory};
use wattroute::prelude::*;
use wattroute_geo::distance::{hubs_within_threshold, RankedHub};
use wattroute_geo::hubs;
use wattroute_geo::topology::Topology;
use wattroute_market::generator::PriceGenerator;
use wattroute_market::model::MarketModel;
use wattroute_market::time::{HourRange, SimHour};
use wattroute_routing::policy::assign_by_preference;

const SEED: u64 = 2009;
const SITES: usize = 200;
const DAYS: u64 = 3;
const THRESHOLD_KM: f64 = 1500.0;
const PRICE_THRESHOLD: f64 = 5.0;
/// [`CarbonAwarePolicy::new`]'s intensity threshold.
const INTENSITY_THRESHOLD: f64 = 0.02;

/// Per-site carbon intensities (tCO₂/MWh) for one hour: a base per hub
/// that changes hourly, plus, in three hours of four, a per-site offset
/// that differs inside every metro.
fn intensities(clusters: &ClusterSet, hour: SimHour) -> Vec<f64> {
    let h = hour.0;
    clusters
        .clusters()
        .iter()
        .enumerate()
        .map(|(site, cluster)| {
            let base = 0.3 + ((cluster.hub as u64 * 7919 + h * 104_729) % 61) as f64 * 0.01;
            let offset = if h % 4 == 3 { 0.0 } else { ((site as u64 * 31 + h) % 5) as f64 * 0.01 };
            base + offset
        })
        .collect()
}

/// The carbon-aware policy, handed [`intensities`] before every call.
struct PerSiteCarbon(CarbonAwarePolicy);

impl RoutingPolicy for PerSiteCarbon {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        self.0.carbon_intensity = intensities(ctx.clusters, ctx.hour);
        self.0.allocate_into(out, ctx);
    }
}

/// Ranks every cluster, every call, with the comparator ranking: the
/// candidates within the threshold (or the nearest + 50 km fallback) by
/// distance, split into the cheap set and the rest, the rest sorted by
/// (cost, distance), then the other clusters by distance.
struct Reference {
    name: &'static str,
    costs: fn(&RoutingContext<'_>) -> Vec<f64>,
    cost_threshold: f64,
}

impl RoutingPolicy for Reference {
    fn name(&self) -> &str {
        self.name
    }

    fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
        let costs = (self.costs)(ctx);
        let sites: Vec<&hubs::Hub> =
            ctx.clusters.clusters().iter().map(|c| hubs::hub(c.hub)).collect();
        *out = assign_by_preference(ctx, |_, state| {
            let candidates = hubs_within_threshold(state, &sites, THRESHOLD_KM);
            let tail = hubs_within_threshold(state, &sites, f64::INFINITY)
                .into_iter()
                .filter(|(i, _)| !candidates.iter().any(|(c, _)| c == i));
            let cheapest = candidates.iter().map(|(i, _)| costs[*i]).fold(f64::INFINITY, f64::min);
            let (cheap, mut rest): (Vec<RankedHub>, Vec<RankedHub>) =
                candidates.iter().partition(|(i, _)| costs[*i] <= cheapest + self.cost_threshold);
            rest.sort_by(|(ia, da), (ib, db)| {
                costs[*ia]
                    .partial_cmp(&costs[*ib])
                    .expect("finite prices")
                    .then(da.partial_cmp(db).expect("finite distances"))
            });
            cheap.iter().chain(&rest).copied().chain(tail).map(|(i, _)| i).collect()
        });
    }
}

fn price_conscious() -> Box<dyn RoutingPolicy> {
    Box::new(PriceConsciousPolicy::with_distance_threshold(THRESHOLD_KM))
}

fn carbon_aware() -> Box<dyn RoutingPolicy> {
    let policy = CarbonAwarePolicy::new(THRESHOLD_KM, Vec::new());
    assert_eq!(policy.intensity_threshold, INTENSITY_THRESHOLD);
    Box::new(PerSiteCarbon(policy))
}

fn price_reference() -> Box<dyn RoutingPolicy> {
    let costs = |ctx: &RoutingContext<'_>| ctx.prices.to_vec();
    Box::new(Reference { name: "price-conscious", costs, cost_threshold: PRICE_THRESHOLD })
}

fn carbon_reference() -> Box<dyn RoutingPolicy> {
    let costs = |ctx: &RoutingContext<'_>| intensities(ctx.clusters, ctx.hour);
    Box::new(Reference { name: "carbon-aware", costs, cost_threshold: INTENSITY_THRESHOLD })
}

#[test]
fn tree_shards_route_by_hub_runs_as_the_comparator_routes_every_site() {
    let start = SimHour::from_date(2008, 12, 19);
    let range = HourRange::new(start, start.plus_hours(DAYS * 24));
    let trace = SyntheticWorkloadConfig { seed: SEED, ..Default::default() }.generate(range);
    let prices = PriceGenerator::new(MarketModel::calibrated(), SEED).realtime_hourly(range);
    let pairs: [(&str, &ShardPolicyFactory<'_>, &ShardPolicyFactory<'_>); 2] = [
        ("price-conscious", &price_conscious, &price_reference),
        ("carbon-aware", &carbon_aware, &carbon_reference),
    ];
    for slack in [1.0, 1.1] {
        let topology = Topology::synthetic(SEED, SITES).with_tier_slack(slack);
        let ((s0, s1), (m0, m1)) = (topology.region_sites(0), topology.region_metros(0));
        assert!(s1 - s0 > m1 - m0, "a metro's sites form one hub run");
        for interval in [1, 12] {
            let config = SimulationConfig::default().with_reallocation_interval(interval);
            let replay = HierarchicalReplay::new(&topology, &trace, &prices, config);
            for (name, policy, reference) in pairs {
                let routed = replay.run_sharded(policy);
                assert!(routed.total_cost_dollars > 0.0);
                assert_eq!(
                    routed.to_json(),
                    replay.run_sharded(reference).to_json(),
                    "{name} at tier slack {slack}, interval {interval}"
                );
            }
        }
    }
}
