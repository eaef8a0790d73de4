//! Distance metrics.
//!
//! The paper uses geographic distance as a coarse proxy for network
//! performance (§4, §6.1): the price-conscious optimizer has a *distance
//! threshold* parameter, and results report mean and 99th-percentile
//! client–server distances (Figure 17). Two metrics are needed:
//!
//! * **hub-to-hub distance** — plain great-circle distance between two
//!   market hubs (the x-axis of Figure 8);
//! * **state-to-hub distance** — a population-density-weighted distance
//!   from a client state to a hub. The paper derives per-state population
//!   density functions from census data; we approximate each state's
//!   population as a Gaussian cloud centred on its centre of population with
//!   a dispersion radius derived from the state's land area, which yields
//!   the closed form `sqrt(d_centroid² + dispersion²)` for the expected
//!   distance. This preserves the property the metric exists for: clients
//!   in big, spread-out states are on average farther from any hub than
//!   their centroid suggests, and the ordering of candidate hubs by distance
//!   is essentially unchanged.

use crate::hubs::Hub;
use crate::latlon::haversine_km;
use crate::state::UsState;

/// Great-circle distance between two hubs in kilometres.
pub fn hub_to_hub_km(a: &Hub, b: &Hub) -> f64 {
    haversine_km(a.location, b.location)
}

/// Population-density-weighted distance from a client state to a hub, in
/// kilometres.
///
/// Approximates the expected distance from a person drawn from the state's
/// population distribution to the hub: `sqrt(d² + σ²)` where `d` is the
/// centroid-to-hub distance and `σ` the state's population dispersion
/// radius ([`UsState::dispersion_km`]).
pub fn state_to_hub_km(state: UsState, hub: &Hub) -> f64 {
    let d = haversine_km(state.centroid(), hub.location);
    let sigma = state.dispersion_km();
    (d * d + sigma * sigma).sqrt()
}

/// A hub identified by its index into a caller-supplied hub slice, paired
/// with a distance in kilometres. The routing crate sorts and partitions
/// collections of these when ranking candidate clusters.
pub type RankedHub = (usize, f64);

/// The hub (by index into `hubs`) nearest to a client state, together with
/// the distance. Returns `None` for an empty slice.
pub fn nearest_hub_index(state: UsState, hubs: &[&Hub]) -> Option<RankedHub> {
    hubs.iter()
        .enumerate()
        .map(|(i, h)| (i, state_to_hub_km(state, h)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are finite"))
}

/// Indices of all hubs within `threshold_km` of the client state, sorted by
/// ascending distance. If none are within the threshold, returns the single
/// nearest hub plus any other hubs within 50 km of that nearest hub — the
/// fallback rule used by the paper's price-conscious router (§6.1).
pub fn hubs_within_threshold(state: UsState, hubs: &[&Hub], threshold_km: f64) -> Vec<RankedHub> {
    let mut distances: Vec<RankedHub> =
        hubs.iter().enumerate().map(|(i, h)| (i, state_to_hub_km(state, h))).collect();
    distances.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are finite"));
    if distances.is_empty() {
        return distances;
    }
    let within: Vec<RankedHub> =
        distances.iter().copied().filter(|(_, d)| *d <= threshold_km).collect();
    if !within.is_empty() {
        return within;
    }
    // Fallback: nearest cluster plus any cluster within 50 km of it.
    let nearest = distances[0];
    distances.into_iter().filter(|(_, d)| *d <= nearest.1 + 50.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubs::{hub, simulation_hubs, HubId};

    #[test]
    fn hub_to_hub_boston_chicago() {
        let d = hub_to_hub_km(hub(HubId::BostonMa), hub(HubId::ChicagoIl));
        assert!((d - 1390.0).abs() < 80.0, "got {d}");
    }

    #[test]
    fn state_to_hub_exceeds_centroid_distance() {
        let nyc = hub(HubId::NewYorkNy);
        let centroid = haversine_km(UsState::CA.centroid(), nyc.location);
        let weighted = state_to_hub_km(UsState::CA, nyc);
        assert!(weighted >= centroid);
        assert!(weighted < centroid + UsState::CA.dispersion_km());
    }

    #[test]
    fn in_state_hub_is_close_but_not_zero() {
        let boston = hub(HubId::BostonMa);
        let d = state_to_hub_km(UsState::MA, boston);
        // The dispersion term keeps the distance positive even though the
        // hub is inside the state.
        assert!(d > 10.0 && d < 150.0, "got {d}");
    }

    #[test]
    fn nearest_hub_for_massachusetts_is_boston() {
        let hubs = simulation_hubs();
        let refs: Vec<&Hub> = hubs.to_vec();
        let (idx, d) = nearest_hub_index(UsState::MA, &refs).unwrap();
        assert_eq!(refs[idx].id, HubId::BostonMa);
        assert!(d < 200.0);
    }

    #[test]
    fn nearest_hub_for_california_is_in_california() {
        let hubs = simulation_hubs();
        let refs: Vec<&Hub> = hubs.to_vec();
        let (idx, _) = nearest_hub_index(UsState::CA, &refs).unwrap();
        assert!(matches!(refs[idx].id, HubId::PaloAltoCa | HubId::LosAngelesCa));
    }

    #[test]
    fn threshold_zero_falls_back_to_nearest() {
        let hubs = simulation_hubs();
        let refs: Vec<&Hub> = hubs.to_vec();
        let within = hubs_within_threshold(UsState::MA, &refs, 0.0);
        assert!(!within.is_empty());
        assert_eq!(refs[within[0].0].id, HubId::BostonMa);
    }

    #[test]
    fn large_threshold_includes_all_hubs() {
        let hubs = simulation_hubs();
        let refs: Vec<&Hub> = hubs.to_vec();
        let within = hubs_within_threshold(UsState::MO, &refs, 5000.0);
        assert_eq!(within.len(), refs.len());
        // Sorted ascending.
        for w in within.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn moderate_threshold_selects_subset() {
        let hubs = simulation_hubs();
        let refs: Vec<&Hub> = hubs.to_vec();
        let within = hubs_within_threshold(UsState::NY, &refs, 1000.0);
        assert!(!within.is_empty());
        assert!(within.len() < refs.len());
        assert!(within.iter().all(|(_, d)| *d <= 1000.0));
    }
}
