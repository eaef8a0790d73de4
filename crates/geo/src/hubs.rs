//! Wholesale electricity market hubs.
//!
//! The paper uses hourly price data for 29 market hubs (plus the non-market
//! Pacific Northwest / Mid-Columbia hub, which is shown in Figure 3 but
//! excluded from the routing analysis because the Northwest lacks an hourly
//! wholesale market). Figure 2 lists representative hubs per RTO; this
//! module embeds a concrete set of 30 locations with coordinates so that
//! hub-to-hub distances (Figure 8) and client-to-hub distances (§6) can be
//! computed.
//!
//! Nine of the hubs correspond to the Akamai public-cluster locations used
//! in the simulations (labelled CA1, CA2, MA, NY, IL, VA, NJ, TX1, TX2 in
//! Figure 19); see [`simulation_hubs`].

use crate::latlon::LatLon;
use crate::rto::Rto;
use crate::state::UsState;
use serde::{Deserialize, Serialize};

/// Identifier for one of the 30 embedded market hubs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum HubId {
    // ISO New England
    BostonMa,
    PortlandMe,
    HartfordCt,
    ManchesterNh,
    // NYISO
    NewYorkNy,
    AlbanyNy,
    BuffaloNy,
    LongIslandNy,
    PoughkeepsieNy,
    // PJM
    ChicagoIl,
    RichmondVa,
    NewarkNj,
    WashingtonDc,
    BaltimoreMd,
    PittsburghPa,
    ColumbusOh,
    // MISO
    PeoriaIl,
    MinneapolisMn,
    IndianapolisIn,
    DetroitMi,
    MadisonWi,
    StLouisMo,
    // CAISO
    PaloAltoCa,
    LosAngelesCa,
    FresnoCa,
    // ERCOT
    DallasTx,
    AustinTx,
    HoustonTx,
    OdessaTx,
    // Pacific Northwest (no hourly market)
    PortlandOr,
}

/// A wholesale market hub: a pricing location attached to an RTO.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hub {
    /// Stable identifier.
    pub id: HubId,
    /// Market location code, e.g. `NP15`, `MA-BOS`, `DOM`.
    pub code: &'static str,
    /// Nearest city, for human-readable output.
    pub city: &'static str,
    /// US state containing the hub.
    pub state: UsState,
    /// Parent RTO / market region.
    pub rto: Rto,
    /// Geographic coordinates of the hub's reference city.
    pub location: LatLon,
}

macro_rules! hub {
    ($id:ident, $code:literal, $city:literal, $state:ident, $rto:ident, $lat:literal, $lon:literal) => {
        Hub {
            id: HubId::$id,
            code: $code,
            city: $city,
            state: UsState::$state,
            rto: Rto::$rto,
            location: LatLon { lat: $lat, lon: $lon },
        }
    };
}

/// The full embedded hub table (30 hubs: 29 market hubs + Mid-Columbia).
pub const ALL_HUBS: [Hub; 30] = [
    // ISO New England
    hub!(BostonMa, "MA-BOS", "Boston", MA, IsoNe, 42.36, -71.06),
    hub!(PortlandMe, "ME", "Portland (ME)", ME, IsoNe, 43.66, -70.26),
    hub!(HartfordCt, "CT", "Hartford", CT, IsoNe, 41.77, -72.67),
    hub!(ManchesterNh, "NH", "Manchester", NH, IsoNe, 42.99, -71.46),
    // NYISO
    hub!(NewYorkNy, "NYC", "New York City", NY, Nyiso, 40.71, -74.01),
    hub!(AlbanyNy, "CAPITL", "Albany", NY, Nyiso, 42.65, -73.75),
    hub!(BuffaloNy, "WEST", "Buffalo", NY, Nyiso, 42.89, -78.88),
    hub!(LongIslandNy, "LONGIL", "Long Island", NY, Nyiso, 40.79, -73.13),
    hub!(PoughkeepsieNy, "HUD-VL", "Poughkeepsie", NY, Nyiso, 41.70, -73.92),
    // PJM
    hub!(ChicagoIl, "CHI", "Chicago", IL, Pjm, 41.88, -87.63),
    hub!(RichmondVa, "DOM", "Richmond", VA, Pjm, 37.54, -77.44),
    hub!(NewarkNj, "NJ", "Newark", NJ, Pjm, 40.74, -74.17),
    hub!(WashingtonDc, "PEPCO", "Washington", DC, Pjm, 38.90, -77.04),
    hub!(BaltimoreMd, "BGE", "Baltimore", MD, Pjm, 39.29, -76.61),
    hub!(PittsburghPa, "WESTERN", "Pittsburgh", PA, Pjm, 40.44, -79.99),
    hub!(ColumbusOh, "AEP", "Columbus", OH, Pjm, 39.96, -83.00),
    // MISO
    hub!(PeoriaIl, "IL", "Peoria", IL, Miso, 40.69, -89.59),
    hub!(MinneapolisMn, "MN", "Minneapolis", MN, Miso, 44.98, -93.27),
    hub!(IndianapolisIn, "CINERGY", "Indianapolis", IN, Miso, 39.77, -86.16),
    hub!(DetroitMi, "MICH", "Detroit", MI, Miso, 42.33, -83.05),
    hub!(MadisonWi, "WUMS", "Madison", WI, Miso, 43.07, -89.40),
    hub!(StLouisMo, "AMMO", "St. Louis", MO, Miso, 38.63, -90.20),
    // CAISO
    hub!(PaloAltoCa, "NP15", "Palo Alto", CA, Caiso, 37.44, -122.14),
    hub!(LosAngelesCa, "SP15", "Los Angeles", CA, Caiso, 34.05, -118.24),
    hub!(FresnoCa, "ZP26", "Fresno", CA, Caiso, 36.75, -119.77),
    // ERCOT
    hub!(DallasTx, "ERCOT-N", "Dallas", TX, Ercot, 32.78, -96.80),
    hub!(AustinTx, "ERCOT-S", "Austin", TX, Ercot, 30.27, -97.74),
    hub!(HoustonTx, "ERCOT-H", "Houston", TX, Ercot, 29.76, -95.37),
    hub!(OdessaTx, "ERCOT-W", "Odessa", TX, Ercot, 31.85, -102.37),
    // Pacific Northwest
    hub!(PortlandOr, "MID-C", "Portland (OR)", OR, NonMarketNorthwest, 45.52, -122.68),
];

/// Look up the static record for a hub. [`ALL_HUBS`] is in declaration
/// order, so the discriminant is the record's index.
pub fn hub(id: HubId) -> &'static Hub {
    &ALL_HUBS[id as usize]
}

/// All hubs, including the non-market Pacific Northwest hub.
pub fn all_hubs() -> &'static [Hub] {
    &ALL_HUBS
}

/// The 29 hubs that belong to an hourly wholesale market — the price data
/// set used throughout the paper's analysis (§3, §6.1).
pub fn market_hubs() -> Vec<&'static Hub> {
    ALL_HUBS.iter().filter(|h| h.rto.has_hourly_market()).collect()
}

/// Hubs belonging to a specific RTO.
pub fn hubs_in_rto(rto: Rto) -> Vec<&'static Hub> {
    ALL_HUBS.iter().filter(|h| h.rto == rto).collect()
}

/// Find a hub by its market location code (case-insensitive).
pub fn find_by_code(code: &str) -> Option<&'static Hub> {
    ALL_HUBS.iter().find(|h| h.code.eq_ignore_ascii_case(code))
}

/// The nine hubs with Akamai public clusters used in the simulations.
///
/// These are the clusters labelled CA1, CA2, MA, NY, IL, VA, NJ, TX1, TX2 in
/// Figure 19 of the paper, in that order.
pub fn simulation_hubs() -> [&'static Hub; 9] {
    [
        hub(HubId::PaloAltoCa),   // CA1
        hub(HubId::LosAngelesCa), // CA2
        hub(HubId::BostonMa),     // MA
        hub(HubId::NewYorkNy),    // NY
        hub(HubId::ChicagoIl),    // IL
        hub(HubId::RichmondVa),   // VA
        hub(HubId::NewarkNj),     // NJ
        hub(HubId::DallasTx),     // TX1
        hub(HubId::AustinTx),     // TX2
    ]
}

/// Short labels for the nine simulation hubs, matching Figure 19.
pub const SIMULATION_HUB_LABELS: [&str; 9] =
    ["CA1", "CA2", "MA", "NY", "IL", "VA", "NJ", "TX1", "TX2"];

/// All distinct unordered pairs of market hubs: the 29·28/2 = 406 pairs of
/// Figure 8.
pub fn market_hub_pairs() -> Vec<(&'static Hub, &'static Hub)> {
    let hubs = market_hubs();
    let mut pairs = Vec::with_capacity(hubs.len() * (hubs.len() - 1) / 2);
    for i in 0..hubs.len() {
        for j in i + 1..hubs.len() {
            pairs.push((hubs[i], hubs[j]));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn thirty_hubs_total_twenty_nine_market() {
        assert_eq!(all_hubs().len(), 30);
        assert_eq!(market_hubs().len(), 29);
    }

    #[test]
    fn hub_ids_and_codes_unique() {
        let ids: HashSet<_> = ALL_HUBS.iter().map(|h| h.id).collect();
        let codes: HashSet<_> = ALL_HUBS.iter().map(|h| h.code).collect();
        assert_eq!(ids.len(), 30);
        assert_eq!(codes.len(), 30);
    }

    #[test]
    fn table_is_indexed_by_discriminant() {
        for (i, h) in ALL_HUBS.iter().enumerate() {
            assert_eq!(h.id as usize, i, "{} is out of declaration order", h.city);
            assert_eq!(hub(h.id).id, h.id);
        }
    }

    #[test]
    fn lookup_roundtrip() {
        for h in all_hubs() {
            assert_eq!(hub(h.id).code, h.code);
            assert_eq!(find_by_code(h.code).unwrap().id, h.id);
        }
        assert_eq!(find_by_code("np15").unwrap().id, HubId::PaloAltoCa);
        assert!(find_by_code("NOPE").is_none());
    }

    #[test]
    fn paper_figure_2_hubs_present() {
        // Figure 2's explicitly listed hubs should all exist.
        for code in [
            "MA-BOS", "ME", "CT", "NYC", "CAPITL", "WEST", "CHI", "DOM", "NJ", "IL", "MN",
            "CINERGY", "NP15", "SP15", "ERCOT-N", "ERCOT-S",
        ] {
            assert!(find_by_code(code).is_some(), "missing hub {code}");
        }
    }

    #[test]
    fn rto_memberships_match_paper() {
        assert_eq!(hub(HubId::PaloAltoCa).rto, Rto::Caiso);
        assert_eq!(hub(HubId::ChicagoIl).rto, Rto::Pjm);
        assert_eq!(hub(HubId::PeoriaIl).rto, Rto::Miso);
        assert_eq!(hub(HubId::RichmondVa).rto, Rto::Pjm);
        assert_eq!(hub(HubId::NewYorkNy).rto, Rto::Nyiso);
        assert_eq!(hub(HubId::BostonMa).rto, Rto::IsoNe);
        assert_eq!(hub(HubId::AustinTx).rto, Rto::Ercot);
        assert_eq!(hub(HubId::PortlandOr).rto, Rto::NonMarketNorthwest);
    }

    #[test]
    fn every_market_rto_has_hubs() {
        for rto in Rto::MARKETS {
            assert!(
                hubs_in_rto(rto).len() >= 3,
                "RTO {rto} should have at least 3 hubs for intra-market diversity"
            );
        }
    }

    #[test]
    fn simulation_hubs_are_nine_distinct_market_hubs() {
        let sim = simulation_hubs();
        let ids: HashSet<_> = sim.iter().map(|h| h.id).collect();
        assert_eq!(ids.len(), 9);
        assert!(sim.iter().all(|h| h.rto.has_hourly_market()));
        assert_eq!(SIMULATION_HUB_LABELS.len(), 9);
    }

    #[test]
    fn four_hundred_six_market_pairs() {
        // 29 choose 2 = 406, the number of points in Figure 8.
        assert_eq!(market_hub_pairs().len(), 406);
    }

    #[test]
    fn coordinates_are_in_continental_us() {
        for h in all_hubs() {
            assert!(h.location.lat > 24.0 && h.location.lat < 50.0, "{}", h.city);
            assert!(h.location.lon > -125.0 && h.location.lon < -66.0, "{}", h.city);
        }
    }

    #[test]
    fn chicago_and_peoria_are_different_markets() {
        // The "dispersion introduced by a market boundary" example of Fig 10e
        // requires Chicago (PJM) and Peoria (MISO) to straddle a boundary
        // even though both are in Illinois.
        let chi = hub(HubId::ChicagoIl);
        let peo = hub(HubId::PeoriaIl);
        assert_eq!(chi.state, UsState::IL);
        assert_eq!(peo.state, UsState::IL);
        assert_ne!(chi.rto, peo.rto);
    }
}
