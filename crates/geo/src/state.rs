//! US states as client populations.
//!
//! The Akamai traffic data localises clients to US states (§4 of the paper),
//! and the simulator's distance metric is a population-density-weighted
//! geographic distance derived from census data (§6.1). This module embeds
//! the needed per-state facts: population (2007-era census estimates, the
//! period covered by the paper's data), land area, an approximate centre of
//! population, and the state's primary time zone (for local-time diurnal
//! demand patterns).

use crate::latlon::LatLon;
use serde::{Deserialize, Serialize};

/// Two-letter identifiers for the 50 US states plus the District of Columbia.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum UsState {
    AL,
    AK,
    AZ,
    AR,
    CA,
    CO,
    CT,
    DE,
    DC,
    FL,
    GA,
    HI,
    ID,
    IL,
    IN,
    IA,
    KS,
    KY,
    LA,
    ME,
    MD,
    MA,
    MI,
    MN,
    MS,
    MO,
    MT,
    NE,
    NV,
    NH,
    NJ,
    NM,
    NY,
    NC,
    ND,
    OH,
    OK,
    OR,
    PA,
    RI,
    SC,
    SD,
    TN,
    TX,
    UT,
    VT,
    VA,
    WA,
    WV,
    WI,
    WY,
}

/// Static facts about a state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateInfo {
    /// State identifier.
    pub state: UsState,
    /// Full name.
    pub name: &'static str,
    /// Estimated population circa 2007 (the middle of the paper's price
    /// data window), in persons.
    pub population: u64,
    /// Land area in square kilometres.
    pub area_km2: f64,
    /// Approximate centre of population.
    pub centroid: LatLon,
    /// Standard-time UTC offset in hours (negative west of Greenwich).
    /// Multi-zone states use the zone containing most of the population.
    pub utc_offset_hours: i8,
}

macro_rules! state {
    ($id:ident, $name:literal, $pop:literal, $area:literal, $lat:literal, $lon:literal, $tz:literal) => {
        StateInfo {
            state: UsState::$id,
            name: $name,
            population: $pop,
            area_km2: $area,
            centroid: LatLon { lat: $lat, lon: $lon },
            utc_offset_hours: $tz,
        }
    };
}

/// The embedded state table (51 entries: 50 states + DC).
pub const ALL_STATES: [StateInfo; 51] = [
    state!(AL, "Alabama", 4_627_851, 131_171.0, 33.0, -86.8, -6),
    state!(AK, "Alaska", 683_478, 1_477_953.0, 61.2, -149.9, -9),
    state!(AZ, "Arizona", 6_338_755, 294_207.0, 33.4, -112.1, -7),
    state!(AR, "Arkansas", 2_834_797, 134_771.0, 34.9, -92.4, -6),
    state!(CA, "California", 36_553_215, 403_466.0, 35.5, -119.5, -8),
    state!(CO, "Colorado", 4_861_515, 268_431.0, 39.5, -105.0, -7),
    state!(CT, "Connecticut", 3_502_309, 12_542.0, 41.5, -72.9, -5),
    state!(DE, "Delaware", 864_764, 5_047.0, 39.4, -75.6, -5),
    state!(DC, "District of Columbia", 588_292, 158.0, 38.9, -77.0, -5),
    state!(FL, "Florida", 18_251_243, 138_887.0, 27.8, -81.6, -5),
    state!(GA, "Georgia", 9_544_750, 148_959.0, 33.4, -83.9, -5),
    state!(HI, "Hawaii", 1_283_388, 16_635.0, 21.3, -157.8, -10),
    state!(ID, "Idaho", 1_499_402, 214_045.0, 43.8, -115.5, -7),
    state!(IL, "Illinois", 12_852_548, 143_793.0, 41.3, -88.4, -6),
    state!(IN, "Indiana", 6_345_289, 92_789.0, 39.9, -86.3, -5),
    state!(IA, "Iowa", 2_988_046, 144_669.0, 41.9, -93.4, -6),
    state!(KS, "Kansas", 2_775_997, 211_754.0, 38.5, -96.8, -6),
    state!(KY, "Kentucky", 4_241_474, 102_269.0, 37.8, -85.3, -5),
    state!(LA, "Louisiana", 4_293_204, 111_898.0, 30.7, -91.5, -6),
    state!(ME, "Maine", 1_317_207, 79_883.0, 44.4, -69.8, -5),
    state!(MD, "Maryland", 5_618_344, 25_142.0, 39.1, -76.8, -5),
    state!(MA, "Massachusetts", 6_449_755, 20_202.0, 42.3, -71.5, -5),
    state!(MI, "Michigan", 10_071_822, 146_435.0, 42.9, -84.2, -5),
    state!(MN, "Minnesota", 5_197_621, 206_232.0, 45.0, -93.5, -6),
    state!(MS, "Mississippi", 2_918_785, 121_531.0, 32.6, -89.8, -6),
    state!(MO, "Missouri", 5_878_415, 178_040.0, 38.5, -92.5, -6),
    state!(MT, "Montana", 957_861, 376_962.0, 46.5, -111.2, -7),
    state!(NE, "Nebraska", 1_774_571, 198_974.0, 41.2, -96.9, -6),
    state!(NV, "Nevada", 2_565_382, 284_332.0, 36.8, -115.7, -8),
    state!(NH, "New Hampshire", 1_315_828, 23_187.0, 43.1, -71.6, -5),
    state!(NJ, "New Jersey", 8_685_920, 19_047.0, 40.4, -74.5, -5),
    state!(NM, "New Mexico", 1_969_915, 314_161.0, 34.8, -106.4, -7),
    state!(NY, "New York", 19_297_729, 122_057.0, 41.5, -74.7, -5),
    state!(NC, "North Carolina", 9_061_032, 125_920.0, 35.5, -79.4, -5),
    state!(ND, "North Dakota", 639_715, 178_711.0, 47.0, -97.9, -6),
    state!(OH, "Ohio", 11_466_917, 105_829.0, 40.2, -82.7, -5),
    state!(OK, "Oklahoma", 3_617_316, 177_660.0, 35.6, -97.0, -6),
    state!(OR, "Oregon", 3_747_455, 248_608.0, 44.6, -122.6, -8),
    state!(PA, "Pennsylvania", 12_432_792, 115_883.0, 40.5, -77.0, -5),
    state!(RI, "Rhode Island", 1_057_832, 2_678.0, 41.8, -71.4, -5),
    state!(SC, "South Carolina", 4_407_709, 77_857.0, 34.0, -81.0, -5),
    state!(SD, "South Dakota", 796_214, 196_350.0, 44.0, -98.5, -6),
    state!(TN, "Tennessee", 6_156_719, 106_798.0, 35.8, -86.4, -6),
    state!(TX, "Texas", 23_904_380, 676_587.0, 30.9, -97.4, -6),
    state!(UT, "Utah", 2_645_330, 212_818.0, 40.4, -111.7, -7),
    state!(VT, "Vermont", 621_254, 23_871.0, 44.1, -72.8, -5),
    state!(VA, "Virginia", 7_712_091, 102_279.0, 37.8, -77.8, -5),
    state!(WA, "Washington", 6_468_424, 172_119.0, 47.4, -121.8, -8),
    state!(WV, "West Virginia", 1_812_035, 62_259.0, 38.8, -80.7, -5),
    state!(WI, "Wisconsin", 5_601_640, 140_268.0, 43.7, -88.7, -6),
    state!(WY, "Wyoming", 522_830, 251_470.0, 42.3, -106.3, -7),
];

impl UsState {
    /// Every state including DC, in a stable order.
    pub fn all() -> impl Iterator<Item = UsState> {
        ALL_STATES.iter().map(|s| s.state)
    }

    /// The static record for this state. [`ALL_STATES`] is in declaration
    /// order, so the discriminant is the record's index.
    pub fn info(&self) -> &'static StateInfo {
        &ALL_STATES[*self as usize]
    }

    /// Two-letter postal abbreviation.
    pub fn abbreviation(&self) -> &'static str {
        // Derive from the Debug representation, which is exactly the
        // two-letter code by construction of the enum.
        match self {
            UsState::AL => "AL",
            UsState::AK => "AK",
            UsState::AZ => "AZ",
            UsState::AR => "AR",
            UsState::CA => "CA",
            UsState::CO => "CO",
            UsState::CT => "CT",
            UsState::DE => "DE",
            UsState::DC => "DC",
            UsState::FL => "FL",
            UsState::GA => "GA",
            UsState::HI => "HI",
            UsState::ID => "ID",
            UsState::IL => "IL",
            UsState::IN => "IN",
            UsState::IA => "IA",
            UsState::KS => "KS",
            UsState::KY => "KY",
            UsState::LA => "LA",
            UsState::ME => "ME",
            UsState::MD => "MD",
            UsState::MA => "MA",
            UsState::MI => "MI",
            UsState::MN => "MN",
            UsState::MS => "MS",
            UsState::MO => "MO",
            UsState::MT => "MT",
            UsState::NE => "NE",
            UsState::NV => "NV",
            UsState::NH => "NH",
            UsState::NJ => "NJ",
            UsState::NM => "NM",
            UsState::NY => "NY",
            UsState::NC => "NC",
            UsState::ND => "ND",
            UsState::OH => "OH",
            UsState::OK => "OK",
            UsState::OR => "OR",
            UsState::PA => "PA",
            UsState::RI => "RI",
            UsState::SC => "SC",
            UsState::SD => "SD",
            UsState::TN => "TN",
            UsState::TX => "TX",
            UsState::UT => "UT",
            UsState::VT => "VT",
            UsState::VA => "VA",
            UsState::WA => "WA",
            UsState::WV => "WV",
            UsState::WI => "WI",
            UsState::WY => "WY",
        }
    }

    /// Parse a two-letter postal abbreviation (case-insensitive).
    pub fn from_abbreviation(code: &str) -> Option<UsState> {
        let upper = code.to_ascii_uppercase();
        ALL_STATES.iter().find(|s| s.state.abbreviation() == upper).map(|s| s.state)
    }

    /// Population circa 2007.
    pub fn population(&self) -> u64 {
        self.info().population
    }

    /// Centre of population.
    pub fn centroid(&self) -> LatLon {
        self.info().centroid
    }

    /// Standard-time UTC offset in hours.
    pub fn utc_offset_hours(&self) -> i8 {
        self.info().utc_offset_hours
    }

    /// Characteristic geographic dispersion of the state's population, in
    /// kilometres. Modelled as the radius of a disc with the state's land
    /// area, scaled down because population clusters in metropolitan areas.
    ///
    /// Used by the population-density-weighted distance metric: clients in a
    /// large, spread-out state are on average farther from any single point
    /// than the centroid distance alone suggests.
    pub fn dispersion_km(&self) -> f64 {
        let area = self.info().area_km2;
        0.5 * (area / std::f64::consts::PI).sqrt()
    }
}

impl std::fmt::Display for UsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbreviation())
    }
}

/// Total US population over all embedded states.
pub fn total_us_population() -> u64 {
    ALL_STATES.iter().map(|s| s.population).sum()
}

/// Fraction of the national population living in a given state.
pub fn population_share(state: UsState) -> f64 {
    state.population() as f64 / total_us_population() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fifty_one_entries() {
        assert_eq!(ALL_STATES.len(), 51);
        assert_eq!(UsState::all().count(), 51);
    }

    #[test]
    fn table_is_indexed_by_discriminant() {
        for (i, info) in ALL_STATES.iter().enumerate() {
            assert_eq!(info.state as usize, i, "{} is out of declaration order", info.name);
            assert_eq!(info.state.info().state, info.state);
        }
    }

    #[test]
    fn abbreviations_unique_and_roundtrip() {
        let set: HashSet<_> = UsState::all().map(|s| s.abbreviation()).collect();
        assert_eq!(set.len(), 51);
        for s in UsState::all() {
            assert_eq!(UsState::from_abbreviation(s.abbreviation()), Some(s));
            assert_eq!(UsState::from_abbreviation(&s.abbreviation().to_lowercase()), Some(s));
        }
        assert_eq!(UsState::from_abbreviation("ZZ"), None);
    }

    #[test]
    fn total_population_close_to_2007_estimate() {
        // The 2007 US population was roughly 301 million.
        let total = total_us_population();
        assert!(total > 295_000_000 && total < 310_000_000, "total = {total}");
    }

    #[test]
    fn california_and_texas_are_largest() {
        let mut by_pop: Vec<_> = ALL_STATES.iter().collect();
        by_pop.sort_by_key(|s| std::cmp::Reverse(s.population));
        assert_eq!(by_pop[0].state, UsState::CA);
        assert_eq!(by_pop[1].state, UsState::TX);
        assert_eq!(by_pop[2].state, UsState::NY);
    }

    #[test]
    fn population_shares_sum_to_one() {
        let sum: f64 = UsState::all().map(population_share).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_zones_are_sane() {
        assert_eq!(UsState::NY.utc_offset_hours(), -5);
        assert_eq!(UsState::IL.utc_offset_hours(), -6);
        assert_eq!(UsState::CO.utc_offset_hours(), -7);
        assert_eq!(UsState::CA.utc_offset_hours(), -8);
        assert_eq!(UsState::HI.utc_offset_hours(), -10);
        for s in UsState::all() {
            let tz = s.utc_offset_hours();
            assert!((-10..=-5).contains(&tz), "{s}: {tz}");
        }
    }

    #[test]
    fn centroids_are_plausible() {
        for s in ALL_STATES.iter() {
            assert!(s.centroid.lat > 18.0 && s.centroid.lat < 72.0, "{}", s.name);
            assert!(s.centroid.lon > -170.0 && s.centroid.lon < -60.0, "{}", s.name);
        }
    }

    #[test]
    fn dispersion_scales_with_area() {
        assert!(UsState::TX.dispersion_km() > UsState::RI.dispersion_km() * 5.0);
        assert!(UsState::RI.dispersion_km() > 5.0);
        assert!(UsState::CA.dispersion_km() < 400.0);
    }

    #[test]
    fn display_is_abbreviation() {
        assert_eq!(UsState::MA.to_string(), "MA");
    }
}
