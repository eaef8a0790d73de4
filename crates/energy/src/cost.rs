//! Converting energy and prices into dollars.
//!
//! The simulator accumulates cluster energy in watt-hours per hour and
//! multiplies by that hour's locational price in $/MWh. These helpers keep
//! the unit conversions in one audited place.

/// Convert watt-hours to megawatt-hours.
pub fn mwh_from_watt_hours(watt_hours: f64) -> f64 {
    watt_hours / 1.0e6
}

/// Cost in dollars of consuming `watt_hours` at `dollars_per_mwh`.
///
/// Negative prices are passed through: consuming during a negative-price
/// hour *reduces* the bill, which is exactly the §2.2 observation that
/// consuming at certain times/places can improve overall grid efficiency.
pub fn energy_cost_dollars(watt_hours: f64, dollars_per_mwh: f64) -> f64 {
    assert!(watt_hours >= 0.0, "energy consumed cannot be negative");
    mwh_from_watt_hours(watt_hours) * dollars_per_mwh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion() {
        assert_eq!(mwh_from_watt_hours(1.0e6), 1.0);
        assert_eq!(mwh_from_watt_hours(0.0), 0.0);
    }

    #[test]
    fn negative_prices_reduce_cost() {
        let cost = energy_cost_dollars(2.0e6, -10.0);
        assert!((cost + 20.0).abs() < 1e-9);
    }

    #[test]
    fn cost_is_linear_in_energy_and_price() {
        let base = energy_cost_dollars(5.0e5, 40.0);
        assert!((energy_cost_dollars(1.0e6, 40.0) - 2.0 * base).abs() < 1e-9);
        assert!((energy_cost_dollars(5.0e5, 80.0) - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_energy_rejected() {
        let _ = energy_cost_dollars(-1.0, 60.0);
    }
}
