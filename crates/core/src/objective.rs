//! Cost-vs-QoS objectives for deployment search.
//!
//! The deployment optimizer (`crates/optimizer`) needs a single scalar to
//! minimize, but "good placement" is not just the electricity bill: a
//! deployment that parks all its capacity at the cheapest hub saves money
//! by turning traffic away and serving the rest from far away. Following
//! the cost-vs-QoS framing of the dynamic-pricing literature, an
//! [`Objective`] scores a [`SimulationReport`] as
//!
//! ```text
//! total = energy_cost
//!       + sla_penalty_per_mhit      × (rejected + overflow hits, in M)
//!       + distance_penalty_per_mhit × served Mhits × km beyond the free radius
//!       + bandwidth_weight          × 95/5 bandwidth bill
//! ```
//!
//! The SLA term consumes the engine's explicit over-capacity accounting —
//! [`rejected_hits`](crate::report::ClusterReport::rejected_hits) under
//! [`OverflowMode::Reject`](wattroute_routing::constraints::OverflowMode) or
//! `overflow_hits` under the default billing mode — so under-provisioned
//! candidates price their unserved demand instead of looking cheap. The
//! distance term prices the performance cost of chasing cheap power with
//! long routes (the paper's §6.2 distance-threshold discussion, made a
//! soft penalty). The bandwidth term consumes the 95/5 bandwidth bill a
//! [`BandwidthTariff`](crate::constraints::BandwidthTariff) priced into
//! the report
//! ([`total_bandwidth_cost_dollars`](SimulationReport::total_bandwidth_cost_dollars))
//! — the §4 trade-off made explicit: shifting load chases cheap
//! electricity but raises some cluster's 95th percentile, and the carrier
//! bills that. Every term is in dollars, so [`ObjectiveTerms::total`] is
//! directly comparable to a report's `total_cost_dollars`.
//!
//! The weights are plain public fields; set them by struct update, e.g.
//! `Objective { sla_penalty_per_mhit: 10.0, ..Objective::energy_only() }`.

use crate::json::{self, JsonValue};
use crate::report::SimulationReport;

/// Weights turning a [`SimulationReport`] into a scalar objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Dollars charged per million hits of unserved (rejected or
    /// overflowed) demand.
    pub sla_penalty_per_mhit: f64,
    /// Dollars charged per million served hits, per kilometre of
    /// demand-weighted mean client–server distance beyond
    /// [`Self::free_distance_km`].
    pub distance_penalty_per_mhit_km: f64,
    /// Mean distance (km) under which the distance term charges nothing.
    pub free_distance_km: f64,
    /// Multiplier on the report's 95/5 bandwidth bill
    /// ([`SimulationReport::total_bandwidth_cost_dollars`]). The bill is
    /// already in dollars, so `1.0` prices it at face value; `0.0` ignores
    /// bandwidth; larger values model expensive transit. Untariffed runs
    /// carry a zero bill, so every pre-tariff score is unchanged.
    pub bandwidth_weight: f64,
}

impl Objective {
    /// Pure electricity cost: no SLA or distance terms. With this
    /// objective the optimizer reproduces the paper's "cheapest placement"
    /// reading of §6.3.
    pub fn energy_only() -> Self {
        Self {
            sla_penalty_per_mhit: 0.0,
            distance_penalty_per_mhit_km: 0.0,
            free_distance_km: 0.0,
            bandwidth_weight: 0.0,
        }
    }

    /// A balanced default: unserved demand is charged well above the
    /// revenue any hit could plausibly generate (so capacity-starving a
    /// deployment never pays), and distance stays free inside the paper's
    /// preferred 1500 km radius.
    pub fn default_qos() -> Self {
        Self {
            sla_penalty_per_mhit: 50.0,
            distance_penalty_per_mhit_km: 0.0,
            free_distance_km: 1500.0,
            bandwidth_weight: 1.0,
        }
    }

    /// Score one report.
    pub fn score(&self, report: &SimulationReport) -> ObjectiveTerms {
        // Exactly one of the two buckets is nonzero per run (the engine
        // routes over-capacity demand into one or the other depending on
        // the overflow mode); summing handles both without mode plumbing.
        let unserved_mhits = (report.total_rejected_hits + report.total_overflow_hits) / 1.0e6;
        // Under BillAtCapacity `total_hits` still includes the overflow;
        // subtract it so the distance term weights genuinely served
        // traffic and both overflow modes rank candidates consistently
        // (under Reject the engine already excluded rejected hits).
        let served_mhits: f64 = (report.clusters.iter().map(|c| c.total_hits).sum::<f64>()
            - report.total_overflow_hits)
            / 1.0e6;
        let excess_km = (report.mean_distance_km - self.free_distance_km).max(0.0);
        ObjectiveTerms {
            energy_cost_dollars: report.total_cost_dollars,
            sla_penalty_dollars: self.sla_penalty_per_mhit * unserved_mhits,
            distance_penalty_dollars: self.distance_penalty_per_mhit_km * served_mhits * excess_km,
            bandwidth_cost_dollars: self.bandwidth_weight * report.total_bandwidth_cost_dollars,
        }
    }
}

impl Default for Objective {
    fn default() -> Self {
        Self::default_qos()
    }
}

/// The per-term breakdown of one scored report (all dollars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveTerms {
    /// The report's electricity cost.
    pub energy_cost_dollars: f64,
    /// Penalty on unserved (rejected or overflowed) demand.
    pub sla_penalty_dollars: f64,
    /// Penalty on demand-weighted mean distance beyond the free radius.
    pub distance_penalty_dollars: f64,
    /// The (weighted) 95/5 bandwidth bill. Zero on untariffed runs; the
    /// JSON encoding omits zero values so pre-tariff score JSON (and the
    /// optimizer golden) is byte-identical.
    pub bandwidth_cost_dollars: f64,
}

impl ObjectiveTerms {
    /// The scalar the optimizer minimizes.
    pub fn total(&self) -> f64 {
        self.energy_cost_dollars
            + self.sla_penalty_dollars
            + self.distance_penalty_dollars
            + self.bandwidth_cost_dollars
    }

    /// Encode as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("energy_cost_dollars", JsonValue::Number(self.energy_cost_dollars)),
            ("sla_penalty_dollars", JsonValue::Number(self.sla_penalty_dollars)),
            ("distance_penalty_dollars", JsonValue::Number(self.distance_penalty_dollars)),
        ];
        if self.bandwidth_cost_dollars != 0.0 {
            fields.push(("bandwidth_cost_dollars", JsonValue::Number(self.bandwidth_cost_dollars)));
        }
        fields.push(("total_dollars", JsonValue::Number(self.total())));
        json::object_iter(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ClusterReport, DistanceHistogram};

    fn report(
        cost: f64,
        overflow: f64,
        rejected: f64,
        mean_km: f64,
        hits: f64,
    ) -> SimulationReport {
        SimulationReport {
            policy: "test".into(),
            steps: 1,
            reaction_delay_hours: 0,
            bandwidth_constrained: false,
            total_cost_dollars: cost,
            total_energy_mwh: 1.0,
            total_overflow_hits: overflow,
            total_rejected_hits: rejected,
            total_bandwidth_binding_hours: 0.0,
            total_bandwidth_cost_dollars: 0.0,
            delay_clamped_hours: 0,
            clusters: vec![ClusterReport {
                label: "X".into(),
                cost_dollars: cost,
                energy_mwh: 1.0,
                mean_utilization: 0.3,
                p95_hits_per_sec: 0.0,
                peak_hits_per_sec: 0.0,
                total_hits: hits,
                overflow_hits: overflow,
                rejected_hits: rejected,
                bandwidth_cap_hits_per_sec: None,
                bandwidth_binding_hours: 0.0,
                bandwidth_cost_dollars: 0.0,
            }],
            mean_distance_km: mean_km,
            p99_distance_km: mean_km * 2.0,
            distances: DistanceHistogram::default_resolution(),
            tiers: None,
        }
    }

    #[test]
    fn energy_only_is_just_the_bill() {
        let r = report(1234.0, 5.0e6, 0.0, 4000.0, 1.0e9);
        let terms = Objective::energy_only().score(&r);
        assert_eq!(terms.total(), 1234.0);
        assert_eq!(terms.sla_penalty_dollars, 0.0);
        assert_eq!(terms.distance_penalty_dollars, 0.0);
    }

    #[test]
    fn sla_penalty_prices_both_overflow_and_rejections() {
        let objective = Objective { sla_penalty_per_mhit: 10.0, ..Objective::energy_only() };
        let overflowing = report(100.0, 3.0e6, 0.0, 100.0, 1.0e9);
        let rejecting = report(100.0, 0.0, 3.0e6, 100.0, 1.0e9);
        for r in [overflowing, rejecting] {
            let terms = objective.score(&r);
            assert!((terms.sla_penalty_dollars - 30.0).abs() < 1e-12);
            assert!((terms.total() - 130.0).abs() < 1e-12);
        }
    }

    #[test]
    fn distance_penalty_charges_only_beyond_the_free_radius() {
        let objective = Objective {
            distance_penalty_per_mhit_km: 0.01,
            free_distance_km: 1000.0,
            ..Objective::energy_only()
        };
        let near = objective.score(&report(100.0, 0.0, 0.0, 900.0, 2.0e9));
        assert_eq!(near.distance_penalty_dollars, 0.0);
        let far = objective.score(&report(100.0, 0.0, 0.0, 1300.0, 2.0e9));
        // 2000 Mhits × 300 km × $0.01 = $6000.
        assert!((far.distance_penalty_dollars - 6000.0).abs() < 1e-9);
    }

    #[test]
    fn both_overflow_modes_score_identically() {
        // The same physical situation — 2.0e9 hits served, 3.0e6 turned
        // away — reported under each mode: BillAtCapacity includes the
        // overflow in total_hits, Reject excludes it. The objective must
        // not care which accounting the run used.
        let objective = Objective {
            sla_penalty_per_mhit: 10.0,
            distance_penalty_per_mhit_km: 0.01,
            free_distance_km: 1000.0,
            ..Objective::energy_only()
        };
        let billed = objective.score(&report(100.0, 3.0e6, 0.0, 1300.0, 2.0e9 + 3.0e6));
        let rejecting = objective.score(&report(100.0, 0.0, 3.0e6, 1300.0, 2.0e9));
        assert_eq!(billed, rejecting);
        assert!((billed.sla_penalty_dollars - 30.0).abs() < 1e-9);
        // 2000 Mhits genuinely served × 300 km × $0.01 = $6000.
        assert!((billed.distance_penalty_dollars - 6000.0).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_term_prices_the_95_5_bill() {
        let mut r = report(100.0, 0.0, 0.0, 100.0, 1.0e9);
        r.total_bandwidth_cost_dollars = 40.0;
        // energy_only ignores bandwidth entirely.
        assert_eq!(Objective::energy_only().score(&r).total(), 100.0);
        // default_qos prices the bill at face value.
        let terms = Objective::default_qos().score(&r);
        assert_eq!(terms.bandwidth_cost_dollars, 40.0);
        assert_eq!(terms.total(), 140.0);
        // An explicit weight scales it.
        let heavy = Objective { bandwidth_weight: 2.5, ..Objective::energy_only() }.score(&r);
        assert_eq!(heavy.bandwidth_cost_dollars, 100.0);
    }

    #[test]
    fn terms_round_trip_through_json() {
        let terms = ObjectiveTerms {
            energy_cost_dollars: 12.5,
            sla_penalty_dollars: 3.25,
            distance_penalty_dollars: 0.125,
            bandwidth_cost_dollars: 0.0,
        };
        let v = terms.to_json_value();
        assert_eq!(v.get("total_dollars").and_then(JsonValue::as_f64), Some(terms.total()));
        // A zero bandwidth bill is omitted, keeping pre-tariff JSON stable.
        assert!(v.get("bandwidth_cost_dollars").is_none());

        let billed = ObjectiveTerms { bandwidth_cost_dollars: 7.5, ..terms };
        let v = billed.to_json_value();
        assert_eq!(v.get("bandwidth_cost_dollars").and_then(JsonValue::as_f64), Some(7.5));
    }
}
