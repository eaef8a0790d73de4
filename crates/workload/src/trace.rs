//! Traffic traces: 5-minute samples of client demand localised to US states.
//!
//! The Akamai data set (§4 of the paper) records, per public cluster and
//! 5-minute interval, the hits served and a coarse geography of the clients.
//! For the simulator the essential content is *how much demand each client
//! state offered at each instant*; which cluster served it is a decision the
//! routing policy re-makes. A [`Trace`] therefore stores per-state demand
//! series plus the non-US demand (needed only to reproduce the "Global
//! traffic" line of Figure 14).

use crate::cluster::ClusterSet;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wattroute_geo::UsState;
use wattroute_market::time::{HourRange, SimHour};

/// Seconds per trace step (the Akamai data is 5-minute resolution).
pub const STEP_SECONDS: u64 = 300;
/// Trace steps per hour.
pub const STEPS_PER_HOUR: usize = 12;

/// Demand observed during one 5-minute interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStep {
    /// Demand per US state in hits/second, indexed in the order of
    /// [`Trace::states`].
    ///
    /// Rows may be shared: every step of one hour of the week in a
    /// [`WeeklyProfile::replay`](crate::derive::WeeklyProfile::replay)
    /// points at one row, and clones and [`Trace::slice`]s share their
    /// source's rows. Read a row as `&[f64]` (`&step.us_demand` coerces);
    /// equality compares values, not allocations.
    pub us_demand: Arc<[f64]>,
    /// Demand originating outside the US in hits/second (not routed by the
    /// simulator; shown in Figure 14 only).
    pub non_us_hits_per_sec: f64,
}

impl TraceStep {
    /// Total US demand in hits/second.
    pub fn us_total(&self) -> f64 {
        self.us_demand.iter().sum()
    }

    /// Total (global) demand in hits/second.
    pub fn global_total(&self) -> f64 {
        self.us_total() + self.non_us_hits_per_sec
    }
}

/// A 5-minute-resolution traffic trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// First hour covered by the trace (steps start at the top of this hour).
    pub start: SimHour,
    /// Client states, defining the column order of every step.
    pub states: Vec<UsState>,
    steps: Vec<TraceStep>,
}

impl Trace {
    /// Build a trace from explicit steps.
    ///
    /// Every step's non-US demand is checked, and so is every step's
    /// `us_demand` row, except a row that is the same allocation
    /// ([`Arc::ptr_eq`]) as the previous step's: that one was checked a
    /// step earlier. A shared row that recurs after a different one is
    /// checked again.
    ///
    /// # Panics
    /// Panics if any step's `us_demand` length differs from the state list,
    /// or contains negative or non-finite values.
    pub fn new(start: SimHour, states: Vec<UsState>, steps: Vec<TraceStep>) -> Self {
        let mut checked: Option<&Arc<[f64]>> = None;
        for (i, step) in steps.iter().enumerate() {
            let row = &step.us_demand;
            if !checked.is_some_and(|previous| Arc::ptr_eq(previous, row)) {
                assert_eq!(
                    row.len(),
                    states.len(),
                    "step {i} has {} demand entries for {} states",
                    row.len(),
                    states.len()
                );
                assert!(
                    row.iter().all(|d| d.is_finite() && *d >= 0.0),
                    "step {i} contains negative or non-finite demand"
                );
                checked = Some(row);
            }
            assert!(
                step.non_us_hits_per_sec.is_finite() && step.non_us_hits_per_sec >= 0.0,
                "step {i} contains negative or non-finite demand"
            );
        }
        Self { start, states, steps }
    }

    /// Number of 5-minute steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of whole hours covered (rounded down).
    pub fn num_hours(&self) -> u64 {
        (self.steps.len() / STEPS_PER_HOUR) as u64
    }

    /// The hour range covered (partial trailing hours are excluded).
    pub fn hour_range(&self) -> HourRange {
        HourRange::new(self.start, self.start.plus_hours(self.num_hours()))
    }

    /// The simulation hour a step falls in.
    pub fn step_hour(&self, step: usize) -> SimHour {
        SimHour(self.start.0 + (step / STEPS_PER_HOUR) as u64)
    }

    /// The steps in order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// A single step.
    pub fn step(&self, index: usize) -> Option<&TraceStep> {
        self.steps.get(index)
    }

    /// Index of a state in the demand vectors.
    pub fn state_index(&self, state: UsState) -> Option<usize> {
        self.states.iter().position(|s| *s == state)
    }

    /// Total US demand per step, in hits/second (the "USA traffic" series of
    /// Figure 14).
    pub fn us_series(&self) -> Vec<f64> {
        self.steps.iter().map(TraceStep::us_total).collect()
    }

    /// Total global demand per step (the "Global traffic" series of
    /// Figure 14).
    pub fn global_series(&self) -> Vec<f64> {
        self.steps.iter().map(TraceStep::global_total).collect()
    }

    /// Demand per step summed over the subset of states whose nearest
    /// cluster (of the given deployment) is within `radius_km`. This is the
    /// analogue of the paper's "9-region subset" series in Figure 14: the
    /// traffic that the studied clusters would plausibly serve.
    pub fn region_subset_series(&self, clusters: &ClusterSet, radius_km: f64) -> Vec<f64> {
        let hubs: Vec<&wattroute_geo::Hub> =
            clusters.hub_ids().iter().map(|id| wattroute_geo::hubs::hub(*id)).collect();
        let included: Vec<bool> = self
            .states
            .iter()
            .map(|s| {
                hubs.iter()
                    .map(|h| wattroute_geo::state_to_hub_km(*s, h))
                    .fold(f64::INFINITY, f64::min)
                    <= radius_km
            })
            .collect();
        self.steps
            .iter()
            .map(|step| {
                step.us_demand.iter().zip(&included).filter(|(_, inc)| **inc).map(|(d, _)| d).sum()
            })
            .collect()
    }

    /// Peak US demand over the trace in hits/second.
    pub fn peak_us_hits_per_sec(&self) -> f64 {
        self.us_series().iter().copied().fold(0.0, f64::max)
    }

    /// Peak global demand over the trace in hits/second.
    pub fn peak_global_hits_per_sec(&self) -> f64 {
        self.global_series().iter().copied().fold(0.0, f64::max)
    }

    /// Total hits served over the whole trace (hits/second × seconds).
    pub fn total_us_hits(&self) -> f64 {
        self.us_series().iter().sum::<f64>() * STEP_SECONDS as f64
    }

    /// Average demand per state over the whole trace, in hits/second.
    pub fn mean_state_demand(&self) -> Vec<(UsState, f64)> {
        if self.steps.is_empty() {
            return self.states.iter().map(|s| (*s, 0.0)).collect();
        }
        let n = self.steps.len() as f64;
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, self.steps.iter().map(|st| st.us_demand[i]).sum::<f64>() / n))
            .collect()
    }

    /// Restrict the trace to the steps whose hour falls inside `range`.
    pub fn slice(&self, range: HourRange) -> Trace {
        let steps: Vec<TraceStep> = self
            .steps
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let h = self.step_hour(*i);
                h.0 >= range.start.0 && h.0 < range.end.0
            })
            .map(|(_, s)| s.clone())
            .collect();
        let start = SimHour(range.start.0.max(self.start.0));
        Trace::new(start, self.states.clone(), steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        let states = vec![UsState::MA, UsState::CA];
        let steps = (0..24)
            .map(|i| TraceStep {
                us_demand: vec![100.0 + i as f64, 300.0].into(),
                non_us_hits_per_sec: 50.0,
            })
            .collect();
        Trace::new(SimHour(10), states, steps)
    }

    #[test]
    fn step_accounting() {
        let t = tiny_trace();
        assert_eq!(t.num_steps(), 24);
        assert_eq!(t.num_hours(), 2);
        assert_eq!(t.hour_range().len_hours(), 2);
        assert_eq!(t.step_hour(0), SimHour(10));
        assert_eq!(t.step_hour(11), SimHour(10));
        assert_eq!(t.step_hour(12), SimHour(11));
    }

    #[test]
    fn totals_and_peaks() {
        let t = tiny_trace();
        assert_eq!(t.us_series().len(), 24);
        assert!((t.us_series()[0] - 400.0).abs() < 1e-9);
        assert!((t.global_series()[0] - 450.0).abs() < 1e-9);
        assert!((t.peak_us_hits_per_sec() - 423.0).abs() < 1e-9);
        assert!((t.peak_global_hits_per_sec() - 473.0).abs() < 1e-9);
        assert!(t.total_us_hits() > 0.0);
    }

    #[test]
    fn state_indexing_and_means() {
        let t = tiny_trace();
        assert_eq!(t.state_index(UsState::CA), Some(1));
        assert_eq!(t.state_index(UsState::TX), None);
        let means = t.mean_state_demand();
        assert_eq!(means.len(), 2);
        assert!((means[1].1 - 300.0).abs() < 1e-9);
        assert!(means[0].1 > 100.0 && means[0].1 < 124.0);
    }

    #[test]
    fn slicing_by_hour() {
        let t = tiny_trace();
        let sub = t.slice(HourRange::new(SimHour(11), SimHour(12)));
        assert_eq!(sub.num_steps(), 12);
        assert_eq!(sub.start, SimHour(11));
        // Values come from the second hour of the original trace, and the
        // slice shares its rows.
        assert!((sub.steps()[0].us_demand[0] - 112.0).abs() < 1e-9);
        assert!(Arc::ptr_eq(&sub.steps()[0].us_demand, &t.steps()[12].us_demand));
    }

    #[test]
    fn region_subset_is_a_subset_of_us() {
        let t = tiny_trace();
        let clusters = crate::cluster::ClusterSet::akamai_like_nine();
        let subset = t.region_subset_series(&clusters, 500.0);
        let us = t.us_series();
        for (s, u) in subset.iter().zip(&us) {
            assert!(s <= u);
        }
        // With an enormous radius every state is included.
        let all = t.region_subset_series(&clusters, 50_000.0);
        for (a, u) in all.iter().zip(&us) {
            assert!((a - u).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "demand entries")]
    fn mismatched_step_length_panics() {
        let _ = Trace::new(
            SimHour(0),
            vec![UsState::MA],
            vec![TraceStep { us_demand: vec![1.0, 2.0].into(), non_us_hits_per_sec: 0.0 }],
        );
    }

    #[test]
    #[should_panic(expected = "negative or non-finite")]
    fn negative_demand_panics() {
        let _ = Trace::new(
            SimHour(0),
            vec![UsState::MA],
            vec![TraceStep { us_demand: vec![-1.0].into(), non_us_hits_per_sec: 0.0 }],
        );
    }

    /// A one-state trace whose steps carry `rows` (shared where the caller
    /// passes one `Arc` twice) and no non-US demand.
    fn one_state_trace(rows: &[&Arc<[f64]>]) -> Trace {
        let steps = rows
            .iter()
            .map(|row| TraceStep { us_demand: Arc::clone(row), non_us_hits_per_sec: 0.0 })
            .collect();
        Trace::new(SimHour(0), vec![UsState::MA], steps)
    }

    #[test]
    #[should_panic(expected = "step 1 contains negative or non-finite demand")]
    fn a_bad_row_shared_by_consecutive_steps_panics() {
        let good: Arc<[f64]> = Arc::from([1.0]);
        let bad: Arc<[f64]> = Arc::from([f64::NAN]);
        one_state_trace(&[&good, &bad, &bad]);
    }

    #[test]
    #[should_panic(expected = "step 2 contains negative or non-finite demand")]
    fn a_later_distinct_bad_row_panics() {
        let good: Arc<[f64]> = Arc::from([1.0]);
        let bad: Arc<[f64]> = Arc::from([-1.0]);
        one_state_trace(&[&good, &good, &bad]);
    }

    #[test]
    #[should_panic(expected = "step 1 has 2 demand entries for 1 states")]
    fn a_wide_row_shared_by_consecutive_steps_panics() {
        let good: Arc<[f64]> = Arc::from([1.0]);
        let wide: Arc<[f64]> = Arc::from([1.0, 2.0]);
        one_state_trace(&[&good, &wide, &wide]);
    }

    #[test]
    #[should_panic(expected = "step 2 has 2 demand entries for 1 states")]
    fn a_later_distinct_wide_row_panics() {
        let good: Arc<[f64]> = Arc::from([1.0]);
        let wide: Arc<[f64]> = Arc::from([1.0, 2.0]);
        one_state_trace(&[&good, &good, &wide]);
    }

    #[test]
    #[should_panic(expected = "step 1 contains negative or non-finite demand")]
    fn non_us_demand_is_checked_on_a_shared_row() {
        let row: Arc<[f64]> = Arc::from([1.0]);
        let steps = [0.0, f64::INFINITY]
            .into_iter()
            .map(|non_us| TraceStep { us_demand: Arc::clone(&row), non_us_hits_per_sec: non_us })
            .collect();
        let _ = Trace::new(SimHour(0), vec![UsState::MA], steps);
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = Trace::new(SimHour(0), vec![UsState::MA], vec![]);
        assert_eq!(t.num_steps(), 0);
        assert_eq!(t.peak_us_hits_per_sec(), 0.0);
        assert_eq!(t.mean_state_demand()[0].1, 0.0);
    }
}
