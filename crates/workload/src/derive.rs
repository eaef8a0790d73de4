//! Deriving long-horizon synthetic workloads from a short trace.
//!
//! §6.1 of the paper: "In order to simulate longer periods we derived a
//! synthetic workload from the 24-day Akamai workload (US traffic only). We
//! calculated an average hit rate for every hub and client state pair. We
//! produced a different average for each hour of the day and each day of the
//! week."
//!
//! [`WeeklyProfile`] implements exactly that reduction — averaging demand
//! per (state, hour-of-week) — and can then replay the profile over any
//! hour range (for example the full 39 months of price data used in §6.3).
//! Because the routing policy re-decides the client→cluster assignment at
//! simulation time, averaging per state is equivalent to the paper's
//! per-(hub, state) averaging for every policy the simulator supports.

use crate::trace::{Trace, TraceStep, STEPS_PER_HOUR};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wattroute_geo::UsState;
use wattroute_market::time::HourRange;
#[cfg(test)]
use wattroute_market::time::SimHour;

/// Hours in a week.
const HOURS_PER_WEEK: usize = 168;

/// Average demand per (state, hour-of-week), derived from a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeeklyProfile {
    /// Client states, defining the column order.
    pub states: Vec<UsState>,
    /// `profile[hour_of_week][state_index]` = average hits/second; every
    /// replayed step of an hour of the week shares its row.
    profile: Vec<Arc<[f64]>>,
    /// Average non-US demand per hour of week.
    non_us: Vec<f64>,
}

impl WeeklyProfile {
    /// Build the profile by averaging a trace per (state, hour-of-week).
    ///
    /// Returns `None` if the trace is empty or does not cover at least one
    /// full week's worth of distinct hour-of-week slots (the paper's trace
    /// covers 24 days, i.e. more than three full weeks).
    pub fn from_trace(trace: &Trace) -> Option<WeeklyProfile> {
        if trace.num_steps() == 0 {
            return None;
        }
        let n_states = trace.states.len();
        let mut sums = vec![vec![0.0f64; n_states]; HOURS_PER_WEEK];
        let mut non_us_sums = vec![0.0f64; HOURS_PER_WEEK];
        let mut counts = vec![0usize; HOURS_PER_WEEK];

        for (i, step) in trace.steps().iter().enumerate() {
            let how = trace.step_hour(i).hour_of_week() as usize;
            for (j, d) in step.us_demand.iter().enumerate() {
                sums[how][j] += d;
            }
            non_us_sums[how] += step.non_us_hits_per_sec;
            counts[how] += 1;
        }

        if counts.contains(&0) {
            return None;
        }

        let profile = sums
            .into_iter()
            .zip(&counts)
            .map(|(row, &c)| row.into_iter().map(|s| s / c as f64).collect())
            .collect();
        let non_us = non_us_sums.into_iter().zip(&counts).map(|(s, &c)| s / c as f64).collect();
        Some(WeeklyProfile { states: trace.states.clone(), profile, non_us })
    }

    /// Average demand for a state at a given hour of the week.
    pub fn demand(&self, state: UsState, hour_of_week: u64) -> Option<f64> {
        let idx = self.states.iter().position(|s| *s == state)?;
        self.profile.get((hour_of_week as usize) % HOURS_PER_WEEK).map(|row| row[idx])
    }

    /// Replay the weekly profile over an arbitrary hour range, producing a
    /// 5-minute trace in which every step of an hour carries that hour's
    /// average demand. This is the synthetic workload used for the 39-month
    /// simulations (§6.3).
    ///
    /// The trace holds the profile's 168 rows, not a copy per step: every
    /// step of one hour of the week, in every week, shares that hour's row
    /// (and a 39-month replay's 341 568 steps share 168 rows).
    pub fn replay(&self, range: HourRange) -> Trace {
        let mut steps = Vec::with_capacity(range.len_hours() as usize * STEPS_PER_HOUR);
        for hour in range.iter() {
            let how = hour.hour_of_week() as usize;
            let row = &self.profile[how];
            let non_us = self.non_us[how];
            for _ in 0..STEPS_PER_HOUR {
                steps.push(TraceStep { us_demand: Arc::clone(row), non_us_hits_per_sec: non_us });
            }
        }
        Trace::new(range.start, self.states.clone(), steps)
    }

    /// Total average US demand at a given hour of the week.
    pub fn total_us_demand(&self, hour_of_week: u64) -> f64 {
        self.profile[(hour_of_week as usize) % HOURS_PER_WEEK].iter().sum()
    }

    /// The peak hour-of-week by total US demand.
    pub fn peak_hour_of_week(&self) -> u64 {
        (0..HOURS_PER_WEEK as u64)
            .max_by(|&a, &b| {
                self.total_us_demand(a)
                    .partial_cmp(&self.total_us_demand(b))
                    .expect("finite demand")
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticWorkloadConfig;

    fn base_trace() -> Trace {
        SyntheticWorkloadConfig::default().generate(HourRange::akamai_24_days())
    }

    #[test]
    fn profile_from_24_day_trace() {
        let trace = base_trace();
        let profile = WeeklyProfile::from_trace(&trace).unwrap();
        assert_eq!(profile.states.len(), 51);
        // Every hour-of-week slot is populated.
        for how in 0..168 {
            assert!(profile.total_us_demand(how) > 0.0);
        }
    }

    #[test]
    fn too_short_a_trace_is_rejected() {
        let short =
            SyntheticWorkloadConfig::default().generate(HourRange::new(SimHour(0), SimHour(24))); // one day only
        assert!(WeeklyProfile::from_trace(&short).is_none());
        let empty = Trace::new(SimHour(0), vec![UsState::MA], vec![]);
        assert!(WeeklyProfile::from_trace(&empty).is_none());
    }

    #[test]
    fn replay_covers_requested_range() {
        let profile = WeeklyProfile::from_trace(&base_trace()).unwrap();
        let start = SimHour::from_date(2006, 1, 1);
        let range = HourRange::new(start, start.plus_hours(14 * 24));
        let replayed = profile.replay(range);
        assert_eq!(replayed.num_steps(), 14 * 24 * 12);
        assert_eq!(replayed.states.len(), 51);
    }

    #[test]
    fn replay_is_periodic_by_week() {
        let profile = WeeklyProfile::from_trace(&base_trace()).unwrap();
        let start = SimHour::from_date(2006, 1, 1);
        let replayed = profile.replay(HourRange::new(start, start.plus_hours(2 * 168)));
        let us = replayed.us_series();
        let week_steps = 168 * 12;
        for i in 0..week_steps {
            assert!((us[i] - us[i + week_steps]).abs() < 1e-6);
        }
    }

    #[test]
    fn replayed_steps_share_one_row_per_hour_of_week() {
        // One week of two states fills every hour of the week, cheaply.
        let start = SimHour::from_date(2007, 1, 1);
        let base = SyntheticWorkloadConfig::default().generate_for_states(
            HourRange::new(start, start.plus_hours(168)),
            vec![UsState::CA, UsState::NY],
        );
        let profile = WeeklyProfile::from_trace(&base).unwrap();
        let range = HourRange::new(start, start.plus_hours(2 * 168));
        let replayed = profile.replay(range);

        // Every step of an hour of the week, in both weeks, holds that
        // hour's row itself, and the trace holds 168 rows in all.
        let mut rows = std::collections::BTreeSet::new();
        for (i, step) in replayed.steps().iter().enumerate() {
            let how = replayed.step_hour(i).hour_of_week() as usize;
            assert!(Arc::ptr_eq(&step.us_demand, &profile.profile[how]), "step {i}");
            rows.insert(Arc::as_ptr(&step.us_demand).cast::<f64>());
        }
        assert_eq!(rows.len(), HOURS_PER_WEEK);

        // Equal, value for value, to the same replay with a copy of the row
        // in every step.
        let mut copies = Vec::new();
        for hour in range.iter() {
            let how = hour.hour_of_week() as usize;
            for _ in 0..STEPS_PER_HOUR {
                copies.push(TraceStep {
                    us_demand: profile.profile[how].to_vec().into(),
                    non_us_hits_per_sec: profile.non_us[how],
                });
            }
        }
        let copied = Trace::new(range.start, profile.states.clone(), copies);
        assert!(!Arc::ptr_eq(&copied.steps()[0].us_demand, &replayed.steps()[0].us_demand));
        assert_eq!(replayed, copied);
    }

    #[test]
    fn replay_preserves_average_volume() {
        let trace = base_trace();
        let profile = WeeklyProfile::from_trace(&trace).unwrap();
        // Replaying over the same number of whole weeks should conserve
        // total traffic to within the truncation of partial weeks and the
        // holiday dip (which the weekly average smears out).
        let start = SimHour::from_date(2006, 1, 1);
        let replayed = profile.replay(HourRange::new(start, start.plus_hours(21 * 24)));
        let original_mean = wattroute_stats::mean(&trace.us_series()).unwrap();
        let replay_mean = wattroute_stats::mean(&replayed.us_series()).unwrap();
        assert!(
            (original_mean - replay_mean).abs() < original_mean * 0.10,
            "replayed mean {replay_mean} drifted from original {original_mean}"
        );
    }

    #[test]
    fn peak_hour_is_an_evening_weekday_hour() {
        let profile = WeeklyProfile::from_trace(&base_trace()).unwrap();
        let peak = profile.peak_hour_of_week();
        let hour_of_day = peak % 24;
        // US aggregate traffic peaks in the (Eastern) evening.
        assert!(
            (17..=23).contains(&hour_of_day),
            "peak hour-of-day should be evening, got {hour_of_day}"
        );
    }

    #[test]
    fn demand_lookup() {
        let profile = WeeklyProfile::from_trace(&base_trace()).unwrap();
        assert!(profile.demand(UsState::CA, 100).unwrap() > 0.0);
        assert!(profile.demand(UsState::CA, 100 + 168).unwrap() > 0.0);
        // Unknown state (if restricted) returns None.
        let restricted = SyntheticWorkloadConfig::default()
            .generate_for_states(HourRange::akamai_24_days(), vec![UsState::CA, UsState::NY]);
        let p2 = WeeklyProfile::from_trace(&restricted).unwrap();
        assert!(p2.demand(UsState::TX, 5).is_none());
    }
}
