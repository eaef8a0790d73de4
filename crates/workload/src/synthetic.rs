//! Synthetic Akamai-like traffic generation.
//!
//! # Substitution note
//!
//! The paper's 24-day Akamai trace is proprietary. This generator produces a
//! trace with the same observable structure (Figure 14 and §4):
//!
//! * a global peak of roughly 2 million hits/second, of which about
//!   1.25 million originate in the US;
//! * per-state demand proportional to population, following each state's
//!   *local* time of day (West-coast evening peaks arrive three hours after
//!   East-coast ones — exactly the offset the price-differential analysis
//!   of Figure 12 exploits);
//! * a weekly cycle (weekend traffic lower than weekday traffic) and a dip
//!   over the end-of-December holidays, which the real trace straddles;
//! * multiplicative noise and occasional flash crowds concentrated in one
//!   state.
//!
//! Because the routing simulator only consumes per-state demand series, a
//! generator matching those marginal shapes exercises the same code paths
//! as the original trace.

use crate::trace::{Trace, TraceStep, STEPS_PER_HOUR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use wattroute_geo::{state::population_share, UsState};
use wattroute_market::time::{HourRange, SimHour};

/// Configuration of the synthetic workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticWorkloadConfig {
    /// Peak global demand in hits/second (Figure 14 shows just over 2 M).
    pub peak_global_hits_per_sec: f64,
    /// Fraction of global traffic originating in the US at comparable local
    /// times (Figure 14: ~1.25 M of ~2 M).
    pub us_fraction: f64,
    /// Ratio of the overnight trough to the evening peak (0..1).
    pub diurnal_trough_ratio: f64,
    /// Multiplier applied to weekend demand.
    pub weekend_multiplier: f64,
    /// Multiplier applied during the end-of-December holiday dip.
    pub holiday_multiplier: f64,
    /// Standard deviation of the multiplicative per-step noise.
    pub noise_sigma: f64,
    /// Expected number of flash-crowd events per day.
    pub flash_crowds_per_day: f64,
    /// Peak relative amplitude of a flash crowd (e.g. 0.5 adds 50 % to one
    /// state's demand at the flash crowd's peak).
    pub flash_crowd_amplitude: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticWorkloadConfig {
    fn default() -> Self {
        Self {
            peak_global_hits_per_sec: 2.3e6,
            us_fraction: 0.58,
            diurnal_trough_ratio: 0.45,
            weekend_multiplier: 0.88,
            holiday_multiplier: 0.80,
            noise_sigma: 0.03,
            flash_crowds_per_day: 1.5,
            flash_crowd_amplitude: 0.6,
            seed: 0xACA_11A1,
        }
    }
}

impl SyntheticWorkloadConfig {
    /// Generate a trace covering `range` at 5-minute resolution, including
    /// every state (plus DC) as a client population.
    pub fn generate(&self, range: HourRange) -> Trace {
        self.generate_for_states(range, UsState::all().collect())
    }

    /// Generate a trace for a specific set of client states.
    ///
    /// The cost is linear in the trace's length: one Box–Muller draw per
    /// sample (each state at each step, plus the step's non-US demand),
    /// and per sample only the flash crowds of its state whose window
    /// covers its step. The diurnal shape is read from a table of the
    /// 24 × 12 (local hour, step-in-hour) points a sample can fall on.
    pub fn generate_for_states(&self, range: HourRange, states: Vec<UsState>) -> Trace {
        assert!(!states.is_empty(), "need at least one client state");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_steps = (range.len_hours() as usize) * STEPS_PER_HOUR;

        // Population shares renormalised over the selected states.
        let raw_shares: Vec<f64> = states.iter().map(|s| population_share(*s)).collect();
        let share_sum: f64 = raw_shares.iter().sum();
        let shares: Vec<f64> = raw_shares.iter().map(|s| s / share_sum).collect();

        // Scale so that the US total peaks at roughly us_fraction * peak.
        // The diurnal shape peaks at 1.0, so the scale is simply the target
        // US peak (flash crowds and noise push individual samples slightly
        // above it, as in the real trace). Each state's scale is the
        // leftmost factor of its demand product.
        let us_peak_target = self.peak_global_hits_per_sec * self.us_fraction;
        let scales: Vec<f64> = shares.iter().map(|share| us_peak_target * share).collect();

        // Pre-plan flash crowds, filed under the state each one hits.
        let expected_crowds = self.flash_crowds_per_day * range.len_hours() as f64 / 24.0;
        let n_crowds = expected_crowds.round() as usize;
        let mut windows: Vec<CrowdWindow> = states.iter().map(|_| CrowdWindow::default()).collect();
        for order in 0..n_crowds {
            let step = rng.gen_range(0..n_steps.max(1));
            let state = rng.gen_range(0..states.len());
            let amplitude = self.flash_crowd_amplitude * (0.5 + rng.gen::<f64>());
            windows[state].planned.push(FlashCrowd { order, step, amplitude });
        }
        for window in &mut windows {
            // Stable, so crowds on one step stay in plan order.
            window.planned.sort_by_key(|crowd| crowd.step);
        }

        // The diurnal shape at each (local hour, step-in-hour) point a
        // sample can fall on, from the argument a direct call would get.
        let diurnal: Vec<f64> = (0..24 * STEPS_PER_HOUR)
            .map(|i| {
                let minute_frac = (i % STEPS_PER_HOUR) as f64 / STEPS_PER_HOUR as f64;
                self.diurnal_shape((i / STEPS_PER_HOUR) as f64 + minute_frac)
            })
            .collect();

        let mut steps = Vec::with_capacity(n_steps);
        for (hour_idx, hour) in range.iter().enumerate() {
            let holiday = self.holiday_factor(hour);
            let weekend = if hour.is_weekend() { self.weekend_multiplier } else { 1.0 };
            for in_hour in 0..STEPS_PER_HOUR {
                let step_idx = hour_idx * STEPS_PER_HOUR + in_hour;
                let us_demand = states
                    .iter()
                    .zip(&scales)
                    .zip(&mut windows)
                    .map(|((state, scale), window)| {
                        let local_hour = hour.hour_of_day_local(state.utc_offset_hours()) as usize;
                        let diurnal = diurnal[local_hour * STEPS_PER_HOUR + in_hour];
                        let noise = (1.0 + self.noise_sigma * gaussian(&mut rng)).max(0.0);
                        let mut demand = scale * diurnal * weekend * holiday * noise;
                        for crowd in window.covering(step_idx) {
                            demand *= crowd.factor(step_idx);
                        }
                        demand
                    })
                    .collect();

                // Non-US demand mixes many time zones (Europe + Asia), so it
                // is much flatter than the US curve and keeps the global
                // series elevated around the clock, as in Figure 14.
                let minute_frac = in_hour as f64 / STEPS_PER_HOUR as f64;
                let overseas_local = (hour.hour_of_day_eastern() as f64 + minute_frac + 7.0) % 24.0;
                let non_us = self.peak_global_hits_per_sec
                    * (1.0 - self.us_fraction)
                    * (0.70 + 0.30 * self.diurnal_shape(overseas_local))
                    * holiday
                    * (1.0 + self.noise_sigma * gaussian(&mut rng)).max(0.0);

                steps.push(TraceStep { us_demand, non_us_hits_per_sec: non_us });
            }
        }

        Trace::new(range.start, states, steps)
    }

    /// Smooth diurnal shape in `[trough_ratio, 1]`, peaking in the local
    /// evening (~19:00) with a trough in the early morning (~05:00).
    fn diurnal_shape(&self, local_hour: f64) -> f64 {
        let phase = (local_hour - 5.0) / 24.0 * std::f64::consts::TAU;
        let base = 0.5 * (1.0 - phase.cos()); // 0 at 5am, 1 at 5pm
        let evening_boost = 0.35 * (-(local_hour - 20.0) * (local_hour - 20.0) / 8.0).exp();
        // Normalise so the evening peak reaches ~1.0 without flattening into
        // a plateau; a distinct peak hour preserves the 3-hour East/West
        // offset the price-differential analysis relies on.
        let shape = ((base + evening_boost) / 1.25).min(1.0);
        self.diurnal_trough_ratio + (1.0 - self.diurnal_trough_ratio) * shape
    }

    /// Multiplier modelling the end-of-December holiday dip.
    fn holiday_factor(&self, hour: SimHour) -> f64 {
        let (_, month, day) = hour.calendar_date();
        if month == 12 && day >= 23 || month == 1 && day <= 2 {
            self.holiday_multiplier
        } else {
            1.0
        }
    }
}

/// Flash crowds ramp up and decay over about two hours: a Gaussian bump
/// of this width, in steps.
const CROWD_WIDTH_STEPS: f64 = 24.0;

/// A crowd's window: it multiplies the samples of its state fewer than
/// this many steps (four widths) from its peak, and no others.
const CROWD_REACH_STEPS: usize = 4 * CROWD_WIDTH_STEPS as usize;

/// One planned flash crowd.
#[derive(Debug, Clone, Copy)]
struct FlashCrowd {
    /// Position in the plan: overlapping crowds multiply a sample in this
    /// order.
    order: usize,
    /// The step it peaks at.
    step: usize,
    /// Relative amplitude at the peak.
    amplitude: f64,
}

impl FlashCrowd {
    /// The multiplier this crowd applies at `step`, within its window.
    fn factor(&self, step: usize) -> f64 {
        let distance = (step as f64 - self.step as f64).abs();
        let width = CROWD_WIDTH_STEPS;
        1.0 + self.amplitude * (-distance * distance / (2.0 * width * width)).exp()
    }
}

/// One state's planned flash crowds, scanned in step order.
#[derive(Debug, Default)]
struct CrowdWindow {
    /// Every crowd, by step (crowds on one step in plan order).
    planned: Vec<FlashCrowd>,
    /// How many of `planned` have entered the window.
    entered: usize,
    /// The crowds whose window covers the current step, in plan order.
    covering: Vec<FlashCrowd>,
}

impl CrowdWindow {
    /// Move to `step`, which must not decrease from one call to the next,
    /// and return the crowds whose window covers it in plan order.
    fn covering(&mut self, step: usize) -> &[FlashCrowd] {
        while let Some(&crowd) = self.planned.get(self.entered) {
            if crowd.step >= step + CROWD_REACH_STEPS {
                break;
            }
            let at = self.covering.partition_point(|c| c.order < crowd.order);
            self.covering.insert(at, crowd);
            self.entered += 1;
        }
        self.covering.retain(|crowd| crowd.step + CROWD_REACH_STEPS > step);
        &self.covering
    }
}

/// Standard normal sample (module-private helper; Box-Muller).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_stats as stats;

    /// The generator before its crowd windows and diurnal table, kept
    /// verbatim (but for its name and the row's conversion into a shared
    /// row) as the reference the current one must match bit for bit. It
    /// tests every planned crowd against every sample.
    impl SyntheticWorkloadConfig {
        fn reference_generate_for_states(&self, range: HourRange, states: Vec<UsState>) -> Trace {
            assert!(!states.is_empty(), "need at least one client state");
            let mut rng = StdRng::seed_from_u64(self.seed);
            let n_steps = (range.len_hours() as usize) * STEPS_PER_HOUR;

            // Population shares renormalised over the selected states.
            let raw_shares: Vec<f64> = states.iter().map(|s| population_share(*s)).collect();
            let share_sum: f64 = raw_shares.iter().sum();
            let shares: Vec<f64> = raw_shares.iter().map(|s| s / share_sum).collect();

            // Scale so that the US total peaks at roughly us_fraction * peak.
            // The diurnal shape peaks at 1.0, so the scale is simply the target
            // US peak (flash crowds and noise push individual samples slightly
            // above it, as in the real trace).
            let us_peak_target = self.peak_global_hits_per_sec * self.us_fraction;

            // Pre-plan flash crowds: (step index, state index, amplitude).
            let expected_crowds = self.flash_crowds_per_day * range.len_hours() as f64 / 24.0;
            let n_crowds = expected_crowds.round() as usize;
            let crowds: Vec<(usize, usize, f64)> = (0..n_crowds)
                .map(|_| {
                    (
                        rng.gen_range(0..n_steps.max(1)),
                        rng.gen_range(0..states.len()),
                        self.flash_crowd_amplitude * (0.5 + rng.gen::<f64>()),
                    )
                })
                .collect();

            let mut steps = Vec::with_capacity(n_steps);
            for step_idx in 0..n_steps {
                let hour = SimHour(range.start.0 + (step_idx / STEPS_PER_HOUR) as u64);
                let minute_frac = (step_idx % STEPS_PER_HOUR) as f64 / STEPS_PER_HOUR as f64;

                let holiday = self.holiday_factor(hour);
                let weekend = if hour.is_weekend() { self.weekend_multiplier } else { 1.0 };

                let mut us_demand = Vec::with_capacity(states.len());
                for (state_idx, state) in states.iter().enumerate() {
                    let local_hour =
                        hour.hour_of_day_local(state.utc_offset_hours()) as f64 + minute_frac;
                    let diurnal = self.diurnal_shape(local_hour);
                    let noise =
                        (1.0 + self.noise_sigma * crate::synthetic::gaussian(&mut rng)).max(0.0);
                    let mut demand =
                        us_peak_target * shares[state_idx] * diurnal * weekend * holiday * noise;
                    // Apply any flash crowd affecting this state near this step.
                    for &(crowd_step, crowd_state, amplitude) in &crowds {
                        if crowd_state == state_idx {
                            let distance = (step_idx as f64 - crowd_step as f64).abs();
                            // Flash crowds ramp up and decay over about two hours.
                            let width = 24.0;
                            if distance < width * 4.0 {
                                demand *= 1.0
                                    + amplitude
                                        * (-distance * distance / (2.0 * width * width)).exp();
                            }
                        }
                    }
                    us_demand.push(demand);
                }

                // Non-US demand mixes many time zones (Europe + Asia), so it is
                // much flatter than the US curve and keeps the global series
                // elevated around the clock, as in Figure 14.
                let overseas_local = (hour.hour_of_day_eastern() as f64 + minute_frac + 7.0) % 24.0;
                let non_us = self.peak_global_hits_per_sec
                    * (1.0 - self.us_fraction)
                    * (0.70 + 0.30 * self.diurnal_shape(overseas_local))
                    * holiday
                    * (1.0 + self.noise_sigma * gaussian(&mut rng)).max(0.0);

                steps.push(TraceStep { us_demand: us_demand.into(), non_us_hits_per_sec: non_us });
            }

            Trace::new(range.start, states, steps)
        }
    }

    /// Generate with both generators and compare every sample's and every
    /// non-US value's bits.
    fn assert_matches_reference(
        cfg: SyntheticWorkloadConfig,
        range: HourRange,
        states: &[UsState],
    ) {
        let expected = cfg.reference_generate_for_states(range, states.to_vec());
        let actual = cfg.generate_for_states(range, states.to_vec());
        assert_eq!((actual.start, &actual.states), (expected.start, &expected.states));
        assert_eq!(actual.num_steps(), expected.num_steps());
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for (i, (a, e)) in actual.steps().iter().zip(expected.steps()).enumerate() {
            assert_eq!(bits(&a.us_demand), bits(&e.us_demand), "step {i} of {cfg:?}");
            assert_eq!(
                a.non_us_hits_per_sec.to_bits(),
                e.non_us_hits_per_sec.to_bits(),
                "step {i} of {cfg:?}"
            );
        }
    }

    fn days_from(year: u32, month: u32, day: u32, days: u64) -> HourRange {
        let start = SimHour::from_date(year, month, day);
        HourRange::new(start, start.plus_hours(days * 24))
    }

    /// One client state per continental time zone, plus Alaska and Hawaii.
    const SPREAD: [UsState; 6] =
        [UsState::NY, UsState::IL, UsState::CO, UsState::CA, UsState::AK, UsState::HI];

    #[test]
    fn generator_matches_the_reference_bit_for_bit() {
        let all: Vec<UsState> = UsState::all().collect();
        for seed in [2009, 7, 0] {
            for crowds in [0.0, 1.5] {
                let cfg = SyntheticWorkloadConfig {
                    seed,
                    flash_crowds_per_day: crowds,
                    ..Default::default()
                };
                // One day, every state.
                assert_matches_reference(cfg, days_from(2006, 1, 1, 1), &all);
                // Two states.
                assert_matches_reference(
                    cfg,
                    days_from(2007, 1, 1, 3),
                    &[UsState::CA, UsState::NY],
                );
            }
            let cfg = SyntheticWorkloadConfig { seed, ..Default::default() };
            // The 24-day window, across the Dec 23 – Jan 2 dip.
            assert_matches_reference(cfg, HourRange::akamai_24_days(), &SPREAD);
            // A few days from 2007-01-01, out of the dip on Jan 3.
            assert_matches_reference(cfg, days_from(2007, 1, 1, 3), &all);
        }
    }

    #[test]
    fn dense_overlapping_crowds_match_the_reference_bit_for_bit() {
        // At 100 crowds a day each state's windows overlap, so one sample
        // multiplies several crowds, and crowds land within reach of both
        // ends of the trace.
        let all: Vec<UsState> = UsState::all().collect();
        for seed in [2009, 7, 0] {
            let cfg =
                SyntheticWorkloadConfig { seed, flash_crowds_per_day: 100.0, ..Default::default() };
            assert_matches_reference(cfg, days_from(2008, 12, 31, 1), &all);
            assert_matches_reference(cfg, days_from(2007, 1, 1, 2), &SPREAD[..4]);
            assert_matches_reference(cfg, days_from(2007, 1, 1, 2), &[UsState::CA, UsState::NY]);
        }
    }

    fn akamai_trace() -> Trace {
        SyntheticWorkloadConfig::default().generate(HourRange::akamai_24_days())
    }

    #[test]
    fn trace_covers_24_days_at_5_minutes() {
        let t = akamai_trace();
        assert_eq!(t.num_steps(), 24 * 24 * 12);
        assert_eq!(t.states.len(), 51);
    }

    #[test]
    fn peaks_match_figure_14() {
        let t = akamai_trace();
        let global_peak = t.peak_global_hits_per_sec();
        let us_peak = t.peak_us_hits_per_sec();
        assert!(
            global_peak > 1.6e6 && global_peak < 2.6e6,
            "global peak should be ~2M hits/s, got {global_peak}"
        );
        assert!(
            us_peak > 1.0e6 && us_peak < 1.7e6,
            "US peak should be ~1.25M hits/s, got {us_peak}"
        );
        assert!(us_peak < global_peak);
    }

    #[test]
    fn demand_is_deterministic_per_seed() {
        let a = SyntheticWorkloadConfig::default().generate(HourRange::akamai_24_days());
        let b = SyntheticWorkloadConfig::default().generate(HourRange::akamai_24_days());
        assert_eq!(a, b);
        let c = SyntheticWorkloadConfig { seed: 999, ..Default::default() }
            .generate(HourRange::akamai_24_days());
        assert_ne!(a, c);
    }

    #[test]
    fn diurnal_swing_is_strong() {
        // Figure 14 shows peak-to-trough swings of roughly 2x.
        let t = akamai_trace();
        let us = t.us_series();
        let peak = us.iter().copied().fold(0.0, f64::max);
        let trough = us.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio = peak / trough;
        assert!(ratio > 1.6 && ratio < 4.0, "peak/trough = {ratio}");
    }

    #[test]
    fn demand_tracks_population() {
        let t = akamai_trace();
        let means = t.mean_state_demand();
        let by_state = |s: UsState| means.iter().find(|(st, _)| *st == s).unwrap().1;
        assert!(by_state(UsState::CA) > by_state(UsState::WY) * 20.0);
        assert!(by_state(UsState::TX) > by_state(UsState::VT) * 10.0);
        assert!(by_state(UsState::NY) > by_state(UsState::RI) * 5.0);
    }

    #[test]
    fn california_peaks_later_than_new_york_in_eastern_time() {
        let t = akamai_trace();
        let ca = t.state_index(UsState::CA).unwrap();
        let ny = t.state_index(UsState::NY).unwrap();
        // Average demand by hour-of-day (Eastern) for each state; the
        // argmax for California should be ~3 hours later.
        let mut ca_by_hour = vec![0.0f64; 24];
        let mut ny_by_hour = vec![0.0f64; 24];
        let mut counts = [0usize; 24];
        for (i, step) in t.steps().iter().enumerate() {
            let h = t.step_hour(i).hour_of_day_eastern() as usize;
            ca_by_hour[h] += step.us_demand[ca];
            ny_by_hour[h] += step.us_demand[ny];
            counts[h] += 1;
        }
        for h in 0..24 {
            ca_by_hour[h] /= counts[h] as f64;
            ny_by_hour[h] /= counts[h] as f64;
        }
        let argmax = |xs: &[f64]| {
            xs.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0 as i64
        };
        let lag = (argmax(&ca_by_hour) - argmax(&ny_by_hour)).rem_euclid(24);
        assert!((2..=4).contains(&lag), "California peak should lag New York by ~3h, got {lag}");
    }

    #[test]
    fn holiday_dip_present() {
        let t = akamai_trace();
        // Compare Christmas day with a comparable non-holiday weekday.
        let christmas = t.slice(HourRange::new(
            SimHour::from_date(2008, 12, 25),
            SimHour::from_date(2008, 12, 26),
        ));
        let early_january =
            t.slice(HourRange::new(SimHour::from_date(2009, 1, 8), SimHour::from_date(2009, 1, 9)));
        let christmas_mean = stats::mean(&christmas.us_series()).unwrap();
        let january_mean = stats::mean(&early_january.us_series()).unwrap();
        assert!(
            christmas_mean < january_mean * 0.92,
            "holiday traffic {christmas_mean} should be below normal {january_mean}"
        );
    }

    #[test]
    fn weekend_dip_present() {
        let t = SyntheticWorkloadConfig { holiday_multiplier: 1.0, ..Default::default() }
            .generate(HourRange::akamai_24_days());
        let mut weekday = Vec::new();
        let mut weekend = Vec::new();
        for (i, step) in t.steps().iter().enumerate() {
            if t.step_hour(i).is_weekend() {
                weekend.push(step.us_total());
            } else {
                weekday.push(step.us_total());
            }
        }
        assert!(stats::mean(&weekend).unwrap() < stats::mean(&weekday).unwrap());
    }

    #[test]
    fn restricted_state_set() {
        let cfg = SyntheticWorkloadConfig::default();
        let t = cfg.generate_for_states(
            HourRange::new(SimHour(0), SimHour(24)),
            vec![UsState::CA, UsState::NY],
        );
        assert_eq!(t.states.len(), 2);
        // Shares renormalise: the two states carry the whole US target.
        assert!(t.peak_us_hits_per_sec() > 0.5e6);
    }

    #[test]
    #[should_panic(expected = "at least one client state")]
    fn empty_state_set_panics() {
        let _ = SyntheticWorkloadConfig::default()
            .generate_for_states(HourRange::new(SimHour(0), SimHour(24)), vec![]);
    }
}
