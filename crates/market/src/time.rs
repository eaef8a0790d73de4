//! Simulation calendar.
//!
//! The paper's price data span January 2006 through March 2009 (39 months of
//! hourly prices, > 28 000 samples per hub) and the Akamai trace covers 24
//! days around the turn of 2008/2009. We model time as *hours since
//! 2006-01-01 00:00 Eastern Standard Time* and provide the calendar
//! arithmetic the analyses need: hour-of-day in a hub's local time zone,
//! day-of-week, month index, and leap-year handling. Daylight-saving shifts
//! are deliberately ignored (a one-hour phase error is far below the
//! resolution of any result in the paper).

use serde::{Deserialize, Serialize};

/// Hours in a day.
pub const HOURS_PER_DAY: u64 = 24;
/// Hours in a (non-leap) year.
pub const HOURS_PER_YEAR: u64 = 8760;
/// Five-minute steps per hour (the Akamai trace resolution).
pub const STEPS_PER_HOUR_5MIN: u64 = 12;

/// The reference calendar year the epoch starts in.
pub const EPOCH_YEAR: u32 = 2006;

/// 2006-01-01 was a Sunday; day-of-week 0 = Sunday.
const EPOCH_DAY_OF_WEEK: u64 = 0;

/// An hour index relative to 2006-01-01 00:00 EST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SimHour(pub u64);

/// Day of week, Sunday = 0 ... Saturday = 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DayOfWeek {
    /// Sunday.
    Sunday,
    /// Monday.
    Monday,
    /// Tuesday.
    Tuesday,
    /// Wednesday.
    Wednesday,
    /// Thursday.
    Thursday,
    /// Friday.
    Friday,
    /// Saturday.
    Saturday,
}

impl DayOfWeek {
    /// From an index where Sunday = 0.
    pub fn from_index(i: u64) -> Self {
        match i % 7 {
            0 => DayOfWeek::Sunday,
            1 => DayOfWeek::Monday,
            2 => DayOfWeek::Tuesday,
            3 => DayOfWeek::Wednesday,
            4 => DayOfWeek::Thursday,
            5 => DayOfWeek::Friday,
            _ => DayOfWeek::Saturday,
        }
    }

    /// Index with Sunday = 0.
    pub fn index(&self) -> u64 {
        match self {
            DayOfWeek::Sunday => 0,
            DayOfWeek::Monday => 1,
            DayOfWeek::Tuesday => 2,
            DayOfWeek::Wednesday => 3,
            DayOfWeek::Thursday => 4,
            DayOfWeek::Friday => 5,
            DayOfWeek::Saturday => 6,
        }
    }

    /// Saturday or Sunday.
    pub fn is_weekend(&self) -> bool {
        matches!(self, DayOfWeek::Saturday | DayOfWeek::Sunday)
    }
}

/// Whether a calendar year is a leap year.
pub fn is_leap_year(year: u32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days in a given month (1-based) of a given year.
pub fn days_in_month(year: u32, month: u32) -> u64 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("month must be 1-12, got {month}"),
    }
}

/// Hours in a given calendar year.
pub fn hours_in_year(year: u32) -> u64 {
    if is_leap_year(year) {
        HOURS_PER_YEAR + 24
    } else {
        HOURS_PER_YEAR
    }
}

impl SimHour {
    /// The epoch (2006-01-01 00:00 EST).
    pub const EPOCH: SimHour = SimHour(0);

    /// Hour of day (0-23) in the *reference* (Eastern) time zone.
    pub fn hour_of_day_eastern(&self) -> u64 {
        self.0 % HOURS_PER_DAY
    }

    /// Hour of day (0-23) in a local time zone given its UTC offset and the
    /// reference zone's UTC offset of -5 (EST).
    pub fn hour_of_day_local(&self, utc_offset_hours: i8) -> u64 {
        let shift = (utc_offset_hours as i64) - (-5i64);
        (((self.0 as i64 + shift) % 24 + 24) % 24) as u64
    }

    /// Days since the epoch.
    pub fn day_index(&self) -> u64 {
        self.0 / HOURS_PER_DAY
    }

    /// Day of week.
    pub fn day_of_week(&self) -> DayOfWeek {
        DayOfWeek::from_index(self.day_index() + EPOCH_DAY_OF_WEEK)
    }

    /// Whether this hour falls on a weekend (in the reference zone).
    pub fn is_weekend(&self) -> bool {
        self.day_of_week().is_weekend()
    }

    /// Hour of the week, 0..168, where 0 is Sunday 00:00.
    pub fn hour_of_week(&self) -> u64 {
        self.day_of_week().index() * 24 + self.hour_of_day_eastern()
    }

    /// `(year, month 1-12, day-of-month 1-31)` of this hour.
    pub fn calendar_date(&self) -> (u32, u32, u32) {
        let mut remaining_days = self.day_index();
        let mut year = EPOCH_YEAR;
        loop {
            let days_this_year = if is_leap_year(year) { 366 } else { 365 };
            if remaining_days < days_this_year {
                break;
            }
            remaining_days -= days_this_year;
            year += 1;
        }
        let mut month = 1;
        loop {
            let dim = days_in_month(year, month);
            if remaining_days < dim {
                break;
            }
            remaining_days -= dim;
            month += 1;
        }
        (year, month, remaining_days as u32 + 1)
    }

    /// Calendar year of this hour.
    pub fn year(&self) -> u32 {
        self.calendar_date().0
    }

    /// Calendar month (1-12) of this hour.
    pub fn month(&self) -> u32 {
        self.calendar_date().1
    }

    /// Months elapsed since January 2006 (0 = Jan 2006, 1 = Feb 2006, ...).
    /// This is the grouping key for Figure 11.
    pub fn month_index(&self) -> u64 {
        let (year, month, _) = self.calendar_date();
        ((year - EPOCH_YEAR) as u64) * 12 + (month as u64 - 1)
    }

    /// Fraction of the year elapsed, in `[0, 1)`; used for seasonal shapes.
    pub fn year_fraction(&self) -> f64 {
        let (year, _, _) = self.calendar_date();
        let mut hours_before_year = 0u64;
        for y in EPOCH_YEAR..year {
            hours_before_year += hours_in_year(y);
        }
        (self.0 - hours_before_year) as f64 / hours_in_year(year) as f64
    }

    /// Construct the first hour of a given calendar date.
    pub fn from_date(year: u32, month: u32, day: u32) -> SimHour {
        assert!(year >= EPOCH_YEAR, "dates before 2006 are unsupported");
        assert!((1..=12).contains(&month), "month must be 1-12");
        assert!(day >= 1 && day as u64 <= days_in_month(year, month), "invalid day");
        let mut days = 0u64;
        for y in EPOCH_YEAR..year {
            days += if is_leap_year(y) { 366 } else { 365 };
        }
        for m in 1..month {
            days += days_in_month(year, m);
        }
        days += day as u64 - 1;
        SimHour(days * HOURS_PER_DAY)
    }

    /// Add a number of hours.
    pub fn plus_hours(&self, hours: u64) -> SimHour {
        SimHour(self.0 + hours)
    }
}

/// A half-open range of simulation hours `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HourRange {
    /// First hour (inclusive).
    pub start: SimHour,
    /// Last hour (exclusive).
    pub end: SimHour,
}

impl HourRange {
    /// Create a range; `end` must not precede `start`.
    pub fn new(start: SimHour, end: SimHour) -> Self {
        assert!(end.0 >= start.0, "HourRange end before start");
        Self { start, end }
    }

    /// The paper's full 39-month price window: January 2006 through
    /// March 2009 (inclusive).
    pub fn paper_39_months() -> Self {
        Self::new(SimHour::from_date(2006, 1, 1), SimHour::from_date(2009, 4, 1))
    }

    /// The 24-day Akamai trace window (mid-December 2008 through the second
    /// week of January 2009, matching Figure 14's x-axis).
    pub fn akamai_24_days() -> Self {
        let start = SimHour::from_date(2008, 12, 19);
        Self::new(start, start.plus_hours(24 * HOURS_PER_DAY))
    }

    /// Number of hours in the range.
    pub fn len_hours(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len_hours() == 0
    }

    /// Iterate over all hours in the range.
    pub fn iter(&self) -> impl Iterator<Item = SimHour> {
        (self.start.0..self.end.0).map(SimHour)
    }

    /// Q1 2009 (the window used by Figure 5's volatility table).
    pub fn q1_2009() -> Self {
        Self::new(SimHour::from_date(2009, 1, 1), SimHour::from_date(2009, 4, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_sunday_jan_1_2006() {
        assert_eq!(SimHour::EPOCH.calendar_date(), (2006, 1, 1));
        assert_eq!(SimHour::EPOCH.day_of_week(), DayOfWeek::Sunday);
        assert!(SimHour::EPOCH.is_weekend());
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2008));
        assert!(!is_leap_year(2006));
        assert!(!is_leap_year(2100));
        assert!(is_leap_year(2000));
        assert_eq!(hours_in_year(2008), 8784);
        assert_eq!(hours_in_year(2007), 8760);
    }

    #[test]
    fn days_in_each_month() {
        assert_eq!(days_in_month(2008, 2), 29);
        assert_eq!(days_in_month(2009, 2), 28);
        assert_eq!(days_in_month(2006, 12), 31);
        assert_eq!(days_in_month(2006, 4), 30);
    }

    #[test]
    #[should_panic(expected = "month must be 1-12")]
    fn invalid_month_panics() {
        days_in_month(2006, 13);
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (2006, 1, 1),
            (2006, 12, 31),
            (2007, 6, 15),
            (2008, 2, 29),
            (2008, 12, 19),
            (2009, 3, 31),
        ] {
            let h = SimHour::from_date(y, m, d);
            assert_eq!(h.calendar_date(), (y, m, d), "roundtrip for {y}-{m}-{d}");
        }
    }

    #[test]
    fn hour_of_day_and_week_progression() {
        let h = SimHour::from_date(2006, 1, 2); // Monday
        assert_eq!(h.day_of_week(), DayOfWeek::Monday);
        assert_eq!(h.hour_of_day_eastern(), 0);
        assert_eq!(h.plus_hours(13).hour_of_day_eastern(), 13);
        assert_eq!(h.hour_of_week(), 24);
        assert!(!h.is_weekend());
    }

    #[test]
    fn local_hour_conversion() {
        let h = SimHour::from_date(2006, 1, 2); // midnight EST
                                                // Midnight EST is 21:00 the previous evening in California (UTC-8).
        assert_eq!(h.hour_of_day_local(-8), 21);
        // And midnight in the Eastern zone itself.
        assert_eq!(h.hour_of_day_local(-5), 0);
        // Central.
        assert_eq!(h.hour_of_day_local(-6), 23);
    }

    #[test]
    fn month_index_spans_39_months() {
        let range = HourRange::paper_39_months();
        assert_eq!(range.start.month_index(), 0);
        let last_hour = SimHour(range.end.0 - 1);
        assert_eq!(last_hour.month_index(), 38);
        // Paper: "> 28k samples" of hourly prices per hub.
        assert_eq!(range.len_hours(), 8760 + 8760 + 8784 + (31 + 28 + 31) * 24);
        assert!(range.len_hours() > 28_000);
    }

    #[test]
    fn akamai_window_is_24_days() {
        let range = HourRange::akamai_24_days();
        assert_eq!(range.len_hours(), 24 * 24);
        assert_eq!(range.start.calendar_date(), (2008, 12, 19));
        // The window straddles the new year as in Figure 14.
        let last = SimHour(range.end.0 - 1);
        assert_eq!(last.calendar_date().0, 2009);
    }

    #[test]
    fn q1_2009_has_90_days() {
        assert_eq!(HourRange::q1_2009().len_hours(), 90 * 24);
    }

    #[test]
    fn year_fraction_monotone_within_year() {
        let jan = SimHour::from_date(2007, 1, 15);
        let jul = SimHour::from_date(2007, 7, 15);
        let dec = SimHour::from_date(2007, 12, 15);
        assert!(jan.year_fraction() < jul.year_fraction());
        assert!(jul.year_fraction() < dec.year_fraction());
        assert!(dec.year_fraction() < 1.0);
    }

    #[test]
    fn range_iteration() {
        let r = HourRange::new(SimHour(5), SimHour(8));
        let hours: Vec<u64> = r.iter().map(|h| h.0).collect();
        assert_eq!(hours, vec![5, 6, 7]);
        assert_eq!(r.len_hours(), 3);
        assert!(!r.is_empty());
        assert!(HourRange::new(SimHour(3), SimHour(3)).is_empty());
    }

    #[test]
    #[should_panic(expected = "end before start")]
    fn inverted_range_panics() {
        HourRange::new(SimHour(5), SimHour(1));
    }

    #[test]
    fn day_of_week_cycles() {
        for i in 0..14 {
            let h = SimHour(i * 24);
            assert_eq!(h.day_of_week().index(), i % 7);
        }
    }
}
