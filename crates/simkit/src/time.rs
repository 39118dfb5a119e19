//! Simulation time, durations, and the Gregorian calendar arithmetic needed
//! to report per-month statistics the way the paper does.
//!
//! The clock is anchored at **2003-10-25 00:00:00 UTC**, the first day of
//! the 30-day SC2003 observation window used by Figures 2, 3 and 5 of the
//! paper. Internally time is an integer count of microseconds, giving a
//! total order on events and exact reproducibility (no floating-point
//! accumulation drift over a seven-month simulation).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds in one second.
const MICROS_PER_SEC: u64 = 1_000_000;
/// Seconds in one day.
const SECS_PER_DAY: u64 = 86_400;

/// The calendar date of the simulation epoch (`SimTime::EPOCH`):
/// 25 October 2003, start of the paper's SC2003 observation window.
pub(crate) const EPOCH_DATE: CalendarDate = CalendarDate {
    year: 2003,
    month: 10,
    day: 25,
};

/// An instant in simulated time, measured in integer microseconds since the
/// epoch (2003-10-25T00:00:00 UTC).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in integer microseconds. Always non-negative.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch: 2003-10-25T00:00:00 UTC.
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from whole microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from (possibly fractional) seconds since the epoch.
    /// Negative values clamp to the epoch.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Construct from whole minutes since the epoch.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60 * MICROS_PER_SEC)
    }

    /// Construct from whole hours since the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600 * MICROS_PER_SEC)
    }

    /// Construct from whole days since the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * SECS_PER_DAY * MICROS_PER_SEC)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whole days elapsed since the epoch (floor).
    pub const fn day_index(self) -> u64 {
        self.0 / (SECS_PER_DAY * MICROS_PER_SEC)
    }

    /// Hours elapsed since the epoch, as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// Days elapsed since the epoch, as a float.
    pub fn as_days_f64(self) -> f64 {
        self.as_secs_f64() / SECS_PER_DAY as f64
    }

    /// Duration since an earlier instant. Saturates to zero if `earlier`
    /// is actually later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The calendar date this instant falls on.
    pub fn calendar_date(self) -> CalendarDate {
        EPOCH_DATE.plus_days(self.day_index())
    }

    /// Month index relative to October 2003 (month 0). November 2003 is 1,
    /// April 2004 is 6, and so on. Used for the paper's per-month plots
    /// (Figure 6) and "peak production month" rows of Table 1.
    pub fn month_index(self) -> u32 {
        let d = self.calendar_date();
        (d.year - 2003) as u32 * 12 + d.month - 10
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from (possibly fractional) seconds; negatives clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * MICROS_PER_SEC)
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * MICROS_PER_SEC)
    }

    /// Construct from (possibly fractional) hours; negatives clamp to zero.
    pub fn from_hours_f64(hours: f64) -> Self {
        Self::from_secs_f64(hours * 3_600.0)
    }

    /// Construct from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * SECS_PER_DAY * MICROS_PER_SEC)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Hours, as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// Days, as a float.
    pub fn as_days_f64(self) -> f64 {
        self.as_secs_f64() / SECS_PER_DAY as f64
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs.max(0.0)).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.calendar_date();
        let s = (self.0 / MICROS_PER_SEC) % SECS_PER_DAY;
        write!(
            f,
            "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
            d.year,
            d.month,
            d.day,
            s / 3600,
            (s % 3600) / 60,
            s % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= SECS_PER_DAY as f64 {
            write!(f, "{:.2}d", self.as_days_f64())
        } else if s >= 3_600.0 {
            write!(f, "{:.2}h", self.as_hours_f64())
        } else if s >= 60.0 {
            write!(f, "{:.2}m", s / 60.0)
        } else {
            write!(f, "{s:.2}s")
        }
    }
}

/// A Gregorian calendar date (UTC). Only the range the simulation can reach
/// (2003 onward) is exercised, but the arithmetic is general.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CalendarDate {
    /// Four-digit year.
    pub year: i32,
    /// Month 1–12.
    pub month: u32,
    /// Day of month 1–31.
    pub day: u32,
}

impl CalendarDate {
    /// Whether `year` is a Gregorian leap year.
    pub(crate) fn is_leap_year(year: i32) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    /// Days in the given month of the given year.
    pub(crate) fn days_in_month(year: i32, month: u32) -> u32 {
        match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if Self::is_leap_year(year) {
                    29
                } else {
                    28
                }
            }
            _ => panic!("invalid month {month}"),
        }
    }

    /// The date `days` days after `self`.
    pub(crate) fn plus_days(mut self, mut days: u64) -> CalendarDate {
        while days > 0 {
            let dim = Self::days_in_month(self.year, self.month) as u64;
            let left_in_month = dim - self.day as u64;
            if days <= left_in_month {
                self.day += days as u32;
                return self;
            }
            days -= left_in_month + 1;
            self.day = 1;
            self.month += 1;
            if self.month > 12 {
                self.month = 1;
                self.year += 1;
            }
        }
        self
    }
}

/// Convert a month index (0 = October 2003, as produced by
/// [`SimTime::month_index`]) back into an `"MM-YYYY"` label.
pub fn month_index_label(index: u32) -> String {
    let total = 9 + index; // October is month 9 counting from zero
    let year = 2003 + (total / 12) as i32;
    let month = total % 12 + 1;
    format!("{month:02}-{year}")
}

/// The `[start, end)` simulation-time bounds of a month index
/// (0 = October 2003). Month 0 starts at the epoch (2003-10-25) rather
/// than October 1, since the simulation cannot reach earlier instants.
pub fn month_bounds(index: u32) -> (SimTime, SimTime) {
    let start_day = |idx: u32| -> u64 {
        if idx == 0 {
            return 0;
        }
        // Days from the epoch to the first of the month at `idx`.
        let mut days = 7u64; // epoch (Oct 25) → Nov 1 2003
        let mut cur = 1u32; // Nov 2003
        while cur < idx {
            let total = 9 + cur;
            let year = 2003 + (total / 12) as i32;
            let month = total % 12 + 1;
            days += CalendarDate::days_in_month(year, month) as u64;
            cur += 1;
        }
        days
    };
    (
        SimTime::from_days(start_day(index)),
        SimTime::from_days(start_day(index + 1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_oct_25_2003() {
        assert_eq!(SimTime::EPOCH.calendar_date(), EPOCH_DATE);
        assert_eq!(SimTime::EPOCH.to_string(), "2003-10-25 00:00:00");
    }

    #[test]
    fn day_arithmetic_crosses_month_and_year() {
        // 7 days after epoch = Nov 1, 2003.
        assert_eq!(
            SimTime::from_days(7).calendar_date(),
            CalendarDate {
                year: 2003,
                month: 11,
                day: 1
            }
        );
        // 68 days after epoch = Jan 1, 2004 (7 to Nov1 + 30 Nov + 31 Dec).
        assert_eq!(
            SimTime::from_days(68).calendar_date(),
            CalendarDate {
                year: 2004,
                month: 1,
                day: 1
            }
        );
    }

    #[test]
    fn leap_year_2004_february_has_29_days() {
        assert!(CalendarDate::is_leap_year(2004));
        assert_eq!(CalendarDate::days_in_month(2004, 2), 29);
        // Jan 1 2004 is day 68; Feb 29 2004 is day 68 + 31 + 28 = 127.
        assert_eq!(
            SimTime::from_days(127).calendar_date(),
            CalendarDate {
                year: 2004,
                month: 2,
                day: 29
            }
        );
        assert_eq!(
            SimTime::from_days(128).calendar_date(),
            CalendarDate {
                year: 2004,
                month: 3,
                day: 1
            }
        );
    }

    #[test]
    fn month_index_counts_from_october_2003() {
        assert_eq!(SimTime::EPOCH.month_index(), 0);
        assert_eq!(SimTime::from_days(7).month_index(), 1); // Nov 2003
        assert_eq!(SimTime::from_days(68).month_index(), 3); // Jan 2004
        assert_eq!(month_index_label(0), "10-2003");
        assert_eq!(month_index_label(1), "11-2003");
        assert_eq!(month_index_label(6), "04-2004");
    }

    #[test]
    fn sc2003_peak_day_is_reachable() {
        // The paper's peak (1300 concurrent jobs) was on 2003-11-20,
        // 26 days after the epoch.
        assert_eq!(
            SimTime::from_days(26).calendar_date(),
            CalendarDate {
                year: 2003,
                month: 11,
                day: 20
            }
        );
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(30);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_secs(20));
        assert_eq!(b - a, SimDuration::from_secs(20));
        assert_eq!(
            SimDuration::from_secs(5) - SimDuration::from_secs(9),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.00s");
        assert_eq!(SimDuration::from_mins(3).to_string(), "3.00m");
        assert_eq!(SimDuration::from_hours(10).to_string(), "10.00h");
        assert_eq!(SimDuration::from_days(2).to_string(), "2.00d");
    }

    #[test]
    fn fractional_construction_round_trips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
        let d = SimDuration::from_hours_f64(0.5);
        assert_eq!(d.as_secs_f64(), 1_800.0);
    }

    #[test]
    fn month_bounds_align_with_month_index() {
        // Month 0 = rest of October 2003 (7 days).
        let (s, e) = month_bounds(0);
        assert_eq!(s, SimTime::EPOCH);
        assert_eq!(e, SimTime::from_days(7));
        // Month 1 = November 2003 (30 days).
        let (s, e) = month_bounds(1);
        assert_eq!(s, SimTime::from_days(7));
        assert_eq!(e, SimTime::from_days(37));
        // Every instant inside the bounds maps back to the index.
        for idx in 0..8u32 {
            let (s, e) = month_bounds(idx);
            assert_eq!(s.month_index(), idx);
            assert_eq!((e - SimDuration::from_secs(1)).month_index(), idx);
            assert_eq!(e.month_index(), idx + 1);
        }
    }

    #[test]
    fn negative_floats_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::EPOCH);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }
}
