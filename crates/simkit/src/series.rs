//! Binned time-series accumulators for regenerating the paper's figures.
//!
//! * [`BinnedSeries`] — fixed-width bins over the observation window;
//!   the substrate for Figure 3 (time-averaged CPUs per day), Figure 5
//!   (bytes transferred per day) and utilization metrics.
//! * [`UsageIntegrator`] — integrates an interval quantity (a job occupying
//!   a CPU from `start` to `end`) into bins, splitting across bin edges;
//!   produces Figure 2 (integrated CPU-days) correctly even for the
//!   >1200-hour CMS jobs that straddle dozens of bins.
//! * [`MonthlySeries`] — calendar-month bins for Figure 6 and the
//!   peak-production-month rows of Table 1.
//! * [`GaugeTracker`] — step-function gauge (e.g. concurrent running jobs)
//!   with exact peak extraction (§7 "peak 1300 simultaneous jobs").

use crate::time::{month_index_label, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Fixed-width additive bins over `[start, start + width × n)`.
///
/// Out-of-window samples are clamped into the first/last bin so totals are
/// conserved (the paper's windows are closed observation periods).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinnedSeries {
    start: SimTime,
    width: SimDuration,
    bins: Vec<f64>,
}

impl BinnedSeries {
    /// `n` bins of `width` starting at `start`.
    pub fn new(start: SimTime, width: SimDuration, n: usize) -> Self {
        assert!(n > 0, "need at least one bin");
        assert!(!width.is_zero(), "bin width must be positive");
        BinnedSeries {
            start,
            width,
            bins: vec![0.0; n],
        }
    }

    /// Convenience: one bin per day over `days` days from `start`.
    pub fn daily(start: SimTime, days: usize) -> Self {
        Self::new(start, SimDuration::from_days(1), days)
    }

    /// Bin index for an instant, clamped into range.
    pub(crate) fn bin_of(&self, t: SimTime) -> usize {
        let offset = t.since(self.start).as_micros();
        let idx = (offset / self.width.as_micros()) as usize;
        idx.min(self.bins.len() - 1)
    }

    /// Add `value` to the bin containing `t`.
    pub fn add(&mut self, t: SimTime, value: f64) {
        let i = self.bin_of(t);
        self.bins[i] += value;
    }

    /// The bin values.
    pub fn values(&self) -> &[f64] {
        &self.bins
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when there are no bins (cannot occur via constructor).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Bin width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Window start.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Sum over all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Running cumulative sum (the "integrated" view of Figure 2).
    pub fn cumulative(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.bins
            .iter()
            .map(|v| {
                acc += v;
                acc
            })
            .collect()
    }

    /// Largest single bin value.
    pub fn peak(&self) -> f64 {
        self.bins.iter().cloned().fold(0.0, f64::max)
    }
}

/// Integrates interval quantities into a [`BinnedSeries`].
///
/// `add_interval(start, end, weight)` deposits `weight × overlap_seconds`
/// into every bin the interval overlaps. With `weight = 1` the result is
/// busy-CPU-seconds per bin; divide by bin seconds for time-averaged CPUs
/// (Figure 3) or convert to CPU-days (Figure 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UsageIntegrator {
    series: BinnedSeries,
}

impl UsageIntegrator {
    /// Daily integrator over `days` days from `start`.
    pub fn daily(start: SimTime, days: usize) -> Self {
        UsageIntegrator {
            series: BinnedSeries::daily(start, days),
        }
    }

    /// Integrator with arbitrary geometry.
    pub fn new(start: SimTime, width: SimDuration, n: usize) -> Self {
        UsageIntegrator {
            series: BinnedSeries::new(start, width, n),
        }
    }

    /// Deposit `weight` × seconds-of-overlap for `[start, end)` into the
    /// overlapping bins. Intervals outside the window are clipped away.
    pub fn add_interval(&mut self, start: SimTime, end: SimTime, weight: f64) {
        if end <= start || weight == 0.0 {
            return;
        }
        let win_start = self.series.start;
        let win_end = win_start
            + SimDuration::from_micros(
                self.series.width.as_micros() * self.series.bins.len() as u64,
            );
        let s = start.max(win_start);
        let e = end.min(win_end);
        if e <= s {
            return;
        }
        let width_us = self.series.width.as_micros();
        let mut cursor = s;
        while cursor < e {
            let bin = ((cursor.since(win_start).as_micros()) / width_us) as usize;
            let bin = bin.min(self.series.bins.len() - 1);
            let bin_end = win_start + SimDuration::from_micros(width_us * (bin as u64 + 1));
            let seg_end = e.min(bin_end);
            let overlap = seg_end.since(cursor).as_secs_f64();
            self.series.bins[bin] += weight * overlap;
            cursor = seg_end;
        }
    }

    /// Busy-seconds per bin.
    pub fn series(&self) -> &BinnedSeries {
        &self.series
    }

    /// Per-bin time-average (busy-seconds ÷ bin-seconds): e.g. average
    /// concurrently-busy CPUs per day — Figure 3's y-axis.
    pub fn time_average(&self) -> Vec<f64> {
        let bin_secs = self.series.width.as_secs_f64();
        self.series.values().iter().map(|v| v / bin_secs).collect()
    }

    /// Total integrated quantity in unit-days (seconds ÷ 86 400): e.g.
    /// CPU-days — Figure 2's y-axis.
    pub fn total_unit_days(&self) -> f64 {
        self.series.total() / 86_400.0
    }
}

/// Calendar-month bins from October 2003 (month index 0).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MonthlySeries {
    bins: Vec<f64>,
}

impl MonthlySeries {
    /// An empty monthly series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `value` to the month containing `t`, growing as needed.
    #[cfg(test)]
    pub(crate) fn add(&mut self, t: SimTime, value: f64) {
        self.add_month_index(t.month_index(), value);
    }

    /// Add `value` directly to a month index (0 = October 2003).
    pub fn add_month_index(&mut self, index: u32, value: f64) {
        let idx = index as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += value;
    }

    /// `(label, value)` pairs in chronological order.
    pub fn labelled(&self) -> Vec<(String, f64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, v)| (month_index_label(i as u32), *v))
            .collect()
    }

    /// Raw values, index 0 = October 2003.
    pub fn values(&self) -> &[f64] {
        &self.bins
    }

    /// Sum across months.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }
}

/// A step-function gauge: tracks a level over time and records its exact
/// peak.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeTracker {
    level: f64,
    peak: f64,
    peak_at: SimTime,
}

impl GaugeTracker {
    /// A gauge at level 0 starting at `origin`.
    pub fn new(origin: SimTime) -> Self {
        GaugeTracker {
            level: 0.0,
            peak: 0.0,
            peak_at: origin,
        }
    }

    /// Change the level by `delta` at time `now`.
    pub fn step(&mut self, now: SimTime, delta: f64) {
        self.level += delta;
        if self.level > self.peak {
            self.peak = self.level;
            self.peak_at = now;
        }
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Highest level seen.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// When the peak was reached.
    pub fn peak_at(&self) -> SimTime {
        self.peak_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binned_add_and_total() {
        let mut s = BinnedSeries::daily(SimTime::EPOCH, 30);
        s.add(SimTime::from_days(0), 1.0);
        s.add(SimTime::from_days(5) + SimDuration::from_hours(3), 2.0);
        s.add(SimTime::from_days(29), 3.0);
        assert_eq!(s.values()[0], 1.0);
        assert_eq!(s.values()[5], 2.0);
        assert_eq!(s.values()[29], 3.0);
        assert_eq!(s.total(), 6.0);
    }

    #[test]
    fn binned_clamps_out_of_window() {
        let mut s = BinnedSeries::daily(SimTime::from_days(10), 5);
        s.add(SimTime::from_days(0), 1.0); // before window → first bin
        s.add(SimTime::from_days(100), 1.0); // after window → last bin
        assert_eq!(s.values()[0], 1.0);
        assert_eq!(s.values()[4], 1.0);
        assert_eq!(s.total(), 2.0);
    }

    #[test]
    fn cumulative_is_monotone_prefix_sum() {
        let mut s = BinnedSeries::daily(SimTime::EPOCH, 4);
        for d in 0..4 {
            s.add(SimTime::from_days(d), (d + 1) as f64);
        }
        assert_eq!(s.cumulative(), vec![1.0, 3.0, 6.0, 10.0]);
        assert_eq!(s.peak(), 4.0);
    }

    #[test]
    fn integrator_splits_across_bins() {
        let mut u = UsageIntegrator::daily(SimTime::EPOCH, 3);
        // One CPU busy from day0 12:00 to day1 12:00 → half a day in each bin.
        u.add_interval(SimTime::from_hours(12), SimTime::from_hours(36), 1.0);
        let avg = u.time_average();
        assert!((avg[0] - 0.5).abs() < 1e-9);
        assert!((avg[1] - 0.5).abs() < 1e-9);
        assert_eq!(avg[2], 0.0);
        assert!((u.total_unit_days() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn integrator_clips_to_window() {
        let mut u = UsageIntegrator::daily(SimTime::from_days(1), 1);
        u.add_interval(SimTime::EPOCH, SimTime::from_days(3), 2.0);
        // Only day 1 is inside the window: 2 unit-days of weight-2 = 2 days.
        assert!((u.total_unit_days() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn integrator_ignores_degenerate_intervals() {
        let mut u = UsageIntegrator::daily(SimTime::EPOCH, 2);
        u.add_interval(SimTime::from_days(1), SimTime::from_days(1), 1.0);
        u.add_interval(SimTime::from_days(1), SimTime::from_days(0), 1.0);
        assert_eq!(u.total_unit_days(), 0.0);
    }

    #[test]
    fn long_job_integrates_exactly() {
        // A 1238.93-hour CMS-style job (Table 1 max) must conserve its
        // CPU-time across ~52 daily bins.
        let mut u = UsageIntegrator::daily(SimTime::EPOCH, 60);
        let run = SimDuration::from_secs_f64(1_238.93 * 3_600.0);
        u.add_interval(SimTime::from_hours(7), SimTime::from_hours(7) + run, 1.0);
        assert!((u.total_unit_days() - 1_238.93 / 24.0).abs() < 1e-6);
    }

    #[test]
    fn monthly_series_labels_and_peak() {
        let mut m = MonthlySeries::new();
        m.add(SimTime::from_days(0), 10.0); // Oct 2003
        m.add(SimTime::from_days(10), 50.0); // Nov 2003
        m.add(SimTime::from_days(70), 20.0); // Jan 2004
        let l = m.labelled();
        assert_eq!(l[0], ("10-2003".to_string(), 10.0));
        assert_eq!(l[1], ("11-2003".to_string(), 50.0));
        assert_eq!(l[2], ("12-2003".to_string(), 0.0));
        assert_eq!(l[3], ("01-2004".to_string(), 20.0));
        assert_eq!(m.total(), 80.0);
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let mut g = GaugeTracker::new(SimTime::EPOCH);
        g.step(SimTime::from_secs(0), 2.0); // level 2
        g.step(SimTime::from_secs(10), 3.0); // level 5 at t=10
        g.step(SimTime::from_secs(20), -4.0); // level 1 at t=20
        assert_eq!(g.peak(), 5.0);
        assert_eq!(g.peak_at(), SimTime::from_secs(10));
        assert_eq!(g.level(), 1.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The integrator conserves total weight×duration for in-window
            /// intervals regardless of how they straddle bins.
            #[test]
            fn integrator_conserves_mass(
                intervals in proptest::collection::vec(
                    (0u64..86_400 * 29, 1u64..86_400 * 10, 0.1f64..4.0), 1..50)
            ) {
                let mut u = UsageIntegrator::daily(SimTime::EPOCH, 40);
                let mut expect = 0.0;
                for (s, len, w) in &intervals {
                    let start = SimTime::from_secs(*s);
                    let end = start + SimDuration::from_secs(*len);
                    // Keep everything inside the 40-day window.
                    prop_assume!(end <= SimTime::from_days(40));
                    u.add_interval(start, end, *w);
                    expect += *w * *len as f64;
                }
                let got = u.series().total();
                prop_assert!((got - expect).abs() < 1e-6 * expect.max(1.0));
            }

            /// Cumulative series is monotone non-decreasing for
            /// non-negative deposits.
            #[test]
            fn cumulative_monotone(vals in proptest::collection::vec(0f64..100.0, 1..60)) {
                let mut s = BinnedSeries::daily(SimTime::EPOCH, 60);
                for (i, v) in vals.iter().enumerate() {
                    s.add(SimTime::from_days(i as u64 % 60), *v);
                }
                let c = s.cumulative();
                for w in c.windows(2) {
                    prop_assert!(w[1] >= w[0] - 1e-12);
                }
            }
        }
    }
}
