//! Strongly typed physical quantities used throughout the reproduction.
//!
//! The paper reports data volumes in GB/TB (dataset sizes, 2 TB/day
//! transfer targets, ~100 TB total in Figure 5), compute in CPU-days
//! (Figures 2 and 4, Table 1) and bandwidths per site gatekeeper (§6.4
//! selection criterion 4). Newtypes keep those units from being mixed up.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::time::SimDuration;

/// A byte count. Internally `u64`; petabyte scale fits comfortably.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// Megabytes (10⁶ bytes). The paper speaks in decimal units
    /// (GB = 10⁹), so the constructors follow it.
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// Gigabytes (10⁹ bytes).
    pub const fn from_gb(gb: u64) -> Self {
        Bytes(gb * 1_000_000_000)
    }

    /// Terabytes (10¹² bytes).
    pub const fn from_tb(tb: u64) -> Self {
        Bytes(tb * 1_000_000_000_000)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Gigabytes as a float.
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Terabytes as a float.
    pub fn as_tb_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// True if zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two byte counts.
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// The larger of two byte counts.
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Mul<f64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: f64) -> Bytes {
        Bytes((self.0 as f64 * rhs.max(0.0)).round() as u64)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1e12 {
            write!(f, "{:.2} TB", b / 1e12)
        } else if b >= 1e9 {
            write!(f, "{:.2} GB", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.2} MB", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.2} kB", b / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data rate in bytes per second. Site WAN links and gatekeeper NICs are
/// expressed in this unit; §6.4's fourth site-selection criterion ranks
/// sites by it.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Construct from bytes per second; negatives clamp to zero.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        Bandwidth(bps.max(0.0))
    }

    /// Construct from megabits per second (the unit sites advertise).
    pub fn from_mbit_per_sec(mbit: f64) -> Self {
        Self::from_bytes_per_sec(mbit * 1e6 / 8.0)
    }

    /// Bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Megabits per second.
    pub fn as_mbit_per_sec(self) -> f64 {
        self.0 * 8.0 / 1e6
    }

    /// Time to move `bytes` at this rate. Returns `None` for zero bandwidth.
    pub fn transfer_time(self, bytes: Bytes) -> Option<SimDuration> {
        if self.0 <= 0.0 {
            None
        } else {
            Some(SimDuration::from_secs_f64(bytes.as_u64() as f64 / self.0))
        }
    }

    /// Split this bandwidth fairly among `n` concurrent streams.
    pub fn share(self, n: usize) -> Bandwidth {
        if n <= 1 {
            self
        } else {
            Bandwidth(self.0 / n as f64)
        }
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs.max(f64::MIN_POSITIVE))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} Mbit/s", self.as_mbit_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors_are_decimal() {
        assert_eq!(Bytes::from_mb(1).as_u64(), 1_000_000);
        assert_eq!(Bytes::from_gb(2).as_u64(), 2_000_000_000);
        assert_eq!(Bytes::from_tb(1).as_u64(), 1_000_000_000_000);
    }

    #[test]
    fn byte_display_scales() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::from_gb(2).to_string(), "2.00 GB");
        assert_eq!(Bytes::from_tb(100).to_string(), "100.00 TB");
    }

    #[test]
    fn byte_arithmetic_saturates_below_zero() {
        assert_eq!(Bytes::from_mb(1) - Bytes::from_mb(2), Bytes::ZERO);
        let mut b = Bytes::from_mb(1);
        b -= Bytes::from_mb(5);
        assert_eq!(b, Bytes::ZERO);
    }

    #[test]
    fn bandwidth_transfer_time() {
        // 2 GB dataset (ATLAS average, §4.1) at 100 Mbit/s = 160 s.
        let bw = Bandwidth::from_mbit_per_sec(100.0);
        let t = bw.transfer_time(Bytes::from_gb(2)).unwrap();
        assert!((t.as_secs_f64() - 160.0).abs() < 1e-6);
        assert!(Bandwidth::ZERO.transfer_time(Bytes::from_gb(1)).is_none());
    }

    #[test]
    fn bandwidth_fair_share() {
        let bw = Bandwidth::from_mbit_per_sec(100.0);
        assert!((bw.share(4).as_mbit_per_sec() - 25.0).abs() < 1e-9);
        assert_eq!(bw.share(0).as_mbit_per_sec(), bw.as_mbit_per_sec());
    }

    #[test]
    fn paper_daily_transfer_target_in_units() {
        // §7: 2-3 TB/day target, 4 TB achieved. Check unit plumbing at the
        // scale the figures use.
        let day_total = Bytes::from_tb(4);
        assert!((day_total.as_tb_f64() - 4.0).abs() < 1e-12);
    }
}
