//! Physical units used throughout the model.
//!
//! The paper mixes megabits (object bandwidths are quoted in Mb/s) and
//! megabytes (all equations use MB and MB/s). These newtypes make the
//! conversion explicit so the ambiguity cannot leak into the math.
//!
//! All three types are thin wrappers over `f64` with exact, lossless
//! arithmetic semantics of `f64`; they exist purely to keep units straight.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration in the scheduling model, stored in seconds.
///
/// The paper quotes seek and track times in milliseconds and cycle times in
/// seconds; this type normalizes everything to seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Time(f64);

impl Time {
    /// Zero duration.
    pub const ZERO: Time = Time(0.0);

    /// Construct from seconds.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        Time(secs)
    }

    /// Construct from milliseconds (the unit the paper uses for `τ_seek`
    /// and `τ_trk`).
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Time(ms / 1_000.0)
    }

    /// Construct from hours (the unit the paper uses for MTTF/MTTR).
    #[must_use]
    pub fn from_hours(h: f64) -> Self {
        Time(h * 3_600.0)
    }

    /// The value in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// The value in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3_600.0
    }

    /// The value in years, using the paper's convention of 8760 h/year
    /// (365 days); this is the conversion that reproduces Table 2's
    /// "25684.9 years" from 2.25·10⁸ hours.
    #[must_use]
    pub fn as_years(self) -> f64 {
        self.as_hours() / 8_760.0
    }

    /// Saturating subtraction: never goes below zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time((self.0 - rhs.0).max(0.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    fn mul(self, rhs: f64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<Time> for Time {
    /// Ratio of two durations (dimensionless).
    type Output = f64;
    fn div(self, rhs: Time) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.3} ms", self.as_millis())
        } else {
            write!(f, "{:.3} s", self.0)
        }
    }
}

/// A data size, stored in bytes.
///
/// The paper's `B` (bytes per track) and `s_d` (disk capacity) are sizes.
/// Following the paper's numerics (Table 2 is reproduced exactly with
/// decimal units), `1 KB = 1000 B` and `1 MB = 10⁶ B`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Size(f64);

impl Size {
    /// Zero bytes.
    pub const ZERO: Size = Size(0.0);

    /// Construct from kilobytes (decimal: 1 KB = 1000 B).
    #[must_use]
    pub fn from_kb(kb: f64) -> Self {
        Size(kb * 1e3)
    }

    /// Construct from megabytes (decimal: 1 MB = 10⁶ B).
    #[must_use]
    pub fn from_mb(mb: f64) -> Self {
        Size(mb * 1e6)
    }

    /// The value in bytes.
    #[must_use]
    pub fn as_bytes(self) -> f64 {
        self.0
    }

    /// The value in megabytes.
    #[must_use]
    pub fn as_mb(self) -> f64 {
        self.0 / 1e6
    }

    /// The value in kilobytes.
    #[must_use]
    pub fn as_kb(self) -> f64 {
        self.0 / 1e3
    }

    /// Integer number of bytes, rounded; useful for allocating real buffers.
    #[must_use]
    pub fn as_whole_bytes(self) -> usize {
        self.0.round().max(0.0) as usize
    }
}

impl Add for Size {
    type Output = Size;
    fn add(self, rhs: Size) -> Size {
        Size(self.0 + rhs.0)
    }
}

impl Sub for Size {
    type Output = Size;
    fn sub(self, rhs: Size) -> Size {
        Size(self.0 - rhs.0)
    }
}

impl Mul<f64> for Size {
    type Output = Size;
    fn mul(self, rhs: f64) -> Size {
        Size(self.0 * rhs)
    }
}

impl Div<Size> for Size {
    /// Ratio of two sizes (dimensionless).
    type Output = f64;
    fn div(self, rhs: Size) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<Bandwidth> for Size {
    /// Size divided by bandwidth is the time to transfer it.
    type Output = Time;
    fn div(self, rhs: Bandwidth) -> Time {
        Time::from_secs(self.0 / rhs.0)
    }
}

impl Div<Time> for Size {
    /// Size divided by time is a bandwidth.
    type Output = Bandwidth;
    fn div(self, rhs: Time) -> Bandwidth {
        Bandwidth(self.0 / rhs.as_secs())
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.2} MB", self.as_mb())
        } else {
            write!(f, "{:.2} KB", self.as_kb())
        }
    }
}

/// A data rate, stored in bytes per second.
///
/// Object bandwidths `b₀` in the paper are quoted in megabits per second
/// ("as is common with objects today") but used in megabytes per second in
/// every equation; both constructors are provided.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Construct from megabits per second (1 Mb/s = 10⁶ bits/s = 125 000 B/s).
    #[must_use]
    pub fn from_megabits(mbps: f64) -> Self {
        Bandwidth(mbps * 1e6 / 8.0)
    }

    /// Construct from megabytes per second.
    #[must_use]
    pub fn from_megabytes(mbs: f64) -> Self {
        Bandwidth(mbs * 1e6)
    }

    /// The value in megabytes per second (the unit used in the equations).
    #[must_use]
    pub fn as_megabytes(self) -> f64 {
        self.0 / 1e6
    }

    /// The value in megabits per second (the unit used in the prose).
    #[must_use]
    pub fn as_megabits(self) -> f64 {
        self.0 * 8.0 / 1e6
    }

    /// MPEG-1 quality ("about 1.5 mbps, i.e., low TV quality").
    #[must_use]
    pub fn mpeg1() -> Self {
        Bandwidth::from_megabits(1.5)
    }

    /// MPEG-2 quality ("about 4.5 megabits per second, i.e., good TV
    /// quality").
    #[must_use]
    pub fn mpeg2() -> Self {
        Bandwidth::from_megabits(4.5)
    }
}

impl Mul<Time> for Bandwidth {
    /// Bandwidth times duration is the amount of data moved.
    type Output = Size;
    fn mul(self, rhs: Time) -> Size {
        Size(self.0 * rhs.as_secs())
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Mb/s", self.as_megabits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_round_trip() {
        let t = Time::from_millis(25.0);
        assert!((t.as_secs() - 0.025).abs() < 1e-12);
        assert!((t.as_millis() - 25.0).abs() < 1e-12);
        let h = Time::from_hours(300_000.0);
        assert!((h.as_hours() - 300_000.0).abs() < 1e-6);
    }

    #[test]
    fn years_use_8760_hours() {
        // 2.25e8 hours is the Table 2 MTTF for C = 5; the paper reports it
        // as 25684.9 years, i.e. divides by 8760.
        let t = Time::from_hours(2.25e8);
        assert!((t.as_years() - 25_684.93).abs() < 0.01);
    }

    #[test]
    fn size_conversions() {
        let b = Size::from_kb(50.0);
        assert!((b.as_mb() - 0.05).abs() < 1e-12);
        assert_eq!(b.as_whole_bytes(), 50_000);
    }

    #[test]
    fn bandwidth_megabits_to_megabytes() {
        let b = Bandwidth::from_megabits(1.5);
        assert!((b.as_megabytes() - 0.1875).abs() < 1e-12);
        assert!((b.as_megabits() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_is_size_over_bandwidth() {
        // One 50 KB track at 1.5 Mb/s takes B/b0 seconds.
        let t = Size::from_kb(50.0) / Bandwidth::from_megabits(1.5);
        assert!((t.as_secs() - 0.05 / 0.1875).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_times_time_is_size() {
        let s = Bandwidth::from_megabytes(2.0) * Time::from_secs(3.0);
        assert!((s.as_mb() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn time_saturating_sub() {
        let a = Time::from_secs(1.0);
        let b = Time::from_secs(2.0);
        assert_eq!(a.saturating_sub(b), Time::ZERO);
        assert_eq!(b.saturating_sub(a), Time::from_secs(1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Time::from_millis(20.0)), "20.000 ms");
        assert_eq!(format!("{}", Size::from_mb(1.5)), "1.50 MB");
        assert_eq!(format!("{}", Bandwidth::from_megabits(4.5)), "4.50 Mb/s");
    }

    #[test]
    fn mpeg_presets() {
        assert!((Bandwidth::mpeg1().as_megabits() - 1.5).abs() < 1e-12);
        assert!((Bandwidth::mpeg2().as_megabits() - 4.5).abs() < 1e-12);
    }
}
