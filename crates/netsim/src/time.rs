//! Simulation time, durations and bandwidths.
//!
//! All time in the simulator is integer **picoseconds**. This makes
//! transmission times exact for the bandwidths used throughout the paper's
//! evaluation: one bit takes exactly 1000 ps at 1 Gbps and exactly 100 ps at
//! 10 Gbps. Keeping the hot path free of floating point makes every run
//! bit-reproducible across platforms, which the replay methodology of the
//! paper (§2.3) depends on: the *same* injected packets must be fed to the
//! original run and to the replay run.
//!
//! `u64` picoseconds covers ~213 days of simulated time, far beyond any
//! experiment here (the longest paper runs are a few simulated seconds).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute instant on the simulation clock, in picoseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for run deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This instant expressed in (fractional) seconds. Only for reporting;
    /// never used in simulation arithmetic.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating difference `self - earlier`, zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference; `None` if `earlier` is in fact later than `self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<Dur> {
        self.0.checked_sub(earlier.0).map(Dur)
    }
}

impl Dur {
    /// The zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from whole picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Dur(ps)
    }
    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns * PS_PER_NS)
    }
    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Dur(us * PS_PER_US)
    }
    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * PS_PER_MS)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * PS_PER_SEC)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This span in (fractional) seconds. Reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// This span in (fractional) microseconds. Reporting only.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Integer multiple of the span. Panics on overflow in debug builds.
    #[inline]
    pub const fn times(self, n: u64) -> Dur {
        Dur(self.0 * n)
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Dur) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: Dur) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    /// Panics (in debug) if the right-hand side is later; use
    /// [`SimTime::saturating_since`] when that can legitimately happen.
    #[inline]
    fn sub(self, t: SimTime) -> Dur {
        Dur(self.0 - t.0)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, d: Dur) -> Dur {
        Dur(self.0 + d.0)
    }
}

impl AddAssign<Dur> for Dur {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, d: Dur) -> Dur {
        Dur(self.0 - d.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.0 as f64 / PS_PER_MS as f64)
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.0 as f64 / PS_PER_US as f64)
        } else {
            write!(f, "{}ns", self.0 as f64 / PS_PER_NS as f64)
        }
    }
}

/// Link bandwidth in bits per second.
///
/// Transmission times are exact integer arithmetic (128-bit intermediates
/// where 64 would overflow) for any packet size / bandwidth combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }
    /// Construct from megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }
    /// Construct from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }
    /// Gigabits per second, for reporting.
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` onto this link — the paper's `T(p, α)`.
    ///
    /// Rounds up to the next picosecond so that a busy port never finishes
    /// "early"; for every bandwidth used in the evaluation the division is
    /// exact anyway.
    #[inline]
    pub fn tx_time(self, bytes: u32) -> Dur {
        debug_assert!(self.0 > 0, "zero-bandwidth link");
        // bits × 10¹² fits a u64 below 2.3 MB — every packet the simulator
        // carries — which spares the hot path a 128-bit division.
        match (bytes as u64 * 8).checked_mul(PS_PER_SEC) {
            Some(bit_ps) => Dur(bit_ps.div_ceil(self.0)),
            None => self.tx_time_wide(bytes),
        }
    }

    /// [`Self::tx_time`] with 128-bit intermediates: exact for any size.
    fn tx_time_wide(self, bytes: u32) -> Dur {
        let bits = bytes as u128 * 8;
        let ps = (bits * PS_PER_SEC as u128).div_ceil(self.0 as u128);
        Dur(ps as u64)
    }

    /// How many bytes this link serializes in `d` (rounded down). Used by
    /// workload calibration, not by the event loop.
    #[inline]
    pub fn bytes_in(self, d: Dur) -> u64 {
        ((d.0 as u128 * self.0 as u128) / (8 * PS_PER_SEC as u128)) as u64
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{}Gbps", self.0 as f64 / 1e9)
        } else {
            write!(f, "{}Mbps", self.0 as f64 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_are_consistent() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1000));
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1000));
        assert_eq!(Dur::from_secs(2).as_ps(), 2 * PS_PER_SEC);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_us(5) + Dur::from_us(7);
        assert_eq!(t, SimTime::from_us(12));
        assert_eq!(t - SimTime::from_us(2), Dur::from_us(10));
        assert_eq!(t.saturating_since(SimTime::from_us(20)), Dur::ZERO);
        assert_eq!(t.checked_since(SimTime::from_us(20)), None);
        assert_eq!(t.checked_since(SimTime::from_us(2)), Some(Dur::from_us(10)));
    }

    #[test]
    fn tx_time_is_exact_for_paper_bandwidths() {
        // 1500 B at 1 Gbps = 12 us exactly — the paper's threshold T (§2.3).
        assert_eq!(Bandwidth::from_gbps(1).tx_time(1500), Dur::from_us(12));
        // 1500 B at 10 Gbps = 1.2 us exactly.
        assert_eq!(Bandwidth::from_gbps(10).tx_time(1500), Dur::from_ns(1200));
        // 40 B ack at 1 Gbps = 320 ns.
        assert_eq!(Bandwidth::from_gbps(1).tx_time(40), Dur::from_ns(320));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 3 bits/s serializing 1 byte: 8/3 s -> ceil.
        let bw = Bandwidth::from_bps(3);
        let t = bw.tx_time(1);
        assert_eq!(t.as_ps(), (8 * PS_PER_SEC).div_ceil(3));
    }

    #[test]
    fn tx_time_narrow_and_wide_paths_agree() {
        // The first size whose bits × 10¹² overflows a u64.
        let first_wide = (u64::MAX / (8 * PS_PER_SEC) + 1) as u32;
        assert!(((first_wide - 1) as u64 * 8)
            .checked_mul(PS_PER_SEC)
            .is_some());
        assert!((first_wide as u64 * 8).checked_mul(PS_PER_SEC).is_none());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let edges = [0, 1, 40, 1500, first_wide - 1, first_wide, u32::MAX];
        for i in 0..20_000 {
            // Rates from 1 bps to ~1 Tbps, sizes across the whole u32 range
            // (a random shift spreads them over both sides of the split).
            let bw = Bandwidth::from_bps(1 + next() % (1u64 << (1 + next() % 40)));
            let bytes = if i % 4 == 0 {
                edges[(i / 4) % edges.len()]
            } else {
                (next() >> (next() % 32)) as u32
            };
            assert_eq!(bw.tx_time(bytes), bw.tx_time_wide(bytes), "{bw:?} {bytes}");
        }
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let bw = Bandwidth::from_gbps(1);
        assert_eq!(bw.bytes_in(bw.tx_time(1500)), 1500);
        assert_eq!(bw.bytes_in(Dur::from_secs(1)), 125_000_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bandwidth::from_gbps(10)), "10Gbps");
        assert_eq!(format!("{}", Dur::from_us(12)), "12.000us");
        assert_eq!(format!("{}", Dur::from_ms(3)), "3.000ms");
    }
}
