//! Identifier newtypes shared by the whole workspace.
//!
//! The paper numbers processes `0..t-1` and work units `1..n`; we keep both
//! conventions ([`Pid`] is zero-based, [`Unit`] is one-based) so that code
//! reads like the pseudocode in Figures 1–4.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A round number / virtual timestamp on the simulation's wide clock.
///
/// Round `1` is the first round of the execution; round `0` is reserved for
/// the paper's fictitious "process 0 broadcast before the execution begins"
/// convention (Protocol B, §2.3). Protocol C's deadline tower grows as
/// `K(n+t−m)2^{n+t−1−m}` rounds, which overflows a 64-bit clock beyond
/// `n + t ≈ 80`; the clock is therefore 128 bits wide behind this newtype,
/// which carries the exactly-representable tower to `n + t ≈ 107`
/// (honest `t = 64` grids) and lets saturated far-future deadlines
/// coexist with scheduled adversary events without colliding.
///
/// All arithmetic is **checked or saturating by construction**: the `+`
/// operators panic on overflow (an overflowing clock is always an engine
/// or protocol bug), while [`saturating_add`](Round::saturating_add) pins
/// deadline arithmetic at [`Round::MAX`] — a representable "never, unless
/// something else happens first" that the engines' sparse fast-forward
/// treats like any other wakeup.
///
/// Plain `u64` values convert losslessly via `From`/`Into` (the only
/// integer `From` impl, so bare literals in `impl Into<Round>` positions
/// infer `u64`); wider values are built with [`Round::new`]. Comparisons
/// against both `u64` and `u128` are provided in both directions.
///
/// # Examples
///
/// ```
/// use doall_sim::Round;
///
/// let r = Round::from(5u64) + 2u64;
/// assert_eq!(r, 7u64);
/// assert_eq!(Round::MAX.saturating_add(1), Round::MAX);
/// assert_eq!(Round::new(1 << 100).checked_add(1), Some(Round::new((1 << 100) + 1)));
/// assert_eq!(r - Round::from(3u64), 4u128);
/// ```
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Round(u128);

impl Round {
    /// Round zero (pre-execution; see the type-level docs).
    pub const ZERO: Round = Round(0);
    /// The first round of every execution.
    pub const ONE: Round = Round(1);
    /// The clock's horizon: saturated deadlines pin here.
    pub const MAX: Round = Round(u128::MAX);

    /// Creates a round from a wide value.
    pub const fn new(round: u128) -> Self {
        Round(round)
    }

    /// The raw 128-bit value.
    pub const fn get(self) -> u128 {
        self.0
    }

    /// Checked round advance: `None` on clock overflow.
    pub const fn checked_add(self, rhs: u128) -> Option<Round> {
        match self.0.checked_add(rhs) {
            Some(v) => Some(Round(v)),
            None => None,
        }
    }

    /// Saturating round advance — the deadline-arithmetic primitive:
    /// `Round::MAX` means "not before anything representable".
    pub const fn saturating_add(self, rhs: u128) -> Round {
        Round(self.0.saturating_add(rhs))
    }

    /// Saturating distance to an earlier round (`0` if `other` is later).
    pub const fn saturating_sub(self, other: Round) -> u128 {
        self.0.saturating_sub(other.0)
    }

    /// The immediately following round.
    ///
    /// # Panics
    ///
    /// Panics on clock overflow (only reachable from `Round::MAX`).
    pub fn next(self) -> Round {
        self.checked_add(1).expect("round clock overflow")
    }

    /// Lossy conversion for ratio/throughput reporting.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl From<u64> for Round {
    fn from(round: u64) -> Self {
        Round(u128::from(round))
    }
}

impl From<Round> for u128 {
    fn from(round: Round) -> u128 {
        round.0
    }
}

impl fmt::Display for Round {
    /// Values on the old 64-bit clock print as bare decimals. Wide values
    /// (above `u64::MAX` — deep-idle deadlines like Protocol C's `2^k`
    /// waits) additionally carry the nearest power of two, because a bare
    /// 39-digit decimal is unreadable in diagnostics: `2^100` renders as
    /// `1267650600228229401496703205376 (2^100)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)?;
        if self.0 > u128::from(u64::MAX) {
            let floor = 127 - self.0.leading_zeros();
            // Nearest exponent: round up when the value is at or past the
            // midpoint of [2^floor, 2^(floor+1)), i.e. when the bit below
            // the leading bit is set.
            let up = floor > 0 && (self.0 >> (floor - 1)) & 1 == 1 && !self.0.is_power_of_two();
            let k = floor + u32::from(up);
            if self.0.is_power_of_two() {
                write!(f, " (2^{k})")?;
            } else {
                write!(f, " (~2^{k})")?;
            }
        }
        Ok(())
    }
}

impl std::ops::Add<u64> for Round {
    type Output = Round;
    fn add(self, rhs: u64) -> Round {
        self.checked_add(u128::from(rhs)).expect("round clock overflow")
    }
}

impl std::ops::Add<u128> for Round {
    type Output = Round;
    fn add(self, rhs: u128) -> Round {
        self.checked_add(rhs).expect("round clock overflow")
    }
}

impl std::ops::AddAssign<u64> for Round {
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

/// Checked distance between rounds: panics on underflow (later − earlier
/// is the only meaningful direction on a clock).
impl std::ops::Sub<Round> for Round {
    type Output = u128;
    fn sub(self, rhs: Round) -> u128 {
        self.0.checked_sub(rhs.0).expect("round clock underflow")
    }
}

impl PartialEq<u64> for Round {
    fn eq(&self, other: &u64) -> bool {
        self.0 == u128::from(*other)
    }
}

impl PartialEq<Round> for u64 {
    fn eq(&self, other: &Round) -> bool {
        u128::from(*self) == other.0
    }
}

impl PartialEq<u128> for Round {
    fn eq(&self, other: &u128) -> bool {
        self.0 == *other
    }
}

impl PartialEq<Round> for u128 {
    fn eq(&self, other: &Round) -> bool {
        *self == other.0
    }
}

impl PartialOrd<u64> for Round {
    fn partial_cmp(&self, other: &u64) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&u128::from(*other))
    }
}

impl PartialOrd<Round> for u64 {
    fn partial_cmp(&self, other: &Round) -> Option<std::cmp::Ordering> {
        u128::from(*self).partial_cmp(&other.0)
    }
}

impl PartialOrd<u128> for Round {
    fn partial_cmp(&self, other: &u128) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(other)
    }
}

impl PartialOrd<Round> for u128 {
    fn partial_cmp(&self, other: &Round) -> Option<std::cmp::Ordering> {
        self.partial_cmp(&other.0)
    }
}

/// Identifier of a process, `0..t-1`.
///
/// Backed by a `u32` (4 bytes instead of 8): process identifiers saturate
/// the scale axis long before they exhaust 32 bits (the engine's SoA state
/// tables are sized per process, so at `t = 10^6` the narrower backing
/// halves every pid-indexed column), and the constructor still takes a
/// `usize` so call sites read exactly as before.
///
/// # Examples
///
/// ```
/// use doall_sim::Pid;
///
/// let p = Pid::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "p3");
/// ```
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Pid(u32);

impl Pid {
    /// Creates a process identifier from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` (systems beyond 2³² processes
    /// are outside the simulator's addressable range).
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "pid out of u32 range");
        Pid(index as u32)
    }

    /// Returns the zero-based index of this process.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over `Pid(lo), Pid(lo+1), ..., Pid(hi-1)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use doall_sim::Pid;
    ///
    /// let group: Vec<Pid> = Pid::range(2, 5).collect();
    /// assert_eq!(group, vec![Pid::new(2), Pid::new(3), Pid::new(4)]);
    /// ```
    pub fn range(lo: usize, hi: usize) -> impl DoubleEndedIterator<Item = Pid> + Clone {
        (lo..hi).map(Pid::new)
    }

    /// The identifier immediately after this one.
    pub const fn next(self) -> Pid {
        Pid(self.0 + 1)
    }
}

impl From<usize> for Pid {
    fn from(index: usize) -> Self {
        Pid::new(index)
    }
}

impl From<Pid> for usize {
    fn from(pid: Pid) -> usize {
        pid.index()
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a unit of work, `1..=n` (one-based, as in the paper).
///
/// # Examples
///
/// ```
/// use doall_sim::Unit;
///
/// let u = Unit::new(1);
/// assert_eq!(u.get(), 1);
/// assert_eq!(u.zero_based(), 0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Unit(usize);

impl Unit {
    /// Creates a work-unit identifier from a one-based index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `0`; the paper numbers units from `1`.
    pub const fn new(id: usize) -> Self {
        assert!(id >= 1, "work units are numbered from 1");
        Unit(id)
    }

    /// Returns the one-based unit number.
    pub const fn get(self) -> usize {
        self.0
    }

    /// Returns the zero-based index (for array storage).
    pub const fn zero_based(self) -> usize {
        self.0 - 1
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_roundtrips_through_usize() {
        let p = Pid::new(7);
        assert_eq!(usize::from(p), 7);
        assert_eq!(Pid::from(7usize), p);
    }

    #[test]
    fn pid_ordering_matches_index_ordering() {
        assert!(Pid::new(0) < Pid::new(1));
        assert!(Pid::new(10) > Pid::new(9));
    }

    #[test]
    fn pid_range_is_half_open() {
        assert_eq!(Pid::range(0, 0).count(), 0);
        assert_eq!(Pid::range(5, 8).count(), 3);
    }

    #[test]
    fn unit_is_one_based() {
        let u = Unit::new(1);
        assert_eq!(u.zero_based(), 0);
        assert_eq!(Unit::new(9).get(), 9);
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn unit_zero_is_rejected() {
        let _ = Unit::new(0);
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(Pid::new(0).to_string(), "p0");
        assert_eq!(Unit::new(12).to_string(), "u12");
    }
}
