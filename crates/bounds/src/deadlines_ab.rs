//! Deadline functions for Protocols A and B (§2 of the paper).
//!
//! These formulas *are* the protocols' timing spec; the implementations in
//! `doall-core` call into this module so that tests can check the code
//! against the paper's arithmetic (including the Lemma 2.5 identities)
//! independently of any simulation.
//!
//! Throughout, `t` is a perfect square, processes are `0..t-1`, groups are
//! numbered `1..=√t`, and `ḡ(i) = ⌈(i+1)/√t⌉` is process `i`'s group.

use crate::util::isqrt;

/// Parameters shared by the Protocol A/B formulas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbParams {
    /// Number of work units.
    pub n: u64,
    /// Number of processes (a perfect square).
    pub t: u64,
    /// `√t`, computed once by [`new`](AbParams::new): every A/B step,
    /// wakeup and deadline reads it.
    sqrt_t: u64,
}

impl AbParams {
    /// Creates the parameter pack.
    ///
    /// # Panics
    ///
    /// Panics unless `t` is a positive perfect square and `√t` divides `n`
    /// with `n >= t` — the paper's simplifying assumptions ("we assume that
    /// t is a perfect square, and that n is divisible by t, so that in
    /// particular n > t").
    pub fn new(n: u64, t: u64) -> Self {
        assert!(t >= 1, "need at least one process");
        assert!(crate::util::is_perfect_square(t), "t = {t} must be a perfect square");
        assert!(n.is_multiple_of(t), "n = {n} must be divisible by t = {t}");
        assert!(n >= t, "n = {n} must be at least t = {t}");
        AbParams { n, t, sqrt_t: isqrt(t) }
    }

    /// `√t`.
    pub fn sqrt_t(self) -> u64 {
        debug_assert_eq!(self.sqrt_t * self.sqrt_t, self.t, "cached √t out of step with t");
        self.sqrt_t
    }

    /// The group of process `i`: `⌈(i+1)/√t⌉`, in `1..=√t`.
    pub fn group_of(self, i: u64) -> u64 {
        (i + 1).div_ceil(self.sqrt_t())
    }

    /// `ī = i mod √t`: process `i`'s position within its group.
    pub fn bar(self, i: u64) -> u64 {
        i % self.sqrt_t()
    }

    /// Pids of group `g` (1-based): `(g-1)√t ..= g√t - 1`.
    pub fn group_members(self, g: u64) -> std::ops::Range<u64> {
        let s = self.sqrt_t();
        (g - 1) * s..g * s
    }

    /// Size of each work subchunk, `n/t`.
    pub fn subchunk_size(self) -> u64 {
        self.n / self.t
    }

    /// Units of subchunk `c` (1-based): `(c-1)·n/t + 1 ..= c·n/t`.
    pub fn subchunk_units(self, c: u64) -> std::ops::RangeInclusive<u64> {
        let sz = self.subchunk_size();
        (c - 1) * sz + 1..=c * sz
    }
}

/// Protocol A's deadline: process `j` becomes active at round
/// `DD(j) = j(n + 3t)` unless it has learned that all work is done
/// (§2.1; `n + 3t` bounds an active process's lifetime by Lemma 2.1).
pub fn dd(p: AbParams, j: u64) -> u64 {
    j.saturating_mul(p.n + 3 * p.t)
}

/// Protocol B's *process time out* `PTO = n/t + 2`: an upper bound (plus
/// one) on the rounds between messages from an active process to its own
/// group.
pub fn pto(p: AbParams) -> u64 {
    p.n / p.t + 2
}

/// Protocol B's *group time out*
/// `GTO(i) = n/√t + 3√t + (√t − ī − 1)·PTO + 1`: an upper bound (plus one)
/// on the rounds before a process in a *later* group hears from group
/// `ḡ(i)` if any process `k ≥ i` of that group is active.
pub fn gto(p: AbParams, i: u64) -> u64 {
    let s = p.sqrt_t();
    p.n / s + 3 * s + (s - p.bar(i) - 1) * pto(p) + 1
}

/// Protocol B's deadline `DDB(j, i)`: how long process `j` waits after last
/// hearing (at round `r'`, from process `i`) before going *preactive* at
/// round `r' + DDB(j, i)`.
pub fn ddb(p: AbParams, j: u64, i: u64) -> u64 {
    if p.group_of(j) != p.group_of(i) {
        gto(p, i) + (p.group_of(j) - p.group_of(i) - 1) * gto(p, 0)
    } else {
        pto(p)
    }
}

/// Protocol B's *transition time* `TT(j, i)`: if the last ordinary message
/// `j` received before round `r = r' + TT(j, i)` was sent by `i` at `r'`,
/// then `j` is active at or before round `r`.
pub fn tt(p: AbParams, j: u64, i: u64) -> u64 {
    if p.group_of(j) != p.group_of(i) {
        ddb(p, j, i) + p.bar(j) * pto(p)
    } else {
        (p.bar(j) - p.bar(i)) * pto(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> AbParams {
        AbParams::new(32, 16)
    }

    #[test]
    fn groups_partition_processes() {
        let p = p();
        assert_eq!(p.sqrt_t(), 4);
        // Process 0..3 in group 1, 4..7 in group 2, ...
        assert_eq!(p.group_of(0), 1);
        assert_eq!(p.group_of(3), 1);
        assert_eq!(p.group_of(4), 2);
        assert_eq!(p.group_of(15), 4);
        let members: Vec<u64> = p.group_members(2).collect();
        assert_eq!(members, vec![4, 5, 6, 7]);
        // Every process is in the group that contains it.
        for i in 0..16 {
            assert!(p.group_members(p.group_of(i)).contains(&i));
        }
    }

    #[test]
    fn bar_is_position_within_group() {
        let p = p();
        assert_eq!(p.bar(0), 0);
        assert_eq!(p.bar(5), 1);
        assert_eq!(p.bar(15), 3);
    }

    #[test]
    fn chunking_matches_the_paper() {
        let p = p();
        assert_eq!(p.subchunk_size(), 2); // n/t = 32/16
        assert_eq!(p.subchunk_units(1), 1..=2);
        assert_eq!(p.subchunk_units(16), 31..=32);
        // t subchunks cover exactly 1..=n.
        let total: u64 = (1..=p.t).map(|c| p.subchunk_units(c).count() as u64).sum();
        assert_eq!(total, p.n);
    }

    #[test]
    fn dd_is_linear_in_j() {
        let p = p();
        assert_eq!(dd(p, 0), 0);
        assert_eq!(dd(p, 1), 32 + 48);
        assert_eq!(dd(p, 5), 5 * 80);
    }

    #[test]
    fn pto_and_gto_values() {
        let p = p();
        assert_eq!(pto(p), 4); // 32/16 + 2

        // GTO(0) = n/√t + 3√t + (√t-1)·PTO + 1 = 8 + 12 + 12 + 1 = 33.
        assert_eq!(gto(p, 0), 33);
        // GTO for the last member of a group: (√t - 3 - 1) = 0 PTO terms.
        assert_eq!(gto(p, 3), (8 + 12) + 1);
    }

    #[test]
    fn ddb_same_group_is_pto() {
        let p = p();
        assert_eq!(ddb(p, 6, 4), pto(p));
        assert_eq!(ddb(p, 6, 5), pto(p));
    }

    #[test]
    fn ddb_across_groups_accumulates_gto() {
        let p = p();
        // j in group 3, i in group 1: GTO(i) + (3-1-1)·GTO(0).
        assert_eq!(ddb(p, 8, 0), gto(p, 0) + gto(p, 0));
        assert_eq!(ddb(p, 8, 2), gto(p, 2) + gto(p, 0));
        // Adjacent groups: just GTO(i).
        assert_eq!(ddb(p, 4, 1), gto(p, 1));
    }

    /// Lemma 2.5(a): `TT(j,k) + TT(l,j) = TT(l,k)` for `l > j > k`.
    #[test]
    fn lemma_2_5_a_exhaustive_small() {
        for (n, t) in [(16, 16), (32, 16), (36, 36), (72, 36)] {
            let p = AbParams::new(n, t);
            for k in 0..t {
                for j in k + 1..t {
                    for l in j + 1..t {
                        assert_eq!(
                            tt(p, j, k) + tt(p, l, j),
                            tt(p, l, k),
                            "lemma 2.5(a) failed at n={n} t={t} l={l} j={j} k={k}"
                        );
                    }
                }
            }
        }
    }

    /// Lemma 2.5(b): `TT(j,k) + DDB(l,j) = DDB(l,k)` when `ḡ(j) < ḡ(l)`.
    #[test]
    fn lemma_2_5_b_exhaustive_small() {
        for (n, t) in [(16, 16), (32, 16), (36, 36)] {
            let p = AbParams::new(n, t);
            for k in 0..t {
                for j in k + 1..t {
                    for l in j + 1..t {
                        if p.group_of(j) < p.group_of(l) {
                            assert_eq!(
                                tt(p, j, k) + ddb(p, l, j),
                                ddb(p, l, k),
                                "lemma 2.5(b) failed at n={n} t={t} l={l} j={j} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_t_is_rejected() {
        let _ = AbParams::new(30, 15);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_n_is_rejected() {
        let _ = AbParams::new(33, 16);
    }
}
