//! Compressed sorted `u64` sets, stored as maximal half-open runs.
//!
//! Protocol D's state — the outstanding-unit set `S` and the live set `T`
//! — starts as a dense range and evolves by removing contiguous shares and
//! intersecting views, so it stays describable by a handful of runs even
//! when `|S| = 10^8`. [`IntervalSet`] keeps exactly that representation:
//! a sorted vector of disjoint, non-adjacent `[lo, hi)` runs. Point
//! queries are `O(log r)`, set algebra is `O(r)`, and memory is
//! `O(r)` — for `r` runs, independent of cardinality.

use std::ops::Range;

/// A set of `u64` values stored as sorted, disjoint, non-adjacent
/// half-open runs.
///
/// # Examples
///
/// ```
/// use doall_core::intervals::IntervalSet;
///
/// let mut s = IntervalSet::from_range(1..101);
/// assert_eq!(s.len(), 100);
/// assert!(s.remove(37));
/// assert!(!s.contains(37));
/// assert_eq!(s.len(), 99);
/// assert_eq!(s.runs().len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct IntervalSet {
    /// Sorted, disjoint, non-adjacent, each with `lo < hi`.
    runs: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet { runs: Vec::new() }
    }

    /// The set holding exactly the values of `range`.
    pub fn from_range(range: Range<u64>) -> Self {
        if range.start >= range.end {
            return Self::new();
        }
        IntervalSet { runs: vec![(range.start, range.end)] }
    }

    /// Number of elements (not runs). `O(runs)`.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The underlying runs, each a half-open `(lo, hi)` pair.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// Index of the run containing `v`, if any; `Err` holds the insertion
    /// point among runs otherwise.
    fn find(&self, v: u64) -> Result<usize, usize> {
        let i = self.runs.partition_point(|&(lo, _)| lo <= v);
        if i > 0 && v < self.runs[i - 1].1 {
            Ok(i - 1)
        } else {
            Err(i)
        }
    }

    /// Membership test. `O(log runs)`.
    pub fn contains(&self, v: u64) -> bool {
        self.find(v).is_ok()
    }

    /// Inserts `v`; returns whether it was newly added.
    pub fn insert(&mut self, v: u64) -> bool {
        let i = match self.find(v) {
            Ok(_) => return false,
            Err(i) => i,
        };
        let glue_left = i > 0 && self.runs[i - 1].1 == v;
        let glue_right = i < self.runs.len() && v + 1 == self.runs[i].0;
        match (glue_left, glue_right) {
            (true, true) => {
                self.runs[i - 1].1 = self.runs[i].1;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].1 += 1,
            (false, true) => self.runs[i].0 -= 1,
            (false, false) => self.runs.insert(i, (v, v + 1)),
        }
        true
    }

    /// Removes `v`; returns whether it was present.
    pub fn remove(&mut self, v: u64) -> bool {
        let i = match self.find(v) {
            Ok(i) => i,
            Err(_) => return false,
        };
        let (lo, hi) = self.runs[i];
        match (v == lo, v + 1 == hi) {
            (true, true) => {
                self.runs.remove(i);
            }
            (true, false) => self.runs[i].0 += 1,
            (false, true) => self.runs[i].1 -= 1,
            (false, false) => {
                self.runs[i].1 = v;
                self.runs.insert(i + 1, (v + 1, hi));
            }
        }
        true
    }

    /// The smallest element, if any.
    pub fn min(&self) -> Option<u64> {
        self.runs.first().map(|&(lo, _)| lo)
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|&(lo, hi)| lo..hi)
    }

    /// Number of elements strictly below `v`. For `v` in the set this is
    /// its 0-based position in ascending order. `O(runs)`.
    pub fn rank(&self, v: u64) -> u64 {
        self.runs.iter().take_while(|&&(lo, _)| lo < v).map(|&(lo, hi)| hi.min(v) - lo).sum()
    }

    /// The sub-set holding the elements at ascending positions
    /// `start..start + count` (clamped to the set's size). `O(runs)`.
    pub fn slice_by_rank(&self, start: u64, count: u64) -> IntervalSet {
        let mut out = IntervalSet::new();
        let mut skip = start;
        let mut want = count;
        for &(lo, hi) in &self.runs {
            if want == 0 {
                break;
            }
            let span = hi - lo;
            if skip >= span {
                skip -= span;
                continue;
            }
            let take_lo = lo + skip;
            let take_hi = hi.min(take_lo + want);
            out.runs.push((take_lo, take_hi));
            want -= take_hi - take_lo;
            skip = 0;
        }
        out
    }

    /// In-place intersection with `other`. `O(runs + other.runs)`.
    pub fn intersect(&mut self, other: &IntervalSet) {
        self.intersect_via(other, &mut Vec::new());
    }

    /// [`intersect`](IntervalSet::intersect), building the result in
    /// `scratch` and leaving this set's old buffer there, so repeated
    /// merges through one scratch allocate nothing once warm.
    pub(crate) fn intersect_via(&mut self, other: &IntervalSet, scratch: &mut Vec<(u64, u64)>) {
        if self.runs == other.runs {
            return;
        }
        scratch.clear();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (alo, ahi) = self.runs[i];
            let (blo, bhi) = other.runs[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo < hi {
                scratch.push((lo, hi));
            }
            if ahi <= bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        std::mem::swap(&mut self.runs, scratch);
    }

    /// In-place difference `self \ other`. `O(runs + other.runs)`; a
    /// one-run `other` inside one run of this set (Protocol D's usual
    /// share) is cut out in place, growing the run vector by at most one.
    pub fn subtract(&mut self, other: &IntervalSet) {
        if let [(blo, bhi)] = other.runs[..] {
            if let Ok(i) = self.find(blo) {
                let (lo, hi) = self.runs[i];
                if bhi <= hi {
                    match (blo == lo, bhi == hi) {
                        (true, true) => {
                            self.runs.remove(i);
                        }
                        (true, false) => self.runs[i].0 = bhi,
                        (false, true) => self.runs[i].1 = blo,
                        (false, false) => {
                            self.runs[i].1 = blo;
                            self.runs.insert(i + 1, (bhi, hi));
                        }
                    }
                    return;
                }
            }
        }
        if other.runs.is_empty() {
            return;
        }
        // General case: a two-pointer walk, as `intersect_via`'s, pushing
        // each run's surviving pieces left to right. Every run of `other`
        // splits at most one run, which bounds the output.
        let mut out = Vec::with_capacity(self.runs.len() + other.runs.len());
        let mut j = 0;
        for &(alo, ahi) in &self.runs {
            let mut cur = alo;
            while j < other.runs.len() && other.runs[j].1 <= cur {
                j += 1;
            }
            while j < other.runs.len() && other.runs[j].0 < ahi {
                let (blo, bhi) = other.runs[j];
                if blo > cur {
                    out.push((cur, blo));
                }
                cur = cur.max(bhi);
                if bhi > ahi {
                    break; // it may cover the next run too
                }
                j += 1;
            }
            if cur < ahi {
                out.push((cur, ahi));
            }
        }
        self.runs = out;
    }

    /// In-place union with `other`. `O(runs + other.runs)`.
    pub fn union_with(&mut self, other: &IntervalSet) {
        self.union_via(other, &mut Vec::new());
    }

    /// [`union_with`](IntervalSet::union_with) through `scratch`, as
    /// [`intersect_via`](IntervalSet::intersect_via).
    pub(crate) fn union_via(&mut self, other: &IntervalSet, scratch: &mut Vec<(u64, u64)>) {
        if other.runs.is_empty() || self.runs == other.runs {
            return;
        }
        scratch.clear();
        let (mut i, mut j) = (0, 0);
        let push = |run: (u64, u64), out: &mut Vec<(u64, u64)>| match out.last_mut() {
            Some(last) if run.0 <= last.1 => last.1 = last.1.max(run.1),
            _ => out.push(run),
        };
        while i < self.runs.len() || j < other.runs.len() {
            let take_a =
                j >= other.runs.len() || (i < self.runs.len() && self.runs[i].0 <= other.runs[j].0);
            if take_a {
                push(self.runs[i], scratch);
                i += 1;
            } else {
                push(other.runs[j], scratch);
                j += 1;
            }
        }
        std::mem::swap(&mut self.runs, scratch);
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

impl FromIterator<u64> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut s = IntervalSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(s: &IntervalSet) -> Vec<u64> {
        s.iter().collect()
    }

    #[test]
    fn range_round_trip() {
        let s = IntervalSet::from_range(3..9);
        assert_eq!(dense(&s), vec![3, 4, 5, 6, 7, 8]);
        assert_eq!(s.len(), 6);
        assert!(!s.is_empty());
        assert!(IntervalSet::from_range(5..5).is_empty());
    }

    #[test]
    fn insert_merges_neighbors() {
        let mut s: IntervalSet = [1u64, 3, 5].into_iter().collect();
        assert_eq!(s.runs().len(), 3);
        assert!(s.insert(2));
        assert!(s.insert(4));
        assert!(!s.insert(3));
        assert_eq!(s.runs(), &[(1, 6)]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn remove_splits_runs() {
        let mut s = IntervalSet::from_range(0..10);
        assert!(s.remove(0)); // shrink left
        assert!(s.remove(9)); // shrink right
        assert!(s.remove(5)); // split
        assert!(!s.remove(5));
        assert_eq!(s.runs(), &[(1, 5), (6, 9)]);
        assert_eq!(dense(&s), vec![1, 2, 3, 4, 6, 7, 8]);
        for v in dense(&s) {
            assert!(s.contains(v));
        }
        assert!(!s.contains(0) && !s.contains(5) && !s.contains(9) && !s.contains(42));
    }

    #[test]
    fn subtract_cuts_in_place_or_merges() {
        // The in-place path: one run of `other` inside one run of `self`.
        let cut = |lo, hi| {
            let mut s: IntervalSet =
                [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 21].into_iter().collect();
            s.subtract(&IntervalSet::from_range(lo..hi));
            s
        };
        assert_eq!(cut(0, 10).runs(), &[(20, 22)]); // a whole run
        assert_eq!(cut(0, 3).runs(), &[(3, 10), (20, 22)]); // a prefix
        assert_eq!(cut(7, 10).runs(), &[(0, 7), (20, 22)]); // a suffix
        assert_eq!(cut(4, 6).runs(), &[(0, 4), (6, 10), (20, 22)]); // a middle split
        assert_eq!(cut(9, 10).runs(), &[(0, 9), (20, 22)]);
        assert_eq!(cut(5, 6).runs(), &[(0, 5), (6, 10), (20, 22)]);
        // One run that leaves its run of `self`, or misses it, takes the
        // general path.
        assert_eq!(cut(8, 21).runs(), &[(0, 8), (21, 22)]);
        assert_eq!(cut(12, 18).runs(), &[(0, 10), (20, 22)]);
        assert_eq!(cut(12, 30).runs(), &[(0, 10)]);
        // A multi-run `other`, one of whose runs covers a gap and reaches
        // into the next run.
        let mut s: IntervalSet = (0u64..30).filter(|v| v % 10 < 6).collect();
        assert_eq!(s.runs(), &[(0, 6), (10, 16), (20, 26)]);
        let other: IntervalSet = [1u64, 2, 4, 5, 6, 7, 8, 9, 10, 11, 25].into_iter().collect();
        s.subtract(&other);
        assert_eq!(s.runs(), &[(0, 1), (3, 4), (12, 16), (20, 25)]);
        s.subtract(&IntervalSet::new());
        assert_eq!(s.len(), 11);
        s.subtract(&IntervalSet::from_range(0..100));
        assert!(s.is_empty());
    }

    #[test]
    fn rank_and_slice() {
        let mut s = IntervalSet::from_range(10..20);
        s.remove(13); // {10,11,12,14,...,19}
        assert_eq!(s.rank(10), 0);
        assert_eq!(s.rank(12), 2);
        assert_eq!(s.rank(14), 3);
        assert_eq!(s.rank(100), 9);
        assert_eq!(dense(&s.slice_by_rank(0, 3)), vec![10, 11, 12]);
        assert_eq!(dense(&s.slice_by_rank(2, 3)), vec![12, 14, 15]);
        assert_eq!(dense(&s.slice_by_rank(7, 99)), vec![18, 19]);
        assert!(s.slice_by_rank(9, 5).is_empty());
    }

    #[test]
    fn intersect_two_pointer() {
        let mut a = IntervalSet::from_range(0..10);
        a.remove(4);
        let mut b = IntervalSet::from_range(2..14);
        b.remove(7);
        a.intersect(&b);
        assert_eq!(dense(&a), vec![2, 3, 5, 6, 8, 9]);
        a.intersect(&IntervalSet::new());
        assert!(a.is_empty());
    }

    #[test]
    fn union_coalesces() {
        let mut a: IntervalSet = [1u64, 2, 3, 10].into_iter().collect();
        let b: IntervalSet = [4u64, 5, 9, 11, 20].into_iter().collect();
        a.union_with(&b);
        assert_eq!(dense(&a), vec![1, 2, 3, 4, 5, 9, 10, 11, 20]);
        assert_eq!(a.runs(), &[(1, 6), (9, 12), (20, 21)]);
        let before = a.clone();
        a.union_with(&IntervalSet::new());
        assert_eq!(a, before);
    }

    #[test]
    fn giant_range_stays_tiny() {
        // The whole point: 10^8 outstanding units in one run, carving a
        // contiguous share out of the middle costs two runs, not 800 MB.
        let mut s = IntervalSet::from_range(1..100_000_001);
        for v in 50_000_000..50_001_000 {
            s.remove(v);
        }
        assert_eq!(s.len(), 100_000_000 - 1000);
        assert_eq!(s.runs().len(), 2);
        assert!(s.bytes() < 1024);
    }

    #[test]
    fn matches_btreeset_on_random_ops() {
        // xorshift-driven differential against the std set.
        let mut model = std::collections::BTreeSet::new();
        let mut s = IntervalSet::new();
        let mut x = 0x243f6a8885a308d3u64;
        for step in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 64;
            if x & (1 << 40) == 0 {
                assert_eq!(s.insert(v), model.insert(v), "step {step}");
            } else {
                assert_eq!(s.remove(v), model.remove(&v), "step {step}");
            }
            assert_eq!(s.len(), model.len() as u64, "step {step}");
        }
        assert_eq!(dense(&s), model.iter().copied().collect::<Vec<_>>());
        // Algebra against the model too.
        let other: IntervalSet = (0..64u64).filter(|v| v % 3 != 0).collect();
        let mut same = s.clone();
        same.intersect(&s);
        same.union_with(&s);
        assert_eq!(same, s);
        let mut inter = s.clone();
        inter.intersect(&other);
        let expect: Vec<u64> = model.iter().copied().filter(|v| v % 3 != 0).collect();
        assert_eq!(dense(&inter), expect);
        let mut uni = s.clone();
        uni.union_with(&other);
        let mut expect: std::collections::BTreeSet<u64> = model.clone();
        expect.extend((0..64u64).filter(|v| v % 3 != 0));
        assert_eq!(dense(&uni), expect.into_iter().collect::<Vec<_>>());
        // Differences against the model: a fixed multi-run set, then random
        // ones, single runs included (the in-place path).
        let mut diff = s.clone();
        diff.subtract(&other);
        let expect: Vec<u64> = model.iter().copied().filter(|v| v % 3 == 0).collect();
        assert_eq!(dense(&diff), expect);
        for step in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let cut: std::collections::BTreeSet<u64> = if x & 1 == 0 {
                let lo = (x >> 8) % 64;
                (lo..lo + (x >> 20) % 12).collect()
            } else {
                (0..64u64).filter(|v| (x >> (v % 61)) & 3 == 0).collect()
            };
            let mut diff = s.clone();
            diff.subtract(&cut.iter().copied().collect());
            let expect: Vec<u64> = model.difference(&cut).copied().collect();
            assert_eq!(dense(&diff), expect, "step {step}");
            assert_eq!(diff, expect.into_iter().collect::<IntervalSet>(), "step {step}: runs");
        }
    }
}
