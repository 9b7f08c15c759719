//! Protocol C (§3): work-optimal Do-All with only `O(n + t log t)`
//! messages — `O(t log t)` in the Corollary 3.9 variant.
//!
//! Processes are organized into `log t` levels of groups: level `h` has
//! groups of size `2^{log t − h + 1}`, so level `log t` pairs each process
//! with a buddy while level 1 is the whole system. *Fault detection is
//! treated as work*: polling the members of `G^i_h` is "work on level
//! `h`", reported — exactly like real work — to a round-robin pointer into
//! the next smaller group `G^i_{h+1}`. Real work is "level 0", reported to
//! `G^i_1`.
//!
//! Knowledge is spread as uniformly as possible: every ordinary message
//! carries the sender's entire *view* (the failure set `F`, plus a pointer
//! and round stamp per group), and the recipient merges it. The *reduced
//! view* — units known done plus failures known — totally orders the
//! processes (Lemma 3.4) and drives the exponential takeover deadlines
//! `D(i, m)`.

pub mod protocol_c;

use std::collections::BTreeSet;
use std::fmt;

use doall_bounds::CParams;
use doall_sim::{Classify, Round};

use crate::error::ConfigError;

/// Validates Protocol C parameters.
///
/// # Errors
///
/// `t` must be a power of two with `t >= 2`; `n >= 1`; for the C′ variant
/// (`stride > 1`), `t` must divide `n`.
pub fn validate_c(n: u64, t: u64, prime: bool) -> Result<CParams, ConfigError> {
    if t == 0 {
        return Err(ConfigError::NoProcesses);
    }
    if n == 0 {
        return Err(ConfigError::NoWork);
    }
    if !t.is_power_of_two() || t < 2 {
        return Err(ConfigError::NotPowerOfTwo { t });
    }
    if prime {
        if !n.is_multiple_of(t) {
            return Err(ConfigError::NotDivisible { n, t });
        }
        if n < t {
            return Err(ConfigError::WorkTooSmall { n, t });
        }
        Ok(CParams::protocol_c_prime(n, t))
    } else {
        Ok(CParams::protocol_c(n, t))
    }
}

/// The binary group hierarchy of §3.1.
///
/// Groups are identified by `(level, block)`: level `h ∈ 1..=log t` has
/// `t / 2^{log t − h + 1}` blocks of size `2^{log t − h + 1}`. Each process
/// belongs to exactly one group per level, `G^i_h`.
///
/// # Examples
///
/// ```
/// use doall_core::c::Groups;
///
/// let g = Groups::new(8);
/// assert_eq!(g.levels(), 3);
/// // Level 3 groups are buddy pairs; process 5's buddy group is {4, 5}.
/// assert_eq!(g.members(3, g.block_of(5, 3)).collect::<Vec<_>>(), vec![4, 5]);
/// // Level 1 is everyone.
/// assert_eq!(g.members(1, 0).count(), 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Groups {
    t: u64,
    levels: u32,
}

impl Groups {
    /// Creates the hierarchy for `t` processes (`t` a power of two `>= 2`).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a power of two at least 2.
    pub fn new(t: u64) -> Self {
        assert!(t.is_power_of_two() && t >= 2, "t = {t} must be a power of two >= 2");
        Groups { t, levels: t.trailing_zeros() }
    }

    /// Number of levels, `log₂ t`.
    pub fn levels(self) -> u32 {
        self.levels
    }

    /// Number of processes.
    pub fn t(self) -> u64 {
        self.t
    }

    /// Size of groups at level `h`.
    pub fn size(self, h: u32) -> u64 {
        debug_assert!((1..=self.levels).contains(&h), "level {h} out of range");
        1 << (self.levels - h + 1)
    }

    /// Block index of process `i` at level `h`.
    pub fn block_of(self, i: u64, h: u32) -> u64 {
        i / self.size(h)
    }

    /// Members of group `(h, block)` in increasing pid order.
    pub fn members(self, h: u32, block: u64) -> impl DoubleEndedIterator<Item = u64> + Clone {
        let s = self.size(h);
        block * s..(block + 1) * s
    }

    /// Total number of groups across all levels (`t − 1`).
    pub fn group_count(self) -> usize {
        (self.t - 1) as usize
    }

    /// Flat index of group `(h, block)` into view arrays: levels are laid
    /// out from 1 upward (`t/2^{log t}` = 1 group for level 1 first).
    pub fn flat_index(self, h: u32, block: u64) -> usize {
        // Level h has t / size(h) = 2^{h-1} blocks; levels 1..h-1 contribute
        // 2^0 + 2^1 + ... + 2^{h-2} = 2^{h-1} - 1 groups.
        ((1u64 << (h - 1)) - 1 + block) as usize
    }

    /// The lowest member of the group at flat index `idx` other than `me`:
    /// that group's initial pointer in `me`'s view.
    fn lowest_other(self, idx: usize, me: u64) -> u64 {
        // Inverts `flat_index`: level h holds indices 2^{h−1} − 1 ..
        // 2^h − 2, so h − 1 is the position of `idx + 1`'s top bit.
        let h = usize::BITS - (idx + 1).leading_zeros();
        let block = (idx + 1 - (1 << (h - 1))) as u64;
        let lowest = block * self.size(h);
        if lowest == me {
            lowest + 1
        } else {
            lowest
        }
    }

    /// The cyclic successor of `after` within group `(h, block)`, skipping
    /// `me` and every member of `f`; `None` if no eligible member remains.
    pub fn successor(
        self,
        h: u32,
        block: u64,
        after: u64,
        me: u64,
        f: &BTreeSet<u64>,
    ) -> Option<u64> {
        let s = self.size(h);
        let base = block * s;
        let start = after - base;
        (1..=s).map(|k| base + (start + k) % s).find(|&cand| cand != me && !f.contains(&cand))
    }

    /// The first eligible poll/report target at or after `point` in cyclic
    /// order (i.e. `point` itself if eligible, else its successor).
    pub fn normalize(
        self,
        h: u32,
        block: u64,
        point: u64,
        me: u64,
        f: &BTreeSet<u64>,
    ) -> Option<u64> {
        if point != me && !f.contains(&point) {
            Some(point)
        } else {
            self.successor(h, block, point, me, f)
        }
    }
}

/// A process's knowledge: the triple `(F_i, point_i, round_i)` of §3.1.
///
/// The per-group pointers and stamps are stored sparsely: only the groups
/// whose pointer or stamp moved from its initial value are kept, sorted
/// by [`Groups::flat_index`]. An absent group reads as its initial pointer
/// (the group's lowest member other than the owner) with stamp 0. This is
/// exact because [`merge`](View::merge) adopts a group only on a strictly
/// later stamp, so an unmoved entry is never read across views. Building
/// a view is O(1) and copying one is O(moved groups + |F|), where a dense
/// table would be O(t) for both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// Processes known to have retired.
    pub f: BTreeSet<u64>,
    /// `point[G_0]`: the next unit of work to perform (`n + 1` = all done).
    pub point_work: u64,
    /// Round at which the last known unit of work was performed (a wide
    /// virtual-time stamp: honest `t = 64` runs reach rounds beyond 2⁶⁴).
    pub round_work: Round,
    groups: Groups,
    owner: u64,
    /// The groups off their initial state, sorted by `group`.
    moved: Vec<Moved>,
}

/// One group's pointer and stamp in a [`View`], kept while they differ
/// from the initial ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Moved {
    group: usize,
    point: u64,
    round: Round,
}

impl View {
    /// The initial view of process `me`: nothing done, nobody failed, every
    /// pointer at the lowest-numbered group member other than `me`.
    pub fn initial(groups: Groups, me: u64) -> Self {
        View {
            f: BTreeSet::new(),
            point_work: 1,
            round_work: Round::ZERO,
            groups,
            owner: me,
            moved: Vec::new(),
        }
    }

    /// Per-group pointer of the group at [`Groups::flat_index`] `idx`:
    /// successor of the last member known to have received an ordinary
    /// message from a process working on the group one level down.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`Groups::group_count`].
    pub fn point(&self, idx: usize) -> u64 {
        match self.find(idx) {
            Ok(k) => self.moved[k].point,
            Err(_) => self.groups.lowest_other(idx, self.owner),
        }
    }

    /// Round stamp of [`point`](View::point)`(idx)`, on the wide clock.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`Groups::group_count`].
    pub fn round(&self, idx: usize) -> Round {
        self.find(idx).map_or(Round::ZERO, |k| self.moved[k].round)
    }

    /// Sets group `idx`'s pointer and stamp.
    pub(crate) fn set(&mut self, idx: usize, point: u64, round: Round) {
        match self.find(idx) {
            Ok(k) => self.moved[k] = Moved { group: idx, point, round },
            Err(k) => self.moved.insert(k, Moved { group: idx, point, round }),
        }
    }

    fn find(&self, idx: usize) -> Result<usize, usize> {
        assert!(idx < self.groups.group_count(), "group index {idx} out of range");
        self.moved.binary_search_by_key(&idx, |m| m.group)
    }

    /// The reduced view: units known done plus failures known
    /// (`point[G_0] − 1 + |F|`).
    pub fn reduced(&self) -> u64 {
        self.point_work - 1 + self.f.len() as u64
    }

    /// Whether this view is at least as knowledgeable as `other`
    /// (failure-set superset and pointwise-later round stamps).
    pub fn dominates(&self, other: &View) -> bool {
        self.f.is_superset(&other.f)
            && self.round_work >= other.round_work
            && self.point_work >= other.point_work
            && other.moved.iter().all(|m| self.round(m.group) >= m.round)
    }

    /// Merges a received view into this one (adopting, per group, the
    /// pointer with the later round stamp). Returns `true` if anything
    /// changed.
    pub fn merge(&mut self, other: &View) -> bool {
        let mut changed = false;
        if !other.f.is_subset(&self.f) {
            self.f.extend(other.f.iter().copied());
            changed = true;
        }
        if other.round_work > self.round_work
            || (other.round_work == self.round_work && other.point_work > self.point_work)
        {
            self.round_work = other.round_work;
            self.point_work = other.point_work;
            changed = true;
        }
        // One walk over both sorted tables: groups this view holds are
        // updated in place, the others are appended and sorted in after.
        let len = self.moved.len();
        let mut k = 0;
        for m in other.moved.iter().filter(|m| m.round > Round::ZERO) {
            while k < len && self.moved[k].group < m.group {
                k += 1;
            }
            if k < len && self.moved[k].group == m.group {
                if m.round > self.moved[k].round {
                    self.moved[k] = *m;
                    changed = true;
                }
            } else {
                self.moved.push(*m);
                changed = true;
            }
        }
        if self.moved.len() > len {
            // Two sorted runs: the stable sort merges them in one pass.
            self.moved.sort_by_key(|m| m.group);
        }
        changed
    }
}

/// Messages of Protocol C.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CMsg {
    /// An ordinary message: a (real or fault-detection) work report
    /// carrying the sender's entire view.
    Ordinary(Box<View>),
    /// The fault-detection poll, "Are you alive?".
    AreYouAlive,
    /// The response to a poll.
    Alive,
}

impl Classify for CMsg {
    fn class(&self) -> &'static str {
        match self {
            CMsg::Ordinary(_) => "ordinary",
            CMsg::AreYouAlive => "poll",
            CMsg::Alive => "alive",
        }
    }
}

impl fmt::Display for CMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CMsg::Ordinary(v) => write!(f, "ordinary(m={})", v.reduced()),
            CMsg::AreYouAlive => write!(f, "are-you-alive?"),
            CMsg::Alive => write!(f, "alive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_shape_for_t8() {
        let g = Groups::new(8);
        assert_eq!(g.levels(), 3);
        assert_eq!(g.size(1), 8);
        assert_eq!(g.size(2), 4);
        assert_eq!(g.size(3), 2);
        assert_eq!(g.group_count(), 7);
    }

    #[test]
    fn every_process_has_one_group_per_level() {
        let g = Groups::new(16);
        for i in 0..16 {
            for h in 1..=4 {
                let b = g.block_of(i, h);
                assert!(g.members(h, b).any(|m| m == i));
            }
        }
    }

    #[test]
    fn nested_groups_halve_upward() {
        // G^i_{h+1} ⊂ G^i_h for every i and h.
        let g = Groups::new(16);
        for i in 0..16 {
            for h in 1..4 {
                let outer: Vec<u64> = g.members(h, g.block_of(i, h)).collect();
                let inner: Vec<u64> = g.members(h + 1, g.block_of(i, h + 1)).collect();
                assert!(inner.iter().all(|m| outer.contains(m)));
                assert_eq!(inner.len() * 2, outer.len());
            }
        }
    }

    #[test]
    fn flat_indices_are_a_bijection() {
        let g = Groups::new(16);
        let mut seen = std::collections::BTreeSet::new();
        for h in 1..=g.levels() {
            for b in 0..(g.t() / g.size(h)) {
                assert!(seen.insert(g.flat_index(h, b)));
            }
        }
        assert_eq!(seen.len(), g.group_count());
        assert_eq!(*seen.iter().max().unwrap(), g.group_count() - 1);
    }

    #[test]
    fn successor_cycles_and_skips() {
        let g = Groups::new(8);
        // Level 2, block 0 = {0,1,2,3}; me = 1, f = {2}.
        let f: BTreeSet<u64> = [2].into_iter().collect();
        assert_eq!(g.successor(2, 0, 0, 1, &f), Some(3));
        assert_eq!(g.successor(2, 0, 3, 1, &f), Some(0)); // wraps

        // Everyone else failed: no successor.
        let all: BTreeSet<u64> = [0, 2, 3].into_iter().collect();
        assert_eq!(g.successor(2, 0, 0, 1, &all), None);
    }

    #[test]
    fn normalize_keeps_eligible_pointers() {
        let g = Groups::new(8);
        let f: BTreeSet<u64> = [0].into_iter().collect();
        assert_eq!(g.normalize(2, 0, 3, 1, &f), Some(3));
        assert_eq!(g.normalize(2, 0, 0, 1, &f), Some(2)); // 0 failed -> 2
        assert_eq!(g.normalize(2, 0, 1, 1, &f), Some(2)); // me -> 2
    }

    #[test]
    fn initial_view_points_at_lowest_non_self() {
        let g = Groups::new(4);
        let v = View::initial(g, 0);
        // Level 2 block 0 = {0,1}: lowest non-0 is 1.
        assert_eq!(v.point(g.flat_index(2, 0)), 1);
        // Level 1 = {0..3}: lowest non-0 is 1.
        assert_eq!(v.point(g.flat_index(1, 0)), 1);
        let v2 = View::initial(g, 1);
        assert_eq!(v2.point(g.flat_index(2, 0)), 0);
        assert_eq!(v.reduced(), 0);
    }

    #[test]
    fn merge_takes_later_round_stamps() {
        let g = Groups::new(4);
        let mut a = View::initial(g, 0);
        let mut b = View::initial(g, 1);
        b.f.insert(2);
        b.point_work = 5;
        b.round_work = Round::from(9u64);
        b.set(0, 3, Round::from(9u64));
        assert!(a.merge(&b));
        assert_eq!(a.point_work, 5);
        assert!(a.f.contains(&2));
        assert_eq!(a.point(0), 3);
        assert_eq!(a.reduced(), 5);
        // Merging an older view changes nothing.
        assert!(!a.merge(&View::initial(g, 1)));
        // And the merged view dominates both sources.
        assert!(a.dominates(&b));
        assert!(a.dominates(&View::initial(g, 0)));
        // b does not dominate a in the f-component... (a == b ∪ older now)
        b.f.insert(3);
        assert!(!a.dominates(&b));
    }

    /// The dense two-array view the sparse table replaces: the reference
    /// for `sparse_view_matches_dense_reference`.
    #[derive(Clone)]
    struct DenseView {
        f: BTreeSet<u64>,
        point_work: u64,
        round_work: Round,
        point: Vec<u64>,
        round: Vec<Round>,
    }

    impl DenseView {
        fn initial(groups: Groups, me: u64) -> Self {
            let mut point = vec![0; groups.group_count()];
            for h in 1..=groups.levels() {
                for block in 0..(groups.t() / groups.size(h)) {
                    let lowest = groups.members(h, block).find(|&p| p != me).unwrap();
                    point[groups.flat_index(h, block)] = lowest;
                }
            }
            let round = vec![Round::ZERO; groups.group_count()];
            DenseView { f: BTreeSet::new(), point_work: 1, round_work: Round::ZERO, point, round }
        }

        fn dominates(&self, other: &DenseView) -> bool {
            self.f.is_superset(&other.f)
                && self.round_work >= other.round_work
                && self.point_work >= other.point_work
                && self.round.iter().zip(&other.round).all(|(a, b)| a >= b)
        }

        fn merge(&mut self, other: &DenseView) -> bool {
            let mut changed = false;
            if !other.f.is_subset(&self.f) {
                self.f.extend(other.f.iter().copied());
                changed = true;
            }
            if other.round_work > self.round_work
                || (other.round_work == self.round_work && other.point_work > self.point_work)
            {
                self.round_work = other.round_work;
                self.point_work = other.point_work;
                changed = true;
            }
            for idx in 0..self.point.len() {
                if other.round[idx] > self.round[idx] {
                    self.round[idx] = other.round[idx];
                    self.point[idx] = other.point[idx];
                    changed = true;
                }
            }
            changed
        }
    }

    #[test]
    fn sparse_view_matches_dense_reference() {
        // xorshift-driven differential: stamped and unstamped pointer
        // moves, F inserts, work moves and merges, applied to both.
        let g = Groups::new(16);
        let mut sparse: Vec<View> = (0..g.t()).map(|me| View::initial(g, me)).collect();
        let mut dense: Vec<DenseView> = (0..g.t()).map(|me| DenseView::initial(g, me)).collect();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for step in 0..20_000 {
            let r = next();
            let i = (r % g.t()) as usize;
            let idx = ((r >> 8) % g.group_count() as u64) as usize;
            let point = (r >> 16) % g.t();
            let stamp = Round::from((r >> 24) % 40);
            match (r >> 40) % 6 {
                // A stamped move (report sent, or a merge-style adoption).
                0 | 1 => {
                    sparse[i].set(idx, point, stamp);
                    dense[i].point[idx] = point;
                    dense[i].round[idx] = stamp;
                }
                // A pointer-only move (failure detected), the stamp kept;
                // sometimes back to the initial pointer.
                2 => {
                    let point =
                        if r & (1 << 50) == 0 { point } else { g.lowest_other(idx, i as u64) };
                    let kept = sparse[i].round(idx);
                    sparse[i].set(idx, point, kept);
                    dense[i].point[idx] = point;
                }
                3 => {
                    sparse[i].f.insert(point);
                    dense[i].f.insert(point);
                }
                4 => {
                    sparse[i].point_work += 1;
                    sparse[i].round_work = stamp;
                    dense[i].point_work += 1;
                    dense[i].round_work = stamp;
                }
                _ => {
                    let j = ((r >> 48) % g.t()) as usize;
                    if i != j {
                        let (from_s, from_d) = (sparse[j].clone(), dense[j].clone());
                        assert_eq!(
                            sparse[i].merge(&from_s),
                            dense[i].merge(&from_d),
                            "step {step}: merge {j} into {i}"
                        );
                    }
                }
            }
            let j = ((r >> 56) % g.t()) as usize;
            assert_eq!(
                sparse[i].dominates(&sparse[j]),
                dense[i].dominates(&dense[j]),
                "step {step}: {i} dominates {j}"
            );
            assert_eq!(
                sparse[j].dominates(&sparse[i]),
                dense[j].dominates(&dense[i]),
                "step {step}: {j} dominates {i}"
            );
            for k in 0..g.group_count() {
                assert_eq!(sparse[i].point(k), dense[i].point[k], "step {step}: point {k}");
                assert_eq!(sparse[i].round(k), dense[i].round[k], "step {step}: round {k}");
            }
            assert_eq!(sparse[i].f, dense[i].f);
            assert_eq!(
                (sparse[i].point_work, sparse[i].round_work),
                (dense[i].point_work, dense[i].round_work)
            );
        }
    }

    #[test]
    fn reduced_view_counts_work_and_failures() {
        let g = Groups::new(4);
        let mut v = View::initial(g, 0);
        assert_eq!(v.reduced(), 0);
        v.point_work = 4;
        assert_eq!(v.reduced(), 3);
        v.f.insert(1);
        v.f.insert(2);
        assert_eq!(v.reduced(), 5);
    }

    #[test]
    fn validate_c_enforces_assumptions() {
        assert!(validate_c(10, 6, false).is_err());
        assert!(validate_c(10, 0, false).is_err());
        assert!(validate_c(0, 4, false).is_err());
        assert!(validate_c(10, 4, false).is_ok()); // C: no divisibility needed
        assert!(validate_c(10, 4, true).is_err()); // C': needs t | n
        assert!(validate_c(12, 4, true).is_ok());
    }

    #[test]
    fn message_classes() {
        let g = Groups::new(4);
        assert_eq!(CMsg::Ordinary(Box::new(View::initial(g, 0))).class(), "ordinary");
        assert_eq!(CMsg::AreYouAlive.class(), "poll");
        assert_eq!(CMsg::Alive.class(), "alive");
    }
}
