//! Compressed live/retired process sets.
//!
//! The message plane already stores broadcasts as *spans* rather than
//! per-recipient envelopes; [`LiveSet`] extends the same idea to liveness.
//! It is a hybrid of two representations kept deliberately asymmetric:
//!
//! * a **bitset** (`⌈t/64⌉` words) answering membership and count queries
//!   in O(1) — the delivery index intersects every span with the live set
//!   once per recipient, so this is the hot query path;
//! * a lazily rebuilt **run list** (maximal `[lo, hi)` intervals of live
//!   pids) driving pid-order iteration in O(live + runs) — after a mass
//!   extinction leaves one survivor in a `t = 2^17` system, the per-round
//!   due-scan walks one run of length one instead of 2048 bitset words.
//!
//! Mutations touch only the bitset (O(1) per pid, O(span/64) for a bulk
//! span kill) and mark the run list dirty; the runs are rebuilt from the
//! words on the next iteration after a mutation, so quiet stretches — the
//! common case, since the live set only moves on retirement, revival, and
//! recovery — iterate at interval-set speed with no rebuild at all.

use serde::{Deserialize, Serialize};

/// The set of live process indices, over a fixed universe `0..t`.
///
/// # Examples
///
/// ```
/// use doall_sim::LiveSet;
///
/// let mut live = LiveSet::new(10);
/// assert_eq!(live.len(), 10);
/// live.remove(3);
/// assert!(!live.contains(3));
/// assert_eq!(live.kill_span(5, 8), 3);
/// assert_eq!(live.iter().collect::<Vec<_>>(), vec![0, 1, 2, 4, 8, 9]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveSet {
    t: usize,
    words: Vec<u64>,
    len: usize,
    /// Maximal half-open runs of live pids, valid only when `!dirty`.
    runs: Vec<(u32, u32)>,
    dirty: bool,
}

impl LiveSet {
    /// A set with every pid in `0..t` live.
    pub fn new(t: usize) -> Self {
        let mut words = vec![u64::MAX; t.div_ceil(64)];
        if !t.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (t % 64)) - 1;
            }
        }
        let runs = if t > 0 { vec![(0, t as u32)] } else { Vec::new() };
        LiveSet { t, words, len: t, runs, dirty: false }
    }

    /// Size of the universe (`t`), not the number of live members.
    pub fn universe(&self) -> usize {
        self.t
    }

    /// Number of live pids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pid is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `idx` is live. O(1).
    pub fn contains(&self, idx: usize) -> bool {
        idx < self.t && self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Removes `idx`; returns whether it was live. O(1).
    pub fn remove(&mut self, idx: usize) -> bool {
        let mask = 1u64 << (idx % 64);
        let w = &mut self.words[idx / 64];
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        self.len -= 1;
        self.dirty = true;
        true
    }

    /// Inserts `idx` (a crash-recovery revival); returns whether it was
    /// previously absent. O(1).
    pub fn insert(&mut self, idx: usize) -> bool {
        let mask = 1u64 << (idx % 64);
        let w = &mut self.words[idx / 64];
        if *w & mask != 0 {
            return false;
        }
        *w |= mask;
        self.len += 1;
        self.dirty = true;
        true
    }

    /// Kills every live pid in `[lo, hi)` in one pass over `⌈span/64⌉`
    /// words (no per-pid work); returns how many were live.
    pub fn kill_span(&mut self, lo: usize, hi: usize) -> u64 {
        let hi = hi.min(self.t);
        if lo >= hi {
            return 0;
        }
        let mut removed: u32 = 0;
        let (wlo, whi) = (lo / 64, (hi - 1) / 64);
        for wi in wlo..=whi {
            let mut mask = u64::MAX;
            if wi == wlo {
                mask &= u64::MAX << (lo % 64);
            }
            if wi == whi && !hi.is_multiple_of(64) {
                mask &= (1u64 << (hi % 64)) - 1;
            }
            let hit = self.words[wi] & mask;
            removed += hit.count_ones();
            self.words[wi] &= !mask;
        }
        if removed > 0 {
            self.len -= removed as usize;
            self.dirty = true;
        }
        u64::from(removed)
    }

    /// Number of live pids in `[lo, hi)`, by popcount over the span's
    /// words.
    pub fn count_span(&self, lo: usize, hi: usize) -> usize {
        let hi = hi.min(self.t);
        if lo >= hi {
            return 0;
        }
        let (wlo, whi) = (lo / 64, (hi - 1) / 64);
        let mut count = 0u32;
        for wi in wlo..=whi {
            let mut mask = u64::MAX;
            if wi == wlo {
                mask &= u64::MAX << (lo % 64);
            }
            if wi == whi && !hi.is_multiple_of(64) {
                mask &= (1u64 << (hi % 64)) - 1;
            }
            count += (self.words[wi] & mask).count_ones();
        }
        count as usize
    }

    /// Rebuilds the run list from the bitset if any mutation happened
    /// since the last rebuild.
    fn ensure_runs(&mut self) {
        if !self.dirty {
            return;
        }
        self.runs.clear();
        let mut open: Option<u32> = None;
        for (wi, &w) in self.words.iter().enumerate() {
            if w == 0 {
                if let Some(lo) = open.take() {
                    self.runs.push((lo, (wi * 64) as u32));
                }
                continue;
            }
            if w == u64::MAX {
                if open.is_none() {
                    open = Some((wi * 64) as u32);
                }
                continue;
            }
            let base = (wi * 64) as u32;
            let mut bit = 0u32;
            while bit < 64 {
                if w & (1u64 << bit) != 0 {
                    if open.is_none() {
                        open = Some(base + bit);
                    }
                    bit += 1;
                } else {
                    if let Some(lo) = open.take() {
                        self.runs.push((lo, base + bit));
                    }
                    bit += 1;
                }
            }
        }
        if let Some(lo) = open {
            self.runs.push((lo, self.t as u32));
        }
        self.dirty = false;
    }

    /// Iterates the live pids in pid order, in O(live + runs) after an
    /// amortized O(t/64) rebuild on the first iteration following a
    /// mutation. Requires `&mut self` for the lazy rebuild; cold callers
    /// holding only `&self` can use [`ones`](LiveSet::ones).
    pub fn iter(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.ensure_runs();
        self.runs.iter().flat_map(|&(lo, hi)| lo as usize..hi as usize)
    }

    /// The maximal runs of live pids, pid-ordered (rebuilds lazily).
    pub fn runs(&mut self) -> &[(u32, u32)] {
        self.ensure_runs();
        &self.runs
    }

    /// Iterates the live pids straight off the bitset, in O(t/64); for
    /// cold paths (diagnostics) that only hold `&self`.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().filter(|(_, &w)| w != 0).flat_map(|(wi, &w)| {
            (0..64).filter(move |b| w & (1u64 << b) != 0).map(move |b| wi * 64 + b)
        })
    }

    /// Bytes held by this set (words plus the run list), for the memory
    /// probe.
    pub fn bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()
            + self.runs.capacity() * std::mem::size_of::<(u32, u32)>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_set_is_one_run() {
        let mut s = LiveSet::new(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.runs(), &[(0, 130)]);
        assert!(s.contains(0) && s.contains(129) && !s.contains(130));
    }

    #[test]
    fn empty_universe_is_empty() {
        let mut s = LiveSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.ones().count(), 0);
    }

    #[test]
    fn remove_and_insert_roundtrip() {
        let mut s = LiveSet::new(65);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 64);
        assert!(s.insert(64));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 65);
        assert_eq!(s.runs(), &[(0, 65)]);
    }

    #[test]
    fn runs_split_around_holes() {
        let mut s = LiveSet::new(10);
        s.remove(3);
        s.remove(4);
        s.remove(9);
        assert_eq!(s.runs(), &[(0, 3), (5, 9)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 5, 6, 7, 8]);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 1, 2, 5, 6, 7, 8]);
    }

    #[test]
    fn kill_span_crosses_word_boundaries() {
        let mut s = LiveSet::new(200);
        assert_eq!(s.kill_span(1, 199), 198);
        assert_eq!(s.len(), 2);
        assert_eq!(s.runs(), &[(0, 1), (199, 200)]);
        // Idempotent: nothing left to kill.
        assert_eq!(s.kill_span(0, 200), 2);
        assert!(s.is_empty());
        assert_eq!(s.kill_span(0, 200), 0);
    }

    #[test]
    fn kill_span_clamps_and_counts_only_live() {
        let mut s = LiveSet::new(64);
        s.remove(10);
        assert_eq!(s.kill_span(8, 12), 3);
        assert_eq!(s.kill_span(60, 1000), 4);
        assert_eq!(s.len(), 56);
        assert_eq!(s.count_span(0, 64), s.len());
    }

    #[test]
    fn count_span_matches_iteration() {
        let mut s = LiveSet::new(150);
        for i in (0..150).step_by(3) {
            s.remove(i);
        }
        for lo in [0usize, 1, 63, 64, 65, 100] {
            for hi in [lo, lo + 1, 128, 150, 400] {
                let expect = s.clone().iter().filter(|&i| i >= lo && i < hi).count();
                assert_eq!(s.count_span(lo, hi), expect, "span {lo}..{hi}");
            }
        }
    }

    #[test]
    fn mass_extinction_leaves_tiny_runs() {
        let mut s = LiveSet::new(1 << 17);
        assert_eq!(s.kill_span(1, 1 << 17), (1 << 17) - 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.runs(), &[(0, 1)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0]);
    }
}
