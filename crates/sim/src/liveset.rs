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
//! Mutations touch only the bitset (O(1) per pid) and mark the run list
//! dirty; the runs are rebuilt from the words on the next iteration after
//! a mutation, so quiet stretches — the common case, since the live set
//! only moves on retirement and revival — iterate at interval-set speed
//! with no rebuild at all.
//!
//! Both engines hold their live set inside the crate's process table,
//! which moves it together with the status column on every retirement and
//! revival; adversaries see it through
//! [`AdversaryCtx`](crate::AdversaryCtx).

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
/// assert_eq!(live.iter().collect::<Vec<_>>(), vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
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
    /// mutation. Requires `&mut self` for the lazy rebuild; callers
    /// holding only `&self` use [`ones`](LiveSet::ones).
    pub fn iter(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.ensure_runs();
        self.runs.iter().flat_map(|&(lo, hi)| lo as usize..hi as usize)
    }

    /// The maximal runs of live pids, pid-ordered (rebuilds lazily).
    pub fn runs(&mut self) -> &[(u32, u32)] {
        self.ensure_runs();
        &self.runs
    }

    /// Iterates the live pids straight off the bitset, in O(t/64 + live);
    /// for callers that only hold `&self`.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&w| Some(w & (w - 1)).filter(|&r| r != 0))
                .map(move |w| wi * 64 + w.trailing_zeros() as usize)
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
    fn mass_extinction_leaves_tiny_runs() {
        let mut s = LiveSet::new(1 << 17);
        for i in 1..1 << 17 {
            assert!(s.remove(i));
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.runs(), &[(0, 1)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn ones_matches_iter_across_words() {
        let mut s = LiveSet::new(200);
        for i in (0..200).filter(|i| i % 3 == 0 || (60..130).contains(i)) {
            s.remove(i);
        }
        let ones: Vec<usize> = s.ones().collect();
        assert_eq!(ones, s.iter().collect::<Vec<_>>());
        assert_eq!(ones.len(), s.len());
        assert_eq!(ones.last(), Some(&199));
    }
}
