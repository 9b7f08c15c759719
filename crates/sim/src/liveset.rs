//! The live/retired process set: one bit per pid.
//!
//! The message plane already stores broadcasts as *spans* rather than
//! per-recipient envelopes; [`LiveSet`] keeps liveness just as compact, a
//! bitset of `⌈t/64⌉` words. Membership and count queries are O(1) — the
//! delivery index intersects every span with the live set once per
//! recipient, so this is the hot query path — and walking the live pids in
//! order costs O(t/64 + live), one word test per 64 pids. The walk is the
//! sync engine's exact due scan, which its round index leaves to the rare
//! round it cannot answer on its own.
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
/// assert_eq!(live.ones().collect::<Vec<_>>(), vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveSet {
    t: usize,
    words: Vec<u64>,
    len: usize,
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
        LiveSet { t, words, len: t }
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
        true
    }

    /// Iterates the live pids in pid order, straight off the bitset, in
    /// O(t/64 + live).
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&w| Some(w & (w - 1)).filter(|&r| r != 0))
                .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Bytes held by this set, for the memory probe.
    pub fn bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Asserts that `s` holds exactly the pids `model` marks live.
    fn check(s: &LiveSet, model: &[bool]) {
        let want: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
        assert_eq!(s.ones().collect::<Vec<_>>(), want);
        assert_eq!(s.len(), want.len());
        assert_eq!(s.is_empty(), want.is_empty());
        assert_eq!(s.universe(), model.len());
        for (i, &live) in model.iter().enumerate() {
            assert_eq!(s.contains(i), live, "pid {i}");
        }
        assert!(!s.contains(model.len()));
    }

    #[test]
    fn random_removals_and_insertions_match_a_vec_of_bools() {
        for t in [0, 1, 63, 64, 65, 130, 4096] {
            let mut rng = SmallRng::seed_from_u64(t as u64);
            let mut s = LiveSet::new(t);
            let mut model = vec![true; t];
            check(&s, &model);
            if t == 0 {
                continue;
            }
            // Each phase visits a window of pids in random order and
            // removes or inserts each one. A phase of all removals empties
            // the window's words (the whole set, for t ≤ 192) and one of
            // all insertions fills them; the others leave them mixed and
            // hit pids already in the state asked for.
            let w = t.min(192);
            for p_remove in [1.0, 0.5, 0.0, 0.9, 1.0, 0.1, 0.5] {
                let lo = rng.gen_range(0..=t - w);
                let mut pids: Vec<usize> = (lo..lo + w).collect();
                for k in (1..w).rev() {
                    pids.swap(k, rng.gen_range(0..=k));
                }
                for i in pids {
                    if rng.gen_bool(p_remove) {
                        assert_eq!(s.remove(i), model[i], "remove {i} at t = {t}");
                        model[i] = false;
                    } else {
                        assert_eq!(s.insert(i), !model[i], "insert {i} at t = {t}");
                        model[i] = true;
                    }
                    check(&s, &model);
                }
            }
        }
    }

    #[test]
    fn empty_universe_is_empty() {
        let s = LiveSet::new(0);
        assert!(s.is_empty());
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
        assert!(s.ones().eq(0..65));
    }

    #[test]
    fn mass_extinction_leaves_tiny_runs() {
        let mut s = LiveSet::new(1 << 17);
        for i in 1..1 << 17 {
            assert!(s.remove(i));
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0]);
        assert!(s.insert(1 << 16) && !s.insert(1 << 16));
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 1 << 16]);
    }
}
