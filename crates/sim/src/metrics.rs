//! Work / message / time accounting — the paper's three complexity measures.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::ids::{Round, Unit};

/// Counters for the paper's complexity measures.
///
/// * **work** — units performed, *including multiplicity* (a unit redone by
///   a later process counts again);
/// * **messages** — point-to-point messages sent. A broadcast to `k`
///   recipients counts `k`. For a process that crashes mid-broadcast, only
///   the delivered subset counts (the rest never left the process);
/// * **rounds** — the round by which every process has retired;
/// * **effort** — work + messages (the quantity the paper optimizes).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Metrics {
    /// Total units of work performed, counting repetitions.
    pub work_total: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Message counts broken down by [`Classify`](crate::Classify) class.
    pub messages_by_class: BTreeMap<&'static str, u64>,
    /// The round by which all processes had retired (crashed or
    /// terminated); equivalently the last executed round of the run.
    pub rounds: Round,
    /// Number of processes that crashed.
    pub crashes: u32,
    /// Number of processes that terminated voluntarily.
    pub terminations: u32,
    /// Messages that arrived at already-retired recipients (sent but never
    /// processed). Included in `messages`.
    pub dead_letters: u64,
    /// Messages suppressed by omission faults (send- or receive-side).
    /// These never left (or never reached) a process, so they are **not**
    /// included in `messages`.
    pub omissions: u64,
    /// Number of crash-recovery restarts (a process may recover at most
    /// once per [`Fate::CrashRecover`](crate::Fate::CrashRecover) verdict,
    /// but may crash and recover repeatedly over a run).
    pub recoveries: u32,
    /// Per-unit multiplicities, indexed by `unit - 1`.
    pub work_by_unit: Vec<u32>,
}

impl Metrics {
    /// Creates zeroed metrics for an `n`-unit workload.
    pub fn new(n: usize) -> Self {
        Metrics { work_by_unit: vec![0; n], ..Default::default() }
    }

    /// The paper's *effort* measure: work plus messages.
    pub fn effort(&self) -> u64 {
        self.work_total + self.messages
    }

    /// The watchdogs' progress mark: work plus every retirement and
    /// recovery. All four only ever grow, so the mark moves exactly when
    /// one of them does.
    #[inline]
    pub(crate) fn progress(&self) -> u64 {
        self.work_total
            + u64::from(self.crashes)
            + u64::from(self.terminations)
            + u64::from(self.recoveries)
    }

    /// Whether every unit `1..=n` was performed at least once.
    pub fn all_work_done(&self) -> bool {
        self.work_by_unit.iter().all(|&c| c > 0)
    }

    /// Units that were never performed (should be empty whenever at least
    /// one process survives — the paper's correctness condition).
    pub fn missing_units(&self) -> Vec<Unit> {
        self.work_by_unit
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(i, _)| Unit::new(i + 1))
            .collect()
    }

    /// Units performed more than once, with their multiplicities.
    pub fn redone_units(&self) -> Vec<(Unit, u32)> {
        self.work_by_unit
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 1)
            .map(|(i, &c)| (Unit::new(i + 1), c))
            .collect()
    }

    /// Total *wasted* work: performances beyond the first per unit.
    pub fn wasted_work(&self) -> u64 {
        self.work_by_unit.iter().map(|&c| u64::from(c.saturating_sub(1))).sum()
    }

    /// Counts one performance each of the `len` successive units from
    /// `first`: `work_total` by `len`, and one contiguous add to the
    /// per-unit table, grown on demand (an empty run grows nothing). The
    /// one writer of both, so they never disagree.
    pub(crate) fn record_work(&mut self, first: Unit, len: usize) {
        if len == 0 {
            return;
        }
        self.work_total += len as u64;
        let lo = first.zero_based();
        let hi = lo + len;
        if hi > self.work_by_unit.len() {
            self.work_by_unit.resize(hi, 0);
        }
        for c in &mut self.work_by_unit[lo..hi] {
            *c += 1;
        }
    }

    /// The accounting invariants, checked in debug builds wherever an
    /// engine hands its `Metrics` out: the per-unit multiplicities sum to
    /// the work total (only [`record_work`](Metrics::record_work) writes
    /// either), the per-class message counts sum to the message total (only
    /// [`record_messages`](Metrics::record_messages) writes either), and
    /// dead letters are a subset of the messages sent.
    pub(crate) fn debug_check(&self) {
        debug_assert_eq!(
            self.work_by_unit.iter().map(|&c| u64::from(c)).sum::<u64>(),
            self.work_total,
            "work ledger disagrees with work_total"
        );
        debug_assert_eq!(
            self.messages_by_class.values().sum::<u64>(),
            self.messages,
            "per-class message counts disagree with messages"
        );
        debug_assert!(
            self.dead_letters <= self.messages,
            "more dead letters ({}) than messages ({})",
            self.dead_letters,
            self.messages
        );
    }

    /// Bulk counter for span sends: one map lookup per *op*, not per
    /// recipient, while the counted values stay per-recipient (a
    /// `k`-recipient broadcast still counts `k`). The per-recipient
    /// reference engines in the test suite's `tests/support/` count one
    /// message at a time through the public fields instead.
    pub(crate) fn record_messages(&mut self, class: &'static str, k: u64) {
        if k == 0 {
            return;
        }
        self.messages += k;
        *self.messages_by_class.entry(class).or_insert(0) += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_is_work_plus_messages() {
        let mut m = Metrics::new(3);
        m.record_work(Unit::new(1), 1);
        m.record_work(Unit::new(1), 1);
        m.record_messages("ordinary", 1);
        assert_eq!(m.work_total, 2);
        assert_eq!(m.messages, 1);
        assert_eq!(m.effort(), 3);
    }

    #[test]
    fn completion_and_missing_units() {
        let mut m = Metrics::new(3);
        m.record_work(Unit::new(1), 1);
        m.record_work(Unit::new(3), 1);
        assert!(!m.all_work_done());
        assert_eq!(m.missing_units(), vec![Unit::new(2)]);
        m.record_work(Unit::new(2), 1);
        assert!(m.all_work_done());
        assert!(m.missing_units().is_empty());
    }

    #[test]
    fn wasted_work_counts_repeats_only() {
        let mut m = Metrics::new(2);
        m.record_work(Unit::new(1), 1);
        m.record_work(Unit::new(1), 1);
        m.record_work(Unit::new(1), 1);
        m.record_work(Unit::new(2), 1);
        assert_eq!(m.wasted_work(), 2);
        assert_eq!(m.redone_units(), vec![(Unit::new(1), 3)]);
    }

    #[test]
    fn class_breakdown_sums_to_total() {
        let mut m = Metrics::new(0);
        m.record_messages("ordinary", 1);
        m.record_messages("ordinary", 1);
        m.record_messages("go_ahead", 1);
        assert_eq!(m.messages, 3);
        assert_eq!(m.messages_by_class["ordinary"], 2);
        assert_eq!(m.messages_by_class["go_ahead"], 1);
        let sum: u64 = m.messages_by_class.values().sum();
        assert_eq!(sum, m.messages);
    }

    #[test]
    fn bulk_recording_matches_per_message_recording() {
        let mut bulk = Metrics::new(0);
        bulk.record_messages("ordinary", 5);
        bulk.record_messages("go_ahead", 2);
        let mut one_by_one = Metrics::new(0);
        for _ in 0..5 {
            one_by_one.record_messages("ordinary", 1);
        }
        for _ in 0..2 {
            one_by_one.record_messages("go_ahead", 1);
        }
        assert_eq!(bulk, one_by_one);
        // A zero-recipient record must not create a map entry.
        bulk.record_messages("phantom", 0);
        assert!(!bulk.messages_by_class.contains_key("phantom"));
        assert_eq!(bulk.messages, 7);
    }

    #[test]
    fn work_by_unit_grows_on_demand() {
        let mut m = Metrics::new(1);
        m.record_work(Unit::new(5), 1);
        assert_eq!(m.work_by_unit.len(), 5);
        assert_eq!(m.work_by_unit[4], 1);
    }

    #[test]
    fn debug_check_rejects_each_broken_invariant() {
        let mut m = Metrics::new(2);
        m.record_work(Unit::new(2), 1);
        m.record_messages("ordinary", 3);
        m.dead_letters = 3;
        m.debug_check();
        if !cfg!(debug_assertions) {
            return;
        }
        let mut miscounted = m.clone();
        miscounted.work_total += 1;
        let mut unclassed = m.clone();
        unclassed.messages += 1;
        let mut undelivered = m.clone();
        undelivered.dead_letters += 1;
        for broken in [miscounted, unclassed, undelivered] {
            assert!(std::panic::catch_unwind(|| broken.debug_check()).is_err(), "{broken:?}");
        }
    }

    #[test]
    fn a_work_run_matches_its_units_recorded_one_by_one() {
        let mut run = Metrics::new(2);
        run.record_work(Unit::new(2), 3);
        run.record_work(Unit::new(4), 0);
        run.record_work(Unit::new(9), 0);
        run.record_work(Unit::new(3), 2);
        let mut one_by_one = Metrics::new(2);
        for u in [2, 3, 4, 3, 4] {
            one_by_one.record_work(Unit::new(u), 1);
        }
        assert_eq!(run, one_by_one);
        assert_eq!(run.work_by_unit, vec![0, 1, 2, 2]);
        assert_eq!(run.work_total, 5);
        run.debug_check();
    }
}
