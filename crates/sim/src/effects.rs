//! The per-round output of a protocol step.

use std::ops::Range;

use crate::ids::{Pid, Unit};

/// The recipient set of one send operation.
///
/// The paper's protocols are broadcast-dominated, and every broadcast they
/// perform targets a *contiguous* pid range (a group, the higher-numbered
/// members of a group, "everyone else"). Storing the range instead of one
/// address per recipient is what makes a `k`-recipient broadcast cost O(1)
/// to record, store and deliver — the payload is never cloned per
/// recipient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recipients {
    /// A single process.
    One(Pid),
    /// The contiguous zero-based pid span `lo..hi` (half-open, non-empty).
    Span {
        /// First recipient index.
        lo: usize,
        /// One past the last recipient index.
        hi: usize,
    },
}

impl Recipients {
    /// Number of recipients.
    pub fn len(self) -> usize {
        match self {
            Recipients::One(_) => 1,
            Recipients::Span { lo, hi } => hi - lo,
        }
    }

    /// Whether the set is empty (never true for ops recorded by
    /// [`Effects`]; [`Effects::multicast`] drops empty ranges).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Whether `p` is a recipient.
    pub fn contains(self, p: Pid) -> bool {
        match self {
            Recipients::One(q) => q == p,
            Recipients::Span { lo, hi } => (lo..hi).contains(&p.index()),
        }
    }

    /// Iterates over the recipients in ascending pid order (for `One`, the
    /// single recipient).
    pub fn iter(self) -> impl DoubleEndedIterator<Item = Pid> + Clone {
        let (lo, hi) = match self {
            Recipients::One(p) => (p.index(), p.index() + 1),
            Recipients::Span { lo, hi } => (lo, hi),
        };
        (lo..hi).map(Pid::new)
    }
}

/// One recorded send operation: a payload stored **once**, plus its
/// recipient set. A broadcast to `k` recipients is one `SendOp`, not `k`
/// queued messages — message *counts* stay per-recipient (the paper's
/// measure), storage and delivery are per-op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendOp<M> {
    /// Who receives the payload.
    pub to: Recipients,
    /// The payload, shared by every recipient of this op.
    pub payload: M,
}

/// The shared send-op recording buffer behind both the synchronous
/// [`Effects`] and the asynchronous
/// [`AsyncEffects`](crate::asynch::AsyncEffects): ops store their payload
/// once, span multicasts are recorded in O(1), and arbitrary recipient
/// iterators are coalesced into maximal contiguous runs. The per-message
/// count (`sent`) is maintained incrementally so both planes report
/// per-recipient message totals in O(1).
#[derive(Debug)]
pub(crate) struct SendBuf<M> {
    ops: Vec<SendOp<M>>,
    /// Total number of point-to-point messages across `ops` (the sum of
    /// the ops' recipient counts).
    sent: usize,
}

impl<M> Default for SendBuf<M> {
    fn default() -> Self {
        SendBuf { ops: Vec::new(), sent: 0 }
    }
}

impl<M> SendBuf<M> {
    /// Clears the recorded ops while retaining the buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.sent = 0;
    }

    /// Records a unicast.
    pub(crate) fn one(&mut self, to: Pid, payload: M) {
        self.sent += 1;
        self.ops.push(SendOp { to: Recipients::One(to), payload });
    }

    /// Records a contiguous-range broadcast as one op (payload stored
    /// once). Empty ranges record nothing.
    pub(crate) fn span(&mut self, to: Range<usize>, payload: M) {
        if to.is_empty() {
            return;
        }
        self.sent += to.len();
        self.ops.push(SendOp { to: Recipients::Span { lo: to.start, hi: to.end }, payload });
    }

    /// Records a broadcast to an arbitrary pid iterator, coalescing
    /// consecutive ascending runs into spans (one clone per extra run).
    pub(crate) fn coalesced<I>(&mut self, to: I, payload: M)
    where
        I: IntoIterator<Item = Pid>,
        M: Clone,
    {
        split_runs(to, payload, |run, m| self.span(run, m));
    }

    /// The recorded ops, in send order.
    pub(crate) fn ops(&self) -> &[SendOp<M>] {
        &self.ops
    }

    /// Total point-to-point messages recorded (a `k`-recipient op counts
    /// `k`) — O(1).
    pub(crate) fn count(&self) -> usize {
        self.sent
    }

    /// Whether nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Moves the recorded ops out, leaving the capacity in place.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, SendOp<M>> {
        self.sent = 0;
        self.ops.drain(..)
    }
}

/// Everything a process decided to do during one round.
///
/// The engine hands an empty `Effects` to [`Protocol::step`] each round; the
/// protocol records its actions on it. The synchronous model of the paper
/// allows, per round, **at most one unit of work** plus **one round of
/// communication** (any number of messages, e.g. a broadcast to a whole
/// group); [`Effects::perform`] enforces the work rule.
///
/// Sends are recorded as [`SendOp`]s: [`Effects::send`] queues a unicast,
/// [`Effects::multicast`] a contiguous-range broadcast in O(1), and
/// [`Effects::broadcast`] accepts an arbitrary pid iterator, coalescing
/// consecutive runs into spans (a contiguous iterator costs one op and zero
/// payload clones).
///
/// The engine recycles a single scratch instance across all processes and
/// rounds ([`Effects::reset`] clears it while keeping its buffers), so the
/// steady-state hot loop performs no allocation beyond what the protocol's
/// own sends require the first time a high-water mark is reached.
///
/// [`Protocol::step`]: crate::Protocol::step
#[derive(Debug)]
pub struct Effects<M> {
    work: Option<Unit>,
    sends: SendBuf<M>,
    notes: Vec<&'static str>,
    terminated: bool,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects { work: None, sends: SendBuf::default(), notes: Vec::new(), terminated: false }
    }
}

impl<M> Effects<M> {
    /// Creates an empty set of effects (the idle round).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all recorded actions while retaining the send/note buffers,
    /// so one scratch instance can be recycled round after round without
    /// reallocating.
    pub fn reset(&mut self) {
        self.work = None;
        self.sends.clear();
        self.notes.clear();
        self.terminated = false;
    }

    /// Performs one unit of work this round.
    ///
    /// # Panics
    ///
    /// Panics if a unit was already performed this round: the model permits
    /// one unit of work per process per round.
    pub fn perform(&mut self, unit: Unit) {
        assert!(
            self.work.is_none(),
            "model violation: at most one unit of work per round (attempted {unit} after {})",
            self.work.expect("just checked"),
        );
        self.work = Some(unit);
    }

    /// Sends `payload` to a single recipient.
    pub fn send(&mut self, to: Pid, payload: M) {
        self.sends.one(to, payload);
    }

    /// Broadcasts `payload` to the contiguous pid range `to` — one payload,
    /// one op, O(1) regardless of the range's width. Empty ranges record
    /// nothing.
    ///
    /// This is the paper's broadcast primitive: checkpoints go to groups
    /// and group suffixes, which are contiguous by construction. Recipients
    /// equal to the sender are the caller's responsibility to exclude; the
    /// engine delivers self-addressed messages like any other.
    pub fn multicast(&mut self, to: Range<usize>, payload: M) {
        self.sends.span(to, payload);
    }

    /// Broadcasts `payload` to every listed recipient (one round, many
    /// messages), coalescing consecutive ascending runs into spans: a
    /// contiguous iterator records a single op without cloning the payload;
    /// an arbitrary one costs one op (and one clone) per contiguous run.
    ///
    /// Prefer [`Effects::multicast`] when the recipient set is already a
    /// range.
    pub fn broadcast<I>(&mut self, to: I, payload: M)
    where
        I: IntoIterator<Item = Pid>,
        M: Clone,
    {
        self.sends.coalesced(to, payload);
    }

    /// Broadcasts `payload` to every pid of `to` except `skip` — the
    /// "everyone but me" pattern — as at most two span ops (one payload
    /// clone only when `skip` actually splits the range).
    pub fn multicast_except(&mut self, to: Range<usize>, skip: usize, payload: M)
    where
        M: Clone,
    {
        let left = to.start..skip.min(to.end);
        let right = (skip + 1).max(to.start)..to.end;
        if left.is_empty() {
            self.multicast(right, payload);
        } else if right.is_empty() {
            self.multicast(left, payload);
        } else {
            self.multicast(left, payload.clone());
            self.multicast(right, payload);
        }
    }

    /// Marks the process as terminated (retired voluntarily) at the end of
    /// this round. Messages sent in the same round still go out.
    pub fn terminate(&mut self) {
        self.terminated = true;
    }

    /// Records a structured annotation on the trace (e.g. `"activate"`).
    ///
    /// Notes are invisible to other processes; they exist so tests and
    /// invariant checkers can observe protocol-internal transitions such as
    /// "process j became active" (Lemmas 2.2, 2.7 and 3.4 are assertions
    /// about those transitions).
    pub fn note(&mut self, tag: &'static str) {
        self.notes.push(tag);
    }

    /// The unit of work performed this round, if any.
    pub fn work(&self) -> Option<Unit> {
        self.work
    }

    /// The send operations queued this round, in send order.
    pub fn sends(&self) -> &[SendOp<M>] {
        self.sends.ops()
    }

    /// Total number of point-to-point messages queued this round (a
    /// `k`-recipient op counts `k`) — O(1), maintained incrementally.
    pub fn send_count(&self) -> usize {
        self.sends.count()
    }

    /// The trace annotations recorded this round.
    pub fn notes(&self) -> &[&'static str] {
        &self.notes
    }

    /// Whether the process terminated this round.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Whether this round was a pure no-op.
    pub fn is_idle(&self) -> bool {
        self.work.is_none() && self.sends.is_empty() && !self.terminated
    }

    /// Moves this round's send ops out, leaving the buffer's capacity in
    /// place for the next round.
    pub(crate) fn drain_sends(&mut self) -> std::vec::Drain<'_, SendOp<M>> {
        self.sends.drain()
    }
}

/// Splits a pid iterator into maximal consecutive ascending runs and
/// hands each to `emit` with its own copy of `payload`: a clone for every
/// run but the last, which moves the payload (an empty iterator drops it).
/// Behind [`SendBuf::coalesced`] — and so [`Effects::broadcast`] and its
/// asynchronous counterpart
/// [`AsyncEffects::broadcast`](crate::asynch::AsyncEffects::broadcast) —
/// and the sync engine's crash and omission filter.
pub(crate) fn split_runs<I, M, F>(to: I, payload: M, mut emit: F)
where
    I: IntoIterator<Item = Pid>,
    M: Clone,
    F: FnMut(Range<usize>, M),
{
    let mut it = to.into_iter();
    let Some(first) = it.next() else { return };
    let (mut lo, mut hi) = (first.index(), first.index() + 1);
    for p in it {
        if p.index() == hi {
            hi += 1;
        } else {
            emit(lo..hi, payload.clone());
            lo = p.index();
            hi = lo + 1;
        }
    }
    emit(lo..hi, payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_effects_report_idle() {
        let eff: Effects<()> = Effects::new();
        assert!(eff.is_idle());
        assert!(eff.work().is_none());
        assert!(eff.sends().is_empty());
        assert_eq!(eff.send_count(), 0);
    }

    #[test]
    fn perform_records_the_unit() {
        let mut eff: Effects<()> = Effects::new();
        eff.perform(Unit::new(4));
        assert_eq!(eff.work(), Some(Unit::new(4)));
        assert!(!eff.is_idle());
    }

    #[test]
    #[should_panic(expected = "at most one unit of work per round")]
    fn two_units_in_one_round_violate_the_model() {
        let mut eff: Effects<()> = Effects::new();
        eff.perform(Unit::new(1));
        eff.perform(Unit::new(2));
    }

    #[test]
    fn multicast_stores_one_op_counting_every_recipient() {
        let mut eff: Effects<u8> = Effects::new();
        eff.multicast(1..4, 9);
        assert_eq!(eff.sends().len(), 1, "one op, not one per recipient");
        assert_eq!(eff.send_count(), 3, "counts stay per-recipient");
        assert_eq!(eff.sends()[0].to, Recipients::Span { lo: 1, hi: 4 });
        let to: Vec<usize> = eff.sends()[0].to.iter().map(Pid::index).collect();
        assert_eq!(to, vec![1, 2, 3]);
    }

    #[test]
    fn empty_multicast_records_nothing() {
        let mut eff: Effects<u8> = Effects::new();
        eff.multicast(4..4, 1);
        assert!(eff.is_idle());
        assert_eq!(eff.send_count(), 0);
    }

    #[test]
    fn broadcast_coalesces_a_contiguous_iterator_into_one_span() {
        let mut eff: Effects<u8> = Effects::new();
        eff.broadcast(Pid::range(1, 4), 9);
        assert_eq!(eff.sends().len(), 1);
        assert_eq!(eff.sends()[0].to, Recipients::Span { lo: 1, hi: 4 });
        assert_eq!(eff.send_count(), 3);
    }

    #[test]
    fn broadcast_splits_noncontiguous_recipients_into_runs() {
        // 0, 1, then a gap, then 5, 6, 7 — two spans.
        let pids = [0, 1, 5, 6, 7].into_iter().map(Pid::new);
        let mut eff: Effects<u8> = Effects::new();
        eff.broadcast(pids, 3);
        assert_eq!(eff.sends().len(), 2);
        assert_eq!(eff.sends()[0].to, Recipients::Span { lo: 0, hi: 2 });
        assert_eq!(eff.sends()[1].to, Recipients::Span { lo: 5, hi: 8 });
        assert_eq!(eff.send_count(), 5);
    }

    #[test]
    fn broadcast_of_nothing_is_idle() {
        let mut eff: Effects<u8> = Effects::new();
        eff.broadcast(Pid::range(3, 3), 1);
        assert!(eff.is_idle());
    }

    #[test]
    fn recipients_len_contains_and_iter_agree() {
        let one = Recipients::One(Pid::new(7));
        assert_eq!(one.len(), 1);
        assert!(!one.is_empty());
        assert!(one.contains(Pid::new(7)));
        assert!(!one.contains(Pid::new(8)));
        assert_eq!(one.iter().collect::<Vec<_>>(), vec![Pid::new(7)]);

        let span = Recipients::Span { lo: 2, hi: 5 };
        assert_eq!(span.len(), 3);
        assert!(span.contains(Pid::new(2)));
        assert!(span.contains(Pid::new(4)));
        assert!(!span.contains(Pid::new(5)));
        assert_eq!(span.iter().count(), 3);
    }

    #[test]
    fn termination_is_not_idle() {
        let mut eff: Effects<()> = Effects::new();
        eff.terminate();
        assert!(!eff.is_idle());
        assert!(eff.is_terminated());
    }

    #[test]
    fn reset_clears_every_recorded_action() {
        let mut eff: Effects<u8> = Effects::new();
        eff.perform(Unit::new(1));
        eff.send(Pid::new(1), 7);
        eff.note("x");
        eff.terminate();
        eff.reset();
        assert!(eff.is_idle());
        assert_eq!(eff.send_count(), 0);
        assert!(eff.notes().is_empty());
        assert!(!eff.is_terminated());
        // The one-unit-per-round rule restarts after a reset.
        eff.perform(Unit::new(2));
        assert_eq!(eff.work(), Some(Unit::new(2)));
    }

    #[test]
    fn notes_accumulate() {
        let mut eff: Effects<()> = Effects::new();
        eff.note("activate");
        eff.note("full_checkpoint");
        assert_eq!(eff.notes(), ["activate", "full_checkpoint"]);
    }
}
