//! The record of one protocol step, shared by both execution planes: a
//! synchronous round and an asynchronous handler invocation record the same
//! work, sends, notes and termination on one [`Effects`]; each engine
//! enforces its own plane's rules on that record.

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

/// Everything a process decided to do in one step: a round of the
/// synchronous engine or one handler invocation of the asynchronous one.
///
/// The engine hands an empty `Effects` to [`Protocol::step`] (or to an
/// [`AsyncProtocol`] handler); the protocol records its actions on it. The
/// record is the same on both planes; the rules on it are the engine's.
/// The synchronous model of the paper allows, per round, **at most one
/// unit of work** plus **one round of communication** (any number of
/// messages, e.g. a broadcast to a whole group), and no
/// [`continue_later`](Effects::continue_later): the round engine checks
/// both right after each `step` and panics on a violation. Asynchronous
/// time is untimed, so a handler may perform several units at once.
///
/// Sends are recorded as [`SendOp`]s: [`Effects::send`] queues a unicast,
/// [`Effects::multicast`] a contiguous-range broadcast in O(1), and
/// [`Effects::broadcast`] accepts an arbitrary pid iterator, coalescing
/// consecutive runs into spans (a contiguous iterator costs one op and zero
/// payload clones). The per-recipient message count is kept as ops are
/// recorded, so [`Effects::send_count`] is O(1).
///
/// Each engine recycles a single scratch instance across all processes and
/// steps ([`Effects::reset`] clears it while keeping its buffers), so the
/// steady-state hot loop performs no allocation beyond what the protocol's
/// own sends require the first time a high-water mark is reached.
///
/// [`Protocol::step`]: crate::Protocol::step
/// [`AsyncProtocol`]: crate::asynch::AsyncProtocol
#[derive(Debug)]
pub struct Effects<M> {
    work: Vec<Unit>,
    ops: Vec<SendOp<M>>,
    /// Total number of point-to-point messages across `ops` (the sum of
    /// the ops' recipient counts).
    sent: usize,
    notes: Vec<&'static str>,
    terminated: bool,
    tick: bool,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            work: Vec::new(),
            ops: Vec::new(),
            sent: 0,
            notes: Vec::new(),
            terminated: false,
            tick: false,
        }
    }
}

impl<M> Effects<M> {
    /// Creates an empty set of effects (the idle step).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all recorded actions while retaining the work/send/note
    /// buffers, so one scratch instance can be recycled step after step
    /// without reallocating.
    pub fn reset(&mut self) {
        self.work.clear();
        self.ops.clear();
        self.sent = 0;
        self.notes.clear();
        self.terminated = false;
        self.tick = false;
    }

    /// Performs one unit of work. The round engine permits one per round;
    /// an asynchronous handler may perform several.
    pub fn perform(&mut self, unit: Unit) {
        self.work.push(unit);
    }

    /// Sends `payload` to a single recipient.
    pub fn send(&mut self, to: Pid, payload: M) {
        self.sent += 1;
        self.ops.push(SendOp { to: Recipients::One(to), payload });
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
        if to.is_empty() {
            return;
        }
        self.sent += to.len();
        self.ops.push(SendOp { to: Recipients::Span { lo: to.start, hi: to.end }, payload });
    }

    /// Broadcasts `payload` to every listed recipient (one step, many
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
        split_runs(to, payload, |run, m| self.multicast(run, m));
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
    /// this step. Messages sent in the same step still go out.
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

    /// Requests an [`AsyncProtocol::on_tick`] callback one time-step later,
    /// so that a long local computation (e.g. an active process working
    /// through its schedule) runs one operation per event and remains
    /// interruptible by crashes and message deliveries. Asynchronous plane
    /// only: a synchronous process asks for its next round through
    /// [`Protocol::next_wakeup`].
    ///
    /// [`AsyncProtocol::on_tick`]: crate::asynch::AsyncProtocol::on_tick
    /// [`Protocol::next_wakeup`]: crate::Protocol::next_wakeup
    pub fn continue_later(&mut self) {
        self.tick = true;
    }

    /// The units of work performed this step, in order.
    pub fn work(&self) -> &[Unit] {
        &self.work
    }

    /// The send operations queued this step, in send order.
    pub fn sends(&self) -> &[SendOp<M>] {
        &self.ops
    }

    /// Total number of point-to-point messages queued this step (a
    /// `k`-recipient op counts `k`) — O(1), maintained incrementally.
    pub fn send_count(&self) -> usize {
        self.sent
    }

    /// The trace annotations recorded this step.
    pub fn notes(&self) -> &[&'static str] {
        &self.notes
    }

    /// Whether the process terminated this step.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Whether this step requested a
    /// [`continue_later`](Effects::continue_later) continuation.
    pub fn wants_tick(&self) -> bool {
        self.tick
    }

    /// Whether this step was a pure no-op.
    pub fn is_idle(&self) -> bool {
        self.work.is_empty() && self.ops.is_empty() && !self.terminated && !self.tick
    }

    /// Moves this step's send ops out, leaving the buffer's capacity in
    /// place for the next step.
    pub(crate) fn drain_sends(&mut self) -> std::vec::Drain<'_, SendOp<M>> {
        self.sent = 0;
        self.ops.drain(..)
    }
}

/// Splits a pid iterator into maximal consecutive ascending runs and
/// hands each to `emit` with its own copy of `payload`: a clone for every
/// run but the last, which moves the payload (an empty iterator drops it).
/// Behind [`Effects::broadcast`] and the sync engine's crash and omission
/// filter.
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
        assert!(eff.work().is_empty());
        assert!(eff.sends().is_empty());
        assert_eq!(eff.send_count(), 0);
    }

    #[test]
    fn perform_records_the_unit() {
        let mut eff: Effects<()> = Effects::new();
        eff.perform(Unit::new(4));
        assert_eq!(eff.work(), [Unit::new(4)]);
        assert!(!eff.is_idle());
    }

    #[test]
    fn several_units_keep_their_order_and_reset_clears_them_and_the_tick() {
        let mut eff: Effects<()> = Effects::new();
        for u in [3, 1, 2] {
            eff.perform(Unit::new(u));
        }
        eff.continue_later();
        assert_eq!(eff.work(), [Unit::new(3), Unit::new(1), Unit::new(2)]);
        assert!(eff.wants_tick());
        assert!(!eff.is_idle());
        eff.reset();
        assert!(eff.work().is_empty());
        assert!(!eff.wants_tick());
        assert!(eff.is_idle());
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
        assert!(eff.work().is_empty());
        eff.perform(Unit::new(2));
        assert_eq!(eff.work(), [Unit::new(2)]);
    }

    #[test]
    fn notes_accumulate() {
        let mut eff: Effects<()> = Effects::new();
        eff.note("activate");
        eff.note("full_checkpoint");
        assert_eq!(eff.notes(), ["activate", "full_checkpoint"]);
    }
}
