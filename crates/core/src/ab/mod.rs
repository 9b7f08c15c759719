//! Machinery shared by Protocols A and B (§2 of the paper).
//!
//! Both protocols keep **at most one active process** at a time. The active
//! process works through the `t` *subchunks* (of `n/t` units each), doing a
//! *partial checkpoint* — a broadcast of `(c)` to the higher-numbered
//! members of its own group — after each subchunk `c`, and a *full
//! checkpoint* after each *chunk* (every `√t`-th subchunk): for each group
//! `g` above its own it broadcasts `(c, g)` to group `g` and then
//! checkpoints that fact, with the same message, to its own group.
//!
//! That procedure — `DoWork`, Figure 1 — exists once, here: the message
//! type, the [`Schedule`] that compiles it into one-round operations, and
//! the crate-private `DoWork` driver that holds a process's
//! passive/active/done phase and its last ordinary message, interprets
//! incoming checkpoints, and emits each operation through a small sink.
//! Everything else in the crate that runs Figure 1 is that driver plus an
//! **activation rule** — *when a passive process takes over*:
//!
//! * [`protocol_a`]: the crude global deadline `DD(j) = j(n + 3t)` (its
//!   padded constructor clips the same driver to arbitrary shapes);
//! * [`protocol_b`]: the per-edge deadline `DDB(j, i)` plus a polling
//!   `go ahead` phase;
//! * [`asynch`] / [`asynch_b`]: "every lower-numbered process is known
//!   retired", by failure detector alone or detector plus message
//!   inference;
//! * [`crate::d::fallback`]: `DD(rank)` counted from the round Protocol D
//!   gave up, with ranks and units relabelled onto the survivors.

pub mod asynch;
pub mod asynch_b;
pub mod protocol_a;
pub mod protocol_b;

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

use doall_bounds::AbParams;
use doall_sim::{Classify, Effects, Round, Unit};

use crate::error::ConfigError;

/// Messages exchanged by Protocols A and B.
///
/// `Partial(c)` is the paper's `(c)`; `Full { c, g }` is `(c, g)`;
/// `GoAhead` exists only in Protocol B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbMsg {
    /// `(c)` — subchunk `c` has been performed (partial checkpoint to the
    /// sender's own group).
    Partial {
        /// The completed subchunk, `1..=t`.
        c: u64,
    },
    /// `(c, g)` — subchunk `c` has been performed and group `g` is being
    /// (or has been) informed of it.
    Full {
        /// The completed subchunk (always a multiple of `√t`).
        c: u64,
        /// The group being informed.
        g: u64,
    },
    /// Protocol B's poll: "you are the lowest process I cannot prove
    /// retired — take over if you are alive".
    GoAhead,
}

impl AbMsg {
    /// The subchunk the message reports, if ordinary.
    pub fn subchunk(&self) -> Option<u64> {
        match self {
            AbMsg::Partial { c } | AbMsg::Full { c, .. } => Some(*c),
            AbMsg::GoAhead => None,
        }
    }
}

impl Classify for AbMsg {
    fn class(&self) -> &'static str {
        match self {
            AbMsg::Partial { .. } | AbMsg::Full { .. } => "ordinary",
            AbMsg::GoAhead => "go_ahead",
        }
    }
}

impl fmt::Display for AbMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbMsg::Partial { c } => write!(f, "({c})"),
            AbMsg::Full { c, g } => write!(f, "({c},{g})"),
            AbMsg::GoAhead => write!(f, "go_ahead"),
        }
    }
}

/// Validates the shared Protocol A/B parameters and returns the parameter
/// pack from `doall-bounds`.
///
/// # Errors
///
/// See [`ConfigError`]: `t` must be a positive perfect square, `n` a
/// multiple of `t`, and `n >= t`.
pub fn validate(n: u64, t: u64) -> Result<AbParams, ConfigError> {
    if t == 0 {
        return Err(ConfigError::NoProcesses);
    }
    if n == 0 {
        return Err(ConfigError::NoWork);
    }
    if !doall_bounds::is_perfect_square(t) {
        return Err(ConfigError::NotPerfectSquare { t });
    }
    if !n.is_multiple_of(t) {
        return Err(ConfigError::NotDivisible { n, t });
    }
    if n < t {
        return Err(ConfigError::WorkTooSmall { n, t });
    }
    Ok(AbParams::new(n, t))
}

/// The padded `(n⁺, t⁺)` that lets Figure 1 run on any positive `(n, t)`
/// — the paper's "easy modifications of the protocol when these
/// assumptions do not hold": `t⁺ = ⌈√t⌉²` (the extra *virtual processes*
/// hold the highest ranks and are silent from round 0, which Protocol A
/// tolerates natively) and `n⁺ = max(t⁺, ⌈n/t⁺⌉·t⁺)` (the extra *phantom
/// units* consume their round but perform nothing). The Theorem 2.3
/// guarantees carry over in padded terms, a constant-factor slack:
/// `t⁺ < t + 2√t + 1` and `n⁺ < n + t⁺`.
pub fn padded_params(n: u64, t: u64) -> AbParams {
    let s = doall_bounds::isqrt(t.saturating_sub(1)) + 1;
    let t_pad = s * s;
    AbParams::new(n.div_ceil(t_pad).max(1) * t_pad, t_pad)
}

/// The last ordinary message a process holds, which determines where it
/// restarts when it becomes active (the `DoWork` dispatch of Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LastOrdinary {
    /// Nothing real received: the paper's fictitious `(0, g_j)` message
    /// from process 0 at round 0. Restart from scratch, *without*
    /// checkpointing the empty subchunk 0 (Lemma 2.1's `n + 3t` lifetime
    /// bound, which the deadlines depend on, leaves no room for it).
    Fictitious,
    /// Last received `(c)` — a partial checkpoint within our group.
    Partial {
        /// Reported subchunk.
        c: u64,
    },
    /// Last received `(c, g)` from process `k`: a full-checkpoint message;
    /// its meaning depends on whether `k` was in our group.
    Full {
        /// Reported subchunk.
        c: u64,
        /// Group stamped in the message.
        g: u64,
        /// Whether the sender was in our own group (then `g` is a group
        /// *above* ours that the sender had just informed); otherwise
        /// `g == g_j` and we were the ones being informed.
        sender_in_own_group: bool,
    },
}

impl LastOrdinary {
    /// The subchunk this knowledge says is complete (0 for none).
    pub fn completed_subchunk(&self) -> u64 {
        match self {
            LastOrdinary::Fictitious => 0,
            LastOrdinary::Partial { c } => *c,
            LastOrdinary::Full { c, .. } => *c,
        }
    }
}

/// One one-round operation of an active process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Perform work unit `u`.
    Work {
        /// One-based unit id.
        u: u64,
    },
    /// Partial checkpoint: broadcast `(c)` to the higher-numbered members
    /// of our own group.
    PartialCp {
        /// The just-completed subchunk.
        c: u64,
    },
    /// Full-checkpoint step 1: broadcast `(c, g)` to all of group `g`.
    FullCpGroup {
        /// The completed subchunk (a multiple of `√t`).
        c: u64,
        /// The group being informed.
        g: u64,
    },
    /// Full-checkpoint step 2: broadcast `(c, g)` to the higher-numbered
    /// members of our own group ("the checkpointing of a checkpoint").
    FullCpOwn {
        /// The completed subchunk.
        c: u64,
        /// The group that was just informed.
        g: u64,
    },
}

/// The restart prologue of Figure 1's `DoWork` for a process of group
/// `gj`: resume the checkpointing that the previous active process may
/// have been in the middle of when it sent `last`.
fn restart_prologue(p: AbParams, gj: u64, last: LastOrdinary) -> VecDeque<Op> {
    let mut ops = VecDeque::new();
    match last {
        LastOrdinary::Fictitious => {
            // Nothing has provably happened; start working immediately.
        }
        LastOrdinary::Partial { c } => {
            ops.push_back(Op::PartialCp { c });
            if c % p.sqrt_t() == 0 && c > 0 {
                push_full_checkpoint(&mut ops, p, c, gj + 1);
            }
        }
        LastOrdinary::Full { c, g, sender_in_own_group } => {
            if sender_in_own_group {
                // k ∈ g_j, so g > g_j: k had informed group g and was telling
                // us; make sure the rest of our group knows, then continue
                // the full checkpoint with group g + 1.
                ops.push_back(Op::FullCpOwn { c, g });
            } else {
                // k ∉ g_j, so g == g_j: we were being informed that subchunk
                // c is complete. Tell the rest of our group, then continue
                // the full checkpoint from the next group up.
                ops.push_back(Op::PartialCp { c });
            }
            push_full_checkpoint(&mut ops, p, c, g + 1);
        }
    }
    ops
}

/// Compiles Figure 1's `DoWork` for process `j`, given its last ordinary
/// message, into the exact sequence of one-round operations it will
/// execute while active — the eager reference [`Schedule`] is tested
/// against.
pub fn compile_dowork(p: AbParams, j: u64, last: LastOrdinary) -> VecDeque<Op> {
    let gj = p.group_of(j);
    let mut ops = restart_prologue(p, gj, last);

    // Figure 1 lines 10–14: perform the remaining subchunks.
    for s in last.completed_subchunk() + 1..=p.t {
        for u in p.subchunk_units(s) {
            ops.push_back(Op::Work { u });
        }
        ops.push_back(Op::PartialCp { c: s });
        if s % p.sqrt_t() == 0 {
            push_full_checkpoint(&mut ops, p, s, gj + 1);
        }
    }

    ops
}

fn push_full_checkpoint(ops: &mut VecDeque<Op>, p: AbParams, c: u64, from_group: u64) {
    for g in from_group..=p.sqrt_t() {
        ops.push_back(Op::FullCpGroup { c, g });
        ops.push_back(Op::FullCpOwn { c, g });
    }
}

/// A lazily-expanded `DoWork` schedule: pops the exact op sequence of
/// [`compile_dowork`] while holding only checkpoint ops and a cursor over
/// the current subchunk's units — `O(√t)` resident ops instead of
/// `O(n + t√t)`, which is what lets a lone survivor chew through
/// `n = 10^8` units without holding a gigabyte of op queue, and what makes
/// the leading work run an O(1) [`lease`](Schedule::lease).
#[derive(Clone, Debug)]
pub struct Schedule {
    p: AbParams,
    /// The owner's group (fixed; checkpoint targets depend on it).
    gj: u64,
    /// Checkpoint ops due before the cursor's units: the restart prologue,
    /// then the checkpoints of the subchunk the cursor last drained.
    buf: VecDeque<Op>,
    /// The units of the current subchunk not yet worked (one-based,
    /// half-open; the subchunk is `(work.end − 1)/(n/t)`), empty only once
    /// every subchunk is worked.
    work: Range<u64>,
}

impl Schedule {
    /// Builds process `j`'s schedule given its last ordinary message —
    /// the lazy equivalent of [`compile_dowork`]`(p, j, last)`.
    pub fn new(p: AbParams, j: u64, last: LastOrdinary) -> Self {
        let gj = p.group_of(j);
        let buf = restart_prologue(p, gj, last);
        Schedule { p, gj, buf, work: Self::units(p, last.completed_subchunk() + 1) }
    }

    /// Subchunk `s`'s units as a half-open range, empty past `p.t`.
    fn units(p: AbParams, s: u64) -> Range<u64> {
        if s > p.t {
            return 0..0;
        }
        let units = p.subchunk_units(s);
        *units.start()..*units.end() + 1
    }

    /// The cursor drained its subchunk `s`: queue its checkpoints (Figure 1
    /// lines 12–14), which precede the next subchunk's units.
    fn close_subchunk(&mut self) {
        let s = (self.work.end - 1) / self.p.subchunk_size();
        self.buf.push_back(Op::PartialCp { c: s });
        if s.is_multiple_of(self.p.sqrt_t()) {
            push_full_checkpoint(&mut self.buf, self.p, s, self.gj + 1);
        }
        self.work = Self::units(self.p, s + 1);
    }

    /// The next one-round operation, or `None` once the schedule is done.
    pub fn pop_front(&mut self) -> Option<Op> {
        if let Some(op) = self.buf.pop_front() {
            return Some(op);
        }
        let u = self.work.start;
        (!self.work.is_empty()).then(|| {
            self.skip(1);
            Op::Work { u }
        })
    }

    /// The leading run of `Work` ops, as `(first unit, length)`: `None`
    /// while a checkpoint comes first or once the schedule is done. A run
    /// never ends the schedule — its subchunk's `PartialCp` follows it.
    pub fn lease(&self) -> Option<(u64, u64)> {
        (self.buf.is_empty() && !self.work.is_empty())
            .then(|| (self.work.start, self.work.end - self.work.start))
    }

    /// Pops `k` ops of the leading work run, `1 <= k <=` its length.
    pub fn skip(&mut self, k: u64) {
        debug_assert!(self.buf.is_empty() && k >= 1 && k <= self.work.end - self.work.start);
        self.work.start += k;
        if self.work.is_empty() {
            self.close_subchunk();
        }
    }

    /// Whether every operation has been popped.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.work.is_empty()
    }
}

/// Whether an incoming ordinary message tells `j` to terminate: `(t)` from
/// a partial checkpoint, or `(t, g_j)` from a full checkpoint.
pub fn is_terminal_for(p: AbParams, j: u64, msg: AbMsg) -> bool {
    match msg {
        AbMsg::Partial { c } => c == p.t,
        AbMsg::Full { c, g } => c == p.t && g == p.group_of(j),
        AbMsg::GoAhead => false,
    }
}

/// Interprets a received ordinary message as [`LastOrdinary`] knowledge
/// for process `j` (given the sender `k`).
pub fn interpret(p: AbParams, j: u64, k: u64, msg: AbMsg) -> Option<LastOrdinary> {
    match msg {
        AbMsg::Partial { c } => Some(LastOrdinary::Partial { c }),
        AbMsg::Full { c, g } => {
            Some(LastOrdinary::Full { c, g, sender_in_own_group: p.group_of(k) == p.group_of(j) })
        }
        AbMsg::GoAhead => None,
    }
}

/// Where a [`DoWork`] driver's actions go: the engine's effects for the
/// plane it runs on, directly or through [`Clipped`]. Statically
/// dispatched — no `dyn` enters a protocol step.
pub(crate) trait Sink {
    /// Performs (one-based) unit `u`.
    fn work(&mut self, u: u64);
    /// Broadcasts `msg` to the contiguous rank range `ranks`, ascending.
    fn multicast(&mut self, ranks: Range<u64>, msg: AbMsg);
    /// Records a trace annotation.
    fn note(&mut self, tag: &'static str);
    /// Retires the process.
    fn terminate(&mut self);
}

/// Ranks are pids and units are units; every broadcast is one O(1) span
/// multicast, the payload stored once whatever the width. One impl serves
/// both planes, whose steps record on the same [`Effects`].
impl Sink for Effects<AbMsg> {
    fn work(&mut self, u: u64) {
        self.perform(Unit::new(u as usize));
    }
    fn multicast(&mut self, ranks: Range<u64>, msg: AbMsg) {
        Effects::multicast(self, ranks.start as usize..ranks.end as usize, msg);
    }
    fn note(&mut self, tag: &'static str) {
        Effects::note(self, tag);
    }
    fn terminate(&mut self) {
        Effects::terminate(self);
    }
}

/// The clip-and-relabel sink behind every padded machine (see
/// [`padded_params`]): ranks at or above `t_real` are virtual processes,
/// so a rank range is cut there and what falls beyond is never sent;
/// units above `n_real` are phantoms, performed as a silent round. What
/// survives the clip is relabelled by the caller's two maps — identities
/// for a padded [`ProtocolA`](protocol_a::ProtocolA), rank → survivor pid
/// and unit → outstanding unit for Protocol D's fallback.
pub(crate) struct Clipped<'a, M, U, S> {
    pub(crate) eff: &'a mut Effects<M>,
    pub(crate) n_real: u64,
    pub(crate) t_real: u64,
    /// The real unit behind relabelled unit `u <= n_real`.
    pub(crate) unit: U,
    /// Sends to the real pids behind a non-empty rank range below
    /// `t_real`, in ascending rank order.
    pub(crate) send: S,
}

impl<M, U, S> Sink for Clipped<'_, M, U, S>
where
    U: Fn(u64) -> usize,
    S: Fn(&mut Effects<M>, Range<usize>, AbMsg),
{
    fn work(&mut self, u: u64) {
        if u <= self.n_real {
            self.eff.perform(Unit::new((self.unit)(u)));
        }
    }
    fn multicast(&mut self, ranks: Range<u64>, msg: AbMsg) {
        let hi = ranks.end.min(self.t_real);
        if ranks.start < hi {
            (self.send)(self.eff, ranks.start as usize..hi as usize, msg);
        }
    }
    fn note(&mut self, tag: &'static str) {
        self.eff.note(tag);
    }
    fn terminate(&mut self) {
        self.eff.terminate();
    }
}

#[derive(Clone, Debug)]
enum Phase {
    Passive,
    Active {
        ops: Schedule,
    },
    Done,
    /// Done, but a crash swallowed the terminate (or the terminal message):
    /// the next step retires for real. Entered only on stale recovery.
    Retiring,
}

/// What [`DoWork::hear`] made of one incoming message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Heard {
    /// `(t)` or `(t, g_j)`: all work is done, retire.
    Terminal,
    /// An ordinary message; it is now the last one held.
    Updated,
    /// Nothing changed: a `go ahead`, or a message not to be held.
    Ignored,
}

/// Figure 1 for one process: its phase, the last ordinary message it
/// holds, and the `DoWork` schedule once it is active. The owner supplies
/// only the activation rule — it feeds messages to [`DoWork::hear`] while
/// the driver is passive and calls [`DoWork::activate`] when its rule
/// fires; [`DoWork::advance`] does the rest.
#[derive(Clone, Debug)]
pub(crate) struct DoWork {
    pub(crate) params: AbParams,
    /// This process's number among the `params.t` of the (padded) system.
    pub(crate) rank: u64,
    phase: Phase,
    last: LastOrdinary,
}

impl DoWork {
    pub(crate) fn new(params: AbParams, rank: u64) -> Self {
        debug_assert!(rank < params.t);
        DoWork { params, rank, phase: Phase::Passive, last: LastOrdinary::Fictitious }
    }

    pub(crate) fn is_passive(&self) -> bool {
        matches!(self.phase, Phase::Passive)
    }

    pub(crate) fn is_active(&self) -> bool {
        matches!(self.phase, Phase::Active { .. })
    }

    pub(crate) fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Whether the last ordinary message already reports subchunk `t`.
    pub(crate) fn knows_all_work_done(&self) -> bool {
        self.last.completed_subchunk() >= self.params.t
    }

    /// Digests one message. `from_rank` is `None` for a message that may
    /// retire this process but must not be held: its sender has no rank,
    /// or the caller keeps the *first* ordinary message of an inbox and
    /// already has it. Every [`Heard::Updated`] overwrites the message held
    /// before, so a loop that always passes `Some` keeps the last.
    pub(crate) fn hear(&mut self, from_rank: Option<u64>, msg: AbMsg) -> Heard {
        if is_terminal_for(self.params, self.rank, msg) {
            return Heard::Terminal;
        }
        match from_rank.and_then(|k| interpret(self.params, self.rank, k, msg)) {
            Some(last) => {
                self.last = last;
                Heard::Updated
            }
            None => Heard::Ignored,
        }
    }

    /// Retires: a terminal message arrived, or the schedule ran out.
    pub(crate) fn retire(&mut self, out: &mut impl Sink) {
        out.terminate();
        self.phase = Phase::Done;
    }

    /// Becomes active: compiles `DoWork` from the last ordinary message
    /// and executes its first operation in this same step.
    pub(crate) fn activate(&mut self, out: &mut impl Sink) {
        out.note("activate");
        self.phase = Phase::Active { ops: Schedule::new(self.params, self.rank, self.last) };
        self.advance(out);
    }

    /// One step of everything that is not an activation rule: a pending
    /// post-recovery retirement, or the next operation of the active
    /// schedule (retiring when it was the last; an active process ignores
    /// its inbox — in a clean execution every lower process has retired).
    /// Returns `false` iff the driver is passive, i.e. the step is the
    /// caller's.
    pub(crate) fn advance(&mut self, out: &mut impl Sink) -> bool {
        let (p, j) = (self.params, self.rank);
        match &mut self.phase {
            Phase::Passive => return false,
            Phase::Done => {}
            Phase::Retiring => self.retire(out),
            Phase::Active { ops } => {
                // All lower-numbered members of the own group are known
                // retired, so own-group broadcasts go upward only.
                let own_above = || j + 1..p.group_of(j) * p.sqrt_t();
                match ops.pop_front() {
                    Some(Op::Work { u }) => out.work(u),
                    Some(Op::PartialCp { c }) => out.multicast(own_above(), AbMsg::Partial { c }),
                    Some(Op::FullCpGroup { c, g }) => {
                        out.multicast(p.group_members(g), AbMsg::Full { c, g });
                    }
                    Some(Op::FullCpOwn { c, g }) => {
                        out.multicast(own_above(), AbMsg::Full { c, g })
                    }
                    None => {}
                }
                if ops.is_empty() {
                    self.retire(out);
                }
            }
        }
        true
    }

    /// The work lease an active driver offers (see `Protocol::lease`): the
    /// leading work run of its schedule, as `(first, len)` in the driver's
    /// own unit numbering, ending at unit `n_real` — the units above it are
    /// phantoms, silent rounds rather than work. O(1), no scan. An active
    /// driver ignores its inbox and a work op sends, notes and retires
    /// nothing, so the run keeps the lease promise as it stands.
    pub(crate) fn lease(&self, n_real: u64) -> Option<(u64, u64)> {
        let Phase::Active { ops } = &self.phase else { return None };
        let (first, len) = ops.lease()?;
        (first <= n_real).then(|| (first, len.min(n_real - first + 1)))
    }

    /// Where `k` steps of the lease last offered leave the driver.
    pub(crate) fn skip(&mut self, k: u64) {
        let Phase::Active { ops } = &mut self.phase else {
            unreachable!("skip outside an active schedule");
        };
        ops.skip(k);
    }

    /// When the driver next acts unprompted; `passive` is the caller's
    /// activation rule, consulted only while passive.
    pub(crate) fn next_wakeup(
        &self,
        now: Round,
        passive: impl FnOnce() -> Option<Round>,
    ) -> Option<Round> {
        match self.phase {
            Phase::Passive => passive(),
            Phase::Active { .. } | Phase::Retiring => Some(now),
            Phase::Done => None,
        }
    }

    /// Retires at the next [`DoWork::advance`] instead of waiting for a
    /// terminal message that nobody will resend.
    pub(crate) fn retire_on_next_step(&mut self) {
        self.phase = Phase::Retiring;
    }

    /// The process rejoined after a crash. A wipe is the initial
    /// configuration again — safe, since rejoining can only repeat work,
    /// never lose a checkpointed unit. Stale state resumes as it stands (a
    /// passive process takes over from its last checkpoint view, an active
    /// one continues its schedule), except that a finished process, whose
    /// terminate the crash swallowed, retires again.
    pub(crate) fn on_recover(&mut self, wipe: bool) {
        if wipe {
            *self = DoWork::new(self.params, self.rank);
        } else if self.is_done() {
            self.retire_on_next_step();
        }
    }
}

#[cfg(test)]
mod tests {
    use doall_sim::{Inbox, Protocol};

    use super::*;

    fn p() -> AbParams {
        // t = 16 (√t = 4 groups of 4), n = 32 (subchunks of 2 units).
        AbParams::new(32, 16)
    }

    #[test]
    fn message_classes_match_the_paper() {
        assert_eq!(AbMsg::Partial { c: 3 }.class(), "ordinary");
        assert_eq!(AbMsg::Full { c: 4, g: 2 }.class(), "ordinary");
        assert_eq!(AbMsg::GoAhead.class(), "go_ahead");
    }

    #[test]
    fn fresh_schedule_does_all_work_in_order() {
        let ops = compile_dowork(p(), 0, LastOrdinary::Fictitious);
        // First op is work on unit 1 — no zero-checkpoints.
        assert_eq!(ops[0], Op::Work { u: 1 });
        let units: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Work { u } => Some(*u),
                _ => None,
            })
            .collect();
        assert_eq!(units, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn fresh_schedule_length_matches_lemma_2_1() {
        // Lemma 2.1: n work + t partial-checkpoint rounds + at most 2t
        // full-checkpoint rounds => fewer than n + 3t rounds.
        let p = p();
        let ops = compile_dowork(p, 0, LastOrdinary::Fictitious);
        assert!(ops.len() as u64 <= p.n + 3 * p.t);
        let partials = ops.iter().filter(|o| matches!(o, Op::PartialCp { .. })).count() as u64;
        assert_eq!(partials, p.t);
        let fulls = ops
            .iter()
            .filter(|o| matches!(o, Op::FullCpGroup { .. } | Op::FullCpOwn { .. }))
            .count() as u64;
        // √t full checkpoints; the one by group 1 has √t−1 target groups,
        // each costing 2 rounds.
        assert_eq!(fulls, 2 * (p.sqrt_t() - 1) * p.sqrt_t());
    }

    #[test]
    fn partial_restart_resumes_after_reported_subchunk() {
        // Last heard (5): redo partial checkpoint of 5, then work from
        // subchunk 6 (units 11, 12 with n/t = 2).
        let ops = compile_dowork(p(), 1, LastOrdinary::Partial { c: 5 });
        assert_eq!(ops[0], Op::PartialCp { c: 5 });
        assert_eq!(ops[1], Op::Work { u: 11 });
        assert_eq!(ops[2], Op::Work { u: 12 });
        assert_eq!(ops[3], Op::PartialCp { c: 6 });
    }

    #[test]
    fn partial_restart_on_chunk_boundary_refires_full_checkpoint() {
        // c = 4 is a multiple of √t = 4: the previous active process may
        // have died before full-checkpointing chunk 1.
        let ops = compile_dowork(p(), 1, LastOrdinary::Partial { c: 4 });
        assert_eq!(ops[0], Op::PartialCp { c: 4 });
        assert_eq!(ops[1], Op::FullCpGroup { c: 4, g: 2 });
        assert_eq!(ops[2], Op::FullCpOwn { c: 4, g: 2 });
        assert_eq!(ops[3], Op::FullCpGroup { c: 4, g: 3 });
    }

    #[test]
    fn full_restart_from_outside_sender_informs_own_group_first() {
        // j = 9 lives in group 3; it last heard (8, 3) from process 2
        // (group 1). It must partial-checkpoint 8 to its own group and
        // continue the full checkpoint with group 4.
        let p = p();
        let last = interpret(p, 9, 2, AbMsg::Full { c: 8, g: 3 }).unwrap();
        assert_eq!(last, LastOrdinary::Full { c: 8, g: 3, sender_in_own_group: false });
        let ops = compile_dowork(p, 9, last);
        assert_eq!(ops[0], Op::PartialCp { c: 8 });
        assert_eq!(ops[1], Op::FullCpGroup { c: 8, g: 4 });
        assert_eq!(ops[2], Op::FullCpOwn { c: 8, g: 4 });
        // Then work resumes at subchunk 9 (unit 17).
        assert_eq!(ops[3], Op::Work { u: 17 });
    }

    #[test]
    fn full_restart_from_own_group_continues_checkpoint_chain() {
        // j = 9 (group 3) heard (8, 4) from 8 (group 3): 8 had informed
        // group 4 and was checkpointing that to its own group.
        let p = p();
        let last = interpret(p, 9, 8, AbMsg::Full { c: 8, g: 4 }).unwrap();
        assert_eq!(last, LastOrdinary::Full { c: 8, g: 4, sender_in_own_group: true });
        let ops = compile_dowork(p, 9, last);
        assert_eq!(ops[0], Op::FullCpOwn { c: 8, g: 4 });
        // g + 1 = 5 > √t: full checkpoint finished; straight to work.
        assert_eq!(ops[1], Op::Work { u: 17 });
    }

    #[test]
    fn restart_with_all_work_done_only_finishes_checkpoints() {
        // c = t = 16, message (16, 3) from an own-group sender: complete
        // the checkpoint of groups 4.. and then terminate (no work ops).
        let p = p();
        let last = LastOrdinary::Full { c: 16, g: 3, sender_in_own_group: true };
        let ops = compile_dowork(p, 5, last);
        assert!(ops.iter().all(|o| !matches!(o, Op::Work { .. })));
        assert_eq!(ops[0], Op::FullCpOwn { c: 16, g: 3 });
        assert_eq!(ops[1], Op::FullCpGroup { c: 16, g: 4 });
    }

    /// Rank `j` of `p()`, activated holding `last`, after `steps` further
    /// steps: the effects of the last step taken.
    fn effects_after(j: u64, last: LastOrdinary, steps: usize) -> Effects<AbMsg> {
        let mut d = DoWork::new(p(), j);
        d.last = last;
        let mut eff = Effects::new();
        d.activate(&mut eff);
        for _ in 0..steps {
            eff.reset();
            assert!(d.advance(&mut eff));
        }
        eff
    }

    #[test]
    fn exec_partial_cp_broadcasts_to_higher_own_group_as_one_span() {
        // Holding (2), the first operation re-fires PartialCp { c: 2 }.
        let eff = effects_after(5, LastOrdinary::Partial { c: 2 }, 0);
        // Group 2 is processes 4..=7; j = 5 informs 6, 7 — one op, the
        // payload stored once.
        assert_eq!(eff.sends().len(), 1);
        let to: Vec<usize> = eff.sends()[0].to.iter().map(doall_sim::Pid::index).collect();
        assert_eq!(to, vec![6, 7]);
        assert_eq!(eff.sends()[0].payload, AbMsg::Partial { c: 2 });
        assert_eq!(eff.send_count(), 2, "message counts stay per-recipient");
    }

    #[test]
    fn exec_full_cp_group_broadcasts_to_whole_target_group_as_one_span() {
        // Holding (4, 2) from its own group, rank 0 checkpoints that and
        // then runs FullCpGroup { c: 4, g: 3 }.
        let last = LastOrdinary::Full { c: 4, g: 2, sender_in_own_group: true };
        let eff = effects_after(0, last, 1);
        assert_eq!(eff.sends().len(), 1);
        let to: Vec<usize> = eff.sends()[0].to.iter().map(doall_sim::Pid::index).collect();
        assert_eq!(to, vec![8, 9, 10, 11]);
        assert_eq!(eff.sends()[0].payload, AbMsg::Full { c: 4, g: 3 });
        assert_eq!(eff.send_count(), 4);
    }

    #[test]
    fn exec_work_performs_the_unit() {
        // Holding (3) with n/t = 2: PartialCp { c: 3 }, then Work { u: 7 }.
        let eff = effects_after(0, LastOrdinary::Partial { c: 3 }, 1);
        assert_eq!(eff.work(), [Unit::new(7)]);
        assert!(eff.sends().is_empty());
    }

    #[test]
    fn driver_retires_with_its_last_operation_and_then_idles() {
        // t = 1: one unit, one (recipient-less) partial checkpoint.
        let mut d = DoWork::new(AbParams::new(1, 1), 0);
        let mut eff = Effects::new();
        assert!(!d.advance(&mut eff), "passive: the step is the caller's");
        d.activate(&mut eff);
        assert_eq!((eff.notes(), eff.work()), (&["activate"][..], &[Unit::new(1)][..]));
        assert!(d.is_active() && !eff.is_terminated());
        eff.reset();
        assert!(d.advance(&mut eff));
        assert!(d.is_done() && eff.is_terminated() && eff.sends().is_empty());
        eff.reset();
        assert!(d.advance(&mut eff));
        assert!(eff.is_idle());
    }

    #[test]
    fn stale_recovery_of_a_finished_driver_retires_again_wiped_starts_over() {
        let mut d = DoWork::new(p(), 3);
        let mut eff = Effects::new();
        assert_eq!(d.hear(Some(2), AbMsg::Partial { c: 16 }), Heard::Terminal);
        d.retire(&mut eff);
        d.on_recover(false);
        assert_eq!(d.next_wakeup(Round::new(9), || None), Some(Round::new(9)));
        eff.reset();
        assert!(d.advance(&mut eff));
        assert!(eff.is_terminated());
        assert_eq!(d.next_wakeup(Round::new(10), || None), None);

        assert_eq!(d.hear(None, AbMsg::Partial { c: 5 }), Heard::Ignored);
        assert_eq!(d.hear(None, AbMsg::Partial { c: 16 }), Heard::Terminal);
        assert_eq!(d.hear(Some(2), AbMsg::Partial { c: 5 }), Heard::Updated);
        assert_eq!(d.hear(Some(2), AbMsg::GoAhead), Heard::Ignored);
        d.on_recover(true);
        assert!(d.is_passive());
        assert_eq!(d.last, LastOrdinary::Fictitious);
    }

    #[test]
    fn padding_shapes_are_minimal_squares() {
        assert_eq!(padded_params(10, 6).t, 9);
        assert_eq!(padded_params(10, 6).n, 18);
        assert_eq!(padded_params(5, 3).t, 4);
        assert_eq!(padded_params(5, 3).n, 8);
        // Already-valid shapes pass through unchanged.
        assert_eq!(padded_params(32, 16).t, 16);
        assert_eq!(padded_params(32, 16).n, 32);
        assert_eq!(padded_params(1, 1).t, 1);
        assert_eq!(padded_params(1, 1).n, 1);
    }

    #[test]
    fn terminal_messages_follow_the_paper() {
        let p = p();
        assert!(is_terminal_for(p, 5, AbMsg::Partial { c: 16 }));
        assert!(!is_terminal_for(p, 5, AbMsg::Partial { c: 15 }));
        // j = 5 is in group 2.
        assert!(is_terminal_for(p, 5, AbMsg::Full { c: 16, g: 2 }));
        assert!(!is_terminal_for(p, 5, AbMsg::Full { c: 16, g: 3 }));
        assert!(!is_terminal_for(p, 5, AbMsg::GoAhead));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert_eq!(validate(10, 0), Err(ConfigError::NoProcesses));
        assert_eq!(validate(0, 4), Err(ConfigError::NoWork));
        assert_eq!(validate(10, 5), Err(ConfigError::NotPerfectSquare { t: 5 }));
        assert_eq!(validate(10, 4), Err(ConfigError::NotDivisible { n: 10, t: 4 }));
        assert!(validate(2, 4).is_err());
        assert!(validate(8, 4).is_ok());
    }

    #[test]
    fn lazy_schedule_matches_compile_dowork_everywhere() {
        // Every (j, LastOrdinary) shape over several parameter packs: the
        // lazy schedule must pop the byte-identical op sequence, while
        // never buffering more than a prologue plus one subchunk.
        for (n, t) in [(1, 1), (8, 4), (32, 16), (81, 9)] {
            let p = AbParams::new(n, t);
            let mut lasts = vec![LastOrdinary::Fictitious];
            for c in 1..=p.t {
                lasts.push(LastOrdinary::Partial { c });
                for g in 1..=p.sqrt_t() {
                    lasts.push(LastOrdinary::Full { c, g, sender_in_own_group: true });
                    lasts.push(LastOrdinary::Full { c, g, sender_in_own_group: false });
                }
            }
            // No work op is ever buffered: a prologue or one subchunk's
            // checkpoints, at most `2√t + 1` ops.
            let resident_cap = (2 * p.sqrt_t() + 1) as usize;
            for j in 0..t {
                for &last in &lasts {
                    let expect: Vec<Op> = compile_dowork(p, j, last).into();
                    let mut sched = Schedule::new(p, j, last);
                    assert_eq!(sched.is_empty(), expect.is_empty());
                    let mut got = Vec::new();
                    loop {
                        // The lease is the leading run of `Work` ops of
                        // what is left, with consecutive units.
                        let rest = &expect[got.len()..];
                        let run = rest.iter().take_while(|op| matches!(op, Op::Work { .. }));
                        let lease = match rest.first() {
                            Some(&Op::Work { u }) => Some((u, run.count() as u64)),
                            _ => None,
                        };
                        assert_eq!(sched.lease(), lease, "n={n} t={t} j={j} at {}", got.len());
                        let Some(op) = sched.pop_front() else { break };
                        got.push(op);
                        assert!(sched.buf.len() <= resident_cap, "n={n} t={t} j={j}");
                    }
                    assert!(sched.is_empty());
                    assert_eq!(got, expect, "n={n} t={t} j={j} last={last:?}");
                }
            }
        }
    }

    /// Walks an activated process from round `now` to retirement, nothing
    /// arriving, and checks every lease it offers against per-round steps:
    /// for `k` below and equal to `len`, each of the `k` steps performs the
    /// next offered unit and nothing else and leaves the process due next
    /// round, and `advance(k)` Debug-equals them. Returns the units the
    /// walk performed, in order, and the number of leases.
    pub(crate) fn walk_leases<P>(mut proc: P, mut now: u64) -> (Vec<u64>, u64)
    where
        P: Protocol<Msg = AbMsg> + Clone + fmt::Debug,
    {
        let (mut units, mut leases) = (Vec::new(), 0);
        loop {
            let Some((first, len)) = proc.lease(Round::from(now)) else {
                let mut eff = Effects::new();
                proc.step(Round::from(now), Inbox::empty(), &mut eff);
                units.extend(eff.work().iter().map(|u| u.get() as u64));
                now += 1;
                if eff.is_terminated() {
                    return (units, leases);
                }
                continue;
            };
            leases += 1;
            for k in [1, len / 2, len - 1, len].into_iter().filter(|&k| k >= 1) {
                let mut stepped = proc.clone();
                for r in now..now + k {
                    let mut eff = Effects::new();
                    stepped.step(Round::from(r), Inbox::empty(), &mut eff);
                    let unit = Unit::new(first.get() + (r - now) as usize);
                    assert_eq!(eff.work(), [unit], "round {r}");
                    assert!(eff.sends().is_empty() && eff.notes().is_empty());
                    assert!(!eff.is_terminated());
                    let after = Round::from(r + 1);
                    assert_eq!(stepped.next_wakeup(after), Some(after));
                }
                let mut leased = proc.clone();
                leased.advance(k);
                assert_eq!(format!("{leased:?}"), format!("{stepped:?}"), "k = {k}");
            }
            proc.advance(len);
            units.extend(first.get() as u64..first.get() as u64 + len);
            now += len;
        }
    }

    #[test]
    fn schedule_covers_every_unit_exactly_once_from_any_restart() {
        let p = p();
        for c in 0..=p.t {
            let last = if c == 0 { LastOrdinary::Fictitious } else { LastOrdinary::Partial { c } };
            let ops = compile_dowork(p, 3, last);
            let units: Vec<u64> = ops
                .iter()
                .filter_map(|op| match op {
                    Op::Work { u } => Some(*u),
                    _ => None,
                })
                .collect();
            let expected: Vec<u64> = (c * p.subchunk_size() + 1..=p.n).collect();
            assert_eq!(units, expected, "restart at subchunk {c}");
        }
    }
}
