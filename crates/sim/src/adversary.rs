//! Fault adversaries: fail-stop crashes, crash-recovery, and omission.
//!
//! The paper's bounds are worst-case over all crash schedules in which a
//! process may fail at any moment — in particular *in the middle of a
//! broadcast*, in which case "some subset of the processes receive the
//! message" (§2.1). The [`Adversary`] trait captures exactly this power:
//! each executed round, after a process has chosen its actions but before
//! they take effect, the adversary decides whether the process survives the
//! round, and if not, which of its outgoing messages escape.
//!
//! Beyond the paper's fail-stop model, the same interception point carries
//! the richer fault vocabulary of [`Fate`]: [`Fate::Omit`] suppresses a
//! subset of one step's outgoing messages while the process lives on, and
//! [`Fate::CrashRecover`] schedules the victim to restart after a downtime.
//! Receive-side omission uses the separate
//! [`omits_delivery`](Adversary::omits_delivery) hook, consulted at
//! delivery time. The adversary *data* — timed faults, crash rules and
//! random crashes, on both planes — is one [`FaultPlan`](crate::FaultPlan).

use std::collections::BTreeSet;

use crate::effects::Effects;
use crate::ids::{Pid, Round};
use crate::liveset::LiveSet;

/// What happens to a process's actions in one atomic step (a synchronous
/// round, or one asynchronous handler invocation).
///
/// Both engines read a fate one way — whether the work counts, which
/// [`Deliver`] filter the sends pass, whether the process crashes, and
/// when it revives — and run one tail for every fate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fate {
    /// The process survives the step; all effects are applied.
    Survive,
    /// The process crashes during this step and never returns.
    Crash(CrashSpec),
    /// The process survives, but only the outgoing messages the filter
    /// lets through actually leave; the rest are silently dropped
    /// (send-omission). Work, notes, and termination all still apply, and
    /// suppressed messages count toward
    /// [`Metrics::omissions`](crate::Metrics::omissions), not
    /// [`Metrics::messages`](crate::Metrics::messages).
    Omit(Deliver),
    /// The process crashes exactly as with [`Fate::Crash`], but restarts
    /// `downtime` steps later (at least one): the engine re-marks it alive,
    /// calls the protocol's recovery hook, and traces an
    /// [`Event::Recover`](crate::Event::Recover). With `wipe`, the
    /// protocol resets to its initial state; otherwise it resumes from the
    /// state it crashed with (stale — it has seen none of the traffic
    /// delivered while it was down).
    CrashRecover {
        /// How the crash itself unfolds (delivery filter + work
        /// accounting), identical to [`Fate::Crash`]'s spec.
        spec: CrashSpec,
        /// Steps (rounds or time units) until the restart; clamped to a
        /// minimum of 1 so a "recovery" can never happen within the
        /// crashing step itself.
        downtime: u64,
        /// Whether the restart loses all protocol state.
        wipe: bool,
    },
}

/// A [`Fate`] as both engines apply it: whether the step's work counts,
/// the filter its sends pass in send order (`None`: all leave), whether
/// the process crashes, and a crash-recovery's `(downtime ≥ 1, wipe)`.
pub(crate) struct Ruling<'a> {
    pub(crate) count_work: bool,
    pub(crate) filter: Option<&'a Deliver>,
    pub(crate) crash: bool,
    pub(crate) revival: Option<(u64, bool)>,
}

impl Fate {
    /// The one reading of a fate; a `Deliver::All` filter reads as none.
    #[inline]
    pub(crate) fn ruling(&self) -> Ruling<'_> {
        let (count_work, filter, crash, revival) = match self {
            Fate::Survive => (true, None, false, None),
            Fate::Omit(filter) => (true, Some(filter), false, None),
            Fate::Crash(spec) => (spec.count_work, Some(&spec.deliver), true, None),
            Fate::CrashRecover { spec, downtime, wipe } => {
                (spec.count_work, Some(&spec.deliver), true, Some(((*downtime).max(1), *wipe)))
            }
        };
        let filter = filter.filter(|d| !matches!(d, Deliver::All));
        Ruling { count_work, filter, crash, revival }
    }
}

/// Fine-grained description of a mid-round crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Which of the round's outgoing messages are actually sent.
    pub deliver: Deliver,
    /// Whether the unit of work performed this round (if any) completes
    /// before the crash. The paper's work-optimality argument hinges on the
    /// scenario where a process "fails immediately after performing a unit
    /// of work, before reporting it": that is `count_work: true` with
    /// `deliver: Deliver::None` on the following round's checkpoint.
    pub count_work: bool,
}

impl CrashSpec {
    /// Crash before anything this round takes effect.
    pub const fn silent() -> Self {
        CrashSpec { deliver: Deliver::None, count_work: false }
    }

    /// Crash after completing this round's work and sends (the process dies
    /// between rounds).
    pub const fn after_round() -> Self {
        CrashSpec { deliver: Deliver::All, count_work: true }
    }

    /// Crash mid-broadcast: the first `k` messages (in send order) escape.
    pub const fn prefix(k: usize) -> Self {
        CrashSpec { deliver: Deliver::Prefix(k), count_work: true }
    }

    /// Crash mid-broadcast with an arbitrary surviving subset.
    pub fn subset<I: IntoIterator<Item = Pid>>(recipients: I) -> Self {
        CrashSpec { deliver: Deliver::Subset(recipients.into_iter().collect()), count_work: true }
    }
}

impl Default for CrashSpec {
    fn default() -> Self {
        CrashSpec::silent()
    }
}

/// Which outgoing messages survive a mid-round crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Deliver {
    /// Every message goes out (crash happens after the send completes).
    All,
    /// Nothing goes out.
    None,
    /// The first `k` messages in send order go out.
    Prefix(usize),
    /// Exactly the messages addressed to this set go out.
    Subset(BTreeSet<Pid>),
}

impl Deliver {
    /// Whether the `idx`-th outgoing message (addressed to `to`) escapes.
    pub fn lets_through(&self, idx: usize, to: Pid) -> bool {
        match self {
            Deliver::All => true,
            Deliver::None => false,
            Deliver::Prefix(k) => idx < *k,
            Deliver::Subset(set) => set.contains(&to),
        }
    }
}

/// Read-only view of the engine state an adversary may consult.
///
/// Both engines hand out a context per intercept that borrows their live
/// set (a pid is absent once it has crashed or terminated, and back once a
/// crash-recovery revives it), so constructing one is free and every query
/// is O(1) — adversaries that consult
/// [`alive_count`](AdversaryCtx::alive_count) every round (e.g.
/// [`FaultPlan::random`](crate::FaultPlan::random) sparing the last
/// survivor) add no per-round scan.
#[derive(Clone, Copy, Debug)]
pub struct AdversaryCtx<'a> {
    alive: &'a LiveSet,
    /// Crashes inflicted so far.
    pub crashes: u32,
}

impl<'a> AdversaryCtx<'a> {
    /// A context over the live set `alive` after `crashes` crashes.
    pub fn new(alive: &'a LiveSet, crashes: u32) -> Self {
        AdversaryCtx { alive, crashes }
    }

    /// Number of processes in the system.
    pub fn t(&self) -> usize {
        self.alive.universe()
    }

    /// Whether `pid` has neither crashed nor terminated.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.alive.contains(pid.index())
    }

    /// Number of processes that have neither crashed nor terminated.
    pub fn alive_count(&self) -> usize {
        self.alive.len()
    }
}

/// A fault adversary for the synchronous plane.
///
/// Implementations decide, per stepped process, whether the process
/// survives the round. They see the process's proposed [`Effects`] — so
/// they can crash a process precisely when it performs its `k`-th unit of
/// work, or split a particular broadcast — and, through [`AdversaryCtx`],
/// the engine's live set and crash count.
///
/// # Shared fault contract (synchronous and asynchronous planes)
///
/// Both this trait and
/// [`AsyncAdversary`](crate::asynch::AsyncAdversary) rule once per
/// **atomic step** — a round here, a handler invocation there — and every
/// verdict means the same thing on both planes: the [`Deliver`] filter in
/// a [`Fate::Crash`], [`Fate::Omit`], or [`Fate::CrashRecover`] applies to
/// *that step's* outgoing messages, indexed **in send order** (`Prefix`
/// truncates at a message boundary, `Subset` selects recipients), and
/// `count_work` decides whether the step's work units count. Downtimes and
/// omission windows are measured in the plane's own clock (rounds vs.
/// event timestamps). Receive-side omission is symmetric too:
/// [`omits_delivery`](Adversary::omits_delivery) is consulted once per
/// (message, recipient) at the moment of delivery.
///
/// # Interception contract
///
/// The sparse-stepping engine does **not** step (or intercept) a process
/// whose round is provably a no-op: empty inbox, not yet due per its
/// wakeup, and no adversary event scheduled. An adversary that wants to
/// rule on *idle* processes must therefore announce its active rounds via
/// [`next_event`](Adversary::next_event) — on any round `next_event`
/// names, every alive process is stepped and intercepted exactly as in a
/// dense engine. Adversaries that only react to visible activity (work,
/// sends, notes) need nothing: a skipped step has no effects to react to.
///
/// Leased steps (see the work-lease contract on
/// [`Protocol`](crate::Protocol)) are never intercepted either: a process
/// holding a lease performs one unit per round, sends nothing and notes
/// nothing, and the engine skips its `intercept` on those rounds. It grants
/// a lease only where [`permits_lease`](Adversary::permits_lease) says
/// `true`, and never across a round [`next_event`](Adversary::next_event)
/// names. An adversary may permit leases for `pid` only if it would rule
/// [`Fate::Survive`] on every such step and its rulings on the others do
/// not depend on having seen them, and if `next_event` never announces a
/// round earlier than it did before.
pub trait Adversary<M> {
    /// Decides the fate of `pid`'s round-`round` actions.
    fn intercept(
        &mut self,
        round: Round,
        pid: Pid,
        effects: &Effects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate;

    /// The earliest round `>= now` at which this adversary may act on an
    /// otherwise idle process or system, or `None` if it only reacts to
    /// process activity. This is load-bearing twice: it bounds the
    /// engine's fast-forward jumps, and it forces dense stepping (every
    /// alive process intercepted) on the rounds it names — the default
    /// `None` means idle processes may never face [`intercept`]
    /// (see the trait-level interception contract).
    /// Returning `Some(now)` unconditionally disables both optimizations.
    ///
    /// [`intercept`]: Adversary::intercept
    fn next_event(&self, _now: Round) -> Option<Round> {
        None
    }

    /// Whether this adversary may suppress deliveries (receive-side
    /// omission). The engine only pays the per-delivery
    /// [`omits_delivery`](Adversary::omits_delivery) consultation when
    /// this returns `true`; the default `false` keeps the fault-free
    /// delivery path untouched.
    fn filters_deliveries(&self) -> bool {
        false
    }

    /// Receive-side omission: whether the message from `from` to `to`,
    /// about to be delivered at round `now`, is dropped before `to` sees
    /// it. Consulted exactly once per (message, recipient) and only when
    /// [`filters_deliveries`](Adversary::filters_deliveries) is `true`;
    /// dropped messages count toward
    /// [`Metrics::omissions`](crate::Metrics::omissions) (they were sent,
    /// so they remain in `messages`, but they are not dead letters).
    fn omits_delivery(&mut self, _now: Round, _from: Pid, _to: Pid) -> bool {
        false
    }

    /// Checks the adversary's schedule against a system of `t` processes,
    /// before round 1. An `Err` aborts the run with
    /// [`RunError::InvalidAdversary`](crate::RunError::InvalidAdversary)
    /// instead of a mid-run panic or a silently unsatisfiable schedule.
    /// [`FaultPlan`](crate::faults::FaultPlan) overrides this to reject
    /// plans that permanently crash all `t` processes, target out-of-range
    /// pids, schedule contradictory fates or hold an asynchronous-only
    /// trigger (see [`FaultPlan::validate_on`](crate::FaultPlan::validate_on));
    /// the default accepts everything.
    fn validate(&self, _t: usize) -> Result<(), String> {
        Ok(())
    }

    /// Whether `pid`'s work leases may skip this adversary (see the
    /// trait-level interception contract). The default `false` intercepts
    /// every step.
    fn permits_lease(&self, _pid: Pid) -> bool {
        false
    }
}

impl<M> Adversary<M> for Box<dyn Adversary<M>> {
    fn intercept(
        &mut self,
        round: Round,
        pid: Pid,
        effects: &Effects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        (**self).intercept(round, pid, effects, ctx)
    }

    fn next_event(&self, now: Round) -> Option<Round> {
        (**self).next_event(now)
    }

    fn filters_deliveries(&self) -> bool {
        (**self).filters_deliveries()
    }

    fn omits_delivery(&mut self, now: Round, from: Pid, to: Pid) -> bool {
        (**self).omits_delivery(now, from, to)
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        (**self).validate(t)
    }

    fn permits_lease(&self, pid: Pid) -> bool {
        (**self).permits_lease(pid)
    }
}

/// The failure-free adversary.
///
/// # Examples
///
/// ```
/// use doall_sim::{NoFailures, Adversary, Effects, Fate, LiveSet, Pid, AdversaryCtx, Round};
///
/// let mut adv = NoFailures;
/// let eff: Effects<()> = Effects::new();
/// let alive = LiveSet::new(2);
/// let ctx = AdversaryCtx::new(&alive, 0);
/// assert_eq!((ctx.t(), ctx.alive_count()), (2, 2));
/// assert_eq!(adv.intercept(Round::new(1), Pid::new(0), &eff, ctx), Fate::Survive);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFailures;

impl<M> Adversary<M> for NoFailures {
    fn intercept(&mut self, _: Round, _: Pid, _: &Effects<M>, _: AdversaryCtx<'_>) -> Fate {
        Fate::Survive
    }

    fn permits_lease(&self, _: Pid) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    //! The synchronous plane's view of the fault table: each source of a
    //! [`FaultPlan`] ruling through this module's trait.

    use super::*;
    use crate::faults::{FaultKind, FaultPlan, Trigger};
    use crate::ids::Unit;

    fn ctx(alive: &LiveSet) -> AdversaryCtx<'_> {
        AdversaryCtx::new(alive, 0)
    }

    fn next_event(plan: &FaultPlan, now: u64) -> Option<Round> {
        Adversary::<()>::next_event(plan, Round::from(now))
    }

    #[test]
    fn deliver_prefix_counts_in_send_order() {
        let d = Deliver::Prefix(2);
        assert!(d.lets_through(0, Pid::new(9)));
        assert!(d.lets_through(1, Pid::new(0)));
        assert!(!d.lets_through(2, Pid::new(1)));
    }

    #[test]
    fn deliver_subset_matches_recipients() {
        let d = Deliver::Subset([Pid::new(3)].into_iter().collect());
        assert!(d.lets_through(0, Pid::new(3)));
        assert!(!d.lets_through(0, Pid::new(4)));
    }

    #[test]
    fn schedule_fires_only_on_its_round_and_pid() {
        let mut s = FaultPlan::default().crash_at(Pid::new(1), 5, CrashSpec::silent());
        let eff: Effects<()> = Effects::new();
        let alive = LiveSet::new(2);
        assert_eq!(s.intercept(Round::new(4), Pid::new(1), &eff, ctx(&alive)), Fate::Survive);
        assert_eq!(s.intercept(Round::new(5), Pid::new(0), &eff, ctx(&alive)), Fate::Survive);
        assert!(matches!(
            s.intercept(Round::new(5), Pid::new(1), &eff, ctx(&alive)),
            Fate::Crash(_)
        ));
        assert_eq!(s.intercept(Round::new(6), Pid::new(1), &eff, ctx(&alive)), Fate::Survive);
    }

    #[test]
    fn schedule_keeps_the_first_spec_of_a_repeated_round_and_pid() {
        let mut s = FaultPlan::default().crash_at(Pid::new(3), 7, CrashSpec::prefix(2)).crash_at(
            Pid::new(3),
            7,
            CrashSpec::silent(),
        );
        assert_eq!(s.len(), 2);
        let eff: Effects<()> = Effects::new();
        let alive = LiveSet::new(4);
        assert_eq!(
            s.intercept(Round::new(7), Pid::new(3), &eff, ctx(&alive)),
            Fate::Crash(CrashSpec::prefix(2))
        );
    }

    #[test]
    fn schedule_next_event_is_first_scheduled_round() {
        let s = FaultPlan::default().crash_at(Pid::new(0), 30, CrashSpec::silent()).crash_at(
            Pid::new(1),
            12,
            CrashSpec::silent(),
        );
        assert_eq!(next_event(&s, 0), Some(Round::new(12)));
        assert_eq!(next_event(&s, 13), Some(Round::new(30)));
        assert_eq!(next_event(&s, 31), None);
    }

    #[test]
    fn random_adversary_respects_budget() {
        let mut adv = FaultPlan::random(42, 1.0, 0);
        let eff: Effects<()> = Effects::new();
        let alive = LiveSet::new(3);
        // p = 1.0 but budget 0: never crashes, and never forces a dense round.
        assert_eq!(adv.intercept(Round::new(1), Pid::new(0), &eff, ctx(&alive)), Fate::Survive);
        assert_eq!(next_event(&adv, 1), None);
    }

    #[test]
    fn random_adversary_spares_last_survivor() {
        let mut adv = FaultPlan::random(7, 1.0, 10);
        assert_eq!(next_event(&adv, 1), Some(Round::new(1)), "coins pin every round");
        let eff: Effects<()> = Effects::new();
        let mut alive = LiveSet::new(3);
        alive.remove(1);
        alive.remove(2);
        assert_eq!(adv.intercept(Round::new(1), Pid::new(0), &eff, ctx(&alive)), Fate::Survive);
        assert_eq!(next_event(&adv, 2), None, "a lone survivor releases fast-forward");
    }

    #[test]
    fn random_adversary_is_deterministic_per_seed() {
        let run = |seed| {
            let mut adv = FaultPlan::random(seed, 0.5, 100);
            let eff: Effects<()> = Effects::new();
            let alive = LiveSet::new(4);
            (1u64..50)
                .map(|r| {
                    let fate = adv.intercept(Round::from(r), Pid::new(0), &eff, ctx(&alive));
                    matches!(fate, Fate::Crash(_))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should differ somewhere");
    }

    #[test]
    fn random_crashes_split_broadcasts_unless_clean() {
        let mut eff: Effects<()> = Effects::new();
        eff.broadcast((1..4).map(Pid::new), ());
        let alive = LiveSet::new(4);
        let mut split = FaultPlan::random(5, 1.0, 10);
        let fate = split.intercept(Round::new(1), Pid::new(0), &eff, ctx(&alive));
        assert!(
            matches!(fate, Fate::Crash(CrashSpec { deliver: Deliver::Prefix(k), .. }) if k <= 3)
        );
        let mut clean = FaultPlan::random(5, 1.0, 10).clean_crashes();
        let fate = clean.intercept(Round::new(1), Pid::new(0), &eff, ctx(&alive));
        assert_eq!(fate, Fate::Crash(CrashSpec::silent()));
    }

    #[test]
    fn trigger_nth_work_fires_exactly_once() {
        let mut adv = FaultPlan::default()
            .crash_on(Trigger::NthWorkBy { pid: Pid::new(0), nth: 2 }, CrashSpec::silent());
        let alive = LiveSet::new(2);
        let idle: Effects<()> = Effects::new();
        let mut working: Effects<()> = Effects::new();
        working.perform(Unit::new(1));
        assert_eq!(adv.intercept(Round::new(1), Pid::new(0), &working, ctx(&alive)), Fate::Survive);
        assert_eq!(adv.intercept(Round::new(2), Pid::new(0), &idle, ctx(&alive)), Fate::Survive);
        assert!(matches!(
            adv.intercept(Round::new(3), Pid::new(0), &working, ctx(&alive)),
            Fate::Crash(_)
        ));
        assert_eq!(adv.intercept(Round::new(4), Pid::new(0), &working, ctx(&alive)), Fate::Survive);
    }

    #[test]
    fn trigger_note_counts_across_processes() {
        let mut adv = FaultPlan::default()
            .crash_on(Trigger::NthNote { tag: "activate", nth: 2 }, CrashSpec::silent());
        let alive = LiveSet::new(3);
        let mut e1: Effects<()> = Effects::new();
        e1.note("activate");
        assert_eq!(adv.intercept(Round::new(3), Pid::new(1), &e1, ctx(&alive)), Fate::Survive);
        let mut e2: Effects<()> = Effects::new();
        e2.note("activate");
        assert!(matches!(
            adv.intercept(Round::new(9), Pid::new(2), &e2, ctx(&alive)),
            Fate::Crash(_)
        ));
    }

    fn permits_lease(plan: &FaultPlan, pid: usize) -> bool {
        Adversary::<()>::permits_lease(plan, Pid::new(pid))
    }

    #[test]
    fn fault_plans_permit_leases_only_where_no_step_is_watched() {
        assert!(Adversary::<()>::permits_lease(&NoFailures, Pid::new(0)));
        assert!(permits_lease(&FaultPlan::default(), 0));
        // Coins draw once per step.
        assert!(!permits_lease(&FaultPlan::random(1, 0.1, 3), 1));
        assert!(!permits_lease(&FaultPlan::random(1, 0.0, 0), 1));
        // A work rule counts p0's steps, and only p0's.
        let nth_work = FaultPlan::default()
            .crash_on(Trigger::NthWorkBy { pid: Pid::new(0), nth: 2 }, CrashSpec::silent());
        assert!(!permits_lease(&nth_work, 0));
        assert!(permits_lease(&nth_work, 1));
        // A timed window rules on every step it covers, of any pid here.
        let window = FaultPlan::new([FaultKind::OmitSends(Pid::new(1)).at(5u64).for_rounds(3)]);
        assert!(!permits_lease(&window, 0) && !permits_lease(&window, 1));
        // Exact-round crashes are events: leases are clipped at them.
        let crash_at = FaultPlan::default().crash_at(Pid::new(1), 9, CrashSpec::silent());
        assert!(permits_lease(&crash_at, 0) && permits_lease(&crash_at, 1));
        // A note rule never sees a leased process, which emits nothing.
        let note = FaultPlan::default()
            .crash_on(Trigger::NthNote { tag: "activate", nth: 2 }, CrashSpec::silent());
        assert!(permits_lease(&note, 0));
        // A boxed adversary forwards the answer.
        let boxed: Box<dyn Adversary<()>> = Box::new(nth_work);
        assert!(!boxed.permits_lease(Pid::new(0)) && boxed.permits_lease(Pid::new(1)));
    }

    #[test]
    fn at_round_trigger_reports_next_event() {
        let adv = FaultPlan::default().crash_on(
            Trigger::AtRound { pid: Pid::new(1), round: Round::new(44) },
            CrashSpec::silent(),
        );
        assert_eq!(next_event(&adv, 10), Some(Round::new(44)));
        assert_eq!(next_event(&adv, 44), Some(Round::new(44)));
        assert_eq!(next_event(&adv, 45), None);
    }
}
