//! Fault adversaries for the asynchronous plane: crashes, recovery, and
//! omission.
//!
//! The synchronous [`Adversary`](crate::Adversary) rules on a process's
//! fate once per *round*; its asynchronous counterpart rules once per
//! *handler invocation* — the natural atomic step of the event-driven
//! engine. Everything downstream of the verdict is shared with the
//! synchronous plane: a [`Fate::Crash`] carries the same [`CrashSpec`],
//! whose [`Deliver`] filter is applied to the invocation's outgoing
//! messages in send order, exactly as the round engine applies it
//! (`Prefix` truncates at the message boundary, `Subset` selects
//! recipients, and suppressed work is un-counted via `count_work`).
//! Likewise [`Fate::Omit`] filters the invocation's sends while the
//! process survives, [`Fate::CrashRecover`] schedules a restart after
//! its downtime, and the receive-omission hooks
//! ([`AsyncAdversary::filters_deliveries`] /
//! [`AsyncAdversary::omits_delivery`]) are consulted once per `(message,
//! recipient)` at delivery time — the shared fault contract documented on
//! [`Adversary`](crate::Adversary). A [`FaultPlan`](crate::FaultPlan)
//! implements this trait, so one plan of any faults drives both planes.

use super::{AsyncEffects, Time};
use crate::adversary::{AdversaryCtx, Fate, NoFailures};
use crate::ids::Pid;

/// An asynchronous crash-failure adversary.
///
/// `invocation` is the 1-based count of handler invocations `pid` has
/// executed so far (including the current one); `effects` is what the
/// handler just proposed to do. As in the synchronous plane, the verdict
/// is rendered *after* the handler runs but *before* its effects apply.
pub trait AsyncAdversary<M> {
    /// Decides the fate of `pid`'s handler invocation at `time`.
    fn intercept(
        &mut self,
        time: Time,
        pid: Pid,
        invocation: u64,
        effects: &AsyncEffects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate;

    /// Timestamps at which the adversary must be given a chance to act on
    /// a process even if no event targets it — the asynchronous analogue
    /// of [`Adversary::next_event`](crate::Adversary::next_event).
    ///
    /// The engine queries this once, before the run, and schedules an
    /// injection event per `(time, pid)` pair: if the process is alive at
    /// that time, a handler invocation with an empty inbox is dispatched
    /// (and intercepted as usual), so time-based faults such as a
    /// [`FaultPlan`](crate::FaultPlan) crash at `t = 5` strike even if the
    /// victim is quiescent. The default is no scheduled events.
    fn scheduled_events(&self) -> Vec<(Time, Pid)> {
        Vec::new()
    }

    /// Whether the engine must consult
    /// [`omits_delivery`](AsyncAdversary::omits_delivery) for every
    /// delivery. Defaults to
    /// `false`, which keeps the zero-fault delivery path branch-free.
    fn filters_deliveries(&self) -> bool {
        false
    }

    /// Receive-omission hook: `true` drops the message from `from` to
    /// `to` whose delivery event fires at `now`, counting it in
    /// [`Metrics::omissions`](crate::Metrics::omissions). Consulted once
    /// per `(message, recipient)`, only when
    /// [`filters_deliveries`](AsyncAdversary::filters_deliveries) is
    /// `true`. Defaults to dropping nothing.
    fn omits_delivery(&mut self, _now: Time, _from: Pid, _to: Pid) -> bool {
        false
    }

    /// Checks the adversary's schedule against a system of `t` processes,
    /// before the first event. An `Err` aborts the run with
    /// [`AsyncRunError::InvalidAdversary`](crate::asynch::AsyncRunError::InvalidAdversary)
    /// — the asynchronous analogue of
    /// [`Adversary::validate`](crate::Adversary::validate).
    /// [`FaultPlan`](crate::faults::FaultPlan) overrides this; the default
    /// accepts everything.
    fn validate(&self, _t: usize) -> Result<(), String> {
        Ok(())
    }
}

impl<M> AsyncAdversary<M> for Box<dyn AsyncAdversary<M>> {
    fn intercept(
        &mut self,
        time: Time,
        pid: Pid,
        invocation: u64,
        effects: &AsyncEffects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        (**self).intercept(time, pid, invocation, effects, ctx)
    }

    fn scheduled_events(&self) -> Vec<(Time, Pid)> {
        (**self).scheduled_events()
    }

    fn filters_deliveries(&self) -> bool {
        (**self).filters_deliveries()
    }

    fn omits_delivery(&mut self, now: Time, from: Pid, to: Pid) -> bool {
        (**self).omits_delivery(now, from, to)
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        (**self).validate(t)
    }
}

/// [`NoFailures`] serves both planes: it never crashes anyone.
impl<M> AsyncAdversary<M> for NoFailures {
    fn intercept(
        &mut self,
        _: Time,
        _: Pid,
        _: u64,
        _: &AsyncEffects<M>,
        _: AdversaryCtx<'_>,
    ) -> Fate {
        Fate::Survive
    }
}

#[cfg(test)]
mod tests {
    //! The asynchronous plane's view of the fault table: each source of a
    //! [`FaultPlan`] ruling per handler invocation.

    use super::*;
    use crate::adversary::CrashSpec;
    use crate::faults::{FaultPlan, Trigger};
    use crate::ids::Unit;
    use crate::liveset::LiveSet;

    fn ctx(alive: &LiveSet) -> AdversaryCtx<'_> {
        AdversaryCtx::new(alive, 0)
    }

    #[test]
    fn schedule_fires_on_its_invocation_only() {
        let mut s = FaultPlan::default()
            .crash_on(Trigger::NthInvocationOf { pid: Pid::new(0), nth: 3 }, CrashSpec::silent());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let eff: AsyncEffects<()> = AsyncEffects::default();
        let alive = LiveSet::new(2);
        assert_eq!(s.intercept(Time::new(1), Pid::new(0), 2, &eff, ctx(&alive)), Fate::Survive);
        assert_eq!(s.intercept(Time::new(1), Pid::new(1), 3, &eff, ctx(&alive)), Fate::Survive);
        assert!(matches!(
            s.intercept(Time::new(4), Pid::new(0), 3, &eff, ctx(&alive)),
            Fate::Crash(_)
        ));
    }

    #[test]
    fn random_adversary_respects_budget_and_lone_survivor() {
        let eff: AsyncEffects<()> = AsyncEffects::default();
        let mut broke = FaultPlan::random(42, 1.0, 0);
        let alive = LiveSet::new(3);
        assert_eq!(broke.intercept(Time::new(1), Pid::new(0), 1, &eff, ctx(&alive)), Fate::Survive);
        let mut spare = FaultPlan::random(42, 1.0, 10);
        let mut last = LiveSet::new(3);
        last.remove(1);
        last.remove(2);
        assert_eq!(spare.intercept(Time::new(1), Pid::new(0), 1, &eff, ctx(&last)), Fate::Survive);
        assert!(matches!(
            spare.intercept(Time::new(1), Pid::new(0), 1, &eff, ctx(&alive)),
            Fate::Crash(_)
        ));
    }

    #[test]
    fn trigger_nth_work_counts_units_within_one_invocation() {
        // A single invocation performing units 1..=3 crosses nth = 2.
        let mut adv = FaultPlan::default()
            .crash_on(Trigger::NthWorkBy { pid: Pid::new(0), nth: 2 }, CrashSpec::silent());
        let alive = LiveSet::new(2);
        let mut eff: AsyncEffects<()> = AsyncEffects::default();
        eff.perform(Unit::new(1));
        eff.perform(Unit::new(2));
        eff.perform(Unit::new(3));
        assert!(matches!(
            adv.intercept(Time::new(1), Pid::new(0), 1, &eff, ctx(&alive)),
            Fate::Crash(_)
        ));
        assert_eq!(adv.intercept(Time::new(2), Pid::new(0), 2, &eff, ctx(&alive)), Fate::Survive);
    }

    #[test]
    fn trigger_note_counts_across_processes() {
        let mut adv = FaultPlan::default()
            .crash_on(Trigger::NthNote { tag: "activate", nth: 2 }, CrashSpec::silent());
        let alive = LiveSet::new(3);
        let mut e1: AsyncEffects<()> = AsyncEffects::default();
        e1.note("activate");
        assert_eq!(adv.intercept(Time::new(3), Pid::new(1), 1, &e1, ctx(&alive)), Fate::Survive);
        let mut e2: AsyncEffects<()> = AsyncEffects::default();
        e2.note("activate");
        assert!(matches!(
            adv.intercept(Time::new(9), Pid::new(2), 1, &e2, ctx(&alive)),
            Fate::Crash(_)
        ));
    }
}
