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
//! implements this trait, so one named-fault schedule drives both planes.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{AsyncEffects, Time};
use crate::adversary::{
    check_crash_probability, AdversaryCtx, CrashSpec, Deliver, Fate, NoFailures,
};
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

/// Crashes given processes at given handler invocations, with the full
/// synchronous [`CrashSpec`] vocabulary (silent, after-round, prefix,
/// arbitrary subset).
///
/// # Examples
///
/// ```
/// use doall_sim::asynch::AsyncCrashSchedule;
/// use doall_sim::{CrashSpec, Pid};
///
/// let schedule = AsyncCrashSchedule::new()
///     .crash_at(Pid::new(0), 1, CrashSpec::silent())
///     .crash_at(Pid::new(3), 7, CrashSpec::prefix(2));
/// assert_eq!(schedule.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AsyncCrashSchedule {
    by_victim: BTreeMap<(Pid, u64), CrashSpec>,
}

impl AsyncCrashSchedule {
    /// An empty schedule (equivalent to [`NoFailures`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `pid` to crash during its `invocation`-th handler
    /// invocation (1-based). A later entry for the same `(pid,
    /// invocation)` replaces the earlier one.
    pub fn crash_at(mut self, pid: Pid, invocation: u64, spec: CrashSpec) -> Self {
        self.by_victim.insert((pid, invocation), spec);
        self
    }

    /// Number of scheduled crash entries.
    pub fn len(&self) -> usize {
        self.by_victim.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.by_victim.is_empty()
    }
}

impl<M> AsyncAdversary<M> for AsyncCrashSchedule {
    fn intercept(
        &mut self,
        _time: Time,
        pid: Pid,
        invocation: u64,
        _effects: &AsyncEffects<M>,
        _ctx: AdversaryCtx<'_>,
    ) -> Fate {
        match self.by_victim.get(&(pid, invocation)) {
            Some(spec) => Fate::Crash(spec.clone()),
            None => Fate::Survive,
        }
    }
}

/// Seeded random crash adversary for the asynchronous plane.
///
/// Each handler invocation of an alive process crashes with probability
/// `p_per_event`, up to `max_crashes` total, always sparing a lone
/// survivor (the paper's correctness premise). A crashing handler with
/// outgoing messages delivers a uniformly random prefix of them, mirroring
/// the synchronous [`RandomCrashes`](crate::RandomCrashes).
#[derive(Clone, Debug)]
pub struct AsyncRandomCrashes {
    rng: SmallRng,
    p_per_event: f64,
    max_crashes: u32,
    partial_delivery: bool,
    inflicted: u32,
}

impl AsyncRandomCrashes {
    /// Creates a random adversary with the given per-invocation crash
    /// probability and total crash budget. A probability outside
    /// `[0.0, 1.0]` is reported by [`validate`](AsyncAdversary::validate),
    /// so the engine refuses the run with
    /// [`AsyncRunError::InvalidAdversary`](super::AsyncRunError::InvalidAdversary).
    pub fn new(seed: u64, p_per_event: f64, max_crashes: u32) -> Self {
        AsyncRandomCrashes {
            rng: SmallRng::seed_from_u64(seed),
            p_per_event,
            max_crashes,
            partial_delivery: true,
            inflicted: 0,
        }
    }

    /// Disables mid-broadcast partial delivery (crashes happen cleanly
    /// between invocations).
    pub fn clean_crashes(mut self) -> Self {
        self.partial_delivery = false;
        self
    }
}

impl<M> AsyncAdversary<M> for AsyncRandomCrashes {
    fn validate(&self, _t: usize) -> Result<(), String> {
        check_crash_probability(self.p_per_event)
    }

    fn intercept(
        &mut self,
        _time: Time,
        _pid: Pid,
        _invocation: u64,
        effects: &AsyncEffects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        if ctx.alive_count() <= 1 {
            return Fate::Survive;
        }
        if ctx.crashes >= self.max_crashes || self.inflicted >= self.max_crashes {
            return Fate::Survive;
        }
        if self.rng.gen_bool(self.p_per_event) {
            let spec = if self.partial_delivery && effects.send_count() > 0 {
                let k = self.rng.gen_range(0..=effects.send_count());
                CrashSpec { deliver: Deliver::Prefix(k), count_work: self.rng.gen_bool(0.5) }
            } else {
                CrashSpec::silent()
            };
            self.inflicted += 1;
            return Fate::Crash(spec);
        }
        Fate::Survive
    }
}

/// A condition on which an [`AsyncTriggerAdversary`] rule fires, always on
/// the process that tripped it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsyncTrigger {
    /// Fires the `nth` time any process emits the given trace note
    /// (1-based, counted across all processes) — e.g. kill the second
    /// process ever to emit `"activate"`.
    NthNote {
        /// The watched annotation tag.
        tag: &'static str,
        /// Which occurrence triggers.
        nth: u64,
    },
    /// Fires when `pid` performs its `nth` unit of work (1-based; an
    /// asynchronous handler may perform several units, all of which
    /// count).
    NthWorkBy {
        /// The watched process.
        pid: Pid,
        /// Which unit performance triggers (1-based).
        nth: u64,
    },
    /// Fires on `pid`'s `nth` handler invocation (1-based) — the
    /// behavioural analogue of [`AsyncCrashSchedule`], composable with the
    /// other triggers.
    NthInvocationOf {
        /// The watched process.
        pid: Pid,
        /// Which invocation triggers (1-based).
        nth: u64,
    },
}

/// A one-shot rule: when `trigger` fires, crash the process it fired on.
#[derive(Clone, Debug)]
pub struct AsyncTriggerRule {
    /// Condition to watch for.
    pub trigger: AsyncTrigger,
    /// How the crash unfolds.
    pub spec: CrashSpec,
}

/// Composable behavioural adversary for the asynchronous plane: a list of
/// one-shot rules over notes, work counts and invocation counts — how
/// "kill the active process right after its `k`-th unit" is written
/// without knowing event timestamps in advance.
///
/// # Examples
///
/// ```
/// use doall_sim::asynch::{AsyncTrigger, AsyncTriggerAdversary, AsyncTriggerRule};
/// use doall_sim::CrashSpec;
///
/// let adv = AsyncTriggerAdversary::new(vec![AsyncTriggerRule {
///     trigger: AsyncTrigger::NthNote { tag: "activate", nth: 2 },
///     spec: CrashSpec::silent(),
/// }]);
/// assert_eq!(adv.remaining_rules(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct AsyncTriggerAdversary {
    rules: Vec<(AsyncTriggerRule, bool)>, // (rule, spent)
    work_counts: BTreeMap<Pid, u64>,
    note_counts: BTreeMap<&'static str, u64>,
}

impl AsyncTriggerAdversary {
    /// Creates an adversary from a list of one-shot rules.
    pub fn new(rules: Vec<AsyncTriggerRule>) -> Self {
        AsyncTriggerAdversary {
            rules: rules.into_iter().map(|r| (r, false)).collect(),
            work_counts: BTreeMap::new(),
            note_counts: BTreeMap::new(),
        }
    }

    /// Number of rules that have not fired yet.
    pub fn remaining_rules(&self) -> usize {
        self.rules.iter().filter(|(_, spent)| !spent).count()
    }
}

impl<M> AsyncAdversary<M> for AsyncTriggerAdversary {
    fn intercept(
        &mut self,
        _time: Time,
        pid: Pid,
        invocation: u64,
        effects: &AsyncEffects<M>,
        _ctx: AdversaryCtx<'_>,
    ) -> Fate {
        let work_before = *self.work_counts.get(&pid).unwrap_or(&0);
        let work_after = work_before + effects.work_units().len() as u64;
        if work_after != work_before {
            self.work_counts.insert(pid, work_after);
        }
        let mut fired_notes: Vec<(&'static str, u64)> = Vec::new();
        for note in effects.notes() {
            let c = self.note_counts.entry(note).or_insert(0);
            *c += 1;
            fired_notes.push((note, *c));
        }

        for (rule, spent) in &mut self.rules {
            if *spent {
                continue;
            }
            let tripped = match &rule.trigger {
                AsyncTrigger::NthNote { tag, nth } => {
                    fired_notes.iter().any(|(t, c)| t == tag && c == nth)
                }
                AsyncTrigger::NthWorkBy { pid: p, nth } => {
                    *p == pid && work_before < *nth && *nth <= work_after
                }
                AsyncTrigger::NthInvocationOf { pid: p, nth } => *p == pid && *nth == invocation,
            };
            if tripped {
                *spent = true;
                return Fate::Crash(rule.spec.clone());
            }
        }
        Fate::Survive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Unit;

    fn ctx(alive: &[bool]) -> AdversaryCtx<'_> {
        AdversaryCtx::new(alive, 0)
    }

    #[test]
    fn schedule_fires_on_its_invocation_only() {
        let mut s = AsyncCrashSchedule::new().crash_at(Pid::new(0), 3, CrashSpec::silent());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let eff: AsyncEffects<()> = AsyncEffects::default();
        let alive = [true, true];
        assert_eq!(s.intercept(Time::new(1), Pid::new(0), 2, &eff, ctx(&alive)), Fate::Survive);
        assert!(matches!(
            s.intercept(Time::new(4), Pid::new(0), 3, &eff, ctx(&alive)),
            Fate::Crash(_)
        ));
    }

    #[test]
    fn random_adversary_respects_budget_and_lone_survivor() {
        let eff: AsyncEffects<()> = AsyncEffects::default();
        let mut broke = AsyncRandomCrashes::new(42, 1.0, 0);
        let alive = [true, true, true];
        assert_eq!(broke.intercept(Time::new(1), Pid::new(0), 1, &eff, ctx(&alive)), Fate::Survive);
        let mut spare = AsyncRandomCrashes::new(42, 1.0, 10);
        let last = [true, false, false];
        assert_eq!(spare.intercept(Time::new(1), Pid::new(0), 1, &eff, ctx(&last)), Fate::Survive);
    }

    #[test]
    fn trigger_nth_work_counts_units_within_one_invocation() {
        // A single invocation performing units 1..=3 crosses nth = 2.
        let mut adv = AsyncTriggerAdversary::new(vec![AsyncTriggerRule {
            trigger: AsyncTrigger::NthWorkBy { pid: Pid::new(0), nth: 2 },
            spec: CrashSpec::silent(),
        }]);
        let alive = [true, true];
        let mut eff: AsyncEffects<()> = AsyncEffects::default();
        eff.perform(Unit::new(1));
        eff.perform(Unit::new(2));
        eff.perform(Unit::new(3));
        assert!(matches!(
            adv.intercept(Time::new(1), Pid::new(0), 1, &eff, ctx(&alive)),
            Fate::Crash(_)
        ));
        assert_eq!(adv.remaining_rules(), 0);
    }

    #[test]
    fn trigger_note_counts_across_processes() {
        let mut adv = AsyncTriggerAdversary::new(vec![AsyncTriggerRule {
            trigger: AsyncTrigger::NthNote { tag: "activate", nth: 2 },
            spec: CrashSpec::silent(),
        }]);
        let alive = [true, true, true];
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
