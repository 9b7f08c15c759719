//! The fault table: one [`FaultPlan`] type describes a run's faults, on
//! both execution planes.
//!
//! The raw adversary traits ([`Adversary`], [`AsyncAdversary`]) speak in
//! per-step verdicts; scenarios want to speak in *faults*: "p3 omits all
//! sends from round 5 to round 20", "p1 crashes at round 8 and restarts,
//! wiped, 10 rounds later", "p0 dies right after its 5th unit of work",
//! "each process crashes with probability 1 % per round". A [`FaultPlan`]
//! holds such faults from three sources — named [`Fault`]s on the clock,
//! crash rules fired by a [`Trigger`], and seeded random crashes — and is
//! itself an adversary on **both** planes, so one plan drives the
//! synchronous round engine and the asynchronous event engine alike:
//!
//! ```
//! use doall_sim::{CrashSpec, FaultKind, FaultPlan, Pid, Round, Trigger};
//!
//! let plan = FaultPlan::new(vec![
//!     FaultKind::SlowQuarter(Pid::new(1)).at(Round::new(5)),
//!     FaultKind::OmitSends(Pid::new(3)).at(Round::new(5)).for_rounds(20),
//!     FaultKind::CrashRecover { pid: Pid::new(0), downtime: 10, wipe: true }
//!         .at(Round::new(8)),
//! ])
//! .crash_on(Trigger::NthWorkBy { pid: Pid::new(2), nth: 5 }, CrashSpec::silent());
//! assert_eq!(plan.len(), 4);
//! ```
//!
//! Each fault's lifecycle is observable: injection shows up as the fault's
//! *symptom* in the [`Trace`](crate::Trace) (a `Crash`/`Recover` event
//! pair, a `"fault:omit"` or `"fault:slow"` note), and a bounded fault
//! repairs itself at its `until` round (`"fault:slow:repaired"`, the end
//! of the omission window, the `Recover` event). Degraded-mode (`Slow*`)
//! faults cannot be imposed by an adversary — slowness is a property of
//! the process, not of its fate — so [`FaultPlan::wrap`] /
//! [`FaultPlan::wrap_async`] wrap the affected processes in the
//! [`Degraded`] / [`AsyncDegraded`] decorators; a plan with no `Slow*`
//! faults wraps every process transparently.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::adversary::{Adversary, AdversaryCtx, CrashSpec, Deliver, Fate};
use crate::asynch::{AsyncAdversary, AsyncEffects, AsyncProtocol, Time};
use crate::chaos::Plane;
use crate::effects::Effects;
use crate::ids::{Pid, Round};
use crate::message::Inbox;
use crate::protocol::Protocol;

/// A named fault from the catalog, before scheduling.
///
/// Combine with [`at`](FaultKind::at) (and [`Fault::until`] /
/// [`Fault::for_rounds`]) to place it on the clock; a bare `FaultKind`
/// converts to a [`Fault`] active from round 1 with no repair.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Fail-stop: the process crashes silently and never returns.
    Crash(Pid),
    /// Crash-recovery: the process crashes silently, then restarts
    /// `downtime` steps later — wiped to its initial state, or stale.
    CrashRecover {
        /// The victim.
        pid: Pid,
        /// Steps (rounds / time units) of downtime before the restart.
        downtime: u64,
        /// Whether the restart loses all protocol state.
        wipe: bool,
    },
    /// Degraded mode: the process acts only every `factor`-th round of the
    /// fault window (synchronous), or on every `factor`-th handler
    /// invocation (asynchronous). Enforced by the [`Degraded`] /
    /// [`AsyncDegraded`] wrappers, not by the adversary.
    Slow {
        /// The degraded process.
        pid: Pid,
        /// Slow-down factor (`1` = full speed).
        factor: u64,
    },
    /// [`Slow`](FaultKind::Slow) at quarter speed — the classic
    /// quarter-efficiency degradation.
    SlowQuarter(Pid),
    /// Send omission: every message the process sends during the fault
    /// window is silently dropped (the process itself survives and its
    /// work counts).
    OmitSends(Pid),
    /// Receive omission: every message addressed to the process during
    /// the fault window is dropped before delivery.
    OmitRecv(Pid),
}

impl FaultKind {
    /// Schedules this fault to inject at `at` (unrepaired; chain
    /// [`Fault::until`] or [`Fault::for_rounds`] to bound it).
    pub fn at(self, at: impl Into<Round>) -> Fault {
        Fault { kind: self, at: at.into(), until: None }
    }

    /// The process this fault afflicts.
    pub fn pid(&self) -> Pid {
        match *self {
            FaultKind::Crash(pid)
            | FaultKind::CrashRecover { pid, .. }
            | FaultKind::Slow { pid, .. }
            | FaultKind::SlowQuarter(pid)
            | FaultKind::OmitSends(pid)
            | FaultKind::OmitRecv(pid) => pid,
        }
    }

    /// The slow-down factor, for the `Slow*` kinds.
    fn slow_factor(&self) -> Option<u64> {
        match *self {
            FaultKind::Slow { factor, .. } => Some(factor),
            FaultKind::SlowQuarter(_) => Some(4),
            _ => None,
        }
    }

    /// Whether this kind fires once (crash-like) rather than over a window.
    fn one_shot(&self) -> bool {
        matches!(self, FaultKind::Crash(_) | FaultKind::CrashRecover { .. })
    }
}

impl From<FaultKind> for Fault {
    fn from(kind: FaultKind) -> Fault {
        Fault { kind, at: Round::ONE, until: None }
    }
}

/// A [`FaultKind`] placed on the clock: injected at `at`, repaired at
/// `until` (exclusive; `None` = never). Crash-like kinds ignore `until` —
/// their repair is the [`CrashRecover`](FaultKind::CrashRecover) downtime.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// First round (or async timestamp) at which the fault is active.
    pub at: Round,
    /// First round at which the fault is repaired, if ever.
    pub until: Option<Round>,
}

impl Fault {
    /// Bounds the fault: repaired at `until` (exclusive).
    pub fn until(mut self, until: impl Into<Round>) -> Fault {
        self.until = Some(until.into());
        self
    }

    /// Bounds the fault to `d` rounds starting at its injection round.
    pub fn for_rounds(self, d: u64) -> Fault {
        let until = self.at.saturating_add(u128::from(d));
        self.until(until)
    }

    /// Whether the fault window covers `now`.
    pub fn active(&self, now: Round) -> bool {
        now >= self.at && self.until.is_none_or(|u| now < u)
    }
}

/// What trips a crash rule of a [`FaultPlan`] (see [`FaultPlan::crash_on`]):
/// the rule fires once, on the process that tripped it (`AtRound` names
/// its victim). Counts are 1-based. A plan holding a trigger of one plane
/// only is refused on the other with an `InvalidAdversary` error.
///
/// ```
/// use doall_sim::{CrashSpec, FaultPlan, Pid, Trigger};
///
/// // p3 crashes mid-broadcast on its 7th handler invocation.
/// let rule = Trigger::NthInvocationOf { pid: Pid::new(3), nth: 7 };
/// assert_eq!(FaultPlan::default().crash_on(rule, CrashSpec::prefix(2)).len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fires if `pid` is intercepted in exactly round `round`; a victim
    /// retired by then is spared. Synchronous plane only.
    AtRound {
        /// The victim.
        pid: Pid,
        /// The round it dies in.
        round: Round,
    },
    /// Fires on the step in which `pid`'s performed units reach `nth`. A
    /// round performs at most one unit; a handler invocation may perform
    /// several, all of which count.
    NthWorkBy {
        /// The watched process.
        pid: Pid,
        /// Which unit performance triggers.
        nth: u64,
    },
    /// Fires on `pid`'s `nth` *sending* round: checkpoints, reports, polls
    /// — any round with at least one outgoing message. Synchronous plane
    /// only.
    NthSendRoundBy {
        /// The watched process.
        pid: Pid,
        /// Which sending round triggers.
        nth: u64,
    },
    /// Fires the `nth` time any process emits the trace note `tag`,
    /// counted across all processes — e.g. kill the third process ever to
    /// emit `"activate"`.
    NthNote {
        /// The watched annotation tag.
        tag: &'static str,
        /// Which occurrence triggers.
        nth: u64,
    },
    /// Fires on `pid`'s `nth` handler invocation; the first is its start
    /// signal. Asynchronous plane only.
    NthInvocationOf {
        /// The watched process.
        pid: Pid,
        /// Which invocation triggers.
        nth: u64,
    },
}

/// The one adversary data type: a schedule of faults, an [`Adversary`] on
/// the synchronous plane and an [`AsyncAdversary`] on the asynchronous one.
/// A plan with no entries behaves bit-identically to
/// [`NoFailures`](crate::NoFailures) on both. Its entries come from three
/// sources:
/// - **timed faults** ([`FaultPlan::new`]): named [`Fault`]s on the clock;
///   `Slow*` faults act by wrapping the processes ([`FaultPlan::wrap`] /
///   [`FaultPlan::wrap_async`]), the others through the adversary hooks;
/// - **crash rules** ([`FaultPlan::crash_on`], [`FaultPlan::crash_at`]);
/// - **random crashes** ([`FaultPlan::random`]).
///
/// # Evaluation order
///
/// Each intercept asks the sources in a fixed order and the first verdict
/// other than survival stands: timed faults (the first-listed active one)
/// → exact-round rules → the other rules (the earliest-added one tripped)
/// → random crashes. Rule counters advance on every intercept, whichever
/// source rules; the coins are flipped only when the random source is
/// reached.
///
/// # Known behaviour
///
/// Two properties of timed crashes stay because the benchmark's pinned
/// counts depend on them:
/// - The first-listed *active* timed fault wins, so an `OmitSends` window
///   shadows a later-listed `Crash` of the same process until it closes.
/// - An unspent `Crash` / `CrashRecover` announces an event every round
///   from its `at` on, so every round is stepped densely until it fires —
///   to the end of the run if its victim retired first. `Crash(p0).at(5)`
///   after p0 terminated in round 1 executes 99,997 rounds on the way to
///   round 100,000; the same crash as [`crash_at`](FaultPlan::crash_at)
///   executes 3.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    spent: Vec<bool>,
    // Exact-round rules by round, then victim: two lookups per intercept
    // however many share a round (`DeadOnArrival` puts thousands in one).
    at_round: BTreeMap<Round, BTreeMap<Pid, CrashSpec>>,
    // The other rules in the order added, and whether each has fired; the
    // watches index them by what can trip them, so a step reads only those.
    rules: Vec<(Trigger, CrashSpec)>,
    fired: Vec<bool>,
    by_pid: BTreeMap<Pid, Watch>,
    by_tag: BTreeMap<&'static str, Watch>,
    random: Option<Coins>,
    // Rule entries added, repeated exact-round entries included.
    rule_count: usize,
}

/// The rules (ascending positions in `FaultPlan::rules`) one process or
/// note tag can trip, and the units / emissions and sending rounds seen.
#[derive(Clone, Debug, Default)]
struct Watch {
    seen: u64,
    sends: u64,
    rules: Vec<usize>,
}

/// A step's effects as the plan reads them (`invocation` is 0 on rounds).
struct Step<'a> {
    units: u64,
    sending: bool,
    messages: usize,
    notes: &'a [&'static str],
    invocation: u64,
}

/// The random crash source (see [`FaultPlan::random`]).
#[derive(Clone, Debug)]
struct Coins {
    rng: SmallRng,
    p: f64,
    // `gen_bool(p)` in integers: `(bits >> 11) · 2⁻⁵³ < p` exactly when
    // `bits >> 11 < ⌈p · 2⁵³⌉`, so every coin lands as `gen_bool`'s would.
    threshold: u64,
    max_crashes: u32,
    partial_delivery: bool,
    inflicted: u32,
    saw_lone_survivor: bool,
}

impl Coins {
    #[inline]
    fn draw(&mut self, messages: usize, ctx: AdversaryCtx<'_>) -> Fate {
        if ctx.alive_count() <= 1 {
            self.saw_lone_survivor = true;
            return Fate::Survive;
        }
        if ctx.crashes.max(self.inflicted) >= self.max_crashes
            || self.rng.next_u64() >> 11 >= self.threshold
        {
            return Fate::Survive;
        }
        let spec = if self.partial_delivery && messages > 0 {
            let k = self.rng.gen_range(0..=messages);
            CrashSpec { deliver: Deliver::Prefix(k), count_work: self.rng.gen_bool(0.5) }
        } else {
            CrashSpec::silent()
        };
        self.inflicted += 1;
        Fate::Crash(spec)
    }

    /// Whether a crash can still come. Until then every round is an event,
    /// since a skipped round would skip coin flips; after, fast-forward resumes.
    fn armed(&self) -> bool {
        self.p > 0.0 && self.inflicted < self.max_crashes && !self.saw_lone_survivor
    }
}

/// The range check on a random crash probability (`NaN` is out of range).
fn check_crash_probability(p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("crash probability must be in [0, 1], got {p}"))
    }
}

impl FaultPlan {
    /// Builds a plan from faults (bare [`FaultKind`]s convert, active from
    /// round 1).
    pub fn new<I, F>(faults: I) -> Self
    where
        I: IntoIterator<Item = F>,
        F: Into<Fault>,
    {
        let faults: Vec<Fault> = faults.into_iter().map(Into::into).collect();
        let spent = vec![false; faults.len()];
        FaultPlan { faults, spent, ..Self::default() }
    }

    /// Seeded random crashes: every intercepted step (a round, or a handler
    /// invocation) of a live process crashes with probability `p` until
    /// `max_crashes` have struck, always sparing a lone survivor. A crashing
    /// broadcaster delivers a random prefix of its messages (see
    /// [`clean_crashes`](FaultPlan::clean_crashes)); a `p` outside `[0, 1]`
    /// fails validation.
    pub fn random(seed: u64, p: f64, max_crashes: u32) -> Self {
        let coins = Coins {
            rng: SmallRng::seed_from_u64(seed),
            p,
            threshold: (p * (1u64 << 53) as f64).ceil() as u64,
            max_crashes,
            partial_delivery: true,
            inflicted: 0,
            saw_lone_survivor: false,
        };
        FaultPlan { random: Some(coins), ..Self::default() }
    }

    /// Makes random crashes silent: no partial delivery, no counted work.
    pub fn clean_crashes(mut self) -> Self {
        if let Some(coins) = &mut self.random {
            coins.partial_delivery = false;
        }
        self
    }

    /// Adds a crash rule: when `trigger` trips, the process it names
    /// crashes as `spec` says. When several rules trip in one step, the
    /// earliest added fires; a repeated [`AtRound`](Trigger::AtRound)
    /// entry keeps its first spec.
    ///
    /// ```
    /// use doall_sim::{CrashSpec, Deliver, FaultPlan, Pid, Trigger};
    ///
    /// // Kill process 0 immediately after its 5th unit of work, unreported.
    /// let unreported = CrashSpec { deliver: Deliver::None, count_work: true };
    /// let rule = Trigger::NthWorkBy { pid: Pid::new(0), nth: 5 };
    /// assert_eq!(FaultPlan::default().crash_on(rule, unreported).len(), 1);
    /// ```
    pub fn crash_on(mut self, trigger: Trigger, spec: CrashSpec) -> Self {
        self.rule_count += 1;
        let watch = match trigger {
            Trigger::AtRound { pid, round } => {
                self.at_round.entry(round).or_default().entry(pid).or_insert(spec);
                return self;
            }
            Trigger::NthNote { tag, .. } => self.by_tag.entry(tag).or_default(),
            Trigger::NthWorkBy { pid, .. }
            | Trigger::NthSendRoundBy { pid, .. }
            | Trigger::NthInvocationOf { pid, .. } => self.by_pid.entry(pid).or_default(),
        };
        watch.rules.push(self.rules.len());
        self.rules.push((trigger, spec));
        self.fired.push(false);
        self
    }

    /// [`crash_on`](FaultPlan::crash_on) an [`AtRound`](Trigger::AtRound)
    /// trigger: `pid` crashes if it is intercepted in exactly round
    /// `round` (`u64` values and bare literals convert; pass a [`Round`]
    /// for deep-idle crashes beyond the 64-bit horizon).
    ///
    /// ```
    /// use doall_sim::{CrashSpec, FaultPlan, Pid};
    ///
    /// let plan = FaultPlan::default()
    ///     .crash_at(Pid::new(0), 10, CrashSpec::silent())
    ///     .crash_at(Pid::new(1), 25, CrashSpec::prefix(2));
    /// assert_eq!(plan.len(), 2);
    /// ```
    pub fn crash_at(self, pid: Pid, round: impl Into<Round>, spec: CrashSpec) -> Self {
        self.crash_on(Trigger::AtRound { pid, round: round.into() }, spec)
    }

    /// Number of entries: timed faults, crash rules (a repeated entry
    /// counts again) and the random source, counted alike on both planes.
    pub fn len(&self) -> usize {
        self.faults.len() + self.rule_count + usize::from(self.random.is_some())
    }

    /// Whether the plan is fault-free.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The `Slow*` windows afflicting `pid`, for the wrappers.
    fn slow_windows(&self, pid: Pid) -> Vec<SlowWindow> {
        self.faults
            .iter()
            .filter(|f| f.kind.pid() == pid)
            .filter_map(|f| {
                f.kind.slow_factor().map(|factor| SlowWindow {
                    from: f.at,
                    until: f.until.unwrap_or(Round::MAX),
                    factor,
                })
            })
            .collect()
    }

    /// Wraps synchronous processes in [`Degraded`] decorators carrying
    /// this plan's `Slow*` windows (processes without one get an empty —
    /// fully transparent — wrapper).
    pub fn wrap<P: Protocol>(&self, procs: Vec<P>) -> Vec<Degraded<P>> {
        procs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Degraded::new(p, self.slow_windows(Pid::new(i))))
            .collect()
    }

    /// Wraps asynchronous processes in [`AsyncDegraded`] decorators. Since
    /// asynchronous handlers never see the clock, a `Slow*` fault's `at` /
    /// `until` are interpreted as **handler-invocation ordinals** here
    /// (1-based), not timestamps; an unbounded fault degrades the process
    /// for the whole run.
    pub fn wrap_async<P: AsyncProtocol>(&self, procs: Vec<P>) -> Vec<AsyncDegraded<P>> {
        procs
            .into_iter()
            .enumerate()
            .map(|(i, p)| AsyncDegraded::new(p, self.slow_windows(Pid::new(i))))
            .collect()
    }

    /// The timed faults' verdict on both planes: `now` is a round or an
    /// asynchronous timestamp.
    fn verdict(&mut self, now: Round, pid: Pid) -> Fate {
        for (i, f) in self.faults.iter().enumerate() {
            if f.kind.pid() != pid || now < f.at {
                continue;
            }
            if f.kind.one_shot() {
                if self.spent[i] {
                    continue;
                }
                self.spent[i] = true;
                match f.kind {
                    FaultKind::Crash(_) => return Fate::Crash(CrashSpec::silent()),
                    FaultKind::CrashRecover { downtime, wipe, .. } => {
                        // The crash lands on the step *boundary* (work
                        // counted, messages delivered): a stale restart
                        // must find the world consistent with its saved
                        // state, or a unit the process believes done
                        // could be silently lost. Mid-action recovery
                        // crashes remain expressible through a custom
                        // adversary returning `Fate::CrashRecover` with
                        // a lossy spec.
                        return Fate::CrashRecover {
                            spec: CrashSpec::after_round(),
                            downtime,
                            wipe,
                        };
                    }
                    _ => unreachable!("one_shot covers exactly the crash kinds"),
                }
            }
            if matches!(f.kind, FaultKind::OmitSends(_)) && f.active(now) {
                return Fate::Omit(Deliver::None);
            }
        }
        Fate::Survive
    }

    fn any_recv_omission(&self) -> bool {
        self.faults.iter().any(|f| matches!(f.kind, FaultKind::OmitRecv(_)))
    }

    fn drops_delivery(&self, now: Round, to: Pid) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::OmitRecv(p) if p == to) && f.active(now))
    }

    /// Rounds at which crash-like faults are due — the plan's scheduled
    /// events on either plane.
    fn next_crash_event(&self, now: Round) -> Option<Round> {
        self.faults
            .iter()
            .zip(&self.spent)
            .filter(|(f, &spent)| f.kind.one_shot() && !spent)
            .map(|(f, _)| f.at.max(now))
            .min()
    }

    /// The intercept of both planes (`now` is a round or a timestamp), in
    /// the documented order. A plan of timed faults only or coins only goes
    /// straight to its source; the step is read only by sources that need it.
    #[inline]
    fn rule<'a>(
        &mut self,
        now: Round,
        pid: Pid,
        step: impl Fn() -> Step<'a>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        if self.rule_count == 0 {
            match &mut self.random {
                None => return self.verdict(now, pid),
                Some(coins) if self.faults.is_empty() => return coins.draw(step().messages, ctx),
                Some(_) => {}
            }
        }
        let tripped = if self.rules.is_empty() { None } else { self.observe(pid, &step()) };
        if !self.faults.is_empty() {
            let fate = self.verdict(now, pid);
            if !matches!(fate, Fate::Survive) {
                return fate;
            }
        }
        if let Some(spec) = self.at_round.get(&now).and_then(|victims| victims.get(&pid)) {
            return Fate::Crash(spec.clone());
        }
        if let Some(i) = tripped {
            self.fired[i] = true;
            return Fate::Crash(self.rules[i].1.clone());
        }
        match &mut self.random {
            Some(coins) => coins.draw(step().messages, ctx),
            None => Fate::Survive,
        }
    }

    /// Advances the rule counters by one step of `pid` and returns the
    /// earliest-added unfired rule the step trips, without firing it.
    fn observe(&mut self, pid: Pid, step: &Step<'_>) -> Option<usize> {
        let (rules, fired) = (&self.rules, &self.fired);
        let first_trip = |w: &Watch, before: u64| {
            w.rules.iter().copied().find(|&i| {
                !fired[i]
                    && match rules[i].0 {
                        Trigger::NthWorkBy { nth, .. } => before < nth && nth <= w.seen,
                        Trigger::NthSendRoundBy { nth, .. } => step.sending && w.sends == nth,
                        Trigger::NthInvocationOf { nth, .. } => step.invocation == nth,
                        Trigger::NthNote { nth, .. } => nth == w.seen,
                        Trigger::AtRound { .. } => false,
                    }
            })
        };
        let mut first = self.by_pid.get_mut(&pid).and_then(|w| {
            let before = w.seen;
            w.seen += step.units;
            w.sends += u64::from(step.sending);
            first_trip(w, before)
        });
        for tag in step.notes {
            if let Some(w) = self.by_tag.get_mut(tag) {
                w.seen += 1;
                first = first.into_iter().chain(first_trip(w, w.seen)).min();
            }
        }
        first
    }

    /// Checks the plan against a system of `t` processes, rejecting
    /// schedules that are unsatisfiable or violate the paper's fault
    /// model: out-of-range pids, permanent timed crashes of **all** `t`
    /// processes (the Do-All guarantee presumes a survivor), contradictory
    /// crash fates for one pid (a recovery scheduled at or after a
    /// permanent crash can never fire), overlapping `Slow*` windows on one
    /// pid (the [`Degraded`] wrappers assume disjoint windows), empty fault
    /// windows (`until <= at`), and a crash probability outside `[0, 1]`.
    ///
    /// Both adversary traits route their `validate` hook through
    /// [`validate_on`](FaultPlan::validate_on), so every engine entry point
    /// ([`Engine::new`](crate::Engine::new), [`run`], [`run_async`])
    /// refuses an invalid plan with a typed error before round 1 instead
    /// of panicking — or silently doing nothing — mid-run.
    ///
    /// [`run`]: crate::run
    /// [`run_async`]: crate::asynch::run_async
    pub fn validate(&self, t: usize) -> Result<(), FaultPlanError> {
        let mut crashed: Vec<Pid> = Vec::new();
        for f in &self.faults {
            let pid = f.kind.pid();
            if pid.index() >= t {
                return Err(FaultPlanError::PidOutOfRange { pid, t });
            }
            if !f.kind.one_shot() && f.until.is_some_and(|u| u <= f.at) {
                return Err(FaultPlanError::EmptyWindow { pid, at: f.at });
            }
            if matches!(f.kind, FaultKind::Crash(_)) && !crashed.contains(&pid) {
                crashed.push(pid);
            }
        }
        for (i, a) in self.faults.iter().enumerate() {
            for b in &self.faults[i + 1..] {
                let pid = a.kind.pid();
                if pid != b.kind.pid() {
                    continue;
                }
                // Contradictory crash fates: once a permanent crash is
                // live, any other crash-like fault scheduled at or after
                // it can never fire (nor, for a recovery, ever restart).
                let contradictory = match (&a.kind, &b.kind) {
                    (FaultKind::Crash(_), k) if k.one_shot() => a.at <= b.at,
                    (k, FaultKind::Crash(_)) if k.one_shot() => b.at <= a.at,
                    _ => false,
                };
                if contradictory {
                    return Err(FaultPlanError::ContradictoryFates { pid });
                }
                // The Degraded wrappers assume disjoint slow windows.
                if a.kind.slow_factor().is_some() && b.kind.slow_factor().is_some() {
                    let (a_until, b_until) =
                        (a.until.unwrap_or(Round::MAX), b.until.unwrap_or(Round::MAX));
                    if a.at < b_until && b.at < a_until {
                        return Err(FaultPlanError::OverlappingSlow { pid });
                    }
                }
            }
        }
        if t > 0 && crashed.len() >= t {
            return Err(FaultPlanError::AllCrashed { t });
        }
        let mut rule_pids = self.by_pid.keys().chain(self.at_round.values().flat_map(|v| v.keys()));
        if let Some(&pid) = rule_pids.find(|pid| pid.index() >= t) {
            return Err(FaultPlanError::PidOutOfRange { pid, t });
        }
        let p = self.random.as_ref().map_or(Ok(()), |coins| check_crash_probability(coins.p));
        p.map_err(|reason| FaultPlanError::BadProbability { reason })
    }

    /// [`validate`](FaultPlan::validate) for a run on `plane`, which also
    /// refuses a [`Trigger`] that exists only on the other plane.
    ///
    /// ```
    /// use doall_sim::chaos::Plane;
    /// use doall_sim::{CrashSpec, FaultPlan, Pid, Trigger};
    ///
    /// // Kill the second process ever to activate, on either plane.
    /// let kill = |trigger| FaultPlan::default().crash_on(trigger, CrashSpec::silent());
    /// let plan = kill(Trigger::NthNote { tag: "activate", nth: 2 });
    /// assert!(plan.validate_on(4, Plane::Sync).is_ok() && plan.validate_on(4, Plane::Async).is_ok());
    /// // Rounds have no handler invocations.
    /// let plan = kill(Trigger::NthInvocationOf { pid: Pid::new(3), nth: 7 });
    /// assert!(plan.validate_on(4, Plane::Sync).is_err());
    /// ```
    pub fn validate_on(&self, t: usize, plane: Plane) -> Result<(), FaultPlanError> {
        self.validate(t)?;
        let exact = self.at_round.iter().flat_map(|(&round, victims)| {
            victims.keys().map(move |&pid| Trigger::AtRound { pid, round })
        });
        let mut triggers = exact.take(1).chain(self.rules.iter().map(|rule| rule.0.clone()));
        let foreign = triggers.find(|trigger| match trigger {
            Trigger::AtRound { .. } | Trigger::NthSendRoundBy { .. } => plane == Plane::Async,
            Trigger::NthInvocationOf { .. } => plane == Plane::Sync,
            Trigger::NthWorkBy { .. } | Trigger::NthNote { .. } => false,
        });
        foreign.map_or(Ok(()), |trigger| Err(FaultPlanError::WrongPlane { trigger, plane }))
    }
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`] or
/// [`FaultPlan::validate_on`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A fault or rule targets a pid outside `0..t`.
    PidOutOfRange {
        /// The out-of-range victim.
        pid: Pid,
        /// The system size the plan was validated against.
        t: usize,
    },
    /// Permanent [`FaultKind::Crash`] faults cover all `t` processes — no
    /// possible survivor, violating the paper's `t - 1` fault bound.
    AllCrashed {
        /// The system size the plan was validated against.
        t: usize,
    },
    /// Two crash-like faults on one pid where a permanent crash precedes
    /// (or ties) the other, making the later fate unreachable.
    ContradictoryFates {
        /// The doubly-doomed process.
        pid: Pid,
    },
    /// Two `Slow*` windows on one pid overlap; the [`Degraded`] wrappers
    /// require disjoint windows.
    OverlappingSlow {
        /// The process with overlapping windows.
        pid: Pid,
    },
    /// A windowed fault with `until <= at` — it can never inject.
    EmptyWindow {
        /// The targeted process.
        pid: Pid,
        /// The degenerate window's start.
        at: Round,
    },
    /// The random crash probability lies outside `[0, 1]`.
    BadProbability {
        /// The range check's diagnosis.
        reason: String,
    },
    /// A rule whose trigger cannot fire on the plane of the run.
    WrongPlane {
        /// The offending trigger.
        trigger: Trigger,
        /// The plane of the run.
        plane: Plane,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::PidOutOfRange { pid, t } => {
                write!(f, "fault targets {pid} but the system has only {t} process(es)")
            }
            FaultPlanError::AllCrashed { t } => {
                write!(f, "plan permanently crashes all {t} process(es); the Do-All contract requires a survivor")
            }
            FaultPlanError::ContradictoryFates { pid } => {
                write!(f, "contradictory crash fates for {pid}: a permanent crash makes a later crash/recovery unreachable")
            }
            FaultPlanError::OverlappingSlow { pid } => {
                write!(
                    f,
                    "overlapping slow windows for {pid}; degraded-mode windows must be disjoint"
                )
            }
            FaultPlanError::EmptyWindow { pid, at } => {
                write!(f, "empty fault window for {pid} at round {at} (until <= at)")
            }
            FaultPlanError::BadProbability { reason } => f.write_str(reason),
            FaultPlanError::WrongPlane { trigger, plane } => {
                write!(f, "trigger {trigger:?} cannot fire on the {plane} plane")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl<M> Adversary<M> for FaultPlan {
    fn intercept(
        &mut self,
        round: Round,
        pid: Pid,
        effects: &Effects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        let step = || Step {
            units: u64::from(effects.work().is_some()),
            sending: !effects.sends().is_empty(),
            messages: effects.send_count(),
            notes: effects.notes(),
            invocation: 0,
        };
        self.rule(round, pid, step, ctx)
    }

    fn next_event(&self, now: Round) -> Option<Round> {
        if self.random.as_ref().is_some_and(Coins::armed) {
            return Some(now);
        }
        let exact = self.at_round.range(now..).next().map(|(&round, _)| round);
        if self.faults.is_empty() {
            return exact;
        }
        exact.into_iter().chain(self.next_crash_event(now)).min()
    }

    fn filters_deliveries(&self) -> bool {
        self.any_recv_omission()
    }

    fn omits_delivery(&mut self, now: Round, _from: Pid, to: Pid) -> bool {
        self.drops_delivery(now, to)
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        self.validate_on(t, Plane::Sync).map_err(|e| e.to_string())
    }

    /// Leases need a plan that rules the same on a skipped work step as on
    /// a stepped one: no coins (they draw once per step), no timed faults,
    /// and no rule that counts `pid`'s steps. Exact-round rules are events,
    /// which the engine clips leases at; note rules never see a leased
    /// process, which emits nothing.
    fn permits_lease(&self, pid: Pid) -> bool {
        self.random.is_none() && self.faults.is_empty() && !self.by_pid.contains_key(&pid)
    }
}

impl<M> AsyncAdversary<M> for FaultPlan {
    fn intercept(
        &mut self,
        time: Time,
        pid: Pid,
        invocation: u64,
        effects: &AsyncEffects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        let step = || Step {
            units: effects.work_units().len() as u64,
            sending: !effects.sends().is_empty(),
            messages: effects.send_count(),
            notes: effects.notes(),
            invocation,
        };
        self.rule(time, pid, step, ctx)
    }

    fn scheduled_events(&self) -> Vec<(Time, Pid)> {
        self.faults.iter().filter(|f| f.kind.one_shot()).map(|f| (f.at, f.kind.pid())).collect()
    }

    fn filters_deliveries(&self) -> bool {
        self.any_recv_omission()
    }

    fn omits_delivery(&mut self, now: Time, _from: Pid, to: Pid) -> bool {
        self.drops_delivery(now, to)
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        self.validate_on(t, Plane::Async).map_err(|e| e.to_string())
    }
}

/// One reduced-rate window of a degraded process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowWindow {
    /// First round of the window.
    pub from: Round,
    /// First round past the window ([`Round::MAX`] = never repaired).
    pub until: Round,
    /// The process acts only at rounds `r` with
    /// `(r - from) % factor == 0` inside the window.
    pub factor: u64,
}

impl SlowWindow {
    fn contains(&self, r: Round) -> bool {
        r >= self.from && r < self.until
    }

    fn on_grid(&self, r: Round) -> bool {
        r.saturating_sub(self.from).is_multiple_of(u128::from(self.factor.max(1)))
    }
}

/// Wrapper-decorator imposing degraded-mode (`Slow*`) faults on a
/// synchronous [`Protocol`]: inside a [`SlowWindow`], the inner process is
/// stepped only at every `factor`-th round of the window; messages
/// arriving at gated rounds are buffered and delivered — in arrival order,
/// ahead of the current round's — at the next permitted step. Outside all
/// windows (and for an empty window list) the wrapper is a strict
/// pass-through: same steps, same effects, bit-identical runs.
///
/// Symptoms: the first step inside a window emits a `"fault:slow"` note,
/// whether that step is gated or on the window's grid (a window opening
/// on an acting process notes at its first round); the first step at or
/// past a window's `until` emits `"fault:slow:repaired"`. Only
/// [`AsyncDegraded`] waits for a gated invocation before it notes. A clone carries the buffered messages and
/// window cursors, so engine snapshots capture mid-window state exactly.
#[derive(Clone, Debug)]
pub struct Degraded<P: Protocol> {
    inner: P,
    windows: Vec<SlowWindow>,
    buffered: Vec<(Pid, P::Msg)>,
    noted: Vec<bool>,
    repaired: Vec<bool>,
}

impl<P: Protocol> Degraded<P> {
    /// Wraps `inner` with the given slow windows (sorted by start; they
    /// must not overlap).
    pub fn new(inner: P, mut windows: Vec<SlowWindow>) -> Self {
        windows.sort_by_key(|w| w.from);
        let n = windows.len();
        Degraded {
            inner,
            windows,
            buffered: Vec::new(),
            noted: vec![false; n],
            repaired: vec![false; n],
        }
    }

    fn window_at(&self, r: Round) -> Option<usize> {
        self.windows.iter().position(|w| w.contains(r))
    }

    fn permitted(&self, r: Round) -> bool {
        match self.window_at(r) {
            Some(i) => self.windows[i].on_grid(r),
            None => true,
        }
    }

    /// Earliest permitted round `>= r`.
    fn next_permitted(&self, r: Round) -> Round {
        let mut r = r;
        loop {
            match self.window_at(r) {
                None => return r,
                Some(i) => {
                    let w = self.windows[i];
                    let f = u128::from(w.factor.max(1));
                    let off = r.saturating_sub(w.from);
                    let rem = off % f;
                    if rem == 0 {
                        return r;
                    }
                    let next = w.from.saturating_add(off - rem + f);
                    if next < w.until {
                        return next;
                    }
                    // Window ends before the next grid point: resume at
                    // full speed (or in the next window) at `until`.
                    r = w.until;
                }
            }
        }
    }
}

impl<P: Protocol> Protocol for Degraded<P> {
    type Msg = P::Msg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Self::Msg>, eff: &mut Effects<Self::Msg>) {
        if let Some(i) = self.window_at(round) {
            if !self.noted[i] {
                self.noted[i] = true;
                eff.note("fault:slow");
            }
        }
        for i in 0..self.windows.len() {
            if self.noted[i] && !self.repaired[i] && round >= self.windows[i].until {
                self.repaired[i] = true;
                eff.note("fault:slow:repaired");
            }
        }
        if self.permitted(round) {
            if self.buffered.is_empty() {
                self.inner.step(round, inbox, eff);
            } else {
                let mut combined = std::mem::take(&mut self.buffered);
                combined.extend(inbox.iter().map(|(p, m)| (p, m.clone())));
                self.inner.step(round, Inbox::from_pairs(&combined), eff);
                combined.clear();
                self.buffered = combined;
            }
        } else {
            self.buffered.extend(inbox.iter().map(|(p, m)| (p, m.clone())));
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.windows.is_empty() {
            return self.inner.next_wakeup(now);
        }
        let buffered = if self.buffered.is_empty() { None } else { Some(self.next_permitted(now)) };
        let inner = self.inner.next_wakeup(now).map(|w| self.next_permitted(w.max(now)));
        match (buffered, inner) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn on_recover(&mut self, round: Round, wipe: bool) {
        if wipe {
            self.buffered.clear();
        }
        self.inner.on_recover(round, wipe);
    }
}

/// Wrapper-decorator imposing degraded-mode faults on an
/// [`AsyncProtocol`]: since asynchronous handlers never observe the
/// clock, gating counts **handler invocations** (messages and ticks;
/// `on_start` / `on_retirement` always pass through). Within an active
/// window — whose `from`/`until` are invocation ordinals, 1-based — only
/// every `factor`-th counted invocation reaches the inner protocol;
/// gated message batches are buffered and a tick is requested so the
/// deferred work is eventually driven. Its `"fault:slow"` note comes
/// with the window's first *gated* invocation, not its first one (unlike
/// [`Degraded`]); `"fault:slow:repaired"` with the first counted
/// invocation at or past `until`. With no windows the wrapper is a
/// strict pass-through. A clone carries the invocation counter and the
/// buffered batches, so engine snapshots capture mid-window state exactly.
#[derive(Clone, Debug)]
pub struct AsyncDegraded<P: AsyncProtocol> {
    inner: P,
    windows: Vec<SlowWindow>,
    counted: u64,
    buffered: Vec<(Pid, P::Msg)>,
    inner_wants_tick: bool,
    noted: Vec<bool>,
    repaired: Vec<bool>,
}

impl<P: AsyncProtocol> AsyncDegraded<P> {
    /// Wraps `inner` with the given slow windows, measured in counted
    /// handler invocations.
    pub fn new(inner: P, mut windows: Vec<SlowWindow>) -> Self {
        windows.sort_by_key(|w| w.from);
        let n = windows.len();
        AsyncDegraded {
            inner,
            windows,
            counted: 0,
            buffered: Vec::new(),
            inner_wants_tick: false,
            noted: vec![false; n],
            repaired: vec![false; n],
        }
    }

    /// Counts this invocation and decides whether it is gated; emits
    /// lifecycle notes on window entry/exit.
    fn gate(&mut self, eff: &mut AsyncEffects<P::Msg>) -> bool {
        self.counted += 1;
        let now = Round::new(u128::from(self.counted));
        let mut gated = false;
        if let Some(i) = self.windows.iter().position(|w| w.contains(now)) {
            let w = self.windows[i];
            gated = !w.on_grid(now);
            if gated && !self.noted[i] {
                self.noted[i] = true;
                eff.note("fault:slow");
            }
        }
        for i in 0..self.windows.len() {
            if self.noted[i] && !self.repaired[i] && now >= self.windows[i].until {
                self.repaired[i] = true;
                eff.note("fault:slow:repaired");
            }
        }
        gated
    }

    /// Runs the inner handler(s) for an ungated invocation: buffered
    /// messages first (with `current` folded in), then a deferred tick.
    fn flush(&mut self, current: Option<Inbox<'_, P::Msg>>, eff: &mut AsyncEffects<P::Msg>) {
        if self.buffered.is_empty() {
            if let Some(inbox) = current {
                self.inner.on_messages(inbox, eff);
            }
        } else {
            let mut combined = std::mem::take(&mut self.buffered);
            if let Some(inbox) = current {
                combined.extend(inbox.iter().map(|(p, m)| (p, m.clone())));
            }
            self.inner.on_messages(Inbox::from_pairs(&combined), eff);
            combined.clear();
            self.buffered = combined;
        }
        if self.inner_wants_tick {
            self.inner_wants_tick = false;
            self.inner.on_tick(eff);
        }
        // Remember whether the inner protocol (re-)requested a tick; the
        // effects instance is shared, so the engine schedules it for us.
        self.inner_wants_tick = eff.wants_tick();
    }
}

impl<P: AsyncProtocol> AsyncProtocol for AsyncDegraded<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, eff: &mut AsyncEffects<Self::Msg>) {
        self.inner.on_start(eff);
        self.inner_wants_tick = self.inner_wants_tick || eff.wants_tick();
    }

    fn on_messages(&mut self, inbox: Inbox<'_, Self::Msg>, eff: &mut AsyncEffects<Self::Msg>) {
        if self.windows.is_empty() {
            self.inner.on_messages(inbox, eff);
            return;
        }
        if self.gate(eff) {
            self.buffered.extend(inbox.iter().map(|(p, m)| (p, m.clone())));
            eff.continue_later();
        } else {
            self.flush(Some(inbox), eff);
        }
    }

    fn on_retirement(&mut self, retired: Pid, eff: &mut AsyncEffects<Self::Msg>) {
        self.inner.on_retirement(retired, eff);
        // OR, don't overwrite: a pending deferred tick desire must
        // survive an interleaved retirement report.
        self.inner_wants_tick = self.inner_wants_tick || eff.wants_tick();
    }

    fn on_tick(&mut self, eff: &mut AsyncEffects<Self::Msg>) {
        if self.windows.is_empty() {
            self.inner.on_tick(eff);
            return;
        }
        if self.gate(eff) {
            eff.continue_later();
        } else {
            self.flush(None, eff);
        }
    }

    fn on_recover(&mut self, wipe: bool, eff: &mut AsyncEffects<Self::Msg>) {
        // Control-plane invocation: never counted or gated — a degraded
        // process still restarts on time; only its protocol work is slow.
        if wipe {
            self.buffered.clear();
            self.inner_wants_tick = false;
        }
        self.inner.on_recover(wipe, eff);
        self.inner_wants_tick = eff.wants_tick() || self.inner_wants_tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveset::LiveSet;

    #[test]
    fn fault_builders_compose() {
        let f = FaultKind::OmitSends(Pid::new(3)).at(Round::new(5)).for_rounds(10);
        assert_eq!(f.until, Some(Round::new(15)));
        assert!(!f.active(Round::new(4)));
        assert!(f.active(Round::new(5)));
        assert!(f.active(Round::new(14)));
        assert!(!f.active(Round::new(15)));
        let bare: Fault = FaultKind::Crash(Pid::new(0)).into();
        assert_eq!(bare.at, Round::ONE);
        assert_eq!(bare.until, None);
    }

    #[test]
    fn empty_plan_is_no_failures() {
        let mut plan = FaultPlan::default();
        assert!(plan.is_empty());
        let eff: Effects<()> = Effects::new();
        let alive = LiveSet::new(2);
        let ctx = AdversaryCtx::new(&alive, 0);
        assert_eq!(
            Adversary::<()>::intercept(&mut plan, Round::ONE, Pid::new(0), &eff, ctx),
            Fate::Survive
        );
        assert_eq!(Adversary::<()>::next_event(&plan, Round::ZERO), None);
        assert!(!Adversary::<()>::filters_deliveries(&plan));
        assert!(AsyncAdversary::<()>::scheduled_events(&plan).is_empty());
    }

    #[test]
    fn crash_faults_fire_once_at_or_after_their_round() {
        let mut plan = FaultPlan::new(vec![FaultKind::Crash(Pid::new(1)).at(Round::new(5))]);
        assert_eq!(plan.verdict(Round::new(4), Pid::new(1)), Fate::Survive);
        assert_eq!(plan.verdict(Round::new(5), Pid::new(0)), Fate::Survive);
        assert!(matches!(plan.verdict(Round::new(6), Pid::new(1)), Fate::Crash(_)));
        // One-shot: a second interception survives.
        assert_eq!(plan.verdict(Round::new(7), Pid::new(1)), Fate::Survive);
        assert_eq!(
            <FaultPlan as Adversary<()>>::next_event(&plan, Round::ZERO),
            None,
            "spent crash schedules no further events"
        );
    }

    #[test]
    fn omit_sends_is_windowed_and_survivable() {
        let mut plan =
            FaultPlan::new(vec![FaultKind::OmitSends(Pid::new(2)).at(Round::new(3)).until(6u64)]);
        assert_eq!(plan.verdict(Round::new(2), Pid::new(2)), Fate::Survive);
        assert_eq!(plan.verdict(Round::new(3), Pid::new(2)), Fate::Omit(Deliver::None));
        assert_eq!(plan.verdict(Round::new(5), Pid::new(2)), Fate::Omit(Deliver::None));
        assert_eq!(plan.verdict(Round::new(6), Pid::new(2)), Fate::Survive);
    }

    #[test]
    fn recv_omission_filters_by_recipient_and_window() {
        let mut plan =
            FaultPlan::new(vec![FaultKind::OmitRecv(Pid::new(1)).at(Round::new(2)).until(4u64)]);
        assert!(Adversary::<()>::filters_deliveries(&plan));
        assert!(!Adversary::<()>::omits_delivery(
            &mut plan,
            Round::new(1),
            Pid::new(0),
            Pid::new(1)
        ));
        assert!(Adversary::<()>::omits_delivery(
            &mut plan,
            Round::new(2),
            Pid::new(0),
            Pid::new(1)
        ));
        assert!(!Adversary::<()>::omits_delivery(
            &mut plan,
            Round::new(2),
            Pid::new(0),
            Pid::new(2)
        ));
        assert!(!Adversary::<()>::omits_delivery(
            &mut plan,
            Round::new(4),
            Pid::new(0),
            Pid::new(1)
        ));
    }

    #[test]
    fn crash_recover_verdict_carries_downtime_and_wipe() {
        let mut plan = FaultPlan::new(vec![FaultKind::CrashRecover {
            pid: Pid::new(0),
            downtime: 7,
            wipe: true,
        }
        .at(Round::new(2))]);
        match plan.verdict(Round::new(2), Pid::new(0)) {
            Fate::CrashRecover { downtime, wipe, .. } => {
                assert_eq!(downtime, 7);
                assert!(wipe);
            }
            other => panic!("expected CrashRecover, got {other:?}"),
        }
        assert_eq!(
            AsyncAdversary::<()>::scheduled_events(&plan),
            vec![(Round::new(2), Pid::new(0))]
        );
    }

    #[test]
    fn slow_windows_collect_per_pid() {
        let plan = FaultPlan::new(vec![
            FaultKind::SlowQuarter(Pid::new(1)).at(Round::new(5)).until(25u64),
            FaultKind::Slow { pid: Pid::new(1), factor: 2 }.at(Round::new(30)),
            FaultKind::OmitSends(Pid::new(1)).at(Round::new(2)),
        ]);
        let ws = plan.slow_windows(Pid::new(1));
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].factor, 4);
        assert_eq!(ws[1].until, Round::MAX);
        assert!(plan.slow_windows(Pid::new(0)).is_empty());
    }

    #[test]
    fn next_permitted_respects_grid_and_window_end() {
        struct Nop;
        #[derive(Clone, Debug)]
        struct M;
        impl crate::message::Classify for M {}
        impl Protocol for Nop {
            type Msg = M;
            fn step(&mut self, _: Round, _: Inbox<'_, M>, _: &mut Effects<M>) {}
            fn next_wakeup(&self, _: Round) -> Option<Round> {
                None
            }
        }
        let d = Degraded::new(
            Nop,
            vec![SlowWindow { from: Round::new(10), until: Round::new(20), factor: 4 }],
        );
        assert_eq!(d.next_permitted(Round::new(5)), Round::new(5));
        assert_eq!(d.next_permitted(Round::new(10)), Round::new(10));
        assert_eq!(d.next_permitted(Round::new(11)), Round::new(14));
        assert_eq!(d.next_permitted(Round::new(15)), Round::new(18));
        // Next grid point (22) lies past the window: resume at `until`.
        assert_eq!(d.next_permitted(Round::new(19)), Round::new(20));
        assert!(d.permitted(Round::new(14)));
        assert!(!d.permitted(Round::new(13)));
        assert!(d.permitted(Round::new(21)));
    }
}
