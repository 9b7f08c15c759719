//! Pinned three-fault lifecycles: one synchronous and one asynchronous
//! run, each under a composed [`FaultPlan`] of a degraded-mode window, an
//! omission window, and a crash-recovery — with every stage of every
//! fault's lifecycle (injection → trace-observable symptom → timed
//! repair) asserted against hard-coded rounds, counts, and totals.
//!
//! The numbers were derived by running each configuration once and
//! transcribing the trace (the derivation is walked through in
//! `EXPERIMENTS.md`, "Pinned fault lifecycles"). They are exact: any
//! change to fault scheduling, symptom emission, recovery semantics, the
//! engines' stepping order, or the async RNG stream shows up here as a
//! diff against the transcript, not as a vague invariant failure.
//!
//! A probe adversary reruns both lifecycles to check the live-set view
//! every intercept is handed (see [`Probe`]), and untraced twins check
//! that a run without tracing records nothing and counts the same.

use std::cell::RefCell;
use std::rc::Rc;

use doall::sim::asynch::{run_async, AsyncAdversary, AsyncConfig, AsyncEffects, Time};
use doall::sim::invariants::{check_degraded_rate, check_recovery_silence};
use doall::sim::{
    run, Adversary, AdversaryCtx, Effects, Event, Fate, Fault, FaultKind, FaultPlan, Pid, Round,
    RunConfig,
};
use doall::{AsyncProtocolB, ProtocolB};

/// Collects `(round, pid)` pairs of every note with the given tag.
fn notes(trace: &doall::sim::Trace, tag: &str) -> Vec<(u128, usize)> {
    trace.notes(tag).map(|(r, p)| (r.get(), p.index())).collect()
}

/// `(round, pid)` pairs in event order.
type Timeline = Vec<(u128, usize)>;

/// Collects `(round, pid)` pairs of every crash (resp. recovery) event.
fn crashes_and_recoveries(trace: &doall::sim::Trace) -> (Timeline, Timeline) {
    let mut crashes = Vec::new();
    let mut recoveries = Vec::new();
    for e in trace.events() {
        match e {
            Event::Crash { round, pid } => crashes.push((round.get(), pid.index())),
            Event::Recover { round, pid } => recoveries.push((round.get(), pid.index())),
            _ => {}
        }
    }
    (crashes, recoveries)
}

/// Protocol B (n = 8, t = 4) under three composed faults:
///
/// 1. `Slow { pid: 0, factor: 2 }` over rounds 2..8 — p0, sole active
///    worker, is halved: symptom note at round 2, repair note at 8.
/// 2. `OmitSends(0)` over rounds 9..13 — p0's checkpoint broadcasts are
///    suppressed (4 messages across 3 rounds), so p1's takeover deadline
///    is never reset and it keeps redoing the prefix.
/// 3. `CrashRecover { pid: 0, downtime: 5, stale }` at round 14 — p0
///    crashes after its round-14 step, revives stale at 19, finishes its
///    remaining queue, and retires last at 23.
#[test]
fn sync_three_fault_lifecycle_is_pinned() {
    let plan = sync_plan();
    let procs = plan.wrap(ProtocolB::processes(8, 4).unwrap());
    let report = run(procs, plan, RunConfig::new(8, 10_000).with_trace()).unwrap();

    // Totals: every unit done twice (p0 redoes 7, 8 after its stale
    // recovery; p1 redid 1..=6 while p0 was slowed and muted).
    assert!(report.metrics.all_work_done());
    assert_eq!(report.metrics.rounds, 23u64);
    assert_eq!(report.metrics.work_total, 16);
    assert_eq!(report.metrics.work_by_unit, vec![2u32; 8]);
    assert_eq!(report.metrics.messages, 10);
    assert_eq!(report.metrics.omissions, 4);
    assert_eq!(report.metrics.crashes, 1);
    assert_eq!(report.metrics.recoveries, 1);

    let trace = &report.trace;

    // Fault 1 (slowdown): injected at 2, symptom immediately (p0 was
    // acting every round), repaired exactly at the window's `until`.
    assert_eq!(notes(trace, "fault:slow"), vec![(2, 0)]);
    assert_eq!(notes(trace, "fault:slow:repaired"), vec![(8, 0)]);
    let rate = check_degraded_rate(trace, Pid::new(0), Round::new(2), Round::new(8), 2);
    assert!(rate.is_empty(), "degraded rate violated: {rate:?}");

    // Fault 2 (send omission): p0 checkpoints in rounds 9..12; one note
    // per round with suppressed sends, 4 suppressed messages in total.
    assert_eq!(notes(trace, "fault:omit"), vec![(9, 0), (10, 0), (11, 0)]);

    // Fault 3 (crash-recovery): crash lands at 14, revival 5 rounds
    // later; the recovered process stays silent during its downtime.
    let (crashes, recoveries) = crashes_and_recoveries(trace);
    assert_eq!(crashes, vec![(14, 0)]);
    assert_eq!(recoveries, vec![(19, 0)]);
    let silence = check_recovery_silence(trace);
    assert!(silence.is_empty(), "activity during downtime: {silence:?}");

    // Retirement order: p1 terminates at 19 having finished everything;
    // the idle watchers follow the terminal broadcast; the recovered p0
    // replays its stale queue and retires last.
    for pid in 1..4 {
        assert_eq!(trace.retirement_round(Pid::new(pid)), Some(Round::new(19)), "p{pid}");
    }
    assert_eq!(trace.retirement_round(Pid::new(0)), Some(Round::new(14)), "p0 crash comes first");
    let p0_terminate = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Terminate { round, pid } if pid.index() == 0 => Some(round.get()),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(p0_terminate, vec![23]);
}

/// The synchronous lifecycle's plan (see the pinned test above).
fn sync_plan() -> FaultPlan {
    FaultPlan::new([
        FaultKind::Slow { pid: Pid::new(0), factor: 2 }.at(2u64).for_rounds(6),
        FaultKind::OmitSends(Pid::new(0)).at(9u64).for_rounds(4),
        FaultKind::CrashRecover { pid: Pid::new(0), downtime: 5, wipe: false }.at(14u64),
    ])
}

/// Async Protocol B (n = 8, t = 4, seed 3, `max_delay` 7) under three
/// composed faults:
///
/// 1. `Slow { pid: 1, factor: 4 }` over handler invocations 2..10 —
///    symptom at p1's first gated invocation (time 11), repair at 56.
/// 2. `OmitRecv(2)` over times 5..35 — one delivery to p2 is dropped at
///    time 13 (the detector's crash notice for p0).
/// 3. `CrashRecover { pid: 0, downtime: 40, wipe }` at time 9 — p0, the
///    sole worker, crashes after performing unit 5, revives wiped at 49,
///    redoes units 1..=4 and 5 (its wiped state knows nothing), then
///    finishes 6..=8 and terminates first at 64.
#[test]
fn async_three_fault_lifecycle_is_pinned() {
    let plan = async_plan();
    let procs = plan.wrap_async(AsyncProtocolB::processes(8, 4).unwrap());
    let report = run_async(procs, plan, async_cfg()).unwrap();

    // Totals: units 1..=5 done twice (pre-crash work is lost to the
    // wipe), 6..=8 once; the single omission is the dropped notice.
    assert!(report.metrics.all_work_done());
    assert_eq!(report.metrics.rounds, 69u64);
    assert_eq!(report.metrics.work_total, 13);
    assert_eq!(report.metrics.work_by_unit, vec![2, 2, 2, 2, 2, 1, 1, 1]);
    assert_eq!(report.metrics.messages, 15);
    assert_eq!(report.metrics.omissions, 1);
    assert_eq!(report.metrics.crashes, 1);
    assert_eq!(report.metrics.recoveries, 1);
    assert_eq!(report.metrics.dead_letters, 0);

    let trace = &report.trace;

    // Fault 1 (slowdown): p1 is passive, so its gated invocations are
    // detector notices; symptom and repair are sparse but pinned.
    assert_eq!(notes(trace, "fault:slow"), vec![(11, 1)]);
    assert_eq!(notes(trace, "fault:slow:repaired"), vec![(56, 1)]);

    // Fault 2 (receive omission): exactly one suppressed delivery.
    assert_eq!(notes(trace, "fault:omit"), vec![(13, 2)]);

    // Fault 3 (crash-recovery with wipe): crash at 9, revival at
    // 9 + 40 = 49, rejoin note from the protocol's `on_recover`, then a
    // fresh activation (wiped p0 restarts from scratch).
    let (crashes, recoveries) = crashes_and_recoveries(trace);
    assert_eq!(crashes, vec![(9, 0)]);
    assert_eq!(recoveries, vec![(49, 0)]);
    assert_eq!(notes(trace, "rejoin"), vec![(49, 0)]);
    assert_eq!(notes(trace, "activate"), vec![(0, 0), (49, 0)]);
    let silence = check_recovery_silence(trace);
    assert!(silence.is_empty(), "activity during downtime: {silence:?}");

    // Termination order: the recovered worker retires first; the others
    // drain detector notices and follow.
    let mut terminations = Vec::new();
    for e in trace.events() {
        if let Event::Terminate { round, pid } = e {
            terminations.push((round.get(), pid.index()));
        }
    }
    assert_eq!(terminations, vec![(64, 0), (65, 3), (67, 2), (69, 1)]);
}

/// The asynchronous lifecycle's plan and configuration (see the pinned
/// test above).
fn async_plan() -> FaultPlan {
    FaultPlan::new([
        FaultKind::Slow { pid: Pid::new(1), factor: 4 }.at(2u64).for_rounds(8),
        FaultKind::OmitRecv(Pid::new(2)).at(5u64).for_rounds(30),
        FaultKind::CrashRecover { pid: Pid::new(0), downtime: 40, wipe: true }.at(9u64),
    ])
}

fn async_cfg() -> AsyncConfig {
    AsyncConfig { max_delay: 7, max_events: 1_000_000, ..AsyncConfig::new(8, 3) }.with_trace()
}

/// What a [`Probe`] saw over one run.
#[derive(Default)]
struct Seen {
    intercepts: u32,
    /// The crash-recovery the plan ruled: `(time, victim, downtime)`.
    recovery: Option<(u128, Pid, u128)>,
    /// Intercepts inside the victim's downtime (each read it dead).
    dead_during: u32,
    /// Intercepts after the downtime that read the victim alive.
    alive_after: u32,
}

/// An adversary that rules exactly as its [`FaultPlan`] (every hook is
/// forwarded) and checks the [`AdversaryCtx`] at every intercept: the
/// live count agrees with membership over `0..t`, the intercepted pid is
/// alive, and a crash-recovery victim reads dead throughout its downtime.
/// No adversary in the library reads `is_alive`, so without this probe a
/// wrong view would pass every suite.
struct Probe {
    plan: FaultPlan,
    seen: Rc<RefCell<Seen>>,
}

impl Probe {
    fn new(plan: FaultPlan) -> (Self, Rc<RefCell<Seen>>) {
        let seen = Rc::default();
        (Probe { plan, seen: Rc::clone(&seen) }, seen)
    }

    fn check(&self, now: Round, pid: Pid, ctx: AdversaryCtx<'_>) {
        let now = now.get();
        let members = (0..ctx.t()).filter(|&p| ctx.is_alive(Pid::new(p))).count();
        assert_eq!(ctx.alive_count(), members, "at {now}");
        assert!(ctx.is_alive(pid), "{pid} intercepted at {now} while dead");
        let mut seen = self.seen.borrow_mut();
        seen.intercepts += 1;
        if let Some((at, victim, downtime)) = seen.recovery {
            if now < at + downtime {
                assert!(!ctx.is_alive(victim), "{victim} alive at {now}, inside its downtime");
                seen.dead_during += 1;
            } else if ctx.is_alive(victim) {
                seen.alive_after += 1;
            }
        }
    }

    fn ruled(&self, now: Round, pid: Pid, fate: &Fate) {
        if let Fate::CrashRecover { downtime, .. } = fate {
            self.seen.borrow_mut().recovery = Some((now.get(), pid, u128::from(*downtime)));
        }
    }
}

impl<M> Adversary<M> for Probe {
    fn intercept(
        &mut self,
        round: Round,
        pid: Pid,
        eff: &Effects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        self.check(round, pid, ctx);
        let fate = Adversary::intercept(&mut self.plan, round, pid, eff, ctx);
        self.ruled(round, pid, &fate);
        fate
    }

    fn next_event(&self, now: Round) -> Option<Round> {
        Adversary::<M>::next_event(&self.plan, now)
    }

    fn filters_deliveries(&self) -> bool {
        Adversary::<M>::filters_deliveries(&self.plan)
    }

    fn omits_delivery(&mut self, now: Round, from: Pid, to: Pid) -> bool {
        Adversary::<M>::omits_delivery(&mut self.plan, now, from, to)
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        Adversary::<M>::validate(&self.plan, t)
    }

    fn permits_lease(&self, pid: Pid) -> bool {
        Adversary::<M>::permits_lease(&self.plan, pid)
    }
}

impl<M> AsyncAdversary<M> for Probe {
    fn intercept(
        &mut self,
        time: Time,
        pid: Pid,
        invocation: u64,
        eff: &AsyncEffects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        self.check(time, pid, ctx);
        let fate = AsyncAdversary::intercept(&mut self.plan, time, pid, invocation, eff, ctx);
        self.ruled(time, pid, &fate);
        fate
    }

    fn scheduled_events(&self) -> Vec<(Time, Pid)> {
        AsyncAdversary::<M>::scheduled_events(&self.plan)
    }

    fn filters_deliveries(&self) -> bool {
        AsyncAdversary::<M>::filters_deliveries(&self.plan)
    }

    fn omits_delivery(&mut self, now: Time, from: Pid, to: Pid) -> bool {
        AsyncAdversary::<M>::omits_delivery(&mut self.plan, now, from, to)
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        AsyncAdversary::<M>::validate(&self.plan, t)
    }
}

/// The probe's verdict on one lifecycle: it saw the recovery, read the
/// victim dead inside the downtime and alive after it.
fn assert_probe_saw_recovery(seen: &Seen, plane: &str) {
    assert!(seen.recovery.is_some(), "{plane}: the plan ruled no crash-recovery");
    assert!(seen.dead_during > 0, "{plane}: no intercept inside the downtime");
    assert!(seen.alive_after > 0, "{plane}: the victim never read alive after its downtime");
}

/// Both pinned lifecycles, rerun under the probe: every intercept's view
/// is consistent, and the probe changes nothing about the run.
#[test]
fn adversary_ctx_view_tracks_retirement_and_revival_on_both_planes() {
    let (probe, seen) = Probe::new(sync_plan());
    let cfg = RunConfig::new(8, 10_000).with_trace();
    let plan = sync_plan();
    let probed = run(plan.wrap(ProtocolB::processes(8, 4).unwrap()), probe, cfg.clone()).unwrap();
    let plain = run(plan.wrap(ProtocolB::processes(8, 4).unwrap()), plan, cfg).unwrap();
    assert_eq!(probed, plain, "sync: the probe changed the run");
    assert_probe_saw_recovery(&seen.borrow(), "sync");

    let (probe, seen) = Probe::new(async_plan());
    let plan = async_plan();
    let procs = || plan.wrap_async(AsyncProtocolB::processes(8, 4).unwrap());
    let probed = run_async(procs(), probe, async_cfg()).unwrap();
    let plain = run_async(procs(), plan.clone(), async_cfg()).unwrap();
    assert_eq!(probed, plain, "async: the probe changed the run");
    assert_probe_saw_recovery(&seen.borrow(), "async");
}

/// The plan with its omission window's kind replaced by `kind`, over the
/// same stretch.
fn with_omission(plan: &FaultPlan, kind: FaultKind) -> FaultPlan {
    FaultPlan::new(plan.faults().iter().map(|f| match f.kind {
        FaultKind::OmitSends(_) | FaultKind::OmitRecv(_) => {
            Fault { kind: kind.clone(), ..f.clone() }
        }
        _ => f.clone(),
    }))
}

/// Untraced twins of both pinned lifecycles, and of each with its
/// omission window turned to the other side (the sync one onto a receiving
/// watcher, the async one onto the sending worker), so that every event
/// kind and both omission paths of both engines run untraced. Each untraced
/// run records nothing, and its metrics and statuses equal the traced
/// run's: the flag inside the trace is the only gate, and it gates only
/// the trace.
#[test]
fn untraced_lifecycles_record_nothing_and_count_the_same() {
    let mut kinds = std::collections::BTreeSet::new();
    let mut seen = |trace: &doall::sim::Trace| {
        kinds.extend(trace.events().iter().map(|e| match e {
            Event::Work { .. } => "Work",
            Event::Send { .. } => "Send",
            Event::Crash { .. } => "Crash",
            Event::Terminate { .. } => "Terminate",
            Event::Notice { .. } => "Notice",
            Event::Note { .. } => "Note",
            Event::Recover { .. } => "Recover",
        }));
    };
    for plan in [sync_plan(), with_omission(&sync_plan(), FaultKind::OmitRecv(Pid::new(1)))] {
        let procs = || plan.wrap(ProtocolB::processes(8, 4).unwrap());
        let traced = run(procs(), plan.clone(), RunConfig::new(8, 10_000).with_trace()).unwrap();
        let untraced = run(procs(), plan.clone(), RunConfig::new(8, 10_000)).unwrap();
        assert!(traced.metrics.omissions > 0, "sync {:?}: no omission", plan.faults());
        assert!(untraced.trace.is_empty(), "sync {:?}: untraced run recorded", plan.faults());
        assert_eq!(untraced.metrics, traced.metrics, "sync {:?}", plan.faults());
        assert_eq!(untraced.statuses, traced.statuses, "sync {:?}", plan.faults());
        seen(&traced.trace);
    }
    for plan in [async_plan(), with_omission(&async_plan(), FaultKind::OmitSends(Pid::new(0)))] {
        let procs = || plan.wrap_async(AsyncProtocolB::processes(8, 4).unwrap());
        let traced = run_async(procs(), plan.clone(), async_cfg()).unwrap();
        let cfg = AsyncConfig { record_trace: false, ..async_cfg() };
        let untraced = run_async(procs(), plan.clone(), cfg).unwrap();
        assert!(traced.metrics.omissions > 0, "async {:?}: no omission", plan.faults());
        assert!(untraced.trace.is_empty(), "async {:?}: untraced run recorded", plan.faults());
        assert_eq!(untraced.metrics, traced.metrics, "async {:?}", plan.faults());
        assert_eq!(untraced.statuses, traced.statuses, "async {:?}", plan.faults());
        seen(&traced.trace);
    }
    let all = ["Crash", "Note", "Notice", "Recover", "Send", "Terminate", "Work"];
    assert!(kinds.into_iter().eq(all), "the traced twins must cover every event kind");
}
