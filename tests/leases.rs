//! Work leases: where the saving sits, and where leases stop.
//!
//! A counting wrapper forwards [`Protocol::lease`] and
//! [`Protocol::advance`] and counts the steps the engine really takes.
//! Failure-free coordinator-D at `(n, t) = (2^16, 2^8)` must cost exactly
//! `4t − 1` steps untraced — round 1, then three agreement rounds, the last
//! without the coordinator — against one step per process per round when
//! a trace is recording (no leases) or when the wrapper keeps the trait
//! defaults. Figure 1's `DoWork` leases too: a lone B survivor and the last
//! process of an A takeover cascade each step once per checkpoint op, not
//! once per unit. Every pair of runs must agree on the report and on the
//! rounds executed. A leased span is crossed in one clock jump, so the
//! edges of a jump — a pause, the round cap, a one-round watchdog and an
//! adversary event inside a span — are twinned against the traced run and
//! the dense reference in `tests/support/`. A lone worker near the end of
//! the 128-bit clock checks that the lease end is clipped at the round cap,
//! not past it.

mod support;

use std::cell::Cell;
use std::rc::Rc;

use doall::core::ab::AbMsg;
use doall::core::d::DMsg;
use doall::sim::chaos::Plane;
use doall::sim::{
    run, Adversary, AdversaryCtx, Classify, CrashSpec, Effects, Engine, Fate, FaultPlan, Inbox,
    NoFailures, Pid, Protocol, Report, Round, RunConfig, RunError, Trigger, Unit, Waiting,
};
use doall::workload::Scenario;
use doall::{ProtocolA, ProtocolB, ProtocolD};
use support::sync_reference::run_reference;

/// Counts the steps of the processes it wraps in one shared cell; with
/// `leases` it forwards the lease pair, without it keeps the defaults.
#[derive(Clone)]
struct Counted<P> {
    inner: P,
    leases: bool,
    steps: Rc<Cell<u64>>,
}

impl<P: Protocol> Protocol for Counted<P> {
    type Msg = P::Msg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, P::Msg>, eff: &mut Effects<P::Msg>) {
        self.steps.set(self.steps.get() + 1);
        self.inner.step(round, inbox, eff);
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.inner.next_wakeup(now)
    }

    fn on_recover(&mut self, round: Round, wipe: bool) {
        self.inner.on_recover(round, wipe);
    }

    fn lease(&self, now: Round) -> Option<(Unit, u64)> {
        if self.leases {
            self.inner.lease(now)
        } else {
            None
        }
    }

    fn advance(&mut self, k: u64) {
        self.inner.advance(k);
    }
}

const N: u64 = 1 << 16;
const T: u64 = 1 << 8;

/// Runs failure-free coordinator-D at `(N, T)` under `adversary`, returning
/// the report and the steps taken.
fn coordinator_d<A: Adversary<DMsg>>(adversary: A, leases: bool, trace: bool) -> (Report, u64) {
    let steps = Rc::new(Cell::new(0));
    let procs: Vec<_> = ProtocolD::processes_with_coordinator(N, T)
        .expect("valid D shape")
        .into_iter()
        .map(|inner| Counted { inner, leases, steps: Rc::clone(&steps) })
        .collect();
    let mut cfg = RunConfig::new(N as usize, 10_000);
    cfg.record_trace = trace;
    let report = run(procs, adversary, cfg).expect("D completes");
    (report, steps.get())
}

/// Every process steps every round of the run but the coordinator's last.
const UNLEASED: u64 = N + 3 * T - 1;

#[test]
fn coordinator_d_costs_4t_minus_1_steps_untraced() {
    let (leased, steps) = coordinator_d(NoFailures, true, false);
    assert_eq!(steps, 4 * T - 1);
    assert!(leased.metrics.all_work_done());
    assert_eq!(leased.metrics.work_total, N);
    assert_eq!(leased.metrics.messages, 2 * (T - 1));
    assert_eq!(leased.metrics.rounds, N / T + 3);
    assert_eq!(leased.executed_rounds, N / T + 3);

    let (traced, steps) = coordinator_d(NoFailures, true, true);
    assert_eq!(steps, UNLEASED, "a recording trace grants no lease");
    assert_eq!(traced.metrics, leased.metrics);
    assert_eq!(traced.statuses, leased.statuses);
    assert_eq!(traced.executed_rounds, leased.executed_rounds);

    let (defaults, steps) = coordinator_d(NoFailures, false, false);
    assert_eq!(steps, UNLEASED, "the trait defaults grant no lease");
    assert_eq!(defaults, leased);
    assert_eq!(defaults.executed_rounds, leased.executed_rounds);
}

#[test]
fn the_adversary_decides_whose_leases_are_granted() {
    let (baseline, _) = coordinator_d(NoFailures, false, false);
    let check = |report: &Report| {
        assert_eq!(report, &baseline);
        assert_eq!(report.executed_rounds, baseline.executed_rounds);
    };
    // An empty plan, and a boxed `NoFailures`, permit every lease.
    let (report, steps) = coordinator_d(FaultPlan::default(), true, false);
    check(&report);
    assert_eq!(steps, 4 * T - 1);
    let boxed: Box<dyn Adversary<DMsg>> = Box::new(NoFailures);
    let (report, steps) = coordinator_d(boxed, true, false);
    check(&report);
    assert_eq!(steps, 4 * T - 1);
    // A rule that never fires still watches p0's work: p0 steps all 256
    // work rounds, everyone else leases.
    let watch = Trigger::NthWorkBy { pid: Pid::new(0), nth: N + 1 };
    let (report, steps) =
        coordinator_d(FaultPlan::default().crash_on(watch, CrashSpec::silent()), true, false);
    check(&report);
    assert_eq!(steps, 4 * T - 1 + (N / T - 1));
    // Coins that never land still draw once per step: no leases.
    let (report, steps) = coordinator_d(FaultPlan::random(1, 0.0, 0), true, false);
    check(&report);
    assert_eq!(steps, UNLEASED);
}

#[test]
fn an_exact_round_crash_clips_every_lease_at_its_round() {
    // p5 crashes silently in round 100 of the 256-round work phase. Every
    // lease granted in round 1 ends at round 100, where all processes step
    // (the adversary rules on everyone), and the next ones run to the
    // phase's end; the crash then costs the survivors a second phase.
    let plan = FaultPlan::default().crash_at(Pid::new(5), 100, CrashSpec::silent());
    let (traced, dense) = coordinator_d(plan.clone(), true, true);
    let (leased, steps) = coordinator_d(plan, true, false);
    assert_eq!(leased.metrics, traced.metrics);
    assert_eq!(leased.statuses, traced.statuses);
    assert_eq!(leased.executed_rounds, traced.executed_rounds);
    assert_eq!(leased.metrics.crashes, 1);
    assert!(leased.metrics.all_work_done());
    assert!(steps * 20 < dense, "{steps} leased steps against {dense} dense");
}

#[derive(Clone, Debug)]
struct Silence;
impl Classify for Silence {}

/// A lone worker that performs `1, 2, …, units` one per round from `start`
/// and then terminates; every round it offers the rest, less the last unit.
#[derive(Clone)]
struct Worker {
    start: Round,
    units: u64,
    done: u64,
}

impl Protocol for Worker {
    type Msg = Silence;

    fn step(&mut self, round: Round, _: Inbox<'_, Silence>, eff: &mut Effects<Silence>) {
        if round < self.start {
            return;
        }
        self.done += 1;
        eff.perform(Unit::new(self.done as usize));
        if self.done == self.units {
            eff.terminate();
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        Some(now.max(self.start))
    }

    fn lease(&self, _: Round) -> Option<(Unit, u64)> {
        let len = self.units - self.done - 1;
        (len > 0).then(|| (Unit::new(self.done as usize + 1), len))
    }

    fn advance(&mut self, k: u64) {
        self.done += k;
    }
}

/// The work total of a run that hits the round cap, or of a finished one.
fn work_until_cap(worker: Worker, cap: Round, trace: bool) -> (u64, Round) {
    let mut cfg = RunConfig::new(worker.units as usize, cap);
    cfg.record_trace = trace;
    let mut engine = Engine::new(vec![worker], NoFailures, cfg).expect("valid");
    match engine.run_until(None) {
        Ok(_) => (engine.metrics().work_total, engine.metrics().rounds),
        Err(RunError::RoundLimit { metrics, .. }) => (metrics.work_total, cap),
        Err(e) => panic!("unexpected {e}"),
    }
}

#[test]
fn leases_stop_at_the_round_cap_and_the_clock_horizon() {
    // Starting four rounds before the cap, the worker gets through five
    // units (rounds cap − 4 ..= cap) whether it leases or steps.
    for cap in [Round::new(1_000), Round::new(u128::MAX - 1), Round::MAX] {
        let worker = Worker { start: Round::new(cap.get() - 4), units: 10, done: 0 };
        let leased = work_until_cap(worker.clone(), cap, false);
        assert_eq!(leased, work_until_cap(worker, cap, true), "cap {cap}");
        assert_eq!(leased.0, 5, "cap {cap}");
    }
    // Far from the cap the lease runs to the last unit.
    let worker = Worker { start: Round::new(7), units: 10, done: 0 };
    assert_eq!(work_until_cap(worker, Round::new(1_000), false), (10, Round::new(16)));
}

#[test]
fn a_stall_verdict_carries_no_work_of_later_rounds() {
    // Broadcast D at (20, 2) with p1 dead in round 1: p0 leases its phase-0
    // share, then spends three silent agreement rounds alone and, in the
    // third, enters phase 1 and offers its whole new share. A watchdog of
    // two rounds fires in that round; the offer is granted only after the
    // verdict, so the payload matches the unleased run's: phase 0's ten
    // units and p0 due next round.
    let plan = FaultPlan::default().crash_at(Pid::new(1), 1, CrashSpec::silent());
    let stall = |trace: bool| {
        let procs = ProtocolD::processes(20, 2).expect("valid D shape");
        let mut cfg = RunConfig::new(20, 1_000).with_stall_window(2);
        cfg.record_trace = trace;
        match run(procs, plan.clone(), cfg) {
            Err(RunError::Stalled { metrics, diagnosis, .. }) => {
                (diagnosis.round, metrics, diagnosis)
            }
            other => panic!("expected a stall, got {:?}", other.map(|r| r.metrics)),
        }
    };
    let (round, metrics, diagnosis) = stall(false);
    assert_eq!((round, metrics.work_total), (Round::new(13), 10));
    assert_eq!(diagnosis.stalled, [(Pid::new(0), Waiting::Wakeup(Some(Round::new(14))))]);
    let traced = stall(true);
    assert_eq!((traced.0, &traced.1, &traced.2), (round, &metrics, &diagnosis));
}

/// Runs `procs` under `scenario`, each process counted in one shared cell,
/// leasing unless the trace records; returns the report and the steps.
fn counted<P: Protocol>(procs: Vec<P>, scenario: Scenario, n: u64, trace: bool) -> (Report, u64)
where
    P::Msg: 'static,
{
    let steps = Rc::new(Cell::new(0));
    let procs =
        procs.into_iter().map(|inner| Counted { inner, leases: true, steps: Rc::clone(&steps) });
    let mut cfg = RunConfig::new(n as usize, Round::MAX);
    cfg.record_trace = trace;
    let report = run(procs.collect(), scenario.adversary(), cfg).expect("completes");
    (report, steps.get())
}

/// The untraced run's steps, after checking its report against the traced
/// twin's (tracing grants no leases, so that one steps every round).
fn leased_steps<P: Protocol + Clone>(procs: Vec<P>, scenario: Scenario, n: u64) -> (u64, u64)
where
    P::Msg: 'static,
{
    let (leased, steps) = counted(procs.clone(), scenario.clone(), n, false);
    let (traced, dense) = counted(procs, scenario, n, true);
    assert_eq!(leased.metrics, traced.metrics);
    assert_eq!(leased.statuses, traced.statuses);
    assert_eq!(leased.executed_rounds, traced.executed_rounds);
    assert!(leased.metrics.all_work_done());
    (steps, dense)
}

#[test]
fn figure_1_survivors_step_once_per_checkpoint_op() {
    // Lone-survivor B(2^12, 2^8): all t processes step in round 1, where
    // t − 1 of them die. The survivor, pid t − 1, is last in the last
    // group: at its deadline it polls the √t − 1 dead members below it, one
    // step each, then activates (unit 1). Its partial checkpoints go to no
    // one and it owes no full checkpoint, so its schedule is t subchunks of
    // n/t units, each followed by one `PartialCp`: t more steps, every work
    // run after unit 1 a lease. 2t + √t in all; per round, n − 1 more.
    let (n, t) = (1u64 << 12, 1u64 << 8);
    let (steps, dense) =
        leased_steps(ProtocolB::processes(n, t).unwrap(), Scenario::DeadOnArrival { k: t - 1 }, n);
    let lone = 2 * t + t.isqrt();
    assert_eq!((steps, dense), (lone, lone + n - 1), "lone-survivor B({n}, {t})");

    // A takeover cascade on A(2^12, 2^10): p0 … p(t−2) each activate at
    // their deadline, perform one unit and die unreported; nobody sends,
    // so every victim steps exactly once. The survivor then steps `1 + t`
    // times, as above: 2t in all, against `t − 1 + n + t` per round.
    let (n, t) = (1u64 << 12, 1u64 << 10);
    let (steps, dense) = leased_steps(
        ProtocolA::processes(n, t).unwrap(),
        Scenario::TakeoverCascade { victims: t - 1 },
        n,
    );
    assert_eq!((steps, dense), (2 * t, t - 1 + n + t), "takeover-cascade A({n}, {t})");
}

/// B(1024, 16): subchunks of 64 units. Under `MassExtinction` p0 is the
/// lone survivor, active from round 1: unit 1 in its activation step, a
/// lease for units 2..=64 (rounds 2..=64), its first partial checkpoint
/// in round 65, then units 65..=128 leased over rounds 66..=129.
const BN: u64 = 1024;
const BT: u64 = 16;

fn lone_b(round: u64) -> FaultPlan {
    Scenario::MassExtinction { from: 1, k: BT - 1, round }.fault_plan(Plane::Sync)
}

/// The untraced and traced engine and the dense reference on the system
/// `procs` builds, which must give one outcome: the same metrics, statuses
/// and executed rounds, or the same whole [`RunError`].
fn twins<P, A>(procs: impl Fn() -> Vec<P>, adversary: A, cfg: RunConfig) -> Result<Report, RunError>
where
    P: Protocol,
    A: Adversary<P::Msg> + Clone,
{
    let bare = run(procs(), adversary.clone(), cfg.clone());
    let traced = run(procs(), adversary.clone(), cfg.clone().with_trace());
    match run_reference(procs(), adversary, cfg) {
        Ok((reference, _)) => {
            for (label, report) in [("untraced", &bare), ("traced", &traced)] {
                let report = report.as_ref().expect(label);
                assert_eq!(report.metrics, reference.metrics, "{label}");
                assert_eq!(report.statuses, reference.statuses, "{label}");
                assert_eq!(report.executed_rounds, reference.executed_rounds, "{label}");
            }
            bare
        }
        Err(e) => {
            assert_eq!(bare.as_ref().err(), Some(&e), "untraced");
            assert_eq!(traced.as_ref().err(), Some(&e), "traced");
            Err(e)
        }
    }
}

/// [`twins`] on `B(BN, BT)`.
fn three_ways(plan: FaultPlan, cfg: RunConfig) -> Result<Report, RunError> {
    twins(|| ProtocolB::processes(BN, BT).unwrap(), plan, cfg)
}

#[test]
fn a_pause_inside_a_jumped_span_resumes_bit_identically() {
    let cfg = RunConfig::new(BN as usize, 1_000_000);
    let whole = three_ways(lone_b(1), cfg.clone()).expect("completes");
    for stop in [2u64, 40, 64, 65, 66, 100, 129, 130, 700] {
        let stop = Round::from(stop);
        let b = || ProtocolB::processes(BN, BT).unwrap();
        let mut engine = Engine::new(b(), lone_b(1), cfg.clone()).unwrap();
        assert!(!engine.run_until(Some(stop)).unwrap());
        assert_eq!(engine.round(), stop);
        // The pause reads what a per-round pause does: the traced engine's.
        let mut traced = Engine::new(b(), lone_b(1), cfg.clone().with_trace()).unwrap();
        assert!(!traced.run_until(Some(stop)).unwrap());
        let snap = engine.snapshot();
        let (at_pause, _) = Engine::resume(snap.clone()).into_report();
        let (traced_pause, _) = traced.into_report();
        assert_eq!(at_pause.metrics, traced_pause.metrics, "pause at {stop}");
        assert_eq!(at_pause.executed_rounds, traced_pause.executed_rounds, "pause at {stop}");

        let mut resumed = Engine::resume(snap);
        assert!(resumed.run_until(None).unwrap());
        let (report, _) = resumed.into_report();
        assert_eq!(report, whole, "resumed from {stop}");
        assert_eq!(report.executed_rounds, whole.executed_rounds, "resumed from {stop}");
    }
}

#[test]
fn a_round_cap_inside_a_leased_span_is_the_same_whole_round_limit() {
    for cap in [1u64, 63, 64, 100, 129] {
        let cfg = RunConfig::new(BN as usize, cap);
        match three_ways(lone_b(1), cfg) {
            Err(RunError::RoundLimit { limit, metrics, diagnosis }) => {
                assert_eq!(limit, Round::from(cap));
                assert_eq!(metrics.rounds, Round::from(cap));
                assert_eq!(diagnosis.round, Round::from(cap + 1));
            }
            other => {
                panic!("cap {cap}: expected a round limit, got {:?}", other.map(|r| r.metrics))
            }
        }
    }
}

#[test]
fn a_one_round_watchdog_sees_a_jumped_span_as_progress() {
    // Failure-free B: every round either works or delivers to a live
    // process, leased rounds included, so a window of one never fires.
    let cfg = RunConfig::new(BN as usize, 1_000_000).with_stall_window(1);
    let report = three_ways(FaultPlan::default(), cfg).expect("no stall");
    assert_eq!(report.metrics.work_total, BN);

    // A lone A survivor last in its group: its partial checkpoints send
    // nothing, so each is a round without progress, and the jump over the
    // leased span that follows must clear that streak, as the leased
    // rounds' work would, or the next checkpoint is a second such round.
    let (n, t) = (1024u64, 16u64);
    let plan = Scenario::DeadOnArrival { k: t - 1 }.fault_plan(Plane::Sync);
    let cfg = RunConfig::new(n as usize, 1_000_000).with_stall_window(1);
    let report = twins(|| ProtocolA::processes(n, t).unwrap(), plan, cfg).expect("no stall");
    assert_eq!(report.metrics.work_total, n);
}

/// Crashes `pid` in round `at`, an announced event, with a wiped recovery
/// `downtime` rounds later, and lets every other process lease.
#[derive(Clone)]
struct Bounce {
    pid: Pid,
    at: Round,
    downtime: u64,
}

impl Adversary<AbMsg> for Bounce {
    fn intercept(
        &mut self,
        round: Round,
        pid: Pid,
        _: &Effects<AbMsg>,
        _: AdversaryCtx<'_>,
    ) -> Fate {
        if (round, pid) != (self.at, self.pid) {
            return Fate::Survive;
        }
        Fate::CrashRecover { spec: CrashSpec::silent(), downtime: self.downtime, wipe: true }
    }

    fn next_event(&self, now: Round) -> Option<Round> {
        (now <= self.at).then_some(self.at)
    }

    fn permits_lease(&self, pid: Pid) -> bool {
        pid != self.pid
    }
}

#[test]
fn a_revival_inside_a_jumped_span_lands_on_its_round() {
    // Failure-free B, p1 crashed in round 66 with a downtime of 20: p0's
    // lease, granted after round 66 (the event), covers rounds 67..=129,
    // and p1 revives wiped in round 86, where its long-passed deadline
    // makes it take over at once and redo work. The jump from round 66
    // must stop there, not at the lease end.
    let adversary = Bounce { pid: Pid::new(1), at: Round::new(66), downtime: 20 };
    let cfg = RunConfig::new(BN as usize, 1_000_000);
    let report = twins(|| ProtocolB::processes(BN, BT).unwrap(), adversary, cfg).unwrap();
    assert_eq!(report.metrics.recoveries, 1);
    assert!(report.metrics.all_work_done() && report.metrics.work_total > BN);
}

#[test]
fn an_extinction_inside_a_subchunk_clips_the_survivors_lease() {
    // p0's own steps, counted alone: its activation round, one round per
    // checkpoint op (t partial, 2√t(√t − 1) full), and — when the others
    // die in round 100, inside the lease over rounds 66..=129 — round 100,
    // where the adversary rules on every live process. Dying in round 65,
    // a checkpoint round p0 steps anyway, clips nothing.
    let p0_steps = |round: u64| {
        let mine = Rc::new(Cell::new(0));
        let others = Rc::new(Cell::new(0));
        let procs: Vec<_> = ProtocolB::processes(BN, BT)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(j, inner)| {
                let steps = Rc::clone(if j == 0 { &mine } else { &others });
                Counted { inner, leases: true, steps }
            })
            .collect();
        let cfg = RunConfig::new(BN as usize, 1_000_000);
        let report = run(procs, lone_b(round), cfg.clone()).unwrap();
        let twin = three_ways(lone_b(round), cfg).unwrap();
        assert_eq!(report.metrics, twin.metrics);
        assert_eq!(report.executed_rounds, twin.executed_rounds);
        mine.get()
    };
    let s = BT.isqrt();
    let checkpoints = BT + 2 * s * (s - 1);
    assert_eq!(p0_steps(65), 1 + checkpoints);
    assert_eq!(p0_steps(100), 1 + checkpoints + 1);
}
