//! Work leases: where the saving sits, and where leases stop.
//!
//! A counting wrapper forwards [`Protocol::lease`] and
//! [`Protocol::advance`] and counts the steps the engine really takes.
//! Failure-free coordinator-D at `(n, t) = (2^16, 2^8)` must cost exactly
//! `4t − 1` steps untraced — round 1, then three agreement rounds, the last
//! without the coordinator — against one step per process per round when
//! a trace is recording (no leases) or when the wrapper keeps the trait
//! defaults. Every pair of runs must agree on the report and on the rounds
//! executed. A lone worker near the end of the 128-bit clock checks that
//! the lease end is clipped at the round cap, not past it.

use std::cell::Cell;
use std::rc::Rc;

use doall::core::d::DMsg;
use doall::sim::{
    run, Adversary, Classify, CrashSpec, Effects, Engine, FaultPlan, Inbox, NoFailures, Pid,
    Protocol, Report, Round, RunConfig, RunError, Trigger, Unit,
};
use doall::ProtocolD;

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
            Err(RunError::Stalled { round, metrics, diagnosis, .. }) => (round, metrics, diagnosis),
            other => panic!("expected a stall, got {:?}", other.map(|r| r.metrics)),
        }
    };
    let (round, metrics, diagnosis) = stall(false);
    assert_eq!((round, metrics.work_total), (Round::new(13), 10));
    assert_eq!(diagnosis.wakeups, [(Pid::new(0), Some(Round::new(14)))]);
    let traced = stall(true);
    assert_eq!((traced.0, &traced.1, &traced.2), (round, &metrics, &diagnosis));
}
