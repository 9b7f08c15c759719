//! Snapshot/restore differential proptests: on both execution planes,
//! pausing a run at an arbitrary point, snapshotting, and resuming must
//! be *bit-identical* to the uninterrupted run — same metrics, same
//! trace, same final statuses — under chaos-generated fault plans as
//! well as fault-free ones.
//!
//! This is the checkpoint contract the chaos campaign and any future
//! long-run experiment harness lean on: a snapshot is not "approximately
//! the same run", it is the same run.

use std::collections::BTreeMap;

use doall::sim::asynch::{AsyncConfig, AsyncEngine, DelayDist, Time};
use doall::sim::chaos::{ChaosCase, ChaosConfig, Plane};
use doall::sim::{
    run, Adversary, Engine, Event, FaultKind, FaultPlan, Metrics, Pid, Protocol, Report, Round,
    RunConfig,
};
use doall::workload::Scenario;
use doall::{AsyncProtocolB, ProtocolA, ProtocolB, ProtocolD};
use proptest::prelude::*;

/// A fault plan drawn from the chaos generator (seed 0 ⇒ the empty,
/// fault-free plan, so the zero-fault differential is always covered).
fn plan_for(seed: u64, t: usize, n: usize) -> FaultPlan {
    if seed == 0 {
        FaultPlan::default()
    } else {
        ChaosCase::generate(seed, &ChaosConfig::new(t, n)).plan()
    }
}

/// Runs Protocol B (t = 16, n = 64) under `plan` on the sync plane,
/// pausing at `pause` for a snapshot/resume round-trip when given.
fn sync_run(plan: &FaultPlan, pause: Option<Round>) -> Report {
    let procs = plan.wrap(ProtocolB::processes(64, 16).expect("valid B shape"));
    let cfg = RunConfig::new(64, Round::MAX).with_trace();
    let mut engine = Engine::new(procs, plan.clone(), cfg).expect("plan validates at t = 16");
    let finished = engine.run_until(pause).expect("run must complete");
    if !finished {
        let snapshot = engine.snapshot();
        drop(engine);
        engine = Engine::resume(snapshot);
        engine.run_until(None).expect("resumed run must complete");
    }
    engine.into_report().0
}

/// The async-plane counterpart: Async Protocol B under uniform delivery
/// delays in `1..=max_delay` seeded by `delay_seed`, paused at virtual time
/// `pause`.
fn async_run(
    plan: &FaultPlan,
    delay_seed: u64,
    max_delay: u64,
    pause: Option<Time>,
) -> doall::sim::asynch::AsyncReport {
    let procs = plan.wrap_async(AsyncProtocolB::processes(64, 16).expect("valid B shape"));
    let cfg =
        AsyncConfig::new(64, delay_seed).with_delay(DelayDist::Uniform, max_delay).with_trace();
    let mut engine = AsyncEngine::new(procs, plan.clone(), cfg).expect("plan validates at t = 16");
    let finished = engine.run_until(pause).expect("run must complete");
    if !finished {
        let snapshot = engine.snapshot();
        drop(engine);
        engine = AsyncEngine::resume(snapshot);
        engine.run_until(None).expect("resumed run must complete");
    }
    engine.into_report()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Sync plane: snapshot-at-`pause`-then-resume ≡ straight run, for
    /// fault-free (seed 0) and chaos-faulted plans alike.
    #[test]
    fn sync_snapshot_resume_is_bit_identical(plan_seed in 0u64..32, pause in 1u64..48) {
        let plan = plan_for(plan_seed, 16, 64);
        let straight = sync_run(&plan, None);
        let resumed = sync_run(&plan, Some(Round::new(pause as u128)));
        prop_assert_eq!(straight, resumed);
    }

    /// Async plane: same contract at a virtual-time pause point, with the
    /// delivery-delay sampler's RNG state captured mid-stream.
    #[test]
    fn async_snapshot_resume_is_bit_identical(
        plan_seed in 0u64..16,
        delay_seed in 0u64..8,
        pause in 1u64..64,
    ) {
        let plan = plan_for(plan_seed, 16, 64);
        let straight = async_run(&plan, delay_seed, 4, None);
        let resumed = async_run(&plan, delay_seed, 4, Some(Time::new(pause as u128)));
        prop_assert_eq!(straight, resumed);

        // The same contract with the event queue's overflow heap occupied
        // at the pause: a late passive process crashes at time 2 and
        // revives 1,000 steps later, far beyond the 257-slot ring that
        // `max_delay = 256` sizes, while process 0's traffic keeps batches
        // flowing through every pause point (all below the revival).
        let victim = Pid::new(8 + plan_seed as usize % 8);
        let wide = FaultPlan::new(vec![FaultKind::CrashRecover {
            pid: victim,
            downtime: 1_000,
            wipe: plan_seed % 2 == 1,
        }
        .at(2u64)]);
        let straight = async_run(&wide, delay_seed, 256, None);
        prop_assert_eq!(straight.metrics.recoveries, 1);
        let resumed = async_run(&wide, delay_seed, 256, Some(Time::new(4 * pause as u128)));
        prop_assert_eq!(straight, resumed);
    }
}

/// Pause points on the sync engine's round-index seams. Process 0 (B's
/// first active process) crash-recovers mid-run: a later process takes
/// over when its parked takeover deadline fires — a far wakeup, found by
/// the exact scan that `far <= round` forces — and process 0 later
/// revives. A resumed engine does not carry the round index over: it
/// starts from an empty `next_due` and `far = 0`, so pausing exactly at
/// the takeover round, and at the round right after the revival, checks
/// that the rebuilt index continues as the one the straight run kept.
#[test]
fn pauses_at_round_index_seams_resume_bit_identically() {
    for (at, downtime, wipe) in [(2u64, 3u64, false), (3, 10, true), (5, 40, false), (8, 200, true)]
    {
        let plan =
            FaultPlan::new(vec![
                FaultKind::CrashRecover { pid: Pid::new(0), downtime, wipe }.at(at)
            ]);
        let straight = sync_run(&plan, None);
        let takeovers: Vec<Round> = straight
            .trace
            .notes("activate")
            .filter(|&(_, pid)| pid != Pid::new(0))
            .map(|(round, _)| round)
            .collect();
        let after_revivals: Vec<Round> = straight
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Recover { round, .. } => Some(round.next()),
                _ => None,
            })
            .collect();
        assert!(!takeovers.is_empty(), "plan at {at} / down {downtime}: no takeover");
        assert_eq!(after_revivals.len(), 1, "plan at {at} / down {downtime}: no revival");
        for pause in takeovers.into_iter().chain(after_revivals) {
            assert_eq!(straight, sync_run(&plan, Some(pause)), "pause at {pause}");
        }
    }
}

/// Pausing after the run already finished must be a no-op path that still
/// produces the identical report (the snapshot branch is never taken).
#[test]
fn pause_beyond_completion_matches_straight_run() {
    let plan = plan_for(7, 16, 64);
    let straight = sync_run(&plan, None);
    let late = sync_run(&plan, Some(Round::new(u64::MAX as u128)));
    assert_eq!(straight, late);
}

/// Snapshotting every few rounds in a chain (snapshot → resume → snapshot
/// → …) must still converge to the straight run: snapshots compose.
#[test]
fn chained_snapshots_compose() {
    let plan = plan_for(3, 16, 64);
    let straight = sync_run(&plan, None);

    let procs = plan.wrap(ProtocolB::processes(64, 16).expect("valid B shape"));
    let cfg = RunConfig::new(64, Round::MAX).with_trace();
    let mut engine = Engine::new(procs, plan.clone(), cfg).expect("plan validates");
    let mut next_pause = 2u128;
    while !engine.run_until(Some(Round::new(next_pause))).expect("segment must run") {
        engine = Engine::resume(engine.snapshot());
        next_pause += 3;
    }
    assert_eq!(straight, engine.into_report().0);
}

/// Σ `work_by_unit`: the per-unit ledger's total.
fn ledger_sum(m: &Metrics) -> u64 {
    m.work_by_unit.iter().map(|&c| u64::from(c)).sum()
}

/// Whether some process performed two units back to back that are not
/// successive, i.e. one writer's ledger writes do not form one contiguous
/// run.
fn has_discontiguous_writer(report: &Report) -> bool {
    let mut last: BTreeMap<Pid, usize> = BTreeMap::new();
    report.trace.events().iter().any(|e| match e {
        Event::Work { pid, unit, .. } => {
            last.insert(*pid, unit.get()).is_some_and(|prev| prev + 1 != unit.get())
        }
        _ => false,
    })
}

/// The work ledger the straight run's trace implies at the start of
/// round `at`: every performance of an earlier round.
fn ledger_before(straight: &Report, at: Round) -> Vec<u32> {
    let mut ledger = vec![0; straight.metrics.work_by_unit.len()];
    for e in straight.trace.events() {
        if let Event::Work { round, unit, .. } = e {
            if *round < at {
                ledger[unit.zero_based()] += 1;
            }
        }
    }
    ledger
}

/// The pause net for the sync engine's work ledger and work leases. One
/// engine pauses every `every` rounds and another, kept in lockstep, is
/// rebuilt from its own snapshot at each pause; both run traced and then
/// untraced, where they lease. At every pause the ledger
/// that [`Engine::metrics`] and [`Engine::snapshot`] expose must hold
/// exactly the performances of the rounds before it (so no lease reaches
/// past a pause) and agree across the two engines; both must finish with
/// the straight run's report and executed rounds.
fn assert_pause_net<P, A>(label: &str, procs: Vec<P>, adversary: A, n: usize, every: u64) -> Report
where
    P: Protocol + Clone,
    P::Msg: Clone,
    A: Adversary<P::Msg> + Clone,
{
    let traced = RunConfig::new(n, Round::MAX).with_trace();
    let straight = run(procs.clone(), adversary.clone(), traced.clone()).expect("straight run");
    for cfg in [traced.clone(), RunConfig { record_trace: false, ..traced }] {
        let label = format!("{label}, every {every}, traced: {}", cfg.record_trace);
        let bare = run(procs.clone(), adversary.clone(), cfg.clone()).expect("straight run");
        assert_eq!(bare.metrics, straight.metrics, "{label}: straight");
        assert_eq!(bare.executed_rounds, straight.executed_rounds, "{label}: straight");
        let mut paused = Engine::new(procs.clone(), adversary.clone(), cfg.clone()).expect("valid");
        let mut chained = Engine::new(procs.clone(), adversary.clone(), cfg).expect("valid");
        let mut pauses = 0;
        loop {
            let stop = Some(paused.round() + u128::from(every));
            let done = paused.run_until(stop).expect("segment must run");
            assert_eq!(done, chained.run_until(stop).expect("segment must run"), "{label}");
            if done {
                break;
            }
            pauses += 1;
            let at = paused.round();
            let m = paused.metrics();
            assert_eq!(ledger_sum(m), m.work_total, "{label}: metrics() at round {at}");
            assert_eq!(m.work_by_unit, ledger_before(&straight, at), "{label}: round {at}");
            let snapshot = paused.snapshot();
            assert_eq!(snapshot.metrics(), m, "{label}: snapshot() at round {at}");
            chained = Engine::resume(chained.snapshot());
            assert_eq!(chained.metrics(), m, "{label}: resumed engine at round {at}");
        }
        assert!(pauses > 1, "{label}: the run paused only {pauses} time(s)");
        for (how, engine) in [("paused", paused), ("resumed", chained)] {
            let report = engine.into_report().0;
            assert_eq!(bare, report, "{label}: {how}");
            assert_eq!(bare.executed_rounds, report.executed_rounds, "{label}: {how}");
        }
    }
    straight
}

#[test]
fn pausing_every_round_keeps_the_work_ledger_complete() {
    // Coordinator-D: each process performs one long contiguous run.
    let (n, t) = (256u64, 8u64);
    let d = assert_pause_net(
        "coordinator-D",
        ProtocolD::processes_with_coordinator(n, t).expect("valid D shape"),
        FaultPlan::default(),
        n as usize,
        1,
    );
    assert_eq!(d.metrics.work_total, n);

    // Protocol A under a takeover cascade: fifteen writers each redo a
    // prefix the previous one never checkpointed, so many runs cover the
    // same units.
    let (n, t) = (64u64, 16u64);
    let a = assert_pause_net(
        "A under takeover-cascade(15)",
        ProtocolA::processes(n, t).expect("valid A shape"),
        Scenario::TakeoverCascade { victims: 15 }.fault_plan(Plane::Sync),
        n as usize,
        1,
    );
    assert!(a.metrics.all_work_done());
    assert!(a.metrics.work_total > n, "the cascade must redo work");

    // Coordinator-D after a takeover cascade: the victims' units are
    // reallocated to the survivors, whose work then jumps to a new range,
    // so runs close and reopen mid-run.
    let (n, t) = (256u64, 8u64);
    let d = assert_pause_net(
        "coordinator-D under takeover-cascade(4)",
        ProtocolD::processes_with_coordinator(n, t).expect("valid D shape"),
        Scenario::TakeoverCascade { victims: 4 }.fault_plan(Plane::Sync),
        n as usize,
        1,
    );
    assert!(d.metrics.all_work_done());
    assert!(has_discontiguous_writer(&d), "reallocation must split some writer's work");
}

#[test]
fn pausing_every_few_rounds_clips_leases_at_the_pause() {
    // Coordinator-D's 32-round work phases lease between pauses, each
    // lease clipped at the next one; under the cascade p4..p7 lease, the
    // watched victims p0..p3 step, and phase 1's shares jump runs.
    let (n, t) = (256u64, 8u64);
    for every in [3, 7] {
        for (label, plan) in [
            ("coordinator-D", FaultPlan::default()),
            (
                "coordinator-D under takeover-cascade(4)",
                Scenario::TakeoverCascade { victims: 4 }.fault_plan(Plane::Sync),
            ),
        ] {
            let procs = ProtocolD::processes_with_coordinator(n, t).expect("valid D shape");
            let d = assert_pause_net(label, procs, plan, n as usize, every);
            assert!(d.metrics.all_work_done());
        }
    }
}

/// Async plane with retirement-notice runs in flight: twelve processes
/// crash on their start signal at time 0, and each crash fans notices out
/// to every live process as one run per drawn delay in `1..=4`. Pausing
/// at time 1 leaves every fan-out's delay-1 run dispatched and its later
/// runs queued, so the snapshot carries half-consumed run slots. A chain
/// that snapshots again at time 2, still mid-storm, must also finish
/// bit-identical to the straight run.
#[test]
fn async_pause_mid_crash_storm_resumes_bit_identically() {
    let plan = Scenario::DeadOnArrival { k: 12 }.fault_plan(Plane::Async);
    for delay_seed in 0..4 {
        let straight = async_run(&plan, delay_seed, 4, None);
        assert_eq!(straight.metrics.crashes, 12);
        assert_eq!(straight, async_run(&plan, delay_seed, 4, Some(Time::new(1))));

        let procs = plan.wrap_async(AsyncProtocolB::processes(64, 16).expect("valid B shape"));
        let cfg = AsyncConfig::new(64, delay_seed).with_delay(DelayDist::Uniform, 4).with_trace();
        let mut engine = AsyncEngine::new(procs, plan.clone(), cfg).expect("plan validates");
        for pause in [1u64, 2] {
            assert!(!engine.run_until(Some(Time::new(pause.into()))).expect("segment must run"));
            engine = AsyncEngine::resume(engine.snapshot());
        }
        assert!(engine.run_until(None).expect("resumed run must complete"));
        assert_eq!(straight, engine.into_report(), "delay seed {delay_seed}");
    }
}
