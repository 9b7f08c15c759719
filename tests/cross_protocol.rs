//! Integration tests spanning the whole workspace: every protocol against
//! every scenario, with the paper's bounds and structural invariants
//! checked on each run.

use doall::bounds::theorems;
use doall::sim::chaos::Plane;
use doall::sim::invariants::{
    check_activation_order, check_degraded_rate, check_no_zombie_actions, check_recovery_silence,
    check_sequential_work, check_single_active,
};
use doall::sim::{run, Event, Pid, Protocol, Report, Round, RunConfig};
use doall::workload::Scenario;
use doall::{Lockstep, NaiveSpread, ProtocolA, ProtocolB, ProtocolC, ProtocolD, ReplicateAll};

fn scenarios(t: u64) -> Vec<Scenario> {
    vec![
        Scenario::FailureFree,
        Scenario::DeadOnArrival { k: 1 },
        Scenario::DeadOnArrival { k: t / 2 },
        Scenario::DeadOnArrival { k: t - 1 },
        Scenario::TakeoverCascade { victims: t - 1 },
        Scenario::CheckpointSplit { victims: t / 2, nth_send: 2, prefix: 1 },
        Scenario::Random { seed: 1, p: 0.01, max_crashes: (t - 1) as u32 },
        Scenario::Random { seed: 99, p: 0.05, max_crashes: (t - 1) as u32 },
    ]
}

fn run_checked<P: Protocol>(procs: Vec<P>, scenario: &Scenario, n: u64) -> Report
where
    P::Msg: 'static,
{
    let report = run(
        procs,
        scenario.adversary::<P::Msg>(),
        RunConfig::new(n as usize, u64::MAX - 1).with_trace(),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", scenario.label()));
    assert!(
        report.metrics.all_work_done(),
        "{}: missing units {:?}",
        scenario.label(),
        report.metrics.missing_units()
    );
    assert!(
        check_no_zombie_actions(&report.trace).is_empty(),
        "{}: zombie actions",
        scenario.label()
    );
    report
}

#[test]
fn protocol_a_all_scenarios() {
    let (n, t) = (32u64, 16u64);
    for scenario in scenarios(t) {
        let report = run_checked(ProtocolA::processes(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_a(n, t);
        assert!(report.metrics.work_total <= b.work, "{}", scenario.label());
        assert!(report.metrics.messages <= b.messages, "{}", scenario.label());
        assert!(report.metrics.rounds <= b.rounds, "{}", scenario.label());
        assert!(check_single_active(&report.trace).is_empty(), "{}", scenario.label());
        assert!(check_activation_order(&report.trace).is_empty(), "{}", scenario.label());
        assert!(check_sequential_work(&report.trace).is_empty(), "{}", scenario.label());
    }
}

#[test]
fn protocol_b_all_scenarios() {
    let (n, t) = (32u64, 16u64);
    for scenario in scenarios(t) {
        let report = run_checked(ProtocolB::processes(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_b(n, t);
        assert!(report.metrics.work_total <= b.work, "{}", scenario.label());
        assert!(report.metrics.messages <= b.messages, "{}", scenario.label());
        assert!(report.metrics.rounds <= b.rounds, "{}", scenario.label());
        assert!(check_single_active(&report.trace).is_empty(), "{}", scenario.label());
        assert!(check_activation_order(&report.trace).is_empty(), "{}", scenario.label());
    }
}

#[test]
fn protocol_c_all_scenarios() {
    let (n, t) = (16u64, 8u64); // exponential deadlines: keep n + t small
    for scenario in scenarios(t) {
        let report = run_checked(ProtocolC::processes(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_c(n, t);
        assert!(report.metrics.work_total <= b.work, "{}", scenario.label());
        assert!(report.metrics.messages <= b.messages, "{}", scenario.label());
        assert!(check_single_active(&report.trace).is_empty(), "{}", scenario.label());
        assert!(check_sequential_work(&report.trace).is_empty(), "{}", scenario.label());
    }
}

#[test]
fn protocol_c_prime_all_scenarios() {
    let (n, t) = (16u64, 8u64);
    for scenario in scenarios(t) {
        let report = run_checked(ProtocolC::processes_prime(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_c_prime(n, t);
        assert!(report.metrics.work_total <= b.work, "{}", scenario.label());
        assert!(report.metrics.messages <= b.messages, "{}", scenario.label());
        assert!(check_single_active(&report.trace).is_empty(), "{}", scenario.label());
    }
}

#[test]
fn protocol_d_all_scenarios() {
    let (n, t) = (32u64, 16u64);
    for scenario in scenarios(t) {
        let report = run_checked(ProtocolD::processes(n, t).unwrap(), &scenario, n);
        let f = u64::from(report.metrics.crashes);
        // The fallback case is the weaker envelope; it covers both.
        let b = theorems::protocol_d_fallback(n, t, f);
        assert!(report.metrics.work_total <= b.work, "{}", scenario.label());
        assert!(report.metrics.messages <= b.messages, "{}", scenario.label());
        assert!(report.metrics.rounds <= b.rounds, "{}", scenario.label());
    }
}

#[test]
fn baselines_all_scenarios() {
    let (n, t) = (32u64, 16u64);
    for scenario in scenarios(t) {
        run_checked(ReplicateAll::processes(n, t).unwrap(), &scenario, n);
        run_checked(Lockstep::processes(n, t).unwrap(), &scenario, n);
        run_checked(NaiveSpread::processes(n, t).unwrap(), &scenario, n);
    }
}

/// §2.3's whole point: under the worst dead-on-arrival pattern, Protocol B
/// finishes in O(n + t) rounds while Protocol A needs Θ(nt + t²).
#[test]
fn protocol_b_beats_a_on_takeover_latency() {
    let (n, t) = (64u64, 64u64);
    let scenario = Scenario::DeadOnArrival { k: t - 1 };
    let a = run_checked(ProtocolA::processes(n, t).unwrap(), &scenario, n);
    let b = run_checked(ProtocolB::processes(n, t).unwrap(), &scenario, n);
    assert!(
        b.metrics.rounds.get() * 10 < a.metrics.rounds.get(),
        "B ({}) should be an order of magnitude faster than A ({})",
        b.metrics.rounds,
        a.metrics.rounds
    );
}

/// §6: in the failure-free case Protocol D takes n/t + 2 rounds — the
/// sequential protocols can never beat n rounds.
#[test]
fn protocol_d_is_the_time_winner_without_failures() {
    let (n, t) = (64u64, 16u64);
    let scenario = Scenario::FailureFree;
    let d = run_checked(ProtocolD::processes(n, t).unwrap(), &scenario, n);
    let b = run_checked(ProtocolB::processes(n, t).unwrap(), &scenario, n);
    assert_eq!(d.metrics.rounds, n / t + 2);
    assert!(d.metrics.rounds.get() < b.metrics.rounds.get() / 10);
}

/// Work-optimality separates the suite from replicate-all, and
/// message-optimality from lockstep, on the same workload.
#[test]
fn effort_ranking_matches_section_1() {
    let (n, t) = (64u64, 16u64);
    let scenario = Scenario::Random { seed: 5, p: 0.02, max_crashes: (t - 1) as u32 };
    let rep = run_checked(ReplicateAll::processes(n, t).unwrap(), &scenario, n);
    let lock = run_checked(Lockstep::processes(n, t).unwrap(), &scenario, n);
    let b = run_checked(ProtocolB::processes(n, t).unwrap(), &scenario, n);
    assert!(b.metrics.effort() < rep.metrics.effort());
    assert!(b.metrics.effort() < lock.metrics.effort());
}

/// The asynchronous Protocol A (§2.1) does the same work and sends the
/// same messages as the synchronous one in the failure-free case,
/// regardless of message delays.
#[test]
fn async_protocol_a_matches_synchronous_counts() {
    use doall::sim::asynch::{run_async, AsyncConfig};
    use doall::AsyncProtocolA;

    let (n, t) = (32u64, 16u64);
    let sync_report = run_checked(ProtocolA::processes(n, t).unwrap(), &Scenario::FailureFree, n);
    for seed in 0..5 {
        let cfg = AsyncConfig { max_delay: 11, ..AsyncConfig::new(n as usize, seed) };
        let async_report =
            run_async(AsyncProtocolA::processes(n, t).unwrap(), doall::sim::NoFailures, cfg)
                .unwrap();
        assert!(async_report.metrics.all_work_done());
        assert_eq!(async_report.metrics.work_total, sync_report.metrics.work_total);
        assert_eq!(async_report.metrics.messages, sync_report.metrics.messages);
    }
}

// ---- Beyond fail-stop: recovery, slowdown, and omission faults ----

/// The fault scenarios every protocol must survive: crash-recovery (stale
/// and wiped, low and mid pid), degraded mode, and both omission sides.
fn fault_scenarios(t: u64) -> Vec<Scenario> {
    vec![
        Scenario::CrashRecovery { pid: 0, round: 3, downtime: 5, wipe: false },
        Scenario::CrashRecovery { pid: 0, round: 2, downtime: 8, wipe: true },
        Scenario::CrashRecovery { pid: t / 2, round: 4, downtime: 6, wipe: false },
        Scenario::Slowdown { pid: 0, from: 2, factor: 4, rounds: 16 },
        Scenario::Slowdown { pid: 1, from: 1, factor: 2, rounds: 8 },
        Scenario::Omission { pid: 0, send: true, from: 1, rounds: 6 },
        Scenario::Omission { pid: 1, send: false, from: 2, rounds: 6 },
    ]
}

/// Runs a fault scenario (adversary half + wrapper half) and checks the
/// beyond-fail-stop safety contract: every task still gets performed, no
/// task completed before the fault is lost from the final report, a
/// recovering process never acts during its downtime window, and a
/// degraded process never steps faster than its rate.
fn run_faulted<P: Protocol>(procs: Vec<P>, scenario: &Scenario, n: u64) -> Report
where
    P::Msg: 'static,
{
    let plan = scenario.fault_plan(Plane::Sync);
    let report = run(plan.wrap(procs), plan, RunConfig::new(n as usize, u64::MAX - 1).with_trace())
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.label()));
    assert!(
        report.metrics.all_work_done(),
        "{}: missing units {:?}",
        scenario.label(),
        report.metrics.missing_units()
    );
    // No completed task reported lost: every unit the trace shows
    // performed — including before a crash or inside a fault window —
    // is still present in the final coverage.
    for event in report.trace.events() {
        if let Event::Work { unit, .. } = event {
            assert!(
                report.metrics.work_by_unit[unit.get() - 1] > 0,
                "{}: unit {unit} performed but reported lost",
                scenario.label()
            );
        }
    }
    let silence = check_recovery_silence(&report.trace);
    assert!(silence.is_empty(), "{}: {silence:?}", scenario.label());
    if let Scenario::Slowdown { pid, from, factor, rounds } = *scenario {
        let rate = check_degraded_rate(
            &report.trace,
            Pid::new(pid as usize),
            Round::from(from),
            Round::from(from + rounds),
            factor,
        );
        assert!(rate.is_empty(), "{}: {rate:?}", scenario.label());
    }
    report
}

#[test]
fn protocol_a_fault_scenarios() {
    let (n, t) = (32u64, 16u64);
    for scenario in fault_scenarios(t) {
        run_faulted(ProtocolA::processes(n, t).unwrap(), &scenario, n);
    }
    // A shape only the padded constructor takes: (30, 13) runs as (32, 16)
    // with three virtual processes and two phantom units.
    let (n, t) = (30u64, 13u64);
    for scenario in fault_scenarios(t) {
        run_faulted(ProtocolA::processes_padded(n, t).unwrap(), &scenario, n);
    }
}

/// A stale crash-recovery that preempts the very step that retires the
/// last process: p0 of a `(4, 1)` system works rounds 1–4 and would
/// terminate with its checkpoint in round 5; the crash swallows that
/// terminate, and on rejoining at round 7 it must retire again. The
/// hand-copied padded machine had no recovery hook and deadlocked here.
#[test]
fn stale_recovery_over_the_final_step_still_retires() {
    use doall::sim::faults::{FaultKind, FaultPlan};

    let fault = FaultKind::CrashRecover { pid: Pid::new(0), downtime: 2, wipe: false };
    for procs in [ProtocolA::processes(4, 1).unwrap(), ProtocolA::processes_padded(4, 1).unwrap()] {
        let plan = FaultPlan::new([fault.clone().at(5u64)]);
        let report = run(plan.wrap(procs), plan, RunConfig::new(4, 100).with_trace()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.rounds, 7u64);
        assert_eq!(report.metrics.work_total, 4);
    }
}

/// The padded constructor's twin: on every shape the strict constructor
/// accepts nothing pads, so the two must produce the same `Report`, trace
/// included, under the whole fail-stop and beyond-fail-stop grids — the
/// same shapes `tests/properties.rs` draws its `ab_shape()` from.
#[test]
fn padded_constructor_equals_strict_on_every_valid_shape() {
    let traced = |procs: Vec<ProtocolA>, scenario: &Scenario, n: u64| {
        let plan = scenario.fault_plan(Plane::Sync);
        run(plan.wrap(procs), plan, RunConfig::new(n as usize, u64::MAX - 1).with_trace())
            .map_err(|e| e.to_string())
    };
    for (s, k) in (1u64..=6).flat_map(|s| (1u64..=6).map(move |k| (s, k))) {
        let (n, t) = (s * s * k, s * s);
        for scenario in scenarios(t).into_iter().chain(fault_scenarios(t)) {
            let strict = traced(ProtocolA::processes(n, t).unwrap(), &scenario, n);
            let padded = traced(ProtocolA::processes_padded(n, t).unwrap(), &scenario, n);
            assert_eq!(padded, strict, "({n}, {t}) {}", scenario.label());
        }
    }
}

#[test]
fn protocol_b_fault_scenarios() {
    let (n, t) = (32u64, 16u64);
    for scenario in fault_scenarios(t) {
        run_faulted(ProtocolB::processes(n, t).unwrap(), &scenario, n);
    }
}

#[test]
fn protocol_c_fault_scenarios() {
    let (n, t) = (16u64, 8u64);
    for scenario in fault_scenarios(t) {
        run_faulted(ProtocolC::processes(n, t).unwrap(), &scenario, n);
        run_faulted(ProtocolC::processes_prime(n, t).unwrap(), &scenario, n);
    }
}

#[test]
fn protocol_d_fault_scenarios() {
    let (n, t) = (32u64, 16u64);
    for scenario in fault_scenarios(t) {
        run_faulted(ProtocolD::processes(n, t).unwrap(), &scenario, n);
    }
}

#[test]
fn baselines_fault_scenarios() {
    let (n, t) = (32u64, 16u64);
    for scenario in fault_scenarios(t) {
        run_faulted(ReplicateAll::processes(n, t).unwrap(), &scenario, n);
        run_faulted(Lockstep::processes(n, t).unwrap(), &scenario, n);
        run_faulted(NaiveSpread::processes(n, t).unwrap(), &scenario, n);
    }
}

/// The asynchronous plane under the same fault vocabulary: recovery,
/// quarter-rate degradation, and omission windows, with the downtime
/// silence checked on the trace.
#[test]
fn async_protocols_fault_scenarios() {
    use doall::sim::asynch::{run_async, AsyncConfig};
    use doall::{AsyncProtocolA, AsyncProtocolB};

    let (n, t) = (32u64, 16u64);
    let scenarios = vec![
        Scenario::CrashRecovery { pid: 0, round: 10, downtime: 30, wipe: false },
        Scenario::CrashRecovery { pid: 0, round: 8, downtime: 50, wipe: true },
        Scenario::Slowdown { pid: 0, from: 2, factor: 4, rounds: 8 },
        Scenario::Omission { pid: 0, send: true, from: 5, rounds: 30 },
        Scenario::Omission { pid: 1, send: false, from: 5, rounds: 30 },
    ];
    for scenario in scenarios {
        for seed in 0..3 {
            let cfg = AsyncConfig {
                max_delay: 7,
                max_events: 1_000_000,
                ..AsyncConfig::new(n as usize, seed)
            }
            .with_trace();
            let plan = scenario.fault_plan(Plane::Async);
            let label = scenario.label();
            let report_a = run_async(
                plan.wrap_async(AsyncProtocolA::processes(n, t).unwrap()),
                plan.clone(),
                cfg.clone(),
            )
            .unwrap_or_else(|e| panic!("{label} seed {seed} (A): {e}"));
            assert!(report_a.metrics.all_work_done(), "{label} seed {seed} (A)");
            let silence = check_recovery_silence(&report_a.trace);
            assert!(silence.is_empty(), "{label} seed {seed} (A): {silence:?}");
            let report_b = run_async(
                plan.wrap_async(AsyncProtocolB::processes(n, t).unwrap()),
                plan.clone(),
                cfg,
            )
            .unwrap_or_else(|e| panic!("{label} seed {seed} (B): {e}"));
            assert!(report_b.metrics.all_work_done(), "{label} seed {seed} (B)");
            let silence = check_recovery_silence(&report_b.trace);
            assert!(silence.is_empty(), "{label} seed {seed} (B): {silence:?}");
        }
    }
}

/// Determinism: identical configurations and scenarios yield identical
/// metrics — the property that makes every other test meaningful.
#[test]
fn runs_are_reproducible() {
    let (n, t) = (32u64, 16u64);
    let scenario = Scenario::Random { seed: 11, p: 0.03, max_crashes: (t - 1) as u32 };
    let r1 = run_checked(ProtocolB::processes(n, t).unwrap(), &scenario, n);
    let r2 = run_checked(ProtocolB::processes(n, t).unwrap(), &scenario, n);
    assert_eq!(r1.metrics, r2.metrics);
    assert_eq!(r1.trace, r2.trace);
}
