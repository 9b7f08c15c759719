//! Systematic cut-point exploration: crash the initially-active process at
//! *every* possible operation index (each work unit, each sending round,
//! with full / empty / prefix delivery), and assert correctness plus the
//! structural invariants at each cut. This is the deterministic complement
//! to the random storms in `properties.rs` — every handoff edge the
//! Lemma 2.2 / 2.7 / 3.4 proofs reason about gets exercised.

use doall::bounds::theorems;
use doall::sim::invariants::{check_activation_order, check_single_active};
use doall::sim::{run, CrashSpec, Deliver, FaultPlan, Pid, Round, RunConfig, Trigger};
use doall::{ProtocolA, ProtocolB, ProtocolC, ProtocolD};

fn cut_rule(nth_send: u64, deliver: Deliver) -> FaultPlan {
    FaultPlan::default().crash_on(
        Trigger::NthSendRoundBy { pid: Pid::new(0), nth: nth_send },
        CrashSpec { deliver, count_work: true },
    )
}

fn work_cut_rule(nth: u64) -> FaultPlan {
    FaultPlan::default().crash_on(
        Trigger::NthWorkBy { pid: Pid::new(0), nth },
        CrashSpec { deliver: Deliver::None, count_work: true },
    )
}

#[test]
fn protocol_a_every_send_cut_point() {
    let (n, t) = (16u64, 16u64);
    // p0's failure-free run has t + 2·√t(√t−1) = 40 sending rounds.
    for nth in 1..=40 {
        for deliver in [Deliver::All, Deliver::None, Deliver::Prefix(1), Deliver::Prefix(2)] {
            let report = run(
                ProtocolA::processes(n, t).unwrap(),
                cut_rule(nth, deliver.clone()),
                RunConfig::new(n as usize, 1_000_000).with_trace(),
            )
            .unwrap();
            assert!(report.metrics.all_work_done(), "cut {nth} {deliver:?}");
            let b = theorems::protocol_a(n, t);
            assert!(report.metrics.work_total <= b.work, "cut {nth} {deliver:?}");
            assert!(report.metrics.rounds <= b.rounds, "cut {nth} {deliver:?}");
            assert!(check_single_active(&report.trace).is_empty(), "cut {nth} {deliver:?}");
            assert!(check_activation_order(&report.trace).is_empty(), "cut {nth} {deliver:?}");
        }
    }
}

#[test]
fn protocol_a_every_work_cut_point() {
    let (n, t) = (16u64, 16u64);
    for nth in 1..=n {
        let report = run(
            ProtocolA::processes(n, t).unwrap(),
            work_cut_rule(nth),
            RunConfig::new(n as usize, 1_000_000).with_trace(),
        )
        .unwrap();
        assert!(report.metrics.all_work_done(), "work cut {nth}");
        // Exactly the unreported tail of the interrupted subchunk is redone.
        assert!(report.metrics.work_total <= n + n / t, "work cut {nth}");
        assert!(check_single_active(&report.trace).is_empty(), "work cut {nth}");
    }
}

#[test]
fn protocol_b_every_send_cut_point() {
    let (n, t) = (16u64, 16u64);
    for nth in 1..=40 {
        for deliver in [Deliver::All, Deliver::None, Deliver::Prefix(1)] {
            let report = run(
                ProtocolB::processes(n, t).unwrap(),
                cut_rule(nth, deliver.clone()),
                RunConfig::new(n as usize, 1_000_000).with_trace(),
            )
            .unwrap();
            assert!(report.metrics.all_work_done(), "cut {nth} {deliver:?}");
            let b = theorems::protocol_b(n, t);
            assert!(report.metrics.work_total <= b.work, "cut {nth} {deliver:?}");
            assert!(
                report.metrics.rounds <= b.rounds,
                "cut {nth} {deliver:?}: {} > {}",
                report.metrics.rounds,
                b.rounds
            );
            assert!(check_single_active(&report.trace).is_empty(), "cut {nth} {deliver:?}");
            assert!(check_activation_order(&report.trace).is_empty(), "cut {nth} {deliver:?}");
        }
    }
}

#[test]
fn protocol_b_two_stage_cuts() {
    // Crash p0 at cut i, then the taker p1 at cut k of its own schedule:
    // the double-handoff edges (including go_ahead polling interleavings).
    let (n, t) = (16u64, 16u64);
    for i in [1u64, 3, 5, 9] {
        for k in [1u64, 2, 4, 7] {
            let adv = FaultPlan::default()
                .crash_on(
                    Trigger::NthSendRoundBy { pid: Pid::new(0), nth: i },
                    CrashSpec::prefix(1),
                )
                .crash_on(
                    Trigger::NthSendRoundBy { pid: Pid::new(1), nth: k },
                    CrashSpec::prefix(2),
                );
            let report = run(
                ProtocolB::processes(n, t).unwrap(),
                adv,
                RunConfig::new(n as usize, 1_000_000).with_trace(),
            )
            .unwrap();
            assert!(report.metrics.all_work_done(), "cuts ({i},{k})");
            assert!(check_single_active(&report.trace).is_empty(), "cuts ({i},{k})");
            assert!(check_activation_order(&report.trace).is_empty(), "cuts ({i},{k})");
        }
    }
}

#[test]
fn protocol_c_every_send_cut_point() {
    let (n, t) = (8u64, 4u64);
    for nth in 1..=16 {
        for deliver in [Deliver::All, Deliver::None, Deliver::Prefix(1)] {
            let report = run(
                ProtocolC::processes(n, t).unwrap(),
                cut_rule(nth, deliver.clone()),
                RunConfig::new(n as usize, u64::MAX - 1).with_trace(),
            )
            .unwrap();
            assert!(report.metrics.all_work_done(), "cut {nth} {deliver:?}");
            let b = theorems::protocol_c(n, t);
            assert!(report.metrics.work_total <= b.work, "cut {nth} {deliver:?}");
            assert!(report.metrics.messages <= b.messages, "cut {nth} {deliver:?}");
            assert!(check_single_active(&report.trace).is_empty(), "cut {nth} {deliver:?}");
        }
    }
}

#[test]
fn protocol_d_every_agreement_cut_point() {
    // Crash p0 during each round of the first agreement phase with varying
    // delivery subsets — the EBA edges.
    let (n, t) = (30u64, 6u64);
    let work_rounds = n / t;
    for offset in 0..4u64 {
        for deliver in [Deliver::All, Deliver::None, Deliver::Prefix(2), Deliver::Prefix(4)] {
            let adv = FaultPlan::default().crash_on(
                Trigger::AtRound { pid: Pid::new(0), round: Round::from(work_rounds + 1 + offset) },
                CrashSpec { deliver: deliver.clone(), count_work: true },
            );
            let report = run(
                ProtocolD::processes(n, t).unwrap(),
                adv,
                RunConfig::new(n as usize, 1_000_000).with_trace(),
            )
            .unwrap();
            assert!(report.metrics.all_work_done(), "offset {offset} {deliver:?}");
            assert!(
                report.metrics.work_total <= 2 * n,
                "offset {offset} {deliver:?}: work {}",
                report.metrics.work_total
            );
        }
    }
}

#[test]
fn coordinator_d_every_phase_cut_point() {
    // Crash the coordinator at each round of the first phase (work,
    // collection, decision): the broadcast fallback must always recover.
    let (n, t) = (30u64, 6u64);
    for round in 1..=(n / t + 4) {
        for deliver in [Deliver::All, Deliver::None, Deliver::Prefix(1)] {
            let adv = FaultPlan::default().crash_on(
                Trigger::AtRound { pid: Pid::new(0), round: Round::from(round) },
                CrashSpec { deliver: deliver.clone(), count_work: true },
            );
            let report = run(
                ProtocolD::processes_with_coordinator(n, t).unwrap(),
                adv,
                RunConfig::new(n as usize, 1_000_000).with_trace(),
            )
            .unwrap();
            assert!(report.metrics.all_work_done(), "round {round} {deliver:?}");
            assert!(
                report.metrics.work_total <= 3 * n,
                "round {round} {deliver:?}: split-brain waste {}",
                report.metrics.work_total
            );
        }
    }
}
