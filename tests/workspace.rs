//! Workspace smoke test: every protocol type re-exported from the crate
//! root constructs through its `processes(n, t)` entry point, and a tiny
//! fault-free run completes with all work done. This is the first test a
//! fresh checkout should pass — if it fails, the workspace wiring (not
//! the protocol logic) is the suspect.

use doall::sim::asynch::{run_async, AsyncConfig};
use doall::sim::{run, NoFailures, Protocol, RunConfig};
use doall::{
    AsyncProtocolA, AsyncProtocolB, AsyncReplicate, Lockstep, NaiveSpread, ProtocolA, ProtocolB,
    ProtocolC, ProtocolD, ReplicateAll,
};

/// Shape valid for every protocol family: `t = 4` is a perfect square
/// (A/B) and a power of two (C), and `t` divides `n`.
const N: u64 = 16;
const T: u64 = 4;

fn smoke<P: Protocol>(name: &str, procs: Vec<P>, n: u64, t: u64) {
    assert_eq!(procs.len(), t as usize, "{name}: one state machine per process");
    let report = run(procs, NoFailures, RunConfig::new(n as usize, u64::MAX - 1))
        .unwrap_or_else(|e| panic!("{name}: fault-free run failed: {e}"));
    assert!(report.metrics.all_work_done(), "{name}: work left undone");
    assert!(report.has_survivor(), "{name}: no survivor in a fault-free run");
    assert_eq!(report.metrics.crashes, 0, "{name}: phantom crashes under NoFailures");
}

#[test]
fn protocol_a_constructs_and_completes() {
    smoke("ProtocolA", ProtocolA::processes(N, T).expect("valid shape"), N, T);
}

#[test]
fn protocol_b_constructs_and_completes() {
    smoke("ProtocolB", ProtocolB::processes(N, T).expect("valid shape"), N, T);
}

#[test]
fn protocol_c_constructs_and_completes() {
    smoke("ProtocolC", ProtocolC::processes(N, T).expect("valid shape"), N, T);
}

#[test]
fn protocol_c_prime_constructs_and_completes() {
    smoke("ProtocolC'", ProtocolC::processes_prime(N, T).expect("valid shape"), N, T);
}

#[test]
fn protocol_d_constructs_and_completes() {
    smoke("ProtocolD", ProtocolD::processes(N, T).expect("valid shape"), N, T);
    // D accepts arbitrary shapes, divisibility not required.
    smoke("ProtocolD(7,3)", ProtocolD::processes(7, 3).expect("valid shape"), 7, 3);
}

#[test]
fn baselines_construct_and_complete() {
    smoke("ReplicateAll", ReplicateAll::processes(N, T).expect("valid shape"), N, T);
    smoke("Lockstep", Lockstep::processes(N, T).expect("valid shape"), N, T);
    smoke("NaiveSpread", NaiveSpread::processes(N, T).expect("valid shape"), N, T);
}

#[test]
fn async_protocol_a_constructs_and_completes() {
    let procs = AsyncProtocolA::processes(N, T).expect("valid shape");
    assert_eq!(procs.len(), T as usize);
    let cfg = AsyncConfig { max_delay: 3, ..AsyncConfig::new(N as usize, 1) };
    let report = run_async(procs, NoFailures, cfg).expect("fault-free async run");
    assert!(report.metrics.all_work_done(), "AsyncProtocolA: work left undone");
    assert!(report.has_survivor());
}

#[test]
fn async_protocol_b_and_replicate_construct_and_complete() {
    for seed in [1u64, 7] {
        let cfg = AsyncConfig { max_delay: 3, ..AsyncConfig::new(N as usize, seed) };
        let report = run_async(
            AsyncProtocolB::processes(N, T).expect("valid shape"),
            NoFailures,
            cfg.clone(),
        )
        .expect("fault-free async run");
        assert!(report.metrics.all_work_done(), "AsyncProtocolB: work left undone");
        let report =
            run_async(AsyncReplicate::processes(N, T).expect("valid shape"), NoFailures, cfg)
                .expect("fault-free async run");
        assert_eq!(report.metrics.work_total, N * T, "AsyncReplicate: everyone does everything");
    }
}

#[test]
fn invalid_shapes_are_rejected_not_panicked() {
    // t = 3 is neither a perfect square (A/B) nor a power of two (C).
    assert!(ProtocolA::processes(9, 3).is_err());
    assert!(ProtocolB::processes(9, 3).is_err());
    assert!(ProtocolC::processes(9, 3).is_err());
}
