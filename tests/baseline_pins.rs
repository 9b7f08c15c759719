//! Exact-count and engine-memory pins for the cells of the last committed
//! per-cell baseline (PR 10). The engines are deterministic, so a row's
//! `messages` is an equality: any drift is a semantics change. `mem_bytes`
//! is the peak [`MemBudget::engine_bytes`](doall::sim::MemBudget) that
//! baseline recorded for the cell; a run may use at most 1.3× of it. The
//! two `async_storm` rows are pinned lower, at the peak the async engine
//! reaches with retirement notices queued as runs: queuing one event per
//! observer instead costs about 3× (B's dead-on-arrival burst) and fails
//! them.
//!
//! Every row runs through [`JobSpec`], the same front door the service
//! plane and the experiments use. Cells that are not a (shape, scenario)
//! pair are pinned elsewhere: the `t = 2^17` coordinator-D scale cell by
//! `experiments -- e17`, the shrinker search by e16, fleet totals by e18
//! and `tests/service_differential.rs` (served ≡ direct per job).

use doall::sim::asynch::{AsyncProtocol, DelayDist};
use doall::sim::{Metrics, Protocol, Round};
use doall::workload::Scenario;
use doall::{
    AsyncProtocolA, AsyncProtocolB, JobSpec, Lockstep, NaiveSpread, ProtocolA, ProtocolB,
    ProtocolC, ProtocolD, ReplicateAll,
};

#[derive(Clone, Copy)]
enum Proto {
    A,
    B,
    C,
    D,
    DCoordinator,
    ReplicateAll,
    Lockstep,
    NaiveSpread,
}

/// One baseline cell: `proto(n, t)` under `scenario` sends exactly
/// `messages` and peaks at no more than 1.3 × `mem_bytes` engine bytes.
struct Pin {
    id: &'static str,
    proto: Proto,
    n: u64,
    t: u64,
    scenario: Scenario,
    messages: u64,
    mem_bytes: u64,
}

fn check(pin: &Pin, metrics: &Metrics, engine_bytes: u64) {
    let id = pin.id;
    assert!(metrics.all_work_done(), "{id}: work left undone");
    assert_eq!(metrics.messages, pin.messages, "{id}: message count");
    assert!(
        engine_bytes * 10 <= pin.mem_bytes * 13,
        "{id}: peaked at {engine_bytes} engine bytes, over 1.3 x {}",
        pin.mem_bytes
    );
}

fn run_sync(pin: &Pin) {
    fn go<P>(procs: Vec<P>, pin: &Pin)
    where
        P: Protocol + Send + 'static,
        P::Msg: 'static,
    {
        let report = JobSpec::new(procs, pin.n as usize)
            .scenario(pin.scenario.clone())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", pin.id));
        check(pin, &report.metrics, report.mem.engine_bytes());
    }
    let (n, t) = (pin.n, pin.t);
    match pin.proto {
        Proto::A => go(ProtocolA::processes(n, t).unwrap(), pin),
        Proto::B => go(ProtocolB::processes(n, t).unwrap(), pin),
        Proto::C => go(ProtocolC::processes(n, t).unwrap(), pin),
        Proto::D => go(ProtocolD::processes(n, t).unwrap(), pin),
        Proto::DCoordinator => go(ProtocolD::processes_with_coordinator(n, t).unwrap(), pin),
        Proto::ReplicateAll => go(ReplicateAll::processes(n, t).unwrap(), pin),
        Proto::Lockstep => go(Lockstep::processes(n, t).unwrap(), pin),
        Proto::NaiveSpread => go(NaiveSpread::processes(n, t).unwrap(), pin),
    }
}

fn run_async(pin: &Pin) {
    fn go<P>(procs: Vec<P>, pin: &Pin)
    where
        P: AsyncProtocol + Send + 'static,
        P::Msg: 'static,
    {
        let report = JobSpec::new(procs, pin.n as usize)
            .scenario(pin.scenario.clone())
            .seed(7)
            .delay(DelayDist::Uniform, 4)
            .run_async()
            .unwrap_or_else(|e| panic!("{}: {e}", pin.id));
        check(pin, &report.metrics, report.mem.engine_bytes());
    }
    let (n, t) = (pin.n, pin.t);
    match pin.proto {
        Proto::A => go(AsyncProtocolA::processes(n, t).unwrap(), pin),
        Proto::B => go(AsyncProtocolB::processes(n, t).unwrap(), pin),
        _ => unreachable!("{}: no asynchronous implementation", pin.id),
    }
}

const FF: Scenario = Scenario::FailureFree;

#[test]
fn sync_cells_keep_their_counts_and_engine_bytes() {
    let deep_idle = |k| Scenario::DeepIdle { k, round: Round::new(1 << 100) };
    #[rustfmt::skip]
    let pins = [
        Pin { id: "failure_free/protocol_a", proto: Proto::A, n: 64, t: 16, scenario: FF, messages: 132, mem_bytes: 1_016 },
        Pin { id: "failure_free/protocol_b", proto: Proto::B, n: 64, t: 16, scenario: FF, messages: 132, mem_bytes: 1_016 },
        Pin { id: "failure_free/protocol_c", proto: Proto::C, n: 64, t: 16, scenario: FF, messages: 161, mem_bytes: 936 },
        Pin { id: "failure_free/protocol_d", proto: Proto::D, n: 64, t: 16, scenario: FF, messages: 480, mem_bytes: 7_200 },
        Pin { id: "takeover_cascade/protocol_b", proto: Proto::B, n: 64, t: 16, scenario: Scenario::TakeoverCascade { victims: 15 }, messages: 21, mem_bytes: 944 },
        Pin { id: "engine/replicate_all", proto: Proto::ReplicateAll, n: 1_000, t: 16, scenario: FF, messages: 0, mem_bytes: 544 },
        Pin { id: "engine/lockstep", proto: Proto::Lockstep, n: 512, t: 32, scenario: FF, messages: 15_872, mem_bytes: 1_484 },
        Pin { id: "protocol_b_scaling/t256", proto: Proto::B, n: 1_024, t: 256, scenario: Scenario::DeadOnArrival { k: 128 }, messages: 7_327, mem_bytes: 9_816 },
        Pin { id: "failure_free/protocol_b_t256", proto: Proto::B, n: 1_024, t: 256, scenario: FF, messages: 11_280, mem_bytes: 8_248 },
        Pin { id: "fault/omit_send_b", proto: Proto::B, n: 64, t: 16, scenario: Scenario::Omission { pid: 0, send: true, from: 1, rounds: 8 }, messages: 235, mem_bytes: 1_048 },
        Pin { id: "fault/slowdown_b", proto: Proto::B, n: 64, t: 16, scenario: Scenario::Slowdown { pid: 0, from: 2, factor: 4, rounds: 32 }, messages: 238, mem_bytes: 1_032 },
        Pin { id: "fault/recovery_b", proto: Proto::B, n: 64, t: 16, scenario: Scenario::CrashRecovery { pid: 0, round: 3, downtime: 16, wipe: false }, messages: 238, mem_bytes: 1_080 },
        // e16 pins the shrinker search that ends at this case (`crash p8
        // @1` on the smallest legal B shape) and its 132 messages.
        Pin { id: "chaos/shrink_b", proto: Proto::B, n: 16, t: 16, scenario: Scenario::MassExtinction { from: 8, k: 1, round: 1 }, messages: 132, mem_bytes: 1_048 },
        // The straight run; `tests/snapshot_differential.rs` holds a run
        // paused, snapshotted and resumed under such a plan equal to it.
        Pin { id: "snapshot/resume_b", proto: Proto::B, n: 64, t: 16, scenario: Scenario::Chaos { seed: 5, t: 16, n: 64 }, messages: 132, mem_bytes: 1_088 },
        Pin { id: "deep_idle/protocol_c_t256", proto: Proto::C, n: 256, t: 256, scenario: deep_idle(255), messages: 272, mem_bytes: 8_904 },
        Pin { id: "wide_clock/protocol_c_doa_t64", proto: Proto::C, n: 8, t: 64, scenario: Scenario::DeadOnArrival { k: 63 }, messages: 63, mem_bytes: 2_320 },
        Pin { id: "deep_idle/protocol_c_t1024", proto: Proto::C, n: 1_024, t: 1_024, scenario: deep_idle(1_023), messages: 1_044, mem_bytes: 34_344 },
        Pin { id: "peak/protocol_b_t1024", proto: Proto::B, n: 2_048, t: 1_024, scenario: Scenario::DeadOnArrival { k: 1_023 }, messages: 31, mem_bytes: 34_152 },
        Pin { id: "peak/protocol_a_t1024", proto: Proto::A, n: 2_048, t: 1_024, scenario: FF, messages: 94_240, mem_bytes: 30_936 },
        Pin { id: "peak/protocol_d_coord_t1024", proto: Proto::DCoordinator, n: 2_048, t: 1_024, scenario: FF, messages: 2_046, mem_bytes: 132_580 },
        Pin { id: "storm/protocol_b_t1024", proto: Proto::B, n: 4_096, t: 1_024, scenario: Scenario::DeadOnArrival { k: 992 }, messages: 31_775, mem_bytes: 36_196 },
        Pin { id: "storm/naive_spread_t1024", proto: Proto::NaiveSpread, n: 4_096, t: 1_024, scenario: FF, messages: 5_115, mem_bytes: 42_308 },
        Pin { id: "storm/lockstep_t512", proto: Proto::Lockstep, n: 2_048, t: 512, scenario: FF, messages: 1_046_528, mem_bytes: 21_220 },
    ];
    pins.iter().for_each(run_sync);
}

#[test]
fn async_cells_keep_their_counts_and_engine_bytes() {
    #[rustfmt::skip]
    let pins = [
        Pin { id: "async/protocol_a", proto: Proto::A, n: 64, t: 16, scenario: FF, messages: 132, mem_bytes: 2_736 },
        Pin { id: "async/protocol_b", proto: Proto::B, n: 64, t: 16, scenario: FF, messages: 132, mem_bytes: 2_736 },
        Pin { id: "fault_async/recovery_b", proto: Proto::B, n: 64, t: 16, scenario: Scenario::CrashRecovery { pid: 0, round: 9, downtime: 40, wipe: false }, messages: 132, mem_bytes: 2_928 },
        Pin { id: "async_storm/protocol_a_t1024", proto: Proto::A, n: 2_048, t: 1_024, scenario: FF, messages: 94_240, mem_bytes: 336_896 },
        Pin { id: "async_storm/protocol_b_t1024", proto: Proto::B, n: 2_048, t: 1_024, scenario: Scenario::DeadOnArrival { k: 992 }, messages: 31_744, mem_bytes: 2_240_696 },
    ];
    pins.iter().for_each(run_async);
}
