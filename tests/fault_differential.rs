//! The fault subsystem's zero-cost guarantee, locked down differentially:
//! a [`FaultPlan`] with **zero** faults — adversary half *and* wrapper
//! half — must be invisible, producing bit-identical reports to the
//! plain engine with [`NoFailures`] on both execution planes, for every
//! protocol, across randomly drawn shapes and seeds.
//!
//! Anything the fault layer touches unconditionally (extra RNG draws,
//! queue events, metric counters, trace entries, message reordering)
//! breaks these tests — which is the point: faults must pay only when
//! injected.

use doall::sim::asynch::{run_async, AsyncConfig, AsyncProtocol};
use doall::sim::{run, FaultPlan, NoFailures, Protocol, RunConfig};
use doall::{
    AsyncProtocolA, AsyncProtocolB, Lockstep, NaiveSpread, ProtocolA, ProtocolB, ProtocolC,
    ProtocolD, ReplicateAll,
};
use proptest::prelude::*;

/// Valid Protocol A/B shapes: t a perfect square, t | n, n >= t.
fn ab_shape() -> impl Strategy<Value = (u64, u64)> {
    (1u64..=6, 1u64..=6).prop_map(|(s, k)| {
        let t = s * s;
        (t * k, t)
    })
}

/// Runs `procs` twice on the synchronous plane — plain engine vs the
/// zero-fault plan with wrapped processes — and demands bit identity.
fn assert_sync_invisible<P, F>(mk: F, n: u64, label: &str)
where
    P: Protocol,
    P::Msg: 'static,
    F: Fn() -> Vec<P>,
{
    let cfg = || RunConfig::new(n as usize, u64::MAX - 1).with_trace();
    let plain = run(mk(), NoFailures, cfg()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let plan = FaultPlan::default();
    let faulted = run(plan.wrap(mk()), plan, cfg()).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(plain, faulted, "{label}: zero-fault run diverged from the plain engine");
}

/// The asynchronous analogue of [`assert_sync_invisible`].
fn assert_async_invisible<P, F>(mk: F, n: u64, seed: u64, label: &str)
where
    P: AsyncProtocol,
    P::Msg: 'static,
    F: Fn() -> Vec<P>,
{
    let cfg = || {
        AsyncConfig { max_delay: 7, max_events: 1_000_000, ..AsyncConfig::new(n as usize, seed) }
            .with_trace()
    };
    let plain = run_async(mk(), NoFailures, cfg()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let plan = FaultPlan::default();
    let faulted =
        run_async(plan.wrap_async(mk()), plan, cfg()).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(plain, faulted, "{label}: zero-fault run diverged from the plain engine");
}

#[test]
fn zero_fault_plan_is_invisible_on_every_sync_protocol() {
    let (n, t) = (32u64, 16u64);
    assert_sync_invisible(|| ProtocolA::processes(n, t).unwrap(), n, "A");
    assert_sync_invisible(|| ProtocolB::processes(n, t).unwrap(), n, "B");
    assert_sync_invisible(|| ProtocolC::processes(16, 8).unwrap(), 16, "C");
    assert_sync_invisible(|| ProtocolC::processes_prime(16, 8).unwrap(), 16, "C'");
    assert_sync_invisible(|| ProtocolD::processes(n, t).unwrap(), n, "D");
    assert_sync_invisible(|| ReplicateAll::processes(n, t).unwrap(), n, "replicate-all");
    assert_sync_invisible(|| Lockstep::processes(n, t).unwrap(), n, "lockstep");
    assert_sync_invisible(|| NaiveSpread::processes(n, t).unwrap(), n, "naive-spread");
}

#[test]
fn zero_fault_plan_is_invisible_on_every_async_protocol() {
    let (n, t) = (32u64, 16u64);
    for seed in 0..4 {
        assert_async_invisible(|| AsyncProtocolA::processes(n, t).unwrap(), n, seed, "async A");
        assert_async_invisible(|| AsyncProtocolB::processes(n, t).unwrap(), n, seed, "async B");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Synchronous plane: zero-fault bit identity over random shapes.
    #[test]
    fn sync_zero_fault_identity_over_shapes((n, t) in ab_shape()) {
        assert_sync_invisible(|| ProtocolA::processes(n, t).unwrap(), n, "A");
        assert_sync_invisible(|| ProtocolB::processes(n, t).unwrap(), n, "B");
    }

    /// Asynchronous plane: zero-fault bit identity over random shapes and
    /// delay seeds (the RNG stream must be untouched by the fault layer).
    #[test]
    fn async_zero_fault_identity_over_shapes((n, t) in ab_shape(), seed in any::<u64>()) {
        assert_async_invisible(|| AsyncProtocolA::processes(n, t).unwrap(), n, seed, "async A");
        assert_async_invisible(|| AsyncProtocolB::processes(n, t).unwrap(), n, seed, "async B");
    }
}
