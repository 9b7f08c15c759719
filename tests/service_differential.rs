//! The service plane's load-bearing promise: a job served through a
//! [`Session`]'s shared pool is **bit-identical** to a direct engine run —
//! on both planes and under fault plans — and admission control never
//! loses or duplicates a job.

use doall::service::{Admission, ArrivalModel, JobSpec, Pool, Session, Verdict};
use doall::sim::asynch::{run_async, AsyncConfig, DelayDist};
use doall::sim::{run, RunConfig};
use doall::workload::Scenario;
use doall::{AsyncProtocolA, AsyncProtocolB, ProtocolB, ProtocolD};
use proptest::prelude::*;

/// Serves one sync-plane spec through a session and returns its report.
fn serve_sync(spec: JobSpec<ProtocolB>) -> doall::sim::Report {
    let mut session = Session::new(Pool::new(64), Admission::new(2));
    session.submit(5, spec.label("probe").into_job());
    let fleet = session.run();
    let record = fleet.find("probe").expect("served");
    assert_eq!(record.verdict, Verdict::Completed);
    record.report.as_ref().unwrap().as_sync().unwrap().clone()
}

/// Service ≡ direct ≡ legacy `run(...)` under a fault plan on the
/// synchronous plane — and the retained `shards` knobs are inert: any
/// value yields the same `Report` and the same `MemBudget` (`Report`'s
/// equality skips `mem`, so it is compared explicitly).
#[test]
fn sync_service_is_bit_identical_to_direct_run() {
    let (n, t) = (64u64, 16u64);
    let scenarios = [
        Scenario::FailureFree,
        Scenario::DeadOnArrival { k: t / 2 },
        Scenario::CrashRecovery { pid: 0, round: 4, downtime: 6, wipe: true },
    ];
    for scenario in scenarios {
        let spec = || {
            JobSpec::new(ProtocolB::processes(n, t).unwrap(), n as usize)
                .scenario(scenario.clone())
                .with_trace()
        };
        let legacy = |cfg: RunConfig| {
            run(ProtocolB::processes(n, t).unwrap(), scenario.adversary(), cfg.with_trace())
                .unwrap()
        };
        let direct = spec().run().unwrap();
        // The thin shim changes nothing: the legacy entry point with
        // the same adversary produces the same report.
        let cfg = RunConfig::new(n as usize, u64::MAX - 1);
        assert_eq!(direct, legacy(cfg.clone()), "{}: shim drift", scenario.label());
        let served = serve_sync(spec());
        assert_eq!(direct, served, "{}: service drift", scenario.label());
        for k in [0usize, 1, 4, 32] {
            for knobbed in [spec().shards(k).run().unwrap(), legacy(cfg.clone().with_shards(k))] {
                assert_eq!(direct, knobbed, "{} shards={k}: report moved", scenario.label());
                assert_eq!(direct.mem, knobbed.mem, "{} shards={k}: mem moved", scenario.label());
            }
        }
    }
}

/// Slow-fault scenarios (wrapper-enforced) survive the service round trip
/// identically too.
#[test]
fn sync_service_matches_direct_under_slowdown() {
    let (n, t) = (64u64, 16u64);
    let scenario = Scenario::Slowdown { pid: 0, from: 2, factor: 4, rounds: 16 };
    let spec = || {
        JobSpec::new(ProtocolB::processes(n, t).unwrap(), n as usize)
            .scenario(scenario.clone())
            .with_trace()
    };
    let direct = spec().run().unwrap();
    assert!(direct.metrics.all_work_done());
    let served = serve_sync(spec());
    assert_eq!(direct, served);
}

/// Service ≡ direct ≡ legacy `run_async(...)` on the asynchronous plane,
/// failure-free and under a fault plan, across delay seeds.
#[test]
fn async_service_is_bit_identical_to_direct_run() {
    let (n, t) = (32u64, 16u64);
    let scenarios = [
        Scenario::FailureFree,
        Scenario::CrashRecovery { pid: 0, round: 9, downtime: 40, wipe: false },
    ];
    for scenario in scenarios {
        for seed in [0u64, 7, 42] {
            let spec = || {
                JobSpec::new(AsyncProtocolA::processes(n, t).unwrap(), n as usize)
                    .scenario(scenario.clone())
                    .seed(seed)
                    .delay(DelayDist::Uniform, 7)
                    .with_trace()
            };
            let direct = spec().run_async().unwrap();
            let legacy = run_async(
                AsyncProtocolA::processes(n, t).unwrap(),
                scenario.async_adversary(),
                AsyncConfig::new(n as usize, seed).with_delay(DelayDist::Uniform, 7).with_trace(),
            )
            .unwrap();
            assert_eq!(direct, legacy, "{} seed={seed}: shim drift", scenario.label());

            let mut session = Session::new(Pool::new(64), Admission::new(2));
            session.submit(3, spec().label("probe").into_async_job());
            let fleet = session.run();
            let record = fleet.find("probe").expect("served");
            assert_eq!(record.verdict, Verdict::Completed);
            let served = record.report.as_ref().unwrap().as_async().unwrap();
            assert_eq!(&direct, served, "{} seed={seed}: service drift", scenario.label());
        }
    }
}

/// Mixed-plane fleets: both engines' jobs share one pool, every record
/// keeps its own plane's report.
#[test]
fn mixed_plane_fleet_serves_both_engines() {
    let (n, t) = (32u64, 16u64);
    let mut session = Session::new(Pool::new(32), Admission::new(4));
    session.submit(
        0,
        JobSpec::new(ProtocolB::processes(n, t).unwrap(), n as usize).label("sync").into_job(),
    );
    session.submit(
        0,
        JobSpec::new(AsyncProtocolB::processes(n, t).unwrap(), n as usize)
            .seed(7)
            .delay(DelayDist::Uniform, 4)
            .label("async")
            .into_async_job(),
    );
    let fleet = session.run();
    assert_eq!(fleet.metrics.completed, 2);
    assert!(fleet.find("sync").unwrap().report.as_ref().unwrap().as_sync().is_some());
    assert!(fleet.find("async").unwrap().report.as_ref().unwrap().as_async().is_some());
    assert!(fleet.metrics.utilization > 0.0);
}

/// Deterministic backpressure arithmetic: a burst of five single-width
/// jobs into a one-slot pool with a queue cap of 2 admits exactly three.
#[test]
fn backpressure_counts_are_exact() {
    let mut session = Session::new(Pool::new(4), Admission::new(2));
    for i in 0..5 {
        let job =
            JobSpec::new(ProtocolD::processes(4, 4).unwrap(), 4).label(format!("j{i}")).into_job();
        session.submit(0, job);
    }
    let fleet = session.run();
    assert_eq!(fleet.metrics.jobs, 5);
    assert_eq!(fleet.metrics.completed, 3); // 1 starts + 2 queued
    assert_eq!(fleet.metrics.rejected, 2);
    assert_eq!(fleet.metrics.deferred, 2);
    assert_eq!(fleet.metrics.max_queue_depth, 2);
    // FIFO: the earliest submissions win.
    for i in 0..3 {
        assert_eq!(fleet.find(&format!("j{i}")).unwrap().verdict, Verdict::Completed);
    }
}

/// A job wider than the whole pool is rejected outright, not queued.
#[test]
fn oversize_jobs_are_rejected() {
    let mut session = Session::new(Pool::new(8), Admission::new(4));
    session.submit(
        0,
        JobSpec::new(ProtocolD::processes(16, 16).unwrap(), 16).label("wide").into_job(),
    );
    let fleet = session.run();
    assert_eq!(
        fleet.find("wide").unwrap().verdict,
        Verdict::Rejected(doall::service::RejectReason::Oversize)
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Admission/backpressure conservation: however arrivals, pool width,
    /// and the queue cap interact, no job is lost or duplicated — every
    /// submission yields exactly one record, dispositions partition the
    /// stream, and every completed job ran within the session horizon.
    #[test]
    fn admission_never_loses_or_duplicates_jobs(
        jobs in 1usize..24,
        slots_pow in 2u32..6,         // pool of 4..=32 slots
        queue_cap in 0usize..6,
        seed in any::<u64>(),
        model_pick in 0usize..3,
    ) {
        let slots = 1usize << slots_pow;
        let model = match model_pick {
            0 => ArrivalModel::Poisson { mean_gap: 9.0 },
            1 => ArrivalModel::Bursty { burst: 3, period: 40 },
            _ => ArrivalModel::Diurnal { period: 200, peak_gap: 3.0, trough_gap: 30.0 },
        };
        let mut session = Session::new(Pool::new(slots), Admission::new(queue_cap));
        for (i, at) in model.times(seed, jobs).into_iter().enumerate() {
            // Alternate widths so some jobs are oversize for small pools.
            let t = if i % 3 == 0 { 8 } else { 4 };
            let job = JobSpec::new(ProtocolD::processes(2 * t, t).unwrap(), 2 * t as usize)
                .label(format!("j{i}"))
                .into_job();
            session.submit(at, job);
        }
        let fleet = session.run();

        // No loss, no duplication: one record per submission, each label
        // exactly once.
        prop_assert_eq!(fleet.metrics.jobs, jobs);
        prop_assert_eq!(fleet.records.len(), jobs);
        for i in 0..jobs {
            let label = format!("j{i}");
            prop_assert_eq!(
                fleet.records.iter().filter(|r| r.label == label).count(),
                1,
                "label {} duplicated or lost", label
            );
        }
        // Dispositions partition the stream.
        prop_assert_eq!(
            fleet.metrics.completed + fleet.metrics.rejected + fleet.metrics.failed,
            jobs
        );
        // Causality: starts after submission, finishes within the horizon.
        for r in &fleet.records {
            match r.verdict {
                Verdict::Completed => {
                    let started = r.started.unwrap();
                    prop_assert!(started >= r.submitted);
                    prop_assert!(r.finished.unwrap() <= fleet.metrics.horizon);
                    prop_assert!(r.report.is_some());
                }
                Verdict::Rejected(_) => {
                    prop_assert!(r.started.is_none());
                    prop_assert!(r.report.is_none());
                }
                Verdict::Failed => prop_assert!(r.report.is_none()),
            }
        }
        prop_assert_eq!(fleet.metrics.failed, 0, "these jobs cannot fail");
    }
}
