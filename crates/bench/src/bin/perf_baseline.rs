//! Headless perf baseline: runs the criterion-style engine/protocol
//! benchmarks without the bench harness and emits one JSON measurement
//! block (see `BENCH_PR9.json` for the committed baseline).
//!
//! ```sh
//! cargo run --release -p doall-bench --bin perf_baseline              # JSON to stdout
//! cargo run --release -p doall-bench --bin perf_baseline -- --out f.json
//! cargo run --release -p doall-bench --bin perf_baseline -- --smoke   # CI: tiny shapes
//! cargo run --release -p doall-bench --bin perf_baseline -- --smoke --compare BENCH_PR2.json
//! ```
//!
//! `--compare FILE` is the CI regression guard: every measured cell whose
//! id also appears in the baseline file must (a) report **identical
//! message counts** (the simulator is deterministic, so any drift is a
//! correctness bug), (b) be no more than 30% slower in mean wall-clock
//! per iteration (`mean_ms`), and (c) when both sides report a non-zero
//! `mem_bytes` (peak engine bytes: SoA columns + in-flight buffers), use
//! no more than 30% more memory.
//! Any violation exits non-zero. Cells absent from the baseline (new
//! cells, or smoke-shrunk shapes with different ids) are skipped.
//! Any argument other than the ones above is rejected with exit code 2.

use std::time::{Duration, Instant};

use doall_bench::cli;
use doall_core::{
    AsyncProtocolA, AsyncProtocolB, Lockstep, NaiveSpread, ProtocolA, ProtocolB, ProtocolC,
    ProtocolD, ReplicateAll,
};
use doall_sim::asynch::{reference, run_async, AsyncConfig, AsyncProtocol, DelayDist};
use doall_sim::chaos::{shrink, ChaosCase, ChaosConfig};
use doall_sim::{run, Engine, Metrics, NoFailures, Protocol, Round, RunConfig};
use doall_workload::Scenario;

struct Measurement {
    id: String,
    n: u64,
    t: u64,
    scenario: String,
    iters: u64,
    total: Duration,
    metrics: Metrics,
    /// Peak engine bytes (SoA columns + in-flight buffers) of the last run.
    /// Both planes carry the probe; `0` only for the per-recipient-clone
    /// reference scheduler (no engine to meter).
    mem_bytes: u64,
    /// Rounds (sync) or timestamp batches (async) the engine actually
    /// stepped — the denominator for per-round rates. `metrics.rounds` is
    /// the *simulated* clock, which fast-forward jumps can push to 2^100
    /// while the host executes a handful of dense rounds; rating against it
    /// yields nonsense like 0.0 ns/round.
    executed: u64,
}

impl Measurement {
    /// Executed rounds (or async batches) per iteration; falls back to the
    /// simulated clock for runs predating the counter (never in this
    /// binary's own output).
    fn executed_rounds(&self) -> f64 {
        if self.executed > 0 {
            self.executed as f64
        } else {
            self.metrics.rounds.as_f64()
        }
    }

    /// Executed rounds per wall-clock second — host throughput, immune to
    /// fast-forward inflation of the simulated clock.
    fn rounds_per_sec(&self) -> f64 {
        let secs = self.total.as_secs_f64() / self.iters as f64;
        self.executed_rounds() / secs
    }

    fn ns_per_round(&self) -> f64 {
        let ns = self.total.as_nanos() as f64 / self.iters as f64;
        ns / self.executed_rounds()
    }

    /// Mean wall-clock per iteration, in milliseconds — the quantity the
    /// `--compare` regression guard checks (meaningful even for
    /// fast-forward-dominated cells whose ns_per_round rounds to 0).
    fn mean_ms(&self) -> f64 {
        self.total.as_secs_f64() * 1e3 / self.iters as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\"id\": \"{}\", \"n\": {}, \"t\": {}, \"scenario\": \"{}\", ",
                "\"iters\": {}, \"mean_ms\": {:.3}, \"sim_rounds\": {}, ",
                "\"executed_rounds\": {}, ",
                "\"ns_per_round\": {:.1}, \"rounds_per_sec\": {:.0}, ",
                "\"work_total\": {}, \"messages\": {}, \"mem_bytes\": {}}}"
            ),
            self.id,
            self.n,
            self.t,
            self.scenario,
            self.iters,
            self.total.as_secs_f64() * 1e3 / self.iters as f64,
            // Raw count, not Display: the wide-clock hint (`… (2^100)`)
            // would corrupt the JSON.
            self.metrics.rounds.get(),
            self.executed,
            self.ns_per_round(),
            self.rounds_per_sec(),
            self.metrics.work_total,
            self.metrics.messages,
            self.mem_bytes,
        )
    }
}

/// Warm up once, then iterate for at least 5 iterations *and* at least
/// ~250 ms (whichever keeps going longer), capped by `max_iters` — the
/// floor stops a single noisy fast iteration from tripping the 30%
/// `--compare` gate, the cap keeps the giant scale cells to one timed
/// run. `run_once` returns the run's metrics, its peak engine bytes (`0`
/// where no probe exists), and the executed round/batch count; all runs
/// are deterministic, so every iteration yields identical values.
fn measure_with(
    id: String,
    n: u64,
    t: u64,
    label: String,
    max_iters: u64,
    run_once: impl Fn() -> (Metrics, u64, u64),
) -> Measurement {
    let budget = Duration::from_millis(250);
    let min_iters = 5u64;
    eprintln!("running {id} (n={n}, t={t}, {label})...");
    let (mut metrics, mut mem_bytes, mut executed) = run_once(); // warmup
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < max_iters && (iters < min_iters || start.elapsed() < budget) {
        (metrics, mem_bytes, executed) = run_once();
        iters += 1;
    }
    Measurement {
        id,
        n,
        t,
        scenario: label,
        iters,
        total: start.elapsed(),
        metrics,
        mem_bytes,
        executed,
    }
}

fn measure<P, F>(
    id: impl Into<String>,
    n: u64,
    t: u64,
    scenario: &Scenario,
    max_iters: u64,
    build: F,
) -> Measurement
where
    P: Protocol,
    P::Msg: 'static,
    F: Fn() -> Vec<P>,
{
    measure_with(id.into(), n, t, scenario.label(), max_iters, || {
        let report =
            run(build(), scenario.adversary::<P::Msg>(), RunConfig::new(n as usize, Round::MAX))
                .expect("benchmark run must complete");
        (report.metrics, report.mem.engine_bytes(), report.executed_rounds)
    })
}

/// [`measure`] for the asynchronous plane: `arena` picks the production
/// op-arena engine or the per-recipient-clone reference scheduler (the
/// `async_storm_ref/*` "before" cells).
#[allow(clippy::too_many_arguments)] // mirrors `measure` plus the cfg + engine pick
fn measure_async<P, F>(
    id: impl Into<String>,
    n: u64,
    t: u64,
    scenario: &Scenario,
    cfg: AsyncConfig,
    max_iters: u64,
    arena: bool,
    build: F,
) -> Measurement
where
    P: AsyncProtocol,
    P::Msg: 'static,
    F: Fn() -> Vec<P>,
{
    measure_with(id.into(), n, t, scenario.label(), max_iters, || {
        let adversary = scenario.async_adversary::<P::Msg>();
        let report = if arena {
            run_async(build(), adversary, cfg.clone())
        } else {
            reference::run_async_reference(build(), adversary, cfg.clone())
        };
        let report = report.expect("benchmark run must complete");
        // The reference scheduler has no engine to meter, so its
        // `mem.engine_bytes()` stays 0 and the --compare memory gate
        // skips it; the op-arena engine reports its real peak.
        (report.metrics, report.mem.engine_bytes(), report.executed)
    })
}

/// The asynchronous cells: a small always-on pair (smoke + full share the
/// shape, so the CI `--compare` gate covers the async plane too) and, in
/// full mode, the broadcast-heavy t = 1024 storm cells measured on both
/// the op-arena engine (`async_storm/*`) and the per-recipient-clone
/// reference scheduler (`async_storm_ref/*` — the "before"). Message
/// counts between each twin pair are asserted bit-identical in `main`.
fn async_cells(smoke: bool) -> Vec<Measurement> {
    // Budget-bound (see `measure_with`): cheap cells fill the 250 ms
    // budget instead of stopping at a noise-dominated handful of runs.
    let iters = u64::MAX;
    let cfg = |n: u64| AsyncConfig::new(n as usize, 7).with_delay(DelayDist::Uniform, 4);
    let ff = Scenario::FailureFree;
    let mut out = vec![
        measure_async("async/protocol_a", 64, 16, &ff, cfg(64), iters, true, || {
            AsyncProtocolA::processes(64, 16).unwrap()
        }),
        measure_async("async/protocol_b", 64, 16, &ff, cfg(64), iters, true, || {
            AsyncProtocolB::processes(64, 16).unwrap()
        }),
        // Fault-catalog cell: crash-recovery on the event-driven plane
        // (revival scheduling, detector replay, dead-lettered downtime).
        measure_async(
            "fault_async/recovery_b",
            64,
            16,
            &Scenario::CrashRecovery { pid: 0, round: 9, downtime: 40, wipe: false },
            cfg(64),
            iters,
            true,
            || AsyncProtocolB::processes(64, 16).unwrap(),
        ),
    ];
    if !smoke {
        // Storm shapes: one active process span-broadcasting its way
        // through t = 1024 (31- and 32-wide checkpoint multicasts), plus
        // the detector's O(t²) notice traffic after 992 crashes.
        let doa = Scenario::DeadOnArrival { k: 992 };
        for (arena, prefix) in [(true, "async_storm"), (false, "async_storm_ref")] {
            out.push(measure_async(
                format!("{prefix}/protocol_a_t1024"),
                2_048,
                1_024,
                &ff,
                cfg(2_048),
                10,
                arena,
                || AsyncProtocolA::processes(2_048, 1_024).unwrap(),
            ));
            out.push(measure_async(
                format!("{prefix}/protocol_b_t1024"),
                2_048,
                1_024,
                &doa,
                cfg(2_048),
                10,
                arena,
                || AsyncProtocolB::processes(2_048, 1_024).unwrap(),
            ));
        }
    }
    out
}

/// The scale cell (PR 8): the e17 giant coordinator-D shape — `t = 2^17`
/// processes stepping through `n = 2^27` units, 134M protocol steps. One
/// timed iteration (a run takes tens of seconds); its `mem_bytes` is the
/// committed peak-engine-memory anchor for the `--compare` gate. The id
/// keeps its historical `_shards1` suffix so committed baselines still
/// match it.
fn scale_cell() -> Measurement {
    let (n, t) = (1u64 << 27, 1u64 << 17);
    measure_with("scale/d_coord_t131072_shards1".into(), n, t, "failure-free".into(), 1, || {
        let cfg = RunConfig::new(n as usize, Round::MAX);
        let report = run(ProtocolD::processes_with_coordinator(n, t).unwrap(), NoFailures, cfg)
            .expect("scale run must complete");
        (report.metrics, report.mem.engine_bytes(), report.executed_rounds)
    })
}

/// `chaos/shrink_b`: times one end-to-end shrinker pass — scan seeds for
/// the first chaos case that crashes somebody in a Protocol B run, then
/// greedily shrink it under that engine-backed oracle (dozens of full
/// runs per pass). Reports the minimal case's run metrics.
fn chaos_shrink_cell(iters: u64) -> Measurement {
    let cfg = ChaosConfig::new(16, 64);
    let run_case = |case: &ChaosCase| -> Option<(Metrics, u64, u64)> {
        let plan = case.plan();
        plan.validate(case.t).ok()?;
        let procs = plan.wrap(ProtocolB::processes(case.n as u64, case.t as u64).ok()?);
        run(procs, plan, RunConfig::new(case.n, Round::MAX))
            .ok()
            .map(|r| (r.metrics, r.mem.engine_bytes(), r.executed_rounds))
    };
    let fails = move |case: &ChaosCase| run_case(case).is_some_and(|(m, ..)| m.crashes >= 1);
    measure_with("chaos/shrink_b".into(), 64, 16, "chaos-shrink(oracle=B)".into(), iters, || {
        let case = (1u64..).map(|s| ChaosCase::generate(s, &cfg)).find(&fails).unwrap();
        let min = shrink(&case, &fails);
        run_case(&min).expect("minimal case must be runnable")
    })
}

/// `snapshot/resume_b`: times a Protocol B run that is paused at round 8,
/// deep-copied into a snapshot, resumed from it, and run to completion —
/// the checkpoint/restore hot path on the sync plane.
fn snapshot_resume_cell(iters: u64) -> Measurement {
    let plan = ChaosCase::generate(5, &ChaosConfig::new(16, 64)).plan();
    measure_with("snapshot/resume_b".into(), 64, 16, "snapshot(pause=8)".into(), iters, || {
        let procs = plan.wrap(ProtocolB::processes(64, 16).unwrap());
        let cfg = RunConfig::new(64, Round::MAX);
        let mut engine = Engine::new(procs, plan.clone(), cfg).expect("plan validates");
        if !engine.run_until(Some(Round::new(8))).expect("run must not stall") {
            engine = Engine::resume(engine.snapshot());
            engine.run_until(None).expect("resumed run must complete");
        }
        let report = engine.into_report().0;
        (report.metrics, report.mem.engine_bytes(), report.executed_rounds)
    })
}

/// `serve/*`: fleet-throughput cells for the service plane (PR 10). One
/// iteration runs a whole [`doall_service::Session`] — arrival sort,
/// admission, the
/// discrete-event schedule, and every job's engine run — so `mean_ms` is
/// the cost of serving the stream end to end. Per-job engine metrics are
/// arrival-independent (each admitted job runs to completion on its own
/// engine), so the summed `messages` count is deterministic and the
/// `--compare` bit-identity gate covers the service plane too; `mem_bytes`
/// stays 0 (no single engine to meter). Always on: smoke and full share
/// the shapes.
fn serve_cells() -> Vec<Measurement> {
    use doall_service::{Admission, ArrivalModel, JobSpec, Pool, Session};

    let iters = u64::MAX;
    let fold = |fleet: &doall_service::FleetReport| {
        let m = Metrics {
            rounds: Round::new(fleet.metrics.horizon),
            work_total: fleet.metrics.work_total,
            messages: fleet.metrics.messages,
            ..Default::default()
        };
        let executed: u64 = fleet
            .records
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|rep| match rep {
                doall_service::JobReport::Sync(r) => r.executed_rounds,
                doall_service::JobReport::Async(r) => r.executed,
            })
            .sum();
        (m, 0u64, executed)
    };
    vec![
        // 200 Protocol B jobs, Poisson arrivals, 3:1 failure-free vs
        // half-dead-on-arrival, four concurrent jobs on a 64-slot pool.
        measure_with(
            "serve/poisson_b_mix200".into(),
            64,
            16,
            "poisson(gap=3) x 200 B jobs".into(),
            iters,
            || {
                let mut session = Session::new(Pool::new(64), Admission::new(200));
                let arrivals = ArrivalModel::Poisson { mean_gap: 3.0 };
                for (i, at) in arrivals.times(18, 200).into_iter().enumerate() {
                    let scenario = if i % 4 == 3 {
                        Scenario::DeadOnArrival { k: 8 }
                    } else {
                        Scenario::FailureFree
                    };
                    let spec =
                        JobSpec::new(ProtocolB::processes(64, 16).unwrap(), 64).scenario(scenario);
                    session.submit(at, spec.into_job());
                }
                let fleet = session.run();
                assert_eq!(fleet.metrics.completed, 200, "ample cap: every job served");
                fold(&fleet)
            },
        ),
        // 100 asynchronous Protocol B jobs under a fixed delay: per-job
        // counts are e14's exact failure-free cell, so the fleet total is
        // an exact multiple — any drift trips the message-identity gate.
        measure_with(
            "serve/poisson_async_b100".into(),
            32,
            16,
            "poisson(gap=5) x 100 async-B jobs".into(),
            iters,
            || {
                let mut session = Session::new(Pool::new(64), Admission::new(100));
                let arrivals = ArrivalModel::Poisson { mean_gap: 5.0 };
                for at in arrivals.times(41, 100) {
                    let spec = JobSpec::new(AsyncProtocolB::processes(32, 16).unwrap(), 32)
                        .delay(DelayDist::Fixed, 1);
                    session.submit(at, spec.into_async_job());
                }
                let fleet = session.run();
                assert_eq!(fleet.metrics.completed, 100, "ample cap: every job served");
                assert_eq!(fleet.metrics.messages, 100 * 132, "e14's exact cell, times 100");
                fold(&fleet)
            },
        ),
    ]
}

fn cells(smoke: bool) -> Vec<Measurement> {
    // Cheap cells are budget-bound (the 250 ms per-cell budget in
    // `measure_with`): micro-runs in the tens of microseconds need
    // thousands of iterations before their mean is stable enough for the
    // --compare regression guard's 30% threshold. Expensive cells below
    // pass explicit small caps instead.
    let iters = u64::MAX;
    // Smoke mode shrinks the big shape so the whole bin finishes fast.
    // (A/B need a perfect-square t; C a power of two: 16, 64, 256, 1024
    // satisfy both.)
    let (t_big, t_mid) = if smoke { (64, 16) } else { (256, 16) };
    let n_of = |t: u64| 4 * t;
    let ff = Scenario::FailureFree;
    let mut out = vec![
        measure("failure_free/protocol_a", n_of(t_mid), t_mid, &ff, iters, || {
            ProtocolA::processes(n_of(t_mid), t_mid).unwrap()
        }),
        measure("failure_free/protocol_b", n_of(t_mid), t_mid, &ff, iters, || {
            ProtocolB::processes(n_of(t_mid), t_mid).unwrap()
        }),
        measure("failure_free/protocol_c", n_of(t_mid), t_mid, &ff, iters, || {
            ProtocolC::processes(n_of(t_mid), t_mid).unwrap()
        }),
        measure("failure_free/protocol_d", n_of(t_mid), t_mid, &ff, iters, || {
            ProtocolD::processes(n_of(t_mid), t_mid).unwrap()
        }),
        measure(
            "takeover_cascade/protocol_b",
            n_of(t_mid),
            t_mid,
            &Scenario::TakeoverCascade { victims: t_mid - 1 },
            iters,
            || ProtocolB::processes(n_of(t_mid), t_mid).unwrap(),
        ),
        measure("engine/replicate_all", 1_000, 16, &ff, iters, || {
            ReplicateAll::processes(1_000, 16).unwrap()
        }),
        measure("engine/lockstep", 512, 32, &ff, iters, || Lockstep::processes(512, 32).unwrap()),
        // The acceptance shape: the `protocols` bench scaling cell at
        // t = 256 (smoke mode shrinks t, so the id is derived from it).
        measure(
            format!("protocol_b_scaling/t{t_big}"),
            n_of(t_big),
            t_big,
            &Scenario::DeadOnArrival { k: t_big / 2 },
            iters,
            || ProtocolB::processes(n_of(t_big), t_big).unwrap(),
        ),
        measure(
            format!("failure_free/protocol_b_t{t_big}"),
            n_of(t_big),
            t_big,
            &ff,
            iters,
            || ProtocolB::processes(n_of(t_big), t_big).unwrap(),
        ),
    ];
    // Fault-catalog cells: the beyond-fail-stop models under the timer.
    // Always on (smoke and full share the shapes), so the CI --compare
    // gate gets a deterministic message count and a timing reference for
    // the omission filter, the degraded wrapper, and the revival path.
    let omit = Scenario::Omission { pid: 0, send: true, from: 1, rounds: 8 };
    out.push(measure("fault/omit_send_b", 64, 16, &omit, iters, || {
        ProtocolB::processes(64, 16).unwrap()
    }));
    let slow = Scenario::Slowdown { pid: 0, from: 2, factor: 4, rounds: 32 };
    out.push(measure("fault/slowdown_b", 64, 16, &slow, iters, || {
        slow.fault_plan().wrap(ProtocolB::processes(64, 16).unwrap())
    }));
    let recover = Scenario::CrashRecovery { pid: 0, round: 3, downtime: 16, wipe: false };
    out.push(measure("fault/recovery_b", 64, 16, &recover, iters, || {
        ProtocolB::processes(64, 16).unwrap()
    }));
    // Robustness-tooling cells (PR 7), always on so the --compare gate
    // covers them: the chaos shrinker driven by an engine-backed oracle,
    // and a mid-run snapshot/resume round-trip. Both report the metrics of
    // their final full run, so message counts stay comparable.
    out.push(chaos_shrink_cell(iters));
    out.push(snapshot_resume_cell(iters));
    // Sparse-jump cells (PR 5): the wide virtual-time clock under load.
    // The deep-idle cell simulates a run that *ends at round 2^100* —
    // ~10^30 rounds crossed in a single O(1) fast-forward jump after the
    // active process finishes (mean_ms measures the dense prefix; the
    // jump itself is free). The t = 64 cell runs honest Protocol C with a
    // straggler parked on its exact ~5.6×10^25-round zero-view deadline.
    out.push(measure(
        "deep_idle/protocol_c_t256",
        256,
        256,
        &Scenario::DeepIdle { k: 255, round: Round::new(1 << 100) },
        iters,
        || ProtocolC::processes(256, 256).unwrap(),
    ));
    out.push(measure(
        "wide_clock/protocol_c_doa_t64",
        8,
        64,
        &Scenario::DeadOnArrival { k: 63 },
        iters,
        || ProtocolC::processes(8, 64).unwrap(),
    ));
    if !smoke {
        out.push(measure(
            "deep_idle/protocol_c_t1024",
            1_024,
            1_024,
            &Scenario::DeepIdle { k: 1_023, round: Round::new(1 << 100) },
            20,
            || ProtocolC::processes(1_024, 1_024).unwrap(),
        ));
        // Peak shapes: affordable only with the allocation-free hot loop.
        out.push(measure(
            "peak/protocol_b_t1024",
            2_048,
            1_024,
            &Scenario::DeadOnArrival { k: 1_023 },
            3,
            || ProtocolB::processes(2_048, 1_024).unwrap(),
        ));
        out.push(measure("peak/protocol_a_t1024", 2_048, 1_024, &ff, 3, || {
            ProtocolA::processes(2_048, 1_024).unwrap()
        }));
        // Broadcast-D's t² view-carrying messages are infeasible at t=1024;
        // the §4 coordinator variant (2(t−1) messages per phase) scales.
        out.push(measure("peak/protocol_d_coord_t1024", 2_048, 1_024, &ff, 3, || {
            ProtocolD::processes_with_coordinator(2_048, 1_024).unwrap()
        }));
        // Message-storm cells: runs whose cost is dominated by the message
        // plane rather than by protocol stepping. Protocol B with only the
        // last group alive spends its rounds on span broadcasts to its own
        // group (one partial checkpoint per subchunk, 31 recipients each);
        // lockstep broadcasts to everyone after every unit; naive-spread
        // fires a unicast per unit plus one final t-wide broadcast.
        out.push(measure(
            "storm/protocol_b_t1024",
            4_096,
            1_024,
            &Scenario::DeadOnArrival { k: 992 },
            20,
            || ProtocolB::processes(4_096, 1_024).unwrap(),
        ));
        out.push(measure("storm/naive_spread_t1024", 4_096, 1_024, &ff, 20, || {
            NaiveSpread::processes(4_096, 1_024).unwrap()
        }));
        out.push(measure("storm/lockstep_t512", 2_048, 512, &ff, 20, || {
            Lockstep::processes(2_048, 512).unwrap()
        }));
        out.push(scale_cell());
    }
    out.extend(async_cells(smoke));
    out.extend(serve_cells());
    out
}

/// Every `async_storm/*` arena cell must report exactly the messages of
/// its `async_storm_ref/*` per-recipient twin: the arena changes the
/// representation, never the semantics. Returns the number of mismatches.
fn check_async_twins(results: &[Measurement]) -> usize {
    let mut mismatches = 0;
    for m in results {
        let Some(suffix) = m.id.strip_prefix("async_storm/") else { continue };
        let Some(twin) = results.iter().find(|r| r.id == format!("async_storm_ref/{suffix}"))
        else {
            continue;
        };
        // Full-struct equality: totals, per-class counts, dead letters,
        // per-unit multiplicities, final timestamp — anything less would
        // let a misclassifying arena path slip past the gate at storm
        // scale (the differential proptest only covers small t).
        if m.metrics != twin.metrics {
            eprintln!(
                "twin check: {}: FAIL arena metrics diverged from reference\n  arena:     {:?}\n  reference: {:?}",
                m.id, m.metrics, twin.metrics,
            );
            mismatches += 1;
        } else {
            eprintln!("twin check: {}: ok (all metrics bit-identical to reference)", m.id);
        }
    }
    mismatches
}

/// One baseline entry scraped from a committed BENCH_*.json file.
struct BaselineEntry {
    id: String,
    mean_ms: f64,
    messages: u64,
    /// Peak engine bytes; absent in pre-PR8 baselines and zero for cells
    /// without the probe — both mean "don't gate memory".
    mem_bytes: u64,
}

/// Extracts `{"id": ..., "mean_ms": ..., "messages": ...}` result objects
/// from one of this binary's own output files (or a committed before/after
/// bundle that embeds them). No vendored JSON parser exists in this offline
/// workspace, so this scrapes the known flat-object format; when an id
/// occurs several times (a bundle's `before` and `after` blocks), the
/// **last** occurrence wins — the bundles list `after` last.
fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    let mut by_id: Vec<BaselineEntry> = Vec::new();
    for obj in text.split('{').filter(|o| o.contains("\"ns_per_round\"")) {
        let field = |key: &str| -> Option<&str> {
            let at = obj.find(&format!("\"{key}\":"))?;
            let rest = obj[at..].split(':').nth(1)?;
            Some(rest.split([',', '}']).next()?.trim())
        };
        let (Some(id), Some(ms), Some(msgs)) = (field("id"), field("mean_ms"), field("messages"))
        else {
            continue;
        };
        let id = id.trim_matches('"').to_string();
        let (Ok(mean_ms), Ok(messages)) = (ms.parse::<f64>(), msgs.parse::<u64>()) else {
            continue;
        };
        let mem_bytes = field("mem_bytes").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        if let Some(e) = by_id.iter_mut().find(|e| e.id == id) {
            e.mean_ms = mean_ms;
            e.messages = messages;
            e.mem_bytes = mem_bytes;
        } else {
            by_id.push(BaselineEntry { id, mean_ms, messages, mem_bytes });
        }
    }
    by_id
}

/// Checks measurements against a baseline file; returns the number of
/// violations (regressions > 30% or message-count drift).
fn compare(results: &[Measurement], baseline_path: &str) -> usize {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = parse_baseline(&text);
    assert!(!baseline.is_empty(), "no result entries found in {baseline_path}");
    let mut violations = 0;
    for m in results {
        let Some(b) = baseline.iter().find(|b| b.id == m.id) else {
            eprintln!("compare: {id}: not in baseline, skipped", id = m.id);
            continue;
        };
        if m.metrics.messages != b.messages {
            eprintln!(
                "compare: {}: FAIL message count drifted ({} != baseline {})",
                m.id, m.metrics.messages, b.messages
            );
            violations += 1;
            continue;
        }
        if b.mem_bytes > 0 && m.mem_bytes > 0 {
            let mem_ratio = m.mem_bytes as f64 / b.mem_bytes as f64;
            if mem_ratio > 1.30 {
                eprintln!(
                    "compare: {}: FAIL {} engine bytes vs baseline {} ({mem_ratio:.2}x > 1.30x)",
                    m.id, m.mem_bytes, b.mem_bytes
                );
                violations += 1;
                continue;
            }
        }
        let ratio = m.mean_ms() / b.mean_ms;
        if ratio > 1.30 {
            eprintln!(
                "compare: {}: FAIL {:.3} ms vs baseline {:.3} ms ({ratio:.2}x > 1.30x)",
                m.id,
                m.mean_ms(),
                b.mean_ms
            );
            violations += 1;
        } else {
            eprintln!("compare: {}: ok ({:.2}x of baseline {:.3} ms)", m.id, ratio, b.mean_ms);
        }
    }
    violations
}

/// Arguments that stand alone.
const FLAGS: [&str; 1] = ["--smoke"];
/// Arguments followed by a value.
const OPTIONS: [&str; 2] = ["--out", "--compare"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = cli::check_args(&args, &FLAGS, &OPTIONS) {
        eprintln!("perf_baseline: {e}");
        std::process::exit(2);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();
    let baseline =
        args.iter().position(|a| a == "--compare").and_then(|i| args.get(i + 1)).cloned();

    let results = cells(smoke);
    let twin_mismatches = check_async_twins(&results);
    if twin_mismatches > 0 {
        eprintln!("twin check: {twin_mismatches} async arena/reference cell(s) drifted");
        std::process::exit(1);
    }
    // `host_cores` stamps the measuring host into the committed baseline.
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let body: Vec<String> = results.iter().map(Measurement::to_json).collect();
    let json = format!(
        "{{\n  \"suite\": \"doall perf baseline\",\n  \"mode\": \"{}\",\n  \"host_cores\": {},\n  \"results\": [\n{}\n  ]\n}}",
        if smoke { "smoke" } else { "full" },
        host_cores,
        body.join(",\n"),
    );
    println!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, format!("{json}\n")).expect("write output file");
        eprintln!("wrote {path}");
    }
    if let Some(path) = baseline {
        let violations = compare(&results, &path);
        if violations > 0 {
            eprintln!("compare: {violations} cell(s) regressed vs {path}");
            std::process::exit(1);
        }
        eprintln!("compare: all measured cells within 30% of {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(args: &[&str]) -> Result<(), String> {
        cli::check_args(args, &FLAGS, &OPTIONS)
    }

    #[test]
    fn documented_flags_pass_and_stale_ones_are_rejected() {
        assert!(check(&[]).is_ok());
        assert!(check(&["--smoke", "--compare", "BENCH_PR10.json"]).is_ok());
        assert!(check(&["--out", "f.json"]).is_ok());
        let err = check(&["--smoke", "--shards", "4"]).unwrap_err();
        assert!(err.contains("`--shards`") && err.contains("--compare VALUE"), "{err}");
        assert!(check(&["--out"]).is_err(), "an option without its value");
    }
}
