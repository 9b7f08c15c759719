//! `chaos_campaign`: many tiny traced runs under random fault plans, fanned
//! over the work-stealing sweep. Cells are built exactly as
//! `crates/bench/src/bin/chaos.rs` builds them — plan → `validate` →
//! `wrap`/`wrap_async` → run with the trace on and a 4096-step stall window
//! → Do-All contract + the four trace invariants — plus the shrink search
//! of `perf_baseline`'s `chaos/shrink_b` cell.

use std::cell::Cell;

use doall_bench::sweep;
use doall_core::{AsyncProtocolA, AsyncProtocolB, ProtocolA, ProtocolB, ProtocolC, ProtocolD};
use doall_sim::asynch::{run_async, AsyncConfig, AsyncProtocol, DelayDist};
use doall_sim::chaos::{contract_violations, shrink, ChaosCase, ChaosConfig, Plane as ChaosPlane};
use doall_sim::{invariants, run, Metrics, Protocol, Trace};

use crate::layers::View;
use crate::ops::{
    drive_async, drive_sync, lap, Ctx, OpTrace, Outcome, Phase, Plane, Recorder, Variant,
};
use crate::span::Spanned;
use crate::workloads::{sync_cfg, Env, Workload};

/// Executed-round (sync) / virtual-time (async) no-progress window before
/// the watchdog declares livelock — the campaign driver's value.
const STALL_WINDOW: u64 = 4_096;

/// The campaign driver's protocol × plane grid.
const GRID: [(&str, ChaosPlane); 6] = [
    ("A", ChaosPlane::Sync),
    ("B", ChaosPlane::Sync),
    ("C", ChaosPlane::Sync),
    ("D", ChaosPlane::Sync),
    ("A", ChaosPlane::Async),
    ("B", ChaosPlane::Async),
];

/// Seeds of the small segment, `ChaosConfig::new(16, 64)`, full grid.
const SMALL_SEEDS: u64 = 2_000;
/// Seeds of the wide segment, `ChaosConfig::new(64, 256)`, grid without
/// sync C: `ProtocolC::next_wakeup` panics there with "round clock
/// overflow" under `Degraded` (see the README's exclusions).
const WIDE_SEEDS: u64 = 300;
const SHRINK_SEARCHES: u64 = 100;

pub struct ChaosCampaign {
    seed: u64,
}

enum Task {
    Case {
        label: &'static str,
        case: ChaosCase,
        protocol: &'static str,
        plane: ChaosPlane,
    },
    /// Scan seeds from `start` for the first case in which a Protocol B
    /// run crashes somebody, then shrink it under that oracle.
    Shrink {
        start: u64,
    },
}

/// How a case is run: the trace recording of the engine itself (off only
/// in the twin pass that prices it) and the benchmark's own wrappers.
#[derive(Clone, Copy)]
struct Mode {
    record_trace: bool,
    traced: bool,
    salt: u64,
}

/// Trace-level checks shared by both planes (the campaign driver's four).
fn trace_violations(trace: &Trace, n: usize) -> u64 {
    (invariants::check_no_zombie_actions(trace).len()
        + invariants::check_recovery_silence(trace).len()
        + invariants::check_detector_soundness(trace).len()
        + invariants::check_termination_after_completion(trace, n).len()) as u64
}

/// A shape no constructor accepts or a plan the validator rejects: not a
/// failure, but counted.
fn unrunnable(label: &'static str) -> (Outcome, Option<OpTrace>) {
    let mut o = Outcome::empty(label, Plane::NoEngine);
    o.extra.push(("unrunnable", 1));
    (o, None)
}

/// The campaign's oracle: the Do-All contract plus the trace invariants.
fn violations(survivors: usize, metrics: &Metrics, trace: &Trace, n: usize) -> u64 {
    contract_violations(survivors, metrics).len() as u64 + trace_violations(trace, n)
}

fn sync_case<P>(
    label: &'static str,
    case: &ChaosCase,
    mode: Mode,
    build: impl Fn(u64, u64) -> Option<Vec<P>>,
) -> (Outcome, Option<OpTrace>)
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
{
    let mut cfg = sync_cfg(case.n as u64, 1).with_stall_window(STALL_WINDOW);
    cfg.record_trace = mode.record_trace;
    let mut rec = mode.traced.then(|| Recorder::start(label));
    let plan = lap(&mut rec, Phase::FaultsPlan, || case.plan());
    if lap(&mut rec, Phase::FaultsPlan, || plan.validate(case.t)).is_err() {
        return unrunnable(label);
    }
    let Some(procs) = lap(&mut rec, Phase::CoreBuild, || build(case.n as u64, case.t as u64))
    else {
        return unrunnable(label);
    };
    let result = match &mut rec {
        None => run(plan.wrap(procs), plan, cfg),
        // Wrappers go inside `Degraded`, so the slow-window gate is
        // engine-side cost and `core.*` is protocol code only.
        Some(rec) => {
            let procs = Spanned::protocols(procs, mode.salt);
            let procs = rec.phase(Phase::FaultsPlan, || plan.wrap(procs));
            drive_sync(rec, procs, Spanned::adversary(plan, mode.salt), cfg)
        }
    };
    let outcome = match result {
        Ok(report) => {
            let violations = lap(&mut rec, Phase::ChaosOracle, || {
                violations(report.survivor_count(), &report.metrics, &report.trace, case.n)
            });
            Outcome { violations, ..Outcome::of_sync(label, report) }
        }
        Err(e) => Outcome::failed(label, Plane::Sync, format!("liveness: {e}")),
    };
    let trace = rec.map(|rec| rec.finish(&outcome, 1, None));
    (outcome, trace)
}

fn async_case<P>(
    label: &'static str,
    case: &ChaosCase,
    mode: Mode,
    build: impl Fn(u64, u64) -> Option<Vec<P>>,
) -> (Outcome, Option<OpTrace>)
where
    P: AsyncProtocol,
{
    // Uniform delivery delays seeded by the case's own seed.
    let mut cfg = AsyncConfig::new(case.n, case.seed)
        .with_delay(DelayDist::Uniform, 4)
        .with_stall_window(STALL_WINDOW);
    cfg.record_trace = mode.record_trace;
    let mut rec = mode.traced.then(|| Recorder::start(label));
    let plan = lap(&mut rec, Phase::FaultsPlan, || case.plan());
    if lap(&mut rec, Phase::FaultsPlan, || plan.validate(case.t)).is_err() {
        return unrunnable(label);
    }
    let Some(procs) = lap(&mut rec, Phase::CoreBuild, || build(case.n as u64, case.t as u64))
    else {
        return unrunnable(label);
    };
    let result = match &mut rec {
        None => run_async(plan.wrap_async(procs), plan, cfg),
        Some(rec) => {
            let procs = Spanned::handlers(procs, mode.salt);
            let procs = rec.phase(Phase::FaultsPlan, || plan.wrap_async(procs));
            drive_async(rec, procs, Spanned::adversary(plan, mode.salt), cfg)
        }
    };
    let outcome = match result {
        Ok(report) => {
            let violations = lap(&mut rec, Phase::ChaosOracle, || {
                violations(report.survivor_count(), &report.metrics, &report.trace, case.n)
            });
            Outcome { violations, ..Outcome::of_async(label, report) }
        }
        Err(e) => Outcome::failed(label, Plane::Async, format!("liveness: {e}")),
    };
    let trace = rec.map(|rec| rec.finish(&outcome, 1, Some(true)));
    (outcome, trace)
}

/// Dispatches a case to one cell of [`GRID`].
fn grid_case(
    label: &'static str,
    protocol: &str,
    plane: ChaosPlane,
    case: &ChaosCase,
    mode: Mode,
) -> (Outcome, Option<OpTrace>) {
    match (protocol, plane) {
        ("A", ChaosPlane::Sync) => {
            sync_case(label, case, mode, |n, t| ProtocolA::processes(n, t).ok())
        }
        ("B", ChaosPlane::Sync) => {
            sync_case(label, case, mode, |n, t| ProtocolB::processes(n, t).ok())
        }
        ("C", ChaosPlane::Sync) => {
            sync_case(label, case, mode, |n, t| ProtocolC::processes(n, t).ok())
        }
        ("D", ChaosPlane::Sync) => {
            sync_case(label, case, mode, |n, t| ProtocolD::processes(n, t).ok())
        }
        ("A", ChaosPlane::Async) => {
            async_case(label, case, mode, |n, t| AsyncProtocolA::processes(n, t).ok())
        }
        ("B", ChaosPlane::Async) => {
            async_case(label, case, mode, |n, t| AsyncProtocolB::processes(n, t).ok())
        }
        _ => unrunnable(label),
    }
}

/// One shrink search under the `crashes ≥ 1` oracle of a Protocol B run
/// (untraced engine runs, as in `perf_baseline`). The outcome is the
/// minimal case's run; `oracle_runs` counts the engine runs it took.
fn shrink_search(start: u64, traced: bool) -> (Outcome, Option<OpTrace>) {
    const LABEL: &str = "shrink_b";
    let cfg = ChaosConfig::new(16, 64);
    let runs = Cell::new(0u64);
    let run_case = |case: &ChaosCase| {
        runs.set(runs.get() + 1);
        let plan = case.plan();
        plan.validate(case.t).ok()?;
        let procs = plan.wrap(ProtocolB::processes(case.n as u64, case.t as u64).ok()?);
        run(procs, plan, sync_cfg(case.n as u64, 1)).ok()
    };
    let fails = |case: &ChaosCase| run_case(case).is_some_and(|r| r.metrics.crashes >= 1);
    let search = || {
        let case = (start..).map(|s| ChaosCase::generate(s, &cfg)).find(&fails)?;
        run_case(&shrink(&case, &fails))
    };
    let mut rec = traced.then(|| Recorder::start(LABEL));
    let report = lap(&mut rec, Phase::ChaosShrink, search);
    let mut outcome = match report {
        Some(report) => Outcome::of_sync(LABEL, report),
        None => Outcome::failed(LABEL, Plane::Sync, "minimal case is not runnable".into()),
    };
    outcome.extra.push(("oracle_runs", runs.get()));
    let trace = rec.map(|rec| OpTrace { calls: runs.get(), ..rec.finish(&outcome, 1, None) });
    (outcome, trace)
}

impl ChaosCampaign {
    pub fn generate(env: Env) -> ChaosCampaign {
        ChaosCampaign { seed: env.seed }
    }

    /// Every chaos seed, arrival and shrink start derives from `--seed`.
    fn cells(&self) -> Vec<Task> {
        let mut cells = Vec::new();
        let segments = [
            ("grid_16_64", ChaosConfig::new(16, 64), SMALL_SEEDS, 0u64, true),
            ("grid_64_256", ChaosConfig::new(64, 256), WIDE_SEEDS, 1 << 32, false),
        ];
        for (label, cfg, seeds, offset, sync_c) in segments {
            for i in 0..seeds {
                let case = ChaosCase::generate(sweep::cell_seed(self.seed, offset + i), &cfg);
                for (protocol, plane) in GRID {
                    if sync_c || (protocol, plane) != ("C", ChaosPlane::Sync) {
                        cells.push(Task::Case { label, case: case.clone(), protocol, plane });
                    }
                }
            }
        }
        for j in 0..SHRINK_SEARCHES {
            // Kept below 2^32 so the scan can never wrap.
            cells.push(Task::Shrink { start: sweep::cell_seed(self.seed, (2 << 32) + j) >> 32 });
        }
        cells
    }
}

impl Workload for ChaosCampaign {
    fn pass(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        let cells = ctx.pass_phase(Phase::ChaosGenerate, |_| self.cells());
        let base = Mode {
            record_trace: !matches!(ctx.variant, Variant::Twin(_)),
            traced: ctx.traced,
            salt: ctx.next_salt(),
        };
        let workers = ctx.threads;
        let results = ctx.pass_phase(Phase::SweepMap, |_| {
            sweep::map_cells_weighted_with(
                workers,
                cells,
                // The campaign driver's budget proxy: faults, doubled on the
                // async plane; a shrink search is dozens of runs.
                |_, cell| match cell {
                    Task::Case { case, plane, .. } => {
                        (case.faults.len() as u64 + 1)
                            * if *plane == ChaosPlane::Async { 2 } else { 1 }
                    }
                    Task::Shrink { .. } => 64,
                },
                |i, cell| match cell {
                    Task::Case { label, case, protocol, plane } => {
                        let mode = Mode { salt: base.salt.wrapping_add(i as u64), ..base };
                        grid_case(label, protocol, *plane, case, mode)
                    }
                    Task::Shrink { start } => shrink_search(*start, base.traced),
                },
            )
        });
        let mut outcomes = Vec::with_capacity(results.len());
        for (outcome, trace) in results {
            outcomes.push(outcome);
            ctx.traces.extend(trace);
        }
        outcomes
    }

    fn twins(&self) -> u8 {
        1
    }

    fn own_metrics(&self, view: &View<'_>) -> Vec<(&'static str, f64)> {
        let grids = ["grid_16_64", "grid_64_256"];
        vec![
            // What the engine's own trace recording costs the campaign: the
            // twin pass runs with recording off.
            ("trace.cost_pct", (view.ratio("bare", "twin0") - 1.0) * 100.0),
            ("chaos.shrink_runs", view.extra("shrink_b", "oracle_runs")),
            ("chaos.cases", grids.iter().map(|g| view.ops(g)).sum()),
            ("chaos.unrunnable", grids.iter().map(|g| view.extra(g, "unrunnable")).sum()),
        ]
    }
}
