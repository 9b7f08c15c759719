//! Operations: the unit a pass is made of. One operation is one engine run
//! (protocol construction → engine construction → run → report), driven
//! either bare — exactly the calls a user makes — or traced, with the
//! [`Spanned`] wrappers in place and a real interval recorded around every
//! call the benchmark makes into a layer.

use std::sync::OnceLock;
use std::thread::ThreadId;
use std::time::Instant;

use doall_bounds::Bounds;
use doall_sim::asynch::{
    run_async, AsyncAdversary, AsyncConfig, AsyncEngine, AsyncProtocol, AsyncReport, AsyncRunError,
};
use doall_sim::{
    run, Adversary, Engine, MemBudget, Metrics, Protocol, Report, Round, RunConfig, RunError,
};

use crate::span::{take_tallies, Spanned, Tallies};

/// Nanoseconds since the first call in this process (the trace's time base).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// How a pass is being driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Untraced: the only variant end-to-end metrics are taken from.
    Bare,
    /// Wrappers in place, a span per call into a layer.
    Spans,
    /// A workload-specific comparison pass of a traced run (the other shard
    /// count, trace recording off, the same jobs run directly, …).
    Twin(u8),
}

/// Which engine an operation ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plane {
    Sync,
    Async,
    /// Bookkeeping rows (fleet verdict counters) that ran no engine.
    NoEngine,
}

/// What one operation produced — everything the correctness gate compares.
#[derive(Debug)]
pub struct Outcome {
    /// Operations sharing a label are compared as one group.
    pub label: &'static str,
    pub plane: Plane,
    /// The run's counters (all zero when the run errored or none took place).
    pub metrics: Metrics,
    pub survivors: u64,
    /// Rounds (sync) or timestamp batches (async) the engine executed.
    pub executed: u64,
    pub mem: MemBudget,
    pub trace_events: u64,
    /// Do-All contract and trace-invariant violations found by the oracle.
    pub violations: u64,
    pub error: Option<String>,
    /// The theorem bound this run must stay within, if one applies.
    pub bound: Option<Bounds>,
    /// Further exact counters compared alongside the metrics.
    pub extra: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn empty(label: &'static str, plane: Plane) -> Outcome {
        Outcome {
            label,
            plane,
            metrics: Metrics::default(),
            survivors: 0,
            executed: 0,
            mem: MemBudget::default(),
            trace_events: 0,
            violations: 0,
            error: None,
            bound: None,
            extra: Vec::new(),
        }
    }

    pub fn failed(label: &'static str, plane: Plane, error: String) -> Outcome {
        Outcome { error: Some(error), ..Outcome::empty(label, plane) }
    }

    pub fn of_sync(label: &'static str, report: Report) -> Outcome {
        Outcome {
            survivors: report.survivor_count() as u64,
            executed: report.executed_rounds,
            mem: report.mem,
            trace_events: report.trace.len() as u64,
            metrics: report.metrics,
            ..Outcome::empty(label, Plane::Sync)
        }
    }

    pub fn of_async(label: &'static str, report: AsyncReport) -> Outcome {
        Outcome {
            survivors: report.survivor_count() as u64,
            executed: report.executed,
            mem: report.mem,
            trace_events: report.trace.len() as u64,
            metrics: report.metrics,
            ..Outcome::empty(label, Plane::Async)
        }
    }

    pub fn bounded(mut self, bound: Option<Bounds>) -> Outcome {
        self.bound = bound;
        self
    }

    /// Measured work and messages over the theorem bound (0 without one).
    pub fn bound_ratios(&self) -> (f64, f64) {
        self.bound.map_or((0.0, 0.0), |b| {
            (
                self.metrics.work_total as f64 / b.work.max(1) as f64,
                self.metrics.messages as f64 / b.messages.max(1) as f64,
            )
        })
    }

    /// Whether this operation, taken alone, counts as failed: it errored,
    /// the oracle found a violation, or it exceeded its theorem bound.
    pub fn failed_alone(&self) -> bool {
        let (work, msgs) = self.bound_ratios();
        self.error.is_some() || self.violations > 0 || work > 1.0 || msgs > 1.0
    }
}

/// The calls into a layer the benchmark itself makes (span names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    CoreBuild,
    WorkloadLower,
    FaultsPlan,
    EngineNew,
    EngineRun,
    EngineReport,
    EngineSnapshot,
    EngineResume,
    AsynchNew,
    AsynchRun,
    AsynchReport,
    ChaosGenerate,
    ChaosOracle,
    ChaosShrink,
    SweepMap,
    ServiceArrivals,
    ServiceSubmit,
    ServiceRun,
    ServiceOverload,
    ServiceDirect,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::CoreBuild => "core.build",
            Phase::WorkloadLower => "workload.lower",
            Phase::FaultsPlan => "faults.plan",
            Phase::EngineNew => "engine.new",
            Phase::EngineRun => "engine.run",
            Phase::EngineReport => "engine.report",
            Phase::EngineSnapshot => "engine.snapshot",
            Phase::EngineResume => "engine.resume",
            Phase::AsynchNew => "asynch.new",
            Phase::AsynchRun => "asynch.run",
            Phase::AsynchReport => "asynch.report",
            Phase::ChaosGenerate => "chaos.generate",
            Phase::ChaosOracle => "chaos.oracle",
            Phase::ChaosShrink => "chaos.shrink",
            Phase::SweepMap => "sweep.map",
            Phase::ServiceArrivals => "service.arrivals",
            Phase::ServiceSubmit => "service.submit",
            Phase::ServiceRun => "service.run",
            Phase::ServiceOverload => "service.overload",
            Phase::ServiceDirect => "service.direct",
        }
    }

    /// Whether the engine's calls back into protocol and adversary code
    /// happen inside this phase (so the aggregated children hang off it).
    pub fn hosts_callbacks(self) -> bool {
        matches!(self, Phase::EngineRun | Phase::AsynchRun)
    }
}

/// The flat record a traced operation leaves behind; spans are built from
/// it after the pass, off the clock.
#[derive(Debug)]
pub struct OpTrace {
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub phases: Vec<(Phase, u64, u64)>,
    pub tallies: Tallies,
    /// Threads the engine's callbacks ran on (the shard count); busy time
    /// summed over lanes covers `1/lanes` of it on the wall clock.
    pub lanes: u64,
    /// The thread the operation ran on (sweep workers differ).
    pub thread: ThreadId,
    /// Async runs only: whether the event queue was the calendar
    /// (max_delay ≤ 64) rather than the heap.
    pub calendar: Option<bool>,
    /// Copied from the outcome so rates are computed where the time is.
    pub messages: u64,
    pub executed: u64,
    /// Calls a compound phase stands for (oracle runs of a shrink search).
    pub calls: u64,
}

/// Times the phases of one traced operation.
#[derive(Debug)]
pub struct Recorder {
    label: &'static str,
    start_ns: u64,
    phases: Vec<(Phase, u64, u64)>,
}

impl Recorder {
    pub fn start(label: &'static str) -> Recorder {
        Recorder { label, start_ns: now_ns(), phases: Vec::with_capacity(8) }
    }

    pub fn phase<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let r = f();
        self.phases.push((phase, start, now_ns()));
        r
    }

    /// Closes the operation: drains this thread's wrapper tallies and
    /// copies the rate denominators from `outcome`.
    pub fn finish(self, outcome: &Outcome, lanes: u64, calendar: Option<bool>) -> OpTrace {
        OpTrace {
            label: self.label,
            start_ns: self.start_ns,
            end_ns: now_ns(),
            phases: self.phases,
            tallies: take_tallies(),
            lanes,
            thread: std::thread::current().id(),
            calendar,
            messages: outcome.metrics.messages,
            executed: outcome.executed,
            calls: 1,
        }
    }
}

/// State threaded through one pass.
#[derive(Debug)]
pub struct Ctx {
    pub variant: Variant,
    /// Whether operations run with wrappers and phase timing. Set for the
    /// `Spans` variant; a twin pass may switch it on for a replay.
    pub traced: bool,
    /// Engine lanes of the sharded workload and sweep workers of the chaos
    /// campaign: `min(nproc, 4)`, fixed at start and passed explicitly.
    pub threads: usize,
    /// Traced operations of this pass, in completion order.
    pub traces: Vec<OpTrace>,
    /// Pass-level phases (generation, the sweep's wall interval, …).
    pub pass_phases: Vec<(Phase, u64, u64)>,
    salt: u64,
}

impl Ctx {
    pub fn new(variant: Variant, threads: usize, salt: u64) -> Ctx {
        let traced = variant == Variant::Spans;
        Ctx { variant, traced, threads, traces: Vec::new(), pass_phases: Vec::new(), salt }
    }

    /// A fresh sampling-phase salt, so successive operations (and passes)
    /// time different call ordinals of each process.
    pub fn next_salt(&mut self) -> u64 {
        self.salt = self.salt.wrapping_add(7);
        self.salt
    }

    /// Times a pass-level phase when tracing; a plain call otherwise.
    pub fn pass_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Ctx) -> R) -> R {
        if !self.traced {
            return f(self);
        }
        let start = now_ns();
        let r = f(self);
        self.pass_phases.push((phase, start, now_ns()));
        r
    }
}

/// Drives wrapped processes through the sync engine, a phase per call.
pub fn drive_sync<P, A>(
    rec: &mut Recorder,
    procs: Vec<P>,
    adversary: A,
    cfg: RunConfig,
) -> Result<Report, RunError>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
{
    let mut engine = rec.phase(Phase::EngineNew, || Engine::new(procs, adversary, cfg))?;
    rec.phase(Phase::EngineRun, || engine.run_until(None))?;
    let (report, procs) = rec.phase(Phase::EngineReport, || engine.into_report());
    drop(procs);
    Ok(report)
}

/// Drives wrapped processes through the async engine, a phase per call.
pub fn drive_async<P, A>(
    rec: &mut Recorder,
    procs: Vec<P>,
    adversary: A,
    cfg: AsyncConfig,
) -> Result<AsyncReport, AsyncRunError>
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
{
    let mut engine = rec.phase(Phase::AsynchNew, || AsyncEngine::new(procs, adversary, cfg))?;
    rec.phase(Phase::AsynchRun, || engine.run_until(None))?;
    Ok(rec.phase(Phase::AsynchReport, || engine.into_report()))
}

/// One synchronous operation: `build` constructs the processes, `lower`
/// the adversary; bare it is `doall_sim::run`, traced it is the same calls
/// one by one with wrappers in place.
pub fn sync_op<P, A>(
    ctx: &mut Ctx,
    label: &'static str,
    cfg: RunConfig,
    bound: Option<Bounds>,
    build: impl FnOnce() -> Vec<P>,
    lower: impl FnOnce() -> A,
) -> Outcome
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg>,
{
    let finish = |result: Result<Report, RunError>| match result {
        Ok(report) => Outcome::of_sync(label, report).bounded(bound),
        Err(e) => Outcome::failed(label, Plane::Sync, e.to_string()),
    };
    if !ctx.traced {
        return finish(run(build(), lower(), cfg));
    }
    let lanes = cfg.shards.map_or(1, |s| s.get() as u64);
    let salt = ctx.next_salt();
    let mut rec = Recorder::start(label);
    let procs = Spanned::protocols(rec.phase(Phase::CoreBuild, build), salt);
    let adversary = Spanned::adversary(rec.phase(Phase::WorkloadLower, lower), salt);
    let outcome = finish(drive_sync(&mut rec, procs, adversary, cfg));
    ctx.traces.push(rec.finish(&outcome, lanes, None));
    outcome
}

/// One asynchronous operation, the peer of [`sync_op`].
pub fn async_op<P, A>(
    ctx: &mut Ctx,
    label: &'static str,
    cfg: AsyncConfig,
    bound: Option<Bounds>,
    build: impl FnOnce() -> Vec<P>,
    lower: impl FnOnce() -> A,
) -> Outcome
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
{
    let finish = |result: Result<AsyncReport, AsyncRunError>| match result {
        Ok(report) => Outcome::of_async(label, report).bounded(bound),
        Err(e) => Outcome::failed(label, Plane::Async, e.to_string()),
    };
    if !ctx.traced {
        return finish(run_async(build(), lower(), cfg));
    }
    let calendar = Some(cfg.max_delay <= 64);
    let salt = ctx.next_salt();
    let mut rec = Recorder::start(label);
    let procs = Spanned::handlers(rec.phase(Phase::CoreBuild, build), salt);
    let adversary = Spanned::adversary(rec.phase(Phase::WorkloadLower, lower), salt);
    let outcome = finish(drive_async(&mut rec, procs, adversary, cfg));
    ctx.traces.push(rec.finish(&outcome, 1, calendar));
    outcome
}

/// Times `f` as `phase` when a recorder is present; a plain call otherwise.
pub fn lap<R>(rec: &mut Option<Recorder>, phase: Phase, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.phase(phase, f),
        None => f(),
    }
}

/// A checkpoint round-trip: run to `pause`, deep-copy the engine into a
/// snapshot, resume from the copy and finish. The report must equal the
/// uninterrupted run's; the correctness gate checks that by giving both
/// operations the same expected counts.
pub fn snapshot_op<P, A>(
    ctx: &mut Ctx,
    label: &'static str,
    cfg: RunConfig,
    pause: Round,
    build: impl FnOnce() -> Vec<P>,
    adversary: A,
) -> Outcome
where
    P: Protocol + Send + Clone,
    P::Msg: Send + Sync,
    A: Adversary<P::Msg> + Clone,
{
    fn round_trip<P, A>(
        rec: &mut Option<Recorder>,
        procs: Vec<P>,
        adversary: A,
        cfg: RunConfig,
        pause: Round,
    ) -> Result<Report, RunError>
    where
        P: Protocol + Send + Clone,
        P::Msg: Send + Sync,
        A: Adversary<P::Msg> + Clone,
    {
        let mut engine = lap(rec, Phase::EngineNew, || Engine::new(procs, adversary, cfg))?;
        if !lap(rec, Phase::EngineRun, || engine.run_until(Some(pause)))? {
            let snapshot = lap(rec, Phase::EngineSnapshot, || engine.snapshot());
            engine = lap(rec, Phase::EngineResume, || Engine::resume(snapshot));
            lap(rec, Phase::EngineRun, || engine.run_until(None))?;
        }
        Ok(lap(rec, Phase::EngineReport, || engine.into_report()).0)
    }
    let finish = |result: Result<Report, RunError>| match result {
        Ok(report) => Outcome::of_sync(label, report),
        Err(e) => Outcome::failed(label, Plane::Sync, e.to_string()),
    };
    if !ctx.traced {
        return finish(round_trip(&mut None, build(), adversary, cfg, pause));
    }
    let salt = ctx.next_salt();
    let mut rec = Some(Recorder::start(label));
    let procs = Spanned::protocols(lap(&mut rec, Phase::CoreBuild, build), salt);
    let adversary = Spanned::adversary(adversary, salt);
    let outcome = finish(round_trip(&mut rec, procs, adversary, cfg, pause));
    ctx.traces.push(rec.expect("set above").finish(&outcome, 1, None));
    outcome
}
