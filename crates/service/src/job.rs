//! [`JobSpec`]: one builder for a Do-All job, runnable on either plane —
//! directly ([`JobSpec::run`] / [`JobSpec::run_async`]) or submitted to a
//! [`Session`](crate::Session) as a boxed [`Job`]. Both paths funnel
//! through the same private execution routines, which is what makes a job
//! served through the pool bit-identical to a direct engine run.

use std::fmt;

use doall_sim::asynch::{
    run_async, AsyncAdversary, AsyncConfig, AsyncProtocol, AsyncReport, AsyncRunError, DelayDist,
};
use doall_sim::chaos::Plane;
use doall_sim::{
    run, Adversary, FaultKind, FaultPlan, Metrics, Protocol, Report, Round, RunConfig, RunError,
};
use doall_workload::Scenario;

/// A complete description of one Do-All job: the per-process protocol
/// state machines, the failure [`Scenario`], and the engine limits of
/// both planes. Terminal calls pick the plane:
///
/// * [`run`](JobSpec::run) / [`run_with`](JobSpec::run_with) — the
///   synchronous round engine;
/// * [`run_async`](JobSpec::run_async) /
///   [`run_async_with`](JobSpec::run_async_with) — the event-driven
///   engine, honouring the [`seed`](JobSpec::seed) and
///   [`delay`](JobSpec::delay) knobs;
/// * [`into_job`](JobSpec::into_job) /
///   [`into_async_job`](JobSpec::into_async_job) — a boxed [`Job`] for a
///   [`Session`](crate::Session)'s shared pool.
///
/// Scenarios whose [`FaultPlan`](doall_sim::FaultPlan) carries `Slow*`
/// faults are wrapped automatically
/// ([`FaultPlan::wrap`](doall_sim::FaultPlan::wrap) /
/// [`wrap_async`](doall_sim::FaultPlan::wrap_async)), so a
/// [`Scenario::Slowdown`] job needs no manual wrapping.
///
/// # Examples
///
/// ```
/// use doall_core::ProtocolB;
/// use doall_service::JobSpec;
/// use doall_workload::Scenario;
///
/// let report = JobSpec::new(ProtocolB::processes(64, 16)?, 64)
///     .scenario(Scenario::Random { seed: 7, p: 0.02, max_crashes: 15 })
///     .run()?;
/// assert!(report.metrics.all_work_done());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct JobSpec<P> {
    procs: Vec<P>,
    n: usize,
    scenario: Scenario,
    max_rounds: Round,
    record_trace: bool,
    stall_window: Option<u64>,
    seed: u64,
    delay: Option<(DelayDist, u64)>,
    max_events: Option<u64>,
    deadline: Option<u128>,
    label: String,
}

impl<P> JobSpec<P> {
    /// A failure-free job over `procs` performing `n` units, with the
    /// engine defaults of both planes.
    pub fn new(procs: Vec<P>, n: usize) -> Self {
        JobSpec {
            procs,
            n,
            scenario: Scenario::FailureFree,
            max_rounds: Round::MAX,
            record_trace: false,
            stall_window: None,
            seed: 0,
            delay: None,
            max_events: None,
            deadline: None,
            label: "job".into(),
        }
    }

    /// Sets the failure scenario (default: [`Scenario::FailureFree`]).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Caps the round count (sync) — exceeding it is a
    /// [`RunError::RoundLimit`]. Default: [`Round::MAX`].
    pub fn max_rounds(mut self, max_rounds: impl Into<Round>) -> Self {
        self.max_rounds = max_rounds.into();
        self
    }

    /// Enables trace recording on either plane.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Arms the stall / livelock watchdog of either plane.
    pub fn stall_window(mut self, window: u64) -> Self {
        self.stall_window = Some(window);
        self
    }

    /// **Accepted and ignored**: the sync engine has one round pipeline
    /// (DESIGN.md §2.12), so the argument changes nothing. Kept only
    /// because the frozen `benchmark/` crate still calls it.
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Seeds the async plane's delay randomness (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the async plane's delay distribution and bound.
    pub fn delay(mut self, dist: DelayDist, max_delay: u64) -> Self {
        self.delay = Some((dist, max_delay));
        self
    }

    /// Caps the async plane's handler invocations.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Declares a completion deadline in virtual time **from submission**,
    /// checked by the [`Session`](crate::Session) (queueing delay counts
    /// against it); a miss is recorded, never pre-rejected. Direct runs
    /// ignore it.
    pub fn deadline(mut self, deadline: u128) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Names the job in fleet records (default `"job"`).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The job's system size `t` — the pool slots it occupies.
    pub fn t(&self) -> usize {
        self.procs.len()
    }

    /// The sync-plane [`RunConfig`] this spec compiles to.
    fn run_config(&self) -> RunConfig {
        let mut cfg = RunConfig::new(self.n, self.max_rounds);
        cfg.record_trace = self.record_trace;
        cfg.stall_window = self.stall_window;
        cfg
    }

    /// The async-plane [`AsyncConfig`] this spec compiles to.
    fn async_config(&self) -> AsyncConfig {
        let mut cfg = AsyncConfig::new(self.n, self.seed);
        if let Some((dist, max_delay)) = self.delay {
            cfg = cfg.with_delay(dist, max_delay);
        }
        cfg.record_trace = self.record_trace;
        cfg.stall_window = self.stall_window;
        if let Some(max_events) = self.max_events {
            cfg.max_events = max_events;
        }
        cfg
    }
}

/// Whether a plan needs the `Degraded` wrappers.
fn has_slow(plan: &FaultPlan) -> bool {
    plan.faults()
        .iter()
        .any(|f| matches!(f.kind, FaultKind::Slow { .. } | FaultKind::SlowQuarter(_)))
}

/// The single synchronous execution routine behind both [`JobSpec::run`]
/// and the service loop — bit-identity by construction.
fn execute_sync<P>(procs: Vec<P>, scenario: &Scenario, cfg: RunConfig) -> Result<Report, RunError>
where
    P: Protocol,
    P::Msg: 'static,
{
    let plan = scenario.fault_plan(Plane::Sync);
    if has_slow(&plan) {
        run(plan.wrap(procs), plan, cfg)
    } else {
        run(procs, scenario.adversary::<P::Msg>(), cfg)
    }
}

/// The single asynchronous execution routine behind both
/// [`JobSpec::run_async`] and the service loop.
fn execute_async<P>(
    procs: Vec<P>,
    scenario: &Scenario,
    cfg: AsyncConfig,
) -> Result<AsyncReport, AsyncRunError>
where
    P: AsyncProtocol,
    P::Msg: 'static,
{
    let plan = scenario.fault_plan(Plane::Async);
    if has_slow(&plan) {
        run_async(plan.wrap_async(procs), plan, cfg)
    } else {
        run_async(procs, scenario.async_adversary::<P::Msg>(), cfg)
    }
}

impl<P> JobSpec<P>
where
    P: Protocol + Send + 'static,
    P::Msg: 'static,
{
    /// Runs the job on the **synchronous** round engine.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`RunError`] (round limit, stall, invalid
    /// adversary).
    pub fn run(self) -> Result<Report, RunError> {
        let cfg = self.run_config();
        execute_sync(self.procs, &self.scenario, cfg)
    }

    /// Runs on the synchronous engine under a **custom adversary**,
    /// ignoring the spec's scenario — the escape hatch for adversaries
    /// with no [`Scenario`] name.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`RunError`].
    pub fn run_with<A>(self, adversary: A) -> Result<Report, RunError>
    where
        A: Adversary<P::Msg>,
    {
        let cfg = self.run_config();
        run(self.procs, adversary, cfg)
    }

    /// Boxes this spec as a synchronous-plane [`Job`] for a
    /// [`Session`](crate::Session).
    pub fn into_job(self) -> Job {
        let (label, slots, deadline) = (self.label.clone(), self.t(), self.deadline);
        let cfg = self.run_config();
        let (procs, scenario) = (self.procs, self.scenario);
        Job {
            label,
            slots,
            deadline,
            thunk: Box::new(move || {
                execute_sync(procs, &scenario, cfg).map(JobReport::Sync).map_err(JobError::Sync)
            }),
        }
    }
}

impl<P> JobSpec<P>
where
    P: AsyncProtocol + Send + 'static,
    P::Msg: 'static,
{
    /// Runs the job on the **asynchronous** event-driven engine.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`AsyncRunError`].
    pub fn run_async(self) -> Result<AsyncReport, AsyncRunError> {
        let cfg = self.async_config();
        execute_async(self.procs, &self.scenario, cfg)
    }

    /// Runs on the asynchronous engine under a custom
    /// [`AsyncAdversary`], ignoring the spec's scenario.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`AsyncRunError`].
    pub fn run_async_with<A>(self, adversary: A) -> Result<AsyncReport, AsyncRunError>
    where
        A: AsyncAdversary<P::Msg>,
    {
        let cfg = self.async_config();
        run_async(self.procs, adversary, cfg)
    }

    /// Boxes this spec as an asynchronous-plane [`Job`] for a
    /// [`Session`](crate::Session).
    pub fn into_async_job(self) -> Job {
        let (label, slots, deadline) = (self.label.clone(), self.t(), self.deadline);
        let cfg = self.async_config();
        let (procs, scenario) = (self.procs, self.scenario);
        Job {
            label,
            slots,
            deadline,
            thunk: Box::new(move || {
                execute_async(procs, &scenario, cfg).map(JobReport::Async).map_err(JobError::Async)
            }),
        }
    }
}

/// A plane-erased, ready-to-run job: what a [`Session`](crate::Session)
/// queues and executes. Built by [`JobSpec::into_job`] /
/// [`JobSpec::into_async_job`].
pub struct Job {
    pub(crate) label: String,
    pub(crate) slots: usize,
    pub(crate) deadline: Option<u128>,
    pub(crate) thunk: Box<dyn FnOnce() -> Result<JobReport, JobError> + Send>,
}

impl Job {
    /// The job's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Pool slots the job occupies while running (its system size `t`).
    pub fn slots(&self) -> usize {
        self.slots
    }
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("label", &self.label)
            .field("slots", &self.slots)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

/// The outcome of one job run, from either plane.
#[derive(Clone, Debug, PartialEq)]
pub enum JobReport {
    /// A synchronous-engine [`Report`].
    Sync(Report),
    /// An asynchronous-engine [`AsyncReport`].
    Async(AsyncReport),
}

impl JobReport {
    /// The engine metrics (the async `rounds` field holds the final
    /// timestamp).
    pub fn metrics(&self) -> &Metrics {
        match self {
            JobReport::Sync(r) => &r.metrics,
            JobReport::Async(r) => &r.metrics,
        }
    }

    /// The job's service time in virtual rounds / time units.
    pub fn rounds(&self) -> u128 {
        self.metrics().rounds.get()
    }

    /// The synchronous report, if this job ran on the round engine.
    pub fn as_sync(&self) -> Option<&Report> {
        match self {
            JobReport::Sync(r) => Some(r),
            JobReport::Async(_) => None,
        }
    }

    /// The asynchronous report, if this job ran on the event engine.
    pub fn as_async(&self) -> Option<&AsyncReport> {
        match self {
            JobReport::Sync(_) => None,
            JobReport::Async(r) => Some(r),
        }
    }
}

/// An engine error from either plane, surfaced in a
/// [`JobRecord`](crate::JobRecord).
#[derive(Debug)]
pub enum JobError {
    /// The synchronous engine failed.
    Sync(RunError),
    /// The asynchronous engine failed.
    Async(AsyncRunError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Sync(e) => write!(f, "sync engine: {e}"),
            JobError::Async(e) => write!(f, "async engine: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_sim::{Classify, Effects, Inbox, Unit};

    struct OneUnit(usize);

    #[derive(Clone, Debug)]
    struct NoMsg;
    impl Classify for NoMsg {}

    impl Protocol for OneUnit {
        type Msg = NoMsg;
        fn step(&mut self, _: Round, _: Inbox<'_, NoMsg>, eff: &mut Effects<NoMsg>) {
            eff.perform(Unit::new(self.0 + 1));
            eff.terminate();
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }

    #[test]
    fn jobspec_runs_and_boxes_identically() {
        let spec = || JobSpec::new((0..4).map(OneUnit).collect(), 4).label("unit");
        let direct = spec().run().unwrap();
        assert!(direct.metrics.all_work_done());
        let job = spec().into_job();
        assert_eq!(job.label(), "unit");
        assert_eq!(job.slots(), 4);
        let boxed = (job.thunk)().unwrap();
        assert_eq!(boxed.as_sync().unwrap(), &direct);
    }

    #[test]
    fn slowdown_scenarios_wrap_automatically() {
        let spec = JobSpec::new((0..4).map(OneUnit).collect(), 4).scenario(Scenario::Slowdown {
            pid: 0,
            from: 1,
            factor: 4,
            rounds: 8,
        });
        let report = spec.run().unwrap();
        assert!(report.metrics.all_work_done());
    }
}
