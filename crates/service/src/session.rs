//! The virtual-time job-stream scheduler: a [`Session`] multiplexes a
//! stream of [`Job`]s over a shared slot [`Pool`] under an [`Admission`]
//! policy, and reports per-job [`JobRecord`]s plus fleet-wide
//! [`FleetMetrics`].
//!
//! Scheduling is a deterministic discrete-event simulation on the virtual
//! time axis. The rules, in order, at each instant:
//!
//! 1. Completions are processed before arrivals carrying the same
//!    timestamp (freed slots are visible to a simultaneous arrival).
//! 2. The deferred queue is strict FIFO with head-of-line blocking: a job
//!    never overtakes an earlier-queued job, even if it would fit.
//! 3. An arriving job starts immediately only when the queue is empty and
//!    enough slots are free; otherwise it is deferred if the queue has
//!    room, and rejected ([`RejectReason::QueueFull`]) if not. A job
//!    wider than the whole pool is rejected outright
//!    ([`RejectReason::Oversize`]).
//!
//! A job's service time is its engine-reported round count (final virtual
//! timestamp on the async plane), so the fleet clock and the engines'
//! clocks share one unit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use doall_sim::RunError;

use crate::job::{Job, JobReport};

/// A shared pool of process slots. A running job occupies as many slots
/// as it has processes (its system size `t`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    slots: usize,
}

impl Pool {
    /// A pool with the given total slot count.
    pub fn new(slots: usize) -> Self {
        Pool { slots }
    }

    /// Total slots in the pool.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

/// The admission-control policy: how many jobs may wait in the deferred
/// queue before further arrivals are rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    queue_cap: usize,
}

impl Admission {
    /// Admission with the given queue-depth cap (0 = no queueing: a job
    /// either starts on arrival or is rejected).
    pub fn new(queue_cap: usize) -> Self {
        Admission { queue_cap }
    }

    /// The queue-depth cap.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }
}

/// Why an arriving job was turned away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The deferred queue was at its [`Admission`] cap.
    QueueFull,
    /// The job needs more slots than the whole [`Pool`] has.
    Oversize,
}

/// The final disposition of one submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The job ran to completion on its engine.
    Completed,
    /// The job was never admitted.
    Rejected(RejectReason),
    /// The job was admitted but its engine run returned an error.
    Failed,
}

/// The service log for one submitted job.
#[derive(Debug)]
pub struct JobRecord {
    /// The job's [`JobSpec::label`](crate::JobSpec::label).
    pub label: String,
    /// Slots the job occupies while running.
    pub slots: usize,
    /// Virtual instant the job was submitted.
    pub submitted: u128,
    /// Virtual instant the job started running (`None` if rejected).
    pub started: Option<u128>,
    /// Virtual instant the job finished (`None` if rejected).
    pub finished: Option<u128>,
    /// Engine-reported service time in rounds (0 unless completed).
    pub rounds: u128,
    /// The job's disposition.
    pub verdict: Verdict,
    /// Whether the job completed after its declared deadline (sojourn
    /// time, queueing included, exceeded
    /// [`JobSpec::deadline`](crate::JobSpec::deadline)).
    pub deadline_missed: bool,
    /// The engine report (present iff completed).
    pub report: Option<JobReport>,
    /// The engine error (present iff failed).
    pub error: Option<RunError>,
}

impl JobRecord {
    /// Time from submission to completion (`None` unless completed).
    pub fn sojourn(&self) -> Option<u128> {
        self.finished.map(|f| f - self.submitted)
    }
}

/// Fleet-wide aggregates over one [`Session::run`].
#[derive(Clone, Debug, PartialEq)]
pub struct FleetMetrics {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs rejected by admission control.
    pub rejected: usize,
    /// Jobs whose engine run errored.
    pub failed: usize,
    /// Jobs that spent time in the deferred queue before starting.
    pub deferred: usize,
    /// Completed jobs whose sojourn exceeded their deadline.
    pub deadline_misses: usize,
    /// Deepest the deferred queue ever got.
    pub max_queue_depth: usize,
    /// Virtual instant of the last event (0 for an empty session).
    pub horizon: u128,
    /// Median engine rounds over completed jobs (nearest rank).
    pub p50_rounds: u128,
    /// 99th-percentile engine rounds over completed jobs (nearest rank).
    pub p99_rounds: u128,
    /// Median sojourn (submission → completion) over completed jobs.
    pub p50_sojourn: u128,
    /// 99th-percentile sojourn over completed jobs.
    pub p99_sojourn: u128,
    /// Busy slot-time over total slot-time: Σ slots·(finish−start) /
    /// (pool slots · horizon). 0 when the horizon is empty.
    pub utilization: f64,
    /// Total work units performed across completed jobs.
    pub work_total: u64,
    /// Total messages sent across completed jobs.
    pub messages: u64,
}

/// The outcome of a [`Session::run`]: per-job [`JobRecord`]s plus the
/// fleet aggregates.
#[derive(Debug)]
pub struct FleetReport {
    /// One record per submitted job, in arrival-processing order
    /// (earliest instant first; ties in submission order).
    pub records: Vec<JobRecord>,
    /// Fleet-wide aggregates.
    pub metrics: FleetMetrics,
}

impl FleetReport {
    /// The first record with the given label, if any.
    pub fn find(&self, label: &str) -> Option<&JobRecord> {
        self.records.iter().find(|r| r.label == label)
    }

    /// Debug-build check that the aggregates agree with the records: one
    /// record per job, each verdict tallied once, deadline misses only
    /// among completed jobs, and the fleet's work and message totals the
    /// sums over the completed jobs' reports.
    pub(crate) fn debug_check(&self) {
        let m = &self.metrics;
        let tally = |f: fn(Verdict) -> bool| self.records.iter().filter(|r| f(r.verdict)).count();
        debug_assert_eq!(m.jobs, self.records.len(), "jobs disagrees with the records");
        debug_assert_eq!(
            m.completed,
            tally(|v| v == Verdict::Completed),
            "completed disagrees with the records"
        );
        debug_assert_eq!(
            m.rejected,
            tally(|v| matches!(v, Verdict::Rejected(_))),
            "rejected disagrees with the records"
        );
        debug_assert_eq!(
            m.failed,
            tally(|v| v == Verdict::Failed),
            "failed disagrees with the records"
        );
        debug_assert!(
            m.deadline_misses <= m.completed,
            "more deadline misses ({}) than completed jobs ({})",
            m.deadline_misses,
            m.completed
        );
        let reports = || self.records.iter().filter_map(|r| r.report.as_ref());
        debug_assert_eq!(
            m.work_total,
            reports().map(|r| r.metrics().work_total).sum::<u64>(),
            "fleet work disagrees with the job reports"
        );
        debug_assert_eq!(
            m.messages,
            reports().map(|r| r.metrics().messages).sum::<u64>(),
            "fleet messages disagree with the job reports"
        );
    }
}

/// Mutable scheduler state threaded through the event loop.
struct Sched {
    free: usize,
    /// (finish instant, tie-break, slots to free).
    running: BinaryHeap<Reverse<(u128, usize, usize)>>,
    horizon: u128,
    busy_slot_time: u128,
    started: usize,
}

impl Sched {
    /// Runs `job` at instant `now`, fills in its record, and registers
    /// the slot release. The caller has already checked that it fits.
    fn start(&mut self, job: Job, rec: &mut JobRecord, now: u128) {
        rec.started = Some(now);
        match (job.thunk)() {
            Ok(report) => {
                let rounds = report.rounds();
                let finish = now + rounds;
                self.free -= job.slots;
                self.running.push(Reverse((finish, self.started, job.slots)));
                self.started += 1;
                self.busy_slot_time += rounds * job.slots as u128;
                self.horizon = self.horizon.max(finish);
                rec.finished = Some(finish);
                rec.rounds = rounds;
                rec.verdict = Verdict::Completed;
                rec.deadline_missed = job.deadline.is_some_and(|d| finish - rec.submitted > d);
                rec.report = Some(report);
            }
            Err(err) => {
                // A failed run aborts instantly: slots are never held and
                // service time is 0.
                rec.finished = Some(now);
                rec.verdict = Verdict::Failed;
                rec.error = Some(err);
            }
        }
    }
}

/// A virtual-time serving session: submit jobs at chosen instants, then
/// [`run`](Session::run) the stream to completion.
#[derive(Debug)]
pub struct Session {
    pool: Pool,
    admission: Admission,
    pending: Vec<(u128, usize, Job)>,
}

impl Session {
    /// A session over the given pool and admission policy.
    pub fn new(pool: Pool, admission: Admission) -> Self {
        Session { pool, admission, pending: Vec::new() }
    }

    /// The session's pool.
    pub fn pool(&self) -> Pool {
        self.pool
    }

    /// The session's admission policy.
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// Submits a job arriving at virtual instant `at`. Jobs sharing an
    /// instant are processed in submission order.
    pub fn submit(&mut self, at: u128, job: Job) {
        let seq = self.pending.len();
        self.pending.push((at, seq, job));
    }

    /// Runs the whole stream to completion. Deterministic: the schedule
    /// depends only on the submitted (instant, job) pairs and the
    /// pool/admission limits.
    pub fn run(self) -> FleetReport {
        let Session { pool, admission, mut pending } = self;
        pending.sort_by_key(|&(at, seq, _)| (at, seq));

        let mut records: Vec<JobRecord> = Vec::with_capacity(pending.len());
        // Deferred-queue entries point at their (already pushed) record.
        let mut queue: VecDeque<(usize, Job)> = VecDeque::new();
        let mut deferred = 0usize;
        let mut max_queue_depth = 0usize;
        let mut sched = Sched {
            free: pool.slots,
            running: BinaryHeap::new(),
            horizon: 0,
            busy_slot_time: 0,
            started: 0,
        };

        let mut arrivals = pending.into_iter().peekable();
        loop {
            let next_completion = sched.running.peek().map(|Reverse((at, _, _))| *at);
            let next_arrival = arrivals.peek().map(|&(at, _, _)| at);
            match (next_completion, next_arrival) {
                (None, None) => break,
                // Completions first at equal instants: freed slots are
                // visible to simultaneous arrivals.
                (Some(c), a) if a.is_none_or(|a| c <= a) => {
                    let Reverse((now, _, slots)) = sched.running.pop().expect("peeked");
                    sched.free += slots;
                    sched.horizon = sched.horizon.max(now);
                    // Drain the queue head-of-line: stop at the first job
                    // that does not fit.
                    while queue.front().is_some_and(|(_, job)| job.slots <= sched.free) {
                        let (idx, job) = queue.pop_front().expect("checked");
                        let mut rec = std::mem::replace(&mut records[idx], placeholder());
                        sched.start(job, &mut rec, now);
                        records[idx] = rec;
                    }
                }
                _ => {
                    let (now, _, job) = arrivals.next().expect("peeked");
                    sched.horizon = sched.horizon.max(now);
                    let mut rec = JobRecord {
                        label: job.label.clone(),
                        slots: job.slots,
                        submitted: now,
                        started: None,
                        finished: None,
                        rounds: 0,
                        verdict: Verdict::Rejected(RejectReason::QueueFull),
                        deadline_missed: false,
                        report: None,
                        error: None,
                    };
                    if job.slots > pool.slots {
                        rec.verdict = Verdict::Rejected(RejectReason::Oversize);
                        records.push(rec);
                    } else if queue.is_empty() && job.slots <= sched.free {
                        sched.start(job, &mut rec, now);
                        records.push(rec);
                    } else if queue.len() < admission.queue_cap {
                        let idx = records.len();
                        records.push(rec);
                        queue.push_back((idx, job));
                        deferred += 1;
                        max_queue_depth = max_queue_depth.max(queue.len());
                    } else {
                        records.push(rec);
                    }
                }
            }
        }
        debug_assert!(queue.is_empty(), "every admitted job must eventually start");

        let metrics = summarize(
            pool,
            &records,
            sched.horizon,
            deferred,
            max_queue_depth,
            sched.busy_slot_time,
        );
        let report = FleetReport { records, metrics };
        report.debug_check();
        report
    }
}

/// A throwaway record swapped in while a deferred job's real record is
/// being filled (never observable in the final report).
fn placeholder() -> JobRecord {
    JobRecord {
        label: String::new(),
        slots: 0,
        submitted: 0,
        started: None,
        finished: None,
        rounds: 0,
        verdict: Verdict::Failed,
        deadline_missed: false,
        report: None,
        error: None,
    }
}

/// Builds the fleet aggregates from the finished records.
fn summarize(
    pool: Pool,
    records: &[JobRecord],
    horizon: u128,
    deferred: usize,
    max_queue_depth: usize,
    busy_slot_time: u128,
) -> FleetMetrics {
    let mut completed = 0usize;
    let mut rejected = 0usize;
    let mut failed = 0usize;
    let mut rounds: Vec<u128> = Vec::new();
    let mut sojourns: Vec<u128> = Vec::new();
    let mut work_total = 0u64;
    let mut messages = 0u64;
    for rec in records {
        match rec.verdict {
            Verdict::Completed => {
                completed += 1;
                rounds.push(rec.rounds);
                if let Some(s) = rec.sojourn() {
                    sojourns.push(s);
                }
                if let Some(report) = &rec.report {
                    work_total += report.metrics().work_total;
                    messages += report.metrics().messages;
                }
            }
            Verdict::Rejected(_) => rejected += 1,
            Verdict::Failed => failed += 1,
        }
    }
    rounds.sort_unstable();
    sojourns.sort_unstable();
    let slot_time = pool.slots as u128 * horizon;
    FleetMetrics {
        jobs: records.len(),
        completed,
        rejected,
        failed,
        deferred,
        deadline_misses: records.iter().filter(|r| r.deadline_missed).count(),
        max_queue_depth,
        horizon,
        p50_rounds: percentile(&rounds, 50),
        p99_rounds: percentile(&rounds, 99),
        p50_sojourn: percentile(&sojourns, 50),
        p99_sojourn: percentile(&sojourns, 99),
        utilization: if slot_time == 0 { 0.0 } else { busy_slot_time as f64 / slot_time as f64 },
        work_total,
        messages,
    }
}

/// Nearest-rank percentile over sorted values (0 for an empty slice).
fn percentile(sorted: &[u128], p: u128) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as u128).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use doall_sim::{Classify, Effects, Inbox, Protocol, Round, Unit};

    use super::*;
    use crate::JobSpec;

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
    fn debug_check_rejects_each_broken_invariant() {
        // Two slots, no queue: the first job completes, the second finds
        // the pool busy (QueueFull), the third is wider than the pool.
        let mut session = Session::new(Pool::new(2), Admission::new(0));
        for slots in [2, 2, 3] {
            session.submit(0, JobSpec::new((0..slots).map(OneUnit).collect(), 4).into_job());
        }
        let mut report = session.run();
        report.debug_check();
        assert_eq!((report.metrics.completed, report.metrics.rejected), (1, 2));
        if !cfg!(debug_assertions) {
            return;
        }
        let good = report.metrics.clone();
        let forged: [fn(&mut FleetMetrics); 7] = [
            |m| m.jobs += 1,
            |m| m.completed += 1,
            |m| m.rejected -= 1,
            |m| m.failed += 1,
            |m| m.deadline_misses = m.completed + 1,
            |m| m.work_total += 1,
            |m| m.messages += 1,
        ];
        for forge in forged {
            report.metrics = good.clone();
            forge(&mut report.metrics);
            let broken = report.metrics.clone();
            assert!(catch_unwind(AssertUnwindSafe(|| report.debug_check())).is_err(), "{broken:?}");
        }
    }
}
