//! The synchronous round engine.

use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;

use serde::{Deserialize, Serialize};

use crate::adversary::{Adversary, AdversaryCtx, Deliver};
use crate::effects::{split_runs, Effects, Recipients};
use crate::ids::{Pid, Round};
use crate::liveset::LiveSet;
use crate::message::{Classify, FlightOp, Inbox};
use crate::metrics::Metrics;
use crate::protocol::Protocol;
use crate::trace::{Event, Trace};

/// Final status of a process after a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Still alive when the run ended (only possible on error results).
    Alive,
    /// Crashed during the given round.
    Crashed(Round),
    /// Terminated voluntarily during the given round.
    Terminated(Round),
}

impl Status {
    /// Whether the process survived to normal termination.
    pub fn is_terminated(&self) -> bool {
        matches!(self, Status::Terminated(_))
    }

    /// The retirement round, if retired.
    pub fn round(&self) -> Option<Round> {
        match self {
            Status::Alive => None,
            Status::Crashed(r) | Status::Terminated(r) => Some(*r),
        }
    }
}

/// Configuration of a synchronous run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    /// Number of work units (pre-sizes the per-unit multiplicity table).
    pub n: usize,
    /// Hard cap on the number of rounds; exceeding it is an error
    /// ([`RunError::RoundLimit`]). Protects against protocol bugs; set it
    /// above the protocol's proven time bound.
    pub max_rounds: Round,
    /// Whether to record a full [`Trace`] (tests: yes; large sweeps: no).
    pub record_trace: bool,
    /// Watchdog window: the maximum number of consecutive *executed* rounds
    /// tolerated without observable progress (a delivery to a live process,
    /// a unit of work, a retirement, or a live-set change) before the run
    /// is aborted with [`RunError::Stalled`], the variant the async
    /// watchdog ([`AsyncConfig::stall_window`](crate::asynch::AsyncConfig::stall_window))
    /// raises too. Rounds skipped by the sparse
    /// fast-forward are provably quiescent and never count against the
    /// window, so deep-idle protocols (Protocol C's `2^k`-round waits) are
    /// not false positives. `None` disables the watchdog.
    pub stall_window: Option<u64>,
    /// **Accepted and ignored.** The engine has one round pipeline (see
    /// DESIGN.md §2.12, "Why there is one round pipeline"); no value stored
    /// here changes which code runs or what a run reports. The field and
    /// [`with_shards`](RunConfig::with_shards) remain only because the
    /// frozen `benchmark/` crate still names them.
    pub shards: Option<NonZeroUsize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            n: 0,
            max_rounds: Round::new(10_000_000),
            record_trace: false,
            stall_window: None,
            shards: None,
        }
    }
}

impl RunConfig {
    /// Convenience constructor for an `n`-unit workload with a round cap
    /// (`u64` values and bare literals convert; pass a [`Round`] for wide
    /// caps such as [`Round::MAX`]).
    pub fn new(n: usize, max_rounds: impl Into<Round>) -> Self {
        RunConfig { n, max_rounds: max_rounds.into(), ..RunConfig::default() }
    }

    /// Enables trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Arms the livelock watchdog (see [`RunConfig::stall_window`]).
    pub fn with_stall_window(mut self, window: u64) -> Self {
        self.stall_window = Some(window);
        self
    }

    /// **Accepted and ignored**: records `shards` in the inert
    /// [`RunConfig::shards`] field and changes nothing else.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = NonZeroUsize::new(shards);
        self
    }
}

/// Outcome of a completed run: every process retired.
///
/// Two reports compare equal when their *semantic* outcome matches —
/// metrics, trace, and statuses. The [`mem`](Report::mem) probe is
/// excluded from equality: buffer high-water marks depend on allocation
/// history (snapshot/resume, capacity growth), not on the simulated
/// execution, and differential tests assert semantic identity.
#[derive(Clone, Debug, Serialize)]
pub struct Report {
    /// Work / message / round counters.
    pub metrics: Metrics,
    /// Event log (empty unless [`RunConfig::record_trace`] was set).
    pub trace: Trace,
    /// Final per-process statuses, indexed by pid.
    pub statuses: Vec<Status>,
    /// Peak memory held by the engine and workload (see [`MemBudget`]).
    pub mem: MemBudget,
    /// Number of rounds the engine *executed*: the rounds it visited, plus
    /// the leased rounds it crossed in one jump, each counted as the visit
    /// it stands for (see the lease contract on [`Protocol`]). On
    /// fast-forward-heavy runs this is astronomically smaller than
    /// [`Metrics::rounds`] — the simulated clock.
    /// Excluded from equality alongside `mem`: it measures host effort,
    /// not simulated outcome.
    pub executed_rounds: u64,
}

impl PartialEq for Report {
    fn eq(&self, other: &Self) -> bool {
        self.metrics == other.metrics
            && self.trace == other.trace
            && self.statuses == other.statuses
    }
}

impl Eq for Report {}

/// Peak memory accounting for a run, measured exactly from the engine's own
/// table capacities (no allocator hooks): the engine observes its buffers
/// once per executed round and keeps the high-water mark. Payload heap data
/// inside messages and protocol states is *not* chased — `proc_bytes` is
/// the shallow struct size — so the probe is exact for the engine's SoA
/// tables and a documented lower bound for protocols that heap-allocate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemBudget {
    /// Per-process SoA columns: the process-state table, the live set, and
    /// the delivery index's pid-indexed columns. This is the scale-axis
    /// number: it must stay ≤ 32 bytes × t regardless of n or round count.
    pub soa_bytes: u64,
    /// Peak transient state: in-flight send ops, the delivery index's
    /// per-delivery entries, and the two due lists (this round's and the
    /// next round's). Proportional to per-round traffic and stepping, not
    /// to `t`.
    pub flight_bytes: u64,
    /// Workload-proportional ledgers: the per-unit work multiplicity table
    /// and the recorded trace.
    pub ledger_bytes: u64,
    /// Shallow protocol state: `size_of::<P>() × t`.
    pub proc_bytes: u64,
}

impl MemBudget {
    /// Peak bytes held by the engine proper (SoA columns + transients),
    /// excluding protocol state and ledgers.
    pub fn engine_bytes(&self) -> u64 {
        self.soa_bytes + self.flight_bytes
    }
}

/// The survivor queries of a report's `statuses` column, written once for
/// [`Report`] and [`AsyncReport`](crate::asynch::AsyncReport).
macro_rules! survivor_queries {
    () => {
        /// Iterates over the processes that terminated normally, in pid
        /// order, without building an intermediate `Vec`.
        pub fn survivors_iter(&self) -> impl Iterator<Item = $crate::Pid> + '_ {
            let terminated = self.statuses.iter().map($crate::Status::is_terminated);
            terminated.enumerate().filter(|&(_, t)| t).map(|(i, _)| $crate::Pid::new(i))
        }

        /// Number of processes that terminated normally.
        pub fn survivor_count(&self) -> usize {
            self.survivors_iter().count()
        }

        /// Whether at least one process terminated normally — the premise
        /// of the paper's correctness guarantee.
        pub fn has_survivor(&self) -> bool {
            self.survivors_iter().next().is_some()
        }
    };
}
pub(crate) use survivor_queries;

impl Report {
    /// Processes that terminated normally (the survivors).
    ///
    /// Allocates; hot callers that only iterate or count should use
    /// [`survivors_iter`](Report::survivors_iter) or
    /// [`survivor_count`](Report::survivor_count).
    pub fn survivors(&self) -> Vec<Pid> {
        self.survivors_iter().collect()
    }

    survivor_queries!();
}

/// What a stalled process is waiting on: the one plane-specific column of
/// a [`StallDiagnosis`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Waiting {
    /// Sync engine: the process's cached next wakeup (`None` = purely
    /// reactive: it will never act unless a message arrives).
    Wakeup(Option<Round>),
    /// Async engine: the process's handler-invocation count, which tells a
    /// never-scheduled process from a busy-looping one.
    Invocations(u64),
}

impl fmt::Display for Waiting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waiting::Wakeup(Some(w)) => write!(f, "wakes {w}"),
            Waiting::Wakeup(None) => write!(f, "reactive"),
            Waiting::Invocations(n) => write!(f, "{n} invocations"),
        }
    }
}

/// What an engine saw when it abandoned a run, attached to every
/// [`RunError`] raised after the engine was built, on either plane: who is
/// stuck, since when, and what is still pending. On the async plane the
/// rounds are virtual timestamps.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct StallDiagnosis {
    /// Round at which the diagnosis was taken.
    pub round: Round,
    /// Last round with observable progress ([`Round::ZERO`] if none ever).
    pub last_progress: Round,
    /// The processes still alive (the stall suspects), in pid order, each
    /// with what it is waiting on.
    pub stalled: Vec<(Pid, Waiting)>,
    /// Deliveries still pending: send ops in flight, due next executed
    /// round (sync), or per-recipient events in the scheduler queue, a
    /// queued notice run counting one per report it carries (async).
    pub pending: usize,
    /// Crash-recoveries scheduled but not yet fired.
    pub pending_revivals: usize,
}

impl fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at round {}, last progress at round {}: {} process(es) stalled",
            self.round,
            self.last_progress,
            self.stalled.len()
        )?;
        for (i, (pid, waiting)) in self.stalled.iter().take(8).enumerate() {
            let sep = if i == 0 { " [" } else { ", " };
            write!(f, "{sep}{pid}: {waiting}")?;
        }
        if self.stalled.len() > 8 {
            write!(f, ", +{} more]", self.stalled.len() - 8)?;
        } else if !self.stalled.is_empty() {
            write!(f, "]")?;
        }
        write!(f, "; {} pending, {} revival(s) pending", self.pending, self.pending_revivals)
    }
}

/// Why a run of either engine failed to complete. Every variant but
/// [`InvalidAdversary`](RunError::InvalidAdversary) is raised by a built
/// engine and carries its metrics at the moment the run was abandoned
/// (work ledger complete, `rounds` the last executed round or handled
/// timestamp) and a [`StallDiagnosis`].
#[derive(Debug, PartialEq, Eq)]
pub enum RunError {
    /// Sync engine: the round cap [`RunConfig::max_rounds`] was exceeded
    /// (likely a protocol bug or an undersized cap).
    RoundLimit {
        /// The cap that was exceeded.
        limit: Round,
        /// Metrics at the moment the run was abandoned.
        metrics: Box<Metrics>,
        /// Who was still alive and what they were waiting on.
        diagnosis: Box<StallDiagnosis>,
    },
    /// Async engine: the handler-invocation cap
    /// [`AsyncConfig::max_events`](crate::asynch::AsyncConfig::max_events)
    /// was exceeded.
    EventLimit {
        /// The cap that was exceeded.
        limit: u64,
        /// Metrics at the moment the run was abandoned.
        metrics: Box<Metrics>,
        /// Who was still alive and what they were waiting on.
        diagnosis: Box<StallDiagnosis>,
    },
    /// Live processes remain but provably nothing can ever happen: no
    /// message in flight, no process due to wake, no adversary event and
    /// no revival (sync), or an empty event queue (async).
    Deadlock {
        /// Metrics at the moment of deadlock.
        metrics: Box<Metrics>,
        /// Who is stuck and what they are waiting on.
        diagnosis: Box<StallDiagnosis>,
    },
    /// The watchdog aborted the run: more than `window` executed rounds
    /// ([`RunConfig::stall_window`]) or virtual time-steps
    /// ([`AsyncConfig::stall_window`](crate::asynch::AsyncConfig::stall_window))
    /// passed without observable progress. Unlike
    /// [`Deadlock`](RunError::Deadlock) (provably nothing can ever happen)
    /// this is a heuristic livelock verdict: processes are acting but none
    /// of it is progress.
    Stalled {
        /// The configured window that was exhausted.
        window: u64,
        /// Metrics at the moment the run was abandoned.
        metrics: Box<Metrics>,
        /// Who is stuck and what they were waiting on.
        diagnosis: Box<StallDiagnosis>,
    },
    /// The adversary's fault schedule is self-contradictory or unsurvivable
    /// (see [`Adversary::validate`]); the run was refused before it began.
    InvalidAdversary {
        /// Why the schedule was rejected.
        reason: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::RoundLimit { limit, diagnosis, .. } => {
                write!(f, "round limit of {limit} exceeded ({diagnosis})")
            }
            RunError::EventLimit { limit, diagnosis, .. } => {
                write!(f, "event limit of {limit} exceeded ({diagnosis})")
            }
            RunError::Deadlock { diagnosis, .. } => {
                write!(f, "deadlock: nothing can ever happen ({diagnosis})")
            }
            RunError::Stalled { window, diagnosis, .. } => {
                write!(f, "watchdog: stall window of {window} exhausted ({diagnosis})")
            }
            RunError::InvalidAdversary { reason } => {
                write!(f, "invalid adversary schedule: {reason}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Runs a synchronous execution until every process retires.
///
/// Processes are identified by their index in `procs`. Rounds are numbered
/// from 1. Each executed round:
///
/// 1. messages sent in the previous round are delivered (to alive
///    recipients; the rest become dead letters);
/// 2. every alive process [`step`](Protocol::step)s, in pid order, against
///    the state as of the start of the round;
/// 3. the [`Adversary`] rules on each process's fate; surviving effects are
///    applied, crashing processes deliver only the subset the adversary
///    allows.
///
/// Rounds in which provably nothing can happen are skipped in O(1) (see
/// the quiescence contract on [`Protocol`]); skipped rounds still advance
/// the round counter, so time metrics are unaffected.
///
/// # Errors
///
/// Returns [`RunError::InvalidAdversary`] if the adversary rejects the
/// system shape, [`RunError::RoundLimit`] if the cap is exceeded,
/// [`RunError::Deadlock`] if live processes can never act again, and
/// [`RunError::Stalled`] if the [`RunConfig::stall_window`] watchdog
/// trips. Each but the first carries the metrics and a [`StallDiagnosis`].
///
/// # Examples
///
/// ```
/// use doall_sim::{run, NoFailures, RunConfig, Protocol, Effects, Inbox, Classify, Round};
///
/// #[derive(Clone, Debug)]
/// struct Nop;
/// impl Classify for Nop {}
///
/// struct Quit;
/// impl Protocol for Quit {
///     type Msg = Nop;
///     fn step(&mut self, _: Round, _: Inbox<'_, Nop>, eff: &mut Effects<Nop>) {
///         eff.terminate();
///     }
///     fn next_wakeup(&self, now: Round) -> Option<Round> { Some(now) }
/// }
///
/// let report = run(vec![Quit, Quit], NoFailures, RunConfig::default())?;
/// assert_eq!(report.metrics.rounds, 1u64);
/// assert_eq!(report.survivors().len(), 2);
/// # Ok::<(), doall_sim::RunError>(())
/// ```
pub fn run<P, A>(procs: Vec<P>, adversary: A, cfg: RunConfig) -> Result<Report, RunError>
where
    P: Protocol,
    A: Adversary<P::Msg>,
{
    run_returning(procs, adversary, cfg).map(|(report, _)| report)
}

/// Per-round delivery index over the in-flight op table, in CSR style:
/// recipient `p`'s inbox is `index[offset[p] .. cursor[p]]`, a list of op
/// ids (the fill cursor ends exactly at the inbox's end, so no separate
/// count column is stored). All scratch is recycled round to round; the
/// `stamp` array holds the build *epoch* that last touched each slot — a
/// `u32` generation counter rather than the 128-bit round — replacing any
/// O(t) per-round reset: only recipients actually addressed this round
/// cost anything, and the pid-indexed columns total 12 bytes per process.
/// On the (once per 2³² builds) epoch wrap the stamps are bulk-reset, so
/// a stale stamp can never alias a fresh epoch.
struct DeliveryIndex {
    epoch: u32,
    stamp: Vec<u32>,
    offset: Vec<u32>,
    cursor: Vec<u32>,
    index: Vec<u32>,
    touched: Vec<u32>,
    /// Per-live-(message, recipient) receive-omission verdicts of a
    /// filtered build, in pending-op iteration order; recycled scratch.
    omit: Vec<bool>,
}

impl DeliveryIndex {
    fn new(t: usize) -> Self {
        DeliveryIndex {
            epoch: 0,
            stamp: vec![0; t],
            offset: vec![0; t],
            cursor: vec![0; t],
            index: Vec::new(),
            touched: Vec::new(),
            omit: Vec::new(),
        }
    }

    /// Starts a new build generation; handles the u32 wrap exactly.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Turns the per-recipient tallies accumulated in `cursor` into CSR
    /// offsets and resets each cursor to its inbox start, sizing `index`
    /// for the fill pass.
    fn finish_counts(&mut self) {
        let mut cum: u32 = 0;
        for &i in &self.touched {
            let i = i as usize;
            let count = self.cursor[i];
            self.offset[i] = cum;
            self.cursor[i] = cum;
            cum += count;
        }
        self.index.clear();
        self.index.resize(cum as usize, 0);
    }

    /// Builds the index for this round from the in-flight ops, intersecting
    /// every span with the live set: dead recipients never enter the index
    /// (they are tallied as dead letters, never as omissions), so delivery
    /// work is proportional to *live* deliveries plus ops. When the
    /// adversary [filters deliveries](Adversary::filters_deliveries), it is
    /// consulted exactly once per live (message, recipient) — in the first
    /// pass, with the verdicts replayed from scratch in the second — and
    /// suppressed deliveries never enter the index; each leaves a
    /// `"fault:omit"` note at the recipient (the receive-omission symptom)
    /// in `trace`. Returns (dead letters, omitted).
    fn build<M, A: Adversary<M>>(
        &mut self,
        round: Round,
        pending: &[FlightOp<M>],
        live: &LiveSet,
        adversary: &mut A,
        trace: &mut Trace,
    ) -> (u64, u64) {
        let filters = adversary.filters_deliveries();
        self.next_epoch();
        self.touched.clear();
        self.omit.clear();
        let mut dead: u64 = 0;
        let mut omitted: u64 = 0;
        for op in pending {
            for p in op.to.iter() {
                let i = p.index();
                if !live.contains(i) {
                    dead += 1;
                    continue;
                }
                if filters {
                    let drop = adversary.omits_delivery(round, op.from, p);
                    self.omit.push(drop);
                    if drop {
                        omitted += 1;
                        trace.push(Event::Note { round, pid: p, tag: "fault:omit" });
                        continue;
                    }
                }
                if self.stamp[i] != self.epoch {
                    self.stamp[i] = self.epoch;
                    self.cursor[i] = 0;
                    self.touched.push(i as u32);
                }
                self.cursor[i] += 1;
            }
        }
        self.finish_counts();
        let mut verdicts = self.omit.iter();
        for (id, op) in pending.iter().enumerate() {
            for p in op.to.iter() {
                let i = p.index();
                if !live.contains(i) || (filters && verdicts.next() == Some(&true)) {
                    continue;
                }
                self.index[self.cursor[i] as usize] = id as u32;
                self.cursor[i] += 1;
            }
        }
        (dead, omitted)
    }

    /// Whether the most recent build addressed at least one live recipient
    /// (the watchdog's "a delivery happened" signal).
    fn delivered(&self) -> bool {
        !self.touched.is_empty()
    }

    /// Whether recipient `i` was addressed by a live delivery in the most
    /// recent build. Callers must additionally know that a build happened
    /// *this round* (the engine's `have_inbox` guard): the epoch only
    /// distinguishes builds from each other.
    fn has_inbox(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// The inbox of recipient `i` for the most recent build (empty if
    /// nothing was addressed to it).
    fn inbox<'a, M>(&'a self, i: usize, ops: &'a [FlightOp<M>]) -> Inbox<'a, M> {
        if self.stamp[i] == self.epoch {
            let lo = self.offset[i] as usize;
            let hi = self.cursor[i] as usize;
            Inbox::csr(&self.index[lo..hi], ops)
        } else {
            Inbox::empty()
        }
    }

    /// Bytes in the pid-indexed columns (counted against the SoA budget).
    fn soa_bytes(&self) -> u64 {
        ((self.stamp.capacity() + self.offset.capacity() + self.cursor.capacity())
            * std::mem::size_of::<u32>()) as u64
    }

    /// Bytes in the per-delivery scratch (counted as flight state).
    fn flight_bytes(&self) -> u64 {
        (self.index.capacity() * 4 + self.touched.capacity() * 4 + self.omit.capacity()) as u64
    }
}

/// Status code bits in [`ProcTable::meta`]: process is alive.
const PS_ALIVE: u8 = 0;
/// Status code bits: process crashed (retirement round in its slot).
const PS_CRASHED: u8 = 1;
/// Status code bits: process terminated (retirement round in its slot).
const PS_TERMINATED: u8 = 2;
/// Mask of the status code bits.
const PS_CODE: u8 = 0b011;
/// Flag bit (sync engine): an alive process's slot holds a cached wakeup
/// round.
const PS_WAKE: u8 = 0b100;
/// Flag bit (sync engine): the cached wakeup is the end of a work lease;
/// the process is parked, however many messages reach it, until that round.
const PS_LEASE: u8 = 0b1000;

/// The process table both engines hold: per process one metadata byte
/// (status code, plus the sync engine's wakeup-present and lease flags)
/// and one 128-bit slot, and the [`LiveSet`] over them.
/// [`retire`](ProcTable::retire) and [`revive`](ProcTable::revive) move
/// the status, the live set, the crash, termination or recovery count and
/// the trace in one call, so none of them ever disagree.
///
/// The slot is a union keyed by the metadata: for a retired process it
/// records the retirement round (the [`Status`] the reports carry); for an
/// alive process of the sync engine it caches the next spontaneous wakeup
/// round (valid only when [`PS_WAKE`] is set, so a saturated `Round::MAX`
/// deadline needs no out-of-band sentinel; with [`PS_LEASE`] also set, it
/// is a lease's end). 17 bytes per process plus one live bit keep
/// `t = 10^6` systems comfortably under the 32-byte/process engine budget.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct ProcTable {
    meta: Vec<u8>,
    slot: Vec<u128>,
    live: LiveSet,
}

impl ProcTable {
    /// Builds the table with every process alive and the given initial
    /// wakeup cache (the async engine passes `None` throughout).
    pub(crate) fn new(wakeups: impl Iterator<Item = Option<Round>>) -> Self {
        let (mut meta, mut slot) = (Vec::new(), Vec::new());
        for w in wakeups {
            meta.push(if w.is_some() { PS_ALIVE | PS_WAKE } else { PS_ALIVE });
            slot.push(w.map_or(0, Round::get));
        }
        let live = LiveSet::new(meta.len());
        ProcTable { meta, slot, live }
    }

    /// The live set: the processes that have neither crashed nor
    /// terminated.
    pub(crate) fn live(&self) -> &LiveSet {
        &self.live
    }

    /// Retires an alive process at round `at`, recording the round in its
    /// slot, removing it from the live set, and counting and tracing its
    /// crash or termination.
    pub(crate) fn retire(
        &mut self,
        idx: usize,
        terminated: bool,
        at: Round,
        metrics: &mut Metrics,
        trace: &mut Trace,
    ) {
        let pid = Pid::new(idx);
        if terminated {
            self.meta[idx] = PS_TERMINATED;
            metrics.terminations += 1;
            trace.push(Event::Terminate { round: at, pid });
        } else {
            self.meta[idx] = PS_CRASHED;
            metrics.crashes += 1;
            trace.push(Event::Crash { round: at, pid });
        }
        self.slot[idx] = at.get();
        let was_live = self.live.remove(idx);
        debug_assert!(was_live, "p{idx} retired twice");
    }

    /// Returns a crashed process to life at round `at` (crash-recovery
    /// revival), with no cached wakeup, counting and tracing the recovery.
    pub(crate) fn revive(
        &mut self,
        idx: usize,
        at: Round,
        metrics: &mut Metrics,
        trace: &mut Trace,
    ) {
        self.meta[idx] = PS_ALIVE;
        self.slot[idx] = 0;
        let was_dead = self.live.insert(idx);
        debug_assert!(was_dead, "p{idx} revived while alive");
        metrics.recoveries += 1;
        trace.push(Event::Recover { round: at, pid: Pid::new(idx) });
    }

    /// The process's [`Status`] as the report vocabulary sees it.
    fn status(&self, idx: usize) -> Status {
        match self.meta[idx] & PS_CODE {
            PS_CRASHED => Status::Crashed(Round::new(self.slot[idx])),
            PS_TERMINATED => Status::Terminated(Round::new(self.slot[idx])),
            _ => Status::Alive,
        }
    }

    /// Materializes the per-process status column for a report.
    pub(crate) fn statuses(&self) -> Vec<Status> {
        (0..self.meta.len()).map(|i| self.status(i)).collect()
    }

    /// Bytes held by the table and its live set, for the memory probe.
    pub(crate) fn bytes(&self) -> u64 {
        (self.meta.capacity() + self.slot.capacity() * std::mem::size_of::<u128>()) as u64
            + self.live.bytes()
    }

    /// The cached wakeup of an alive process (`None` = purely reactive).
    fn wakeup(&self, idx: usize) -> Option<Round> {
        (self.meta[idx] & PS_WAKE != 0).then(|| Round::new(self.slot[idx]))
    }

    /// Whether an alive process's cached wakeup is due at `round`.
    fn wakeup_due(&self, idx: usize, round: Round) -> bool {
        self.meta[idx] & PS_WAKE != 0 && self.slot[idx] <= round.get()
    }

    /// Replaces an alive process's cached wakeup (ending any lease).
    fn set_wakeup(&mut self, idx: usize, wake: Option<Round>) {
        match wake {
            Some(r) => {
                self.meta[idx] = self.meta[idx] & !PS_LEASE | PS_WAKE;
                self.slot[idx] = r.get();
            }
            None => {
                self.meta[idx] &= !(PS_WAKE | PS_LEASE);
            }
        }
    }

    /// Parks an alive process on a work lease ending at `end`, when it is
    /// due again.
    fn lease(&mut self, idx: usize, end: Round) {
        self.meta[idx] |= PS_WAKE | PS_LEASE;
        self.slot[idx] = end.get();
    }

    /// Whether `round` lies inside a lease of the process (a lease's end
    /// round does not: the process is due there).
    fn leased(&self, idx: usize, round: Round) -> bool {
        self.meta[idx] & PS_LEASE != 0 && self.slot[idx] > round.get()
    }

    /// The live processes in pid order, each with its cached wakeup and
    /// whether `round` lies inside its lease: the exact scans, which walk
    /// the live set's bitset while they read the columns.
    fn live_wakeups(
        &self,
        round: Round,
    ) -> impl Iterator<Item = (usize, Option<Round>, bool)> + '_ {
        self.live.ones().map(move |i| (i, self.wakeup(i), self.leased(i, round)))
    }
}

/// Like [`run`], but also hands back the final per-process protocol states,
/// for protocols whose outcome lives in process state (e.g. the decision
/// value of a Byzantine-agreement process).
///
/// # Errors
///
/// As [`run`].
pub fn run_returning<P, A>(
    procs: Vec<P>,
    adversary: A,
    cfg: RunConfig,
) -> Result<(Report, Vec<P>), RunError>
where
    P: Protocol,
    A: Adversary<P::Msg>,
{
    let mut engine = Engine::new(procs, adversary, cfg)?;
    engine.run_until(None)?;
    Ok(engine.into_report())
}

/// A checkpoint of a paused [`Engine`] — which is to say the engine's run
/// state itself: everything the run's future depends on — protocol states,
/// the adversary (including any consumed-fault or RNG state), in-flight
/// send ops, the live set, the wakeup cache, metrics, trace, and the 128-bit
/// [`Round`] clock. The engine holds one value of this type,
/// [`Engine::snapshot`] clones it, and resuming via [`Engine::resume`]
/// continues the run **bit-identically** to one that was never interrupted
/// (see `tests/snapshot_differential.rs`).
///
/// The snapshot owns its data (it is deep-cloned out of the engine), so it
/// remains valid after the original engine advances or is dropped. All
/// component types derive `Serialize`/`Deserialize`; with a real serde
/// implementation in the workspace (see `vendor/README.md`) a snapshot can
/// be persisted wholesale, provided `P`, `A`, and the message type also
/// serialize.
#[derive(Clone, Serialize, Deserialize)]
pub struct EngineSnapshot<P: Protocol, A> {
    procs: Vec<P>,
    adversary: A,
    cfg: RunConfig,
    round: Round,
    // Struct-of-arrays per-process state: status + retirement round +
    // cached wakeup, one byte and one slot per process, and the live set
    // (see [`ProcTable`]).
    // The wakeup cache holds the earliest round each alive process may act
    // spontaneously (absent = purely reactive, `Round::MAX` = a deadline
    // saturated past the horizon, which fires *at* the horizon). A process
    // is *stepped* only when it is due, has an inbox, or the adversary has
    // an event scheduled this round — by the quiescence contract on
    // [`Protocol`], the skipped invocations were provably no-ops. The
    // cache is refreshed after every step (the only moments process state
    // can change), so entries for untouched processes stay valid. The
    // engine's round index (`next_due` / `far`, scratch beside it) is
    // derived from this table; the exact scans that rebuild the index read
    // it whenever the index cannot answer on its own. The exact scans walk
    // the live set's bitset in pid order, O(t/64 + live) each.
    table: ProcTable,
    metrics: Metrics,
    trace: Trace,
    // In-flight send ops awaiting delivery at `round`. Messages cross a
    // round boundary, so a checkpoint without them would silently drop a
    // whole round of traffic.
    pending: Vec<FlightOp<P::Msg>>,
    // Crash-recovery bookkeeping, sparse: scheduled restart round (and
    // whether state is wiped) per process crashed via
    // [`Fate::CrashRecover`], keyed by pid. `next_revive` caches the
    // minimum so the common (no recoveries pending) round costs one
    // comparison; O(recovering) space instead of a t-length column.
    revive: BTreeMap<u32, (Round, bool)>,
    next_revive: Option<Round>,
    // Watchdog state: last round with observable progress and the length
    // of the current no-progress streak of executed rounds.
    last_progress: Round,
    stall_streak: u64,
    finished: bool,
    // Peak-memory probe, observed once per executed round.
    mem: MemBudget,
    // Rounds executed: one per `advance` call, plus each leased round a
    // jump crosses (the visit it stands for); the idle fast-forward jumps
    // the 128-bit clock but not this counter. Part of the state, so
    // a resumed run reports the same total as an uninterrupted one.
    #[serde(default)]
    executed_rounds: u64,
}

impl<P, A> EngineSnapshot<P, A>
where
    P: Protocol,
{
    /// The round boundary this snapshot was taken at.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Metrics accumulated up to the snapshot point.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// The synchronous round engine as a resumable state machine.
///
/// [`run`] and [`run_returning`] drive an `Engine` to completion in one
/// call; constructing one directly buys three extra capabilities:
///
/// * **Incremental execution** — [`run_until`](Engine::run_until) pauses at
///   a round boundary, so a caller can interleave simulation with
///   inspection ([`round`](Engine::round), [`metrics`](Engine::metrics)).
/// * **Checkpoint/restore** — [`snapshot`](Engine::snapshot) captures the
///   complete run state at any pause point and [`resume`](Engine::resume)
///   reconstructs an engine that continues bit-identically; scratch
///   buffers (the delivery index, effect buffers, the round index) are
///   rebuilt fresh, which is safe because the round clock is strictly
///   monotone, the delivery index's stamps can only match rounds they were
///   built in, an empty round index forces one exact scan, every
///   performance is in the ledger the moment it happens, and no work lease
///   crosses a pause point.
/// * **Watchdog** — with [`RunConfig::stall_window`] set, the engine
///   monitors observable progress every executed round and aborts livelocks
///   with a [`StallDiagnosis`] instead of burning the round budget.
///
/// Each executed round runs the same phases as the classic loop: revivals,
/// delivery, stepping with adversary interception, retirement bookkeeping,
/// work-lease grants (see the lease contract on [`Protocol`]), then a
/// sparse fast-forward over provably idle rounds.
pub struct Engine<P: Protocol, A: Adversary<P::Msg>> {
    // The run state — the whole of it, and exactly what a snapshot is.
    st: EngineSnapshot<P, A>,
    // Scratch buffers, allocated once (by `resume`) and recycled every
    // round; not part of the state. In steady state the loop performs no
    // allocation: `eff` is reset (not rebuilt), the two op buffers and the
    // two due lists swap roles each round, and the delivery index grows
    // only to the high-water mark of per-round live deliveries. (The one
    // exception is the standard library's stable sort, which borrows a
    // heap merge buffer when it restores pid order to a due list of more
    // than about a thousand entries.) The in-flight buffers hold send
    // *ops* (payload stored once per broadcast), never per-recipient
    // envelopes.
    due: Vec<u32>,
    eff: Effects<P::Msg>,
    next_pending: Vec<FlightOp<P::Msg>>,
    delivery: DeliveryIndex,
    // The round index, which lets a round find its due processes in
    // O(due) instead of scanning the live set. `next_due` holds, in pid
    // order, the processes the step loop refreshed to a wakeup of exactly
    // the next round; `far` is a lower bound on the cached wakeup of every
    // other live process but the `held` lease's holder (`None`: none has
    // one). The bound only ever drops between exact scans, each of which
    // recomputes it; a revival or `resume` sets it to a round already
    // reached, forcing a scan.
    next_due: Vec<u32>,
    far: Option<Round>,
    // The latest end of a work lease granted so far. Every lease starts
    // the round after its grant and none is cut, so the rounds still leased
    // are exactly `round .. lease_until`: the watchdog counts them as
    // progress, and the fast-forward jumps across those in which nobody
    // steps without a scan. Leases are clipped at every pause point, so a
    // resumed engine starts at zero.
    lease_until: Round,
    // One running lease the round index serves itself, as (end, holder):
    // the first granted while none is held here. At its end the holder
    // joins the due list from this field, not from the exact scan, and
    // `far` leaves it out. Figure 1 keeps one process active, so each of
    // its short leases lands here and a lease end costs O(1), not O(live);
    // leases granted beside it (a D work phase's) lower `far` instead. Only
    // a lease ending at a pause point can be held there, and the first
    // resumed round's exact scan finds its holder from its slot.
    held: Option<(Round, u32)>,
}

impl<P, A> Engine<P, A>
where
    P: Protocol,
    A: Adversary<P::Msg>,
{
    /// Builds an engine over `procs` (pid = index) paused before round 1.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidAdversary`] if the adversary rejects the
    /// system shape (see [`Adversary::validate`]).
    pub fn new(procs: Vec<P>, adversary: A, cfg: RunConfig) -> Result<Self, RunError> {
        if let Err(reason) = adversary.validate(procs.len()) {
            return Err(RunError::InvalidAdversary { reason });
        }
        let t = procs.len();
        let table = ProcTable::new(
            procs.iter().map(|p| p.next_wakeup(Round::ONE).map(|w| w.max(Round::ONE))),
        );
        let mem =
            MemBudget { proc_bytes: (t * std::mem::size_of::<P>()) as u64, ..MemBudget::default() };
        Ok(Self::resume(EngineSnapshot {
            table,
            metrics: Metrics::new(cfg.n),
            trace: Trace::recording(cfg.record_trace),
            pending: Vec::new(),
            round: Round::ONE,
            revive: BTreeMap::new(),
            next_revive: None,
            last_progress: Round::ZERO,
            stall_streak: 0,
            finished: false,
            executed_rounds: 0,
            mem,
            procs,
            adversary,
            cfg,
        }))
    }

    /// The round the engine is paused at (the next round to execute, or
    /// the final round once [`run_until`](Engine::run_until) has returned
    /// `Ok(true)`).
    pub fn round(&self) -> Round {
        self.st.round
    }

    /// Metrics accumulated so far. The per-unit ledger
    /// ([`Metrics::work_by_unit`]) is complete at every pause: each
    /// performance, and each lease's units, are written to it as they are
    /// credited.
    pub fn metrics(&self) -> &Metrics {
        &self.st.metrics
    }

    /// Runs until completion or, if `stop` is given, pauses at the first
    /// round boundary at or past `stop` (the sparse fast-forward may jump
    /// the clock past `stop`; the pause lands on the next *visited*
    /// boundary, so pausing never changes which rounds execute). Returns
    /// `true` when the run completed, `false` when it paused.
    ///
    /// # Errors
    ///
    /// [`RunError::RoundLimit`], [`RunError::Deadlock`] or
    /// [`RunError::Stalled`], as [`run`]; the engine is left at the round
    /// it failed in.
    pub fn run_until(&mut self, stop: Option<Round>) -> Result<bool, RunError> {
        while !self.st.finished {
            if stop.is_some_and(|s| self.st.round >= s) {
                return Ok(false);
            }
            self.advance(stop)?;
        }
        Ok(true)
    }

    /// Deep-copies the complete run state into an owned [`EngineSnapshot`].
    pub fn snapshot(&self) -> EngineSnapshot<P, A>
    where
        P: Clone,
        P::Msg: Clone,
        A: Clone,
    {
        self.st.clone()
    }

    /// Reconstructs an engine from a snapshot, which moves in whole as the
    /// engine's state; this is the only place scratch state (delivery
    /// index, effect buffers, round index) is built, and it is built empty.
    /// Stale-stamp reasoning makes that equivalent to the buffers the
    /// original engine carried (stamps only ever match the round they were
    /// built in, and the clock is strictly monotone), the empty round index
    /// carries a bound of round 0, so the first resumed round finds its due
    /// processes by an exact scan of the wakeup cache, and the snapshot's
    /// ledger already holds every performance, no lease reaching past it.
    /// The continuation is bit-identical to the uninterrupted run.
    pub fn resume(snapshot: EngineSnapshot<P, A>) -> Self {
        let t = snapshot.procs.len();
        Engine {
            delivery: DeliveryIndex::new(t),
            st: snapshot,
            due: Vec::new(),
            eff: Effects::new(),
            next_pending: Vec::new(),
            next_due: Vec::new(),
            far: Some(Round::ZERO),
            lease_until: Round::ZERO,
            held: None,
        }
    }

    /// Consumes the engine into its [`Report`] and final protocol states.
    /// Meaningful once [`run_until`](Engine::run_until) has returned
    /// `Ok(true)`; on an unfinished engine it reports the state as of the
    /// pause point (statuses of still-running processes read
    /// [`Status::Alive`]).
    pub fn into_report(mut self) -> (Report, Vec<P>) {
        self.st.metrics.debug_check();
        self.observe_mem();
        let st = self.st;
        (
            Report {
                metrics: st.metrics,
                trace: st.trace,
                statuses: st.table.statuses(),
                mem: st.mem,
                executed_rounds: st.executed_rounds,
            },
            st.procs,
        )
    }

    /// The paused engine's [`StallDiagnosis`]: who is alive, when each
    /// wakes, and what is in flight.
    fn diagnosis(&self) -> Box<StallDiagnosis> {
        let table = &self.st.table;
        Box::new(StallDiagnosis {
            round: self.st.round,
            last_progress: self.st.last_progress,
            stalled: table
                .live
                .ones()
                .map(|i| (Pid::new(i), Waiting::Wakeup(table.wakeup(i))))
                .collect(),
            pending: self.st.pending.len(),
            pending_revivals: self.st.revive.len(),
        })
    }

    /// Folds the current buffer footprint into the peak-memory probe:
    /// per-process SoA columns (recomputed — they are stable at t), and the
    /// high-water mark of transient flight state and ledgers.
    fn observe_mem(&mut self) {
        self.st.mem.soa_bytes = self.st.table.bytes() + self.delivery.soa_bytes();
        let flight = self.delivery.flight_bytes()
            + ((self.st.pending.capacity() + self.next_pending.capacity())
                * std::mem::size_of::<FlightOp<P::Msg>>()) as u64
            + ((self.due.capacity() + self.next_due.capacity()) * 4) as u64
            + (self.st.revive.len() * std::mem::size_of::<(u32, Round, bool)>()) as u64;
        self.st.mem.flight_bytes = self.st.mem.flight_bytes.max(flight);
        let ledger = (self.st.metrics.work_by_unit.capacity() * std::mem::size_of::<u32>()
            + std::mem::size_of_val(self.st.trace.events())) as u64;
        self.st.mem.ledger_bytes = self.st.mem.ledger_bytes.max(ledger);
    }

    /// The metrics an abnormal exit carries, checked.
    fn error_metrics(&self) -> Box<Metrics> {
        self.st.metrics.debug_check();
        Box::new(self.st.metrics.clone())
    }

    fn round_limit(&self) -> RunError {
        let (limit, metrics) = (self.st.cfg.max_rounds, self.error_metrics());
        RunError::RoundLimit { limit, metrics, diagnosis: self.diagnosis() }
    }

    /// Executes one round (plus any sparse fast-forward that follows it),
    /// leaving the engine paused at the next round boundary; `stop` is the
    /// pause point of the running [`run_until`](Engine::run_until), which
    /// no lease may cross.
    fn advance(&mut self, stop: Option<Round>) -> Result<(), RunError> {
        let round = self.st.round;
        if round > self.st.cfg.max_rounds {
            return Err(self.round_limit());
        }
        self.st.executed_rounds += 1;
        self.st.metrics.rounds = round;
        // A round some lease covers is one in which its holder works.
        let leased_work = round < self.lease_until;

        // Progress baseline for the watchdog: any retirement, recovery, or
        // unit of work moves the mark.
        let mark = self.st.metrics.progress();

        // 0. Restart processes whose recovery downtime has elapsed — before
        //    delivery, so messages arriving this very round are received.
        if self.st.next_revive.is_some_and(|r| r <= round) {
            let ready: Vec<(u32, bool)> = self
                .st
                .revive
                .iter()
                .filter(|&(_, &(at, _))| at <= round)
                .map(|(&i, &(_, wipe))| (i, wipe))
                .collect();
            for (i, wipe) in ready {
                self.st.revive.remove(&i);
                let idx = i as usize;
                self.st.table.revive(idx, round, &mut self.st.metrics, &mut self.st.trace);
                self.st.procs[idx].on_recover(round, wipe);
                let wake = self.st.procs[idx].next_wakeup(round).map(|w| w.max(round));
                self.st.table.set_wakeup(idx, wake);
            }
            self.st.next_revive = self.st.revive.values().map(|&(at, _)| at).min();
            // A revived process is in no index entry: force the exact scan.
            self.far = Some(round);
        }

        // 1. Deliver last round's messages: index the in-flight ops by live
        //    recipient; spans are intersected with the live set and dead
        //    recipients become dead letters without ever materializing.
        let have_inbox = !self.st.pending.is_empty();
        if have_inbox {
            let (dead, omitted) = self.delivery.build(
                round,
                &self.st.pending,
                &self.st.table.live,
                &mut self.st.adversary,
                &mut self.st.trace,
            );
            self.st.metrics.dead_letters += dead;
            self.st.metrics.omissions += omitted;
        }
        // A delivery to at least one live, non-omitted recipient counts as
        // observable progress for the watchdog.
        let delivered = have_inbox && self.delivery.delivered();

        // An adversary event scheduled for this very round (e.g. a crash of
        // an otherwise idle process) disables sparse stepping for the
        // round: every alive process must face `intercept`, exactly as in
        // the dense engine. Adversaries that may act any round (random
        // crashes with budget left) return `Some(now)` and keep the dense
        // behaviour bit-for-bit.
        let adv_due = self.st.adversary.next_event(round).is_some_and(|r| r <= round);
        debug_assert!(!adv_due || !leased_work, "adversary event at {round} inside a lease");

        // 2. The due list: the set of processes stepped this round is fully
        //    determined at the round boundary (live ∧ (adversary event ∨
        //    inbox ∨ wakeup due)), and a fate ruling only ever affects the
        //    stepped process itself — so the list is collected up front.
        //    When the adversary is quiet and `far` proves no wakeup outside
        //    `next_due` has come due, the index answers in O(due): last
        //    round's `next_due` plus the inbox recipients not already in
        //    it, merged back into pid order. Otherwise the exact scan walks
        //    the live set and recomputes `far` from every process it skips.
        //    A leased process's inbox does not make it due: its lease
        //    promises the same step whatever arrives.
        if !adv_due && self.far.is_none_or(|f| f > round) {
            std::mem::swap(&mut self.due, &mut self.next_due);
            let indexed = self.due.len();
            if have_inbox {
                for &i in &self.delivery.touched {
                    let p = i as usize;
                    if !self.st.table.wakeup_due(p, round) && !self.st.table.leased(p, round) {
                        self.due.push(i);
                    }
                }
            }
            if let Some((_, i)) = self.held.take_if(|&mut (end, _)| end <= round) {
                self.due.push(i);
            }
            if self.due.len() > indexed {
                self.due.sort();
            }
        } else {
            self.due.clear();
            let mut far: Option<Round> = None;
            let delivery = &self.delivery;
            let due = &mut self.due;
            let held = self.held.map(|(_, i)| i as usize);
            for (i, wake, leased) in self.st.table.live_wakeups(round) {
                if adv_due
                    || (have_inbox && delivery.has_inbox(i) && !leased)
                    || wake.is_some_and(|w| w <= round)
                {
                    due.push(i as u32);
                } else if let Some(w) = wake.filter(|_| !leased || held != Some(i)) {
                    far = Some(far.map_or(w, |f| f.min(w)));
                }
            }
            self.far = far;
            self.held.take_if(|&mut (end, _)| end <= round);
        }
        self.next_due.clear();

        // 3. Step every due process, in pid order, and let the adversary
        //    rule on it before the next one steps. Each survivor's
        //    refreshed wakeup goes into the index: exactly `next` joins
        //    `next_due` (in pid order, since the loop is), anything later
        //    lowers `far`. A process due next round may offer a lease; the
        //    offers are granted once the round's outcome is settled, below.
        let next = round.saturating_add(1);
        let mut offered = false;
        let mut eff = std::mem::replace(&mut self.eff, Effects::new());
        for di in 0..self.due.len() {
            let idx = self.due[di] as usize;
            debug_assert!(!self.st.table.leased(idx, round), "leased p{idx} stepped at {round}");
            eff.reset();
            let inbox = if have_inbox && self.delivery.has_inbox(idx) {
                self.delivery.inbox(idx, &self.st.pending)
            } else {
                Inbox::empty()
            };
            self.st.procs[idx].step(round, inbox, &mut eff);
            // The round model's rules on the step record (a violation is a
            // protocol bug): one unit of work per round, and no
            // `continue_later`, which only the asynchronous engine honours.
            let work = eff.work();
            assert!(
                work.len() <= 1,
                "model violation: at most one unit of work per round (p{idx} at {round}: {work:?})"
            );
            assert!(!eff.wants_tick(), "model violation: p{idx} called continue_later at {round}");
            self.settle(round, Pid::new(idx), &mut eff);
            // The step may have changed this process's timing state;
            // refresh its cached wakeup (retired slots are never read).
            if self.st.table.live.contains(idx) {
                let wake = self.st.procs[idx].next_wakeup(next).map(|w| w.max(next));
                self.st.table.set_wakeup(idx, wake);
                match wake {
                    Some(w) if w == next => {
                        self.next_due.push(idx as u32);
                        // Only an offer the adversary would permit costs
                        // the round a grant pass.
                        offered |= !self.st.trace.is_recording()
                            && self.st.procs[idx].lease(next).is_some()
                            && self.st.adversary.permits_lease(Pid::new(idx));
                    }
                    Some(w) => self.far = Some(self.far.map_or(w, |f| f.min(w))),
                    None => {}
                }
            }
        }
        self.eff = eff;

        self.observe_mem();

        // Did everyone retire? (A scheduled revival is not retirement.)
        if self.st.table.live.is_empty() && self.st.revive.is_empty() {
            self.st.finished = true;
            return Ok(());
        }

        // Swap the op buffers: last round's deliveries become the new
        // scratch, this round's sends become the in-flight set.
        std::mem::swap(&mut self.st.pending, &mut self.next_pending);
        self.next_pending.clear();

        // Watchdog: an executed round with no delivery, no work, and no
        // live-set movement extends the no-progress streak; exhausting the
        // window is a livelock verdict. Fast-forwarded rounds (below) are
        // provably quiescent and never counted.
        if delivered || leased_work || self.st.metrics.progress() != mark {
            self.st.last_progress = round;
            self.st.stall_streak = 0;
        } else {
            self.st.stall_streak += 1;
            if let Some(window) = self.st.cfg.stall_window {
                if self.st.stall_streak > window {
                    let metrics = self.error_metrics();
                    return Err(RunError::Stalled { window, metrics, diagnosis: self.diagnosis() });
                }
            }
        }

        // Grants come after the watchdog, so a `Stalled` payload carries no
        // work of rounds the run never reached.
        if offered {
            self.grant_leases(next, stop);
        }

        // Sparse fast-forward through provably idle rounds. Messages in
        // flight or a process in `next_due` make `next` the target (every
        // cached wakeup, adversary event and revival is clamped to at least
        // `next`, so nothing can come sooner).
        //
        // Otherwise, while a lease reaches past `next`, nobody steps before
        // the earliest of `far`, the held lease's end and a revival, and the
        // only thing those rounds hold is leased work, already credited: the
        // clock jumps there in O(1) and counts the rounds crossed as
        // executed, each with progress, as visiting them one by one would.
        // Leases end by the adversary's next event (which never moves
        // earlier), by `max_rounds + 1` and by the pause point, so the jump
        // does too.
        //
        // Only a fully quiescent round scans the live set for the earliest
        // cached wakeup — one O(live) scan per jump, however astronomically
        // far the target lies (Protocol C's silent waiting phases cost
        // exactly one jump each on the 128-bit clock) — and the exact
        // minimum it finds resets `far`. A saturated wakeup (`Round::MAX`)
        // is a legal target: a deadline past the representable horizon
        // fires *at* the horizon, exactly as the old 64-bit clock fired
        // saturated deadlines at `u64::MAX`.
        let quiet = self.st.pending.is_empty() && self.next_due.is_empty();
        let advanced = if quiet && self.lease_until > next {
            let held = self.held.map(|(end, _)| end);
            let target = [self.far, held, self.st.next_revive]
                .into_iter()
                .flatten()
                .fold(self.lease_until, Round::min)
                .max(next);
            if target > next {
                let last = Round::new(target.get() - 1);
                self.st.executed_rounds += (target - next) as u64;
                self.st.metrics.rounds = last;
                self.st.last_progress = last;
                self.st.stall_streak = 0;
            }
            target
        } else if quiet && self.lease_until < next {
            let wake = self.st.table.live_wakeups(next).filter_map(|(_, w, _)| w).min();
            self.far = wake;
            let wake = wake.map(|w| w.max(next));
            let adv = self.st.adversary.next_event(next).map(|r| r.max(next));
            let rev = self.st.next_revive.map(|r| r.max(next));
            match [wake, adv, rev].into_iter().flatten().min() {
                Some(target) => target,
                None => {
                    let metrics = self.error_metrics();
                    return Err(RunError::Deadlock { metrics, diagnosis: self.diagnosis() });
                }
            }
        } else {
            next
        };
        if advanced == round {
            // Live processes remain but the clock cannot advance past the
            // horizon: report the cap rather than spinning at Round::MAX.
            return Err(self.round_limit());
        }
        self.st.round = advanced;
        Ok(())
    }

    /// Grants the work leases offered from `next_due`. A permitted offer
    /// is clipped so that no leased round reaches the adversary's next
    /// event, the pause point `stop` or past `max_rounds`; its units go to
    /// the ledger at once, as one contiguous add, [`Protocol::advance`]
    /// moves the process past them, and it is parked until the lease ends.
    /// Granted processes leave `next_due`, whose other entries keep their
    /// order.
    fn grant_leases(&mut self, next: Round, stop: Option<Round>) {
        let event = self.st.adversary.next_event(next).map(|r| r.max(next));
        let cap = self.st.cfg.max_rounds.saturating_add(1);
        let horizon = [event, stop].into_iter().flatten().fold(cap, Round::min);
        if horizon <= next {
            return;
        }
        let room = horizon - next;
        let mut kept = 0;
        for k in 0..self.next_due.len() {
            let idx = self.next_due[k] as usize;
            let pid = Pid::new(idx);
            let offer = self.st.procs[idx].lease(next);
            match offer.filter(|_| self.st.adversary.permits_lease(pid)) {
                Some((first, len)) => {
                    debug_assert!(len >= 1, "{pid} offered an empty lease");
                    let len = u128::from(len).min(room) as u64;
                    let end = next + u128::from(len);
                    self.st.metrics.record_work(first, len as usize);
                    self.st.procs[idx].advance(len);
                    debug_assert_eq!(self.st.procs[idx].next_wakeup(end), Some(end), "{pid}");
                    self.st.table.lease(idx, end);
                    self.lease_until = self.lease_until.max(end);
                    if self.held.is_none() {
                        self.held = Some((end, idx as u32));
                    } else {
                        self.far = Some(self.far.map_or(end, |f| f.min(end)));
                    }
                }
                None => {
                    self.next_due[kept] = idx as u32;
                    kept += 1;
                }
            }
        }
        self.next_due.truncate(kept);
    }

    /// Applies the adversary's ruling to one stepped process: intercept,
    /// fate application, metrics, tracing, and outbound queueing — the
    /// tail of a step, in ascending pid order (adversary RNG draws, trace
    /// events, and message queue order all follow it). Every fate runs the
    /// same tail (see `Fate::ruling`); what is this plane's own is how
    /// escaping sends are queued (span runs) and how a revival is
    /// scheduled (the `revive` map).
    fn settle(&mut self, round: Round, pid: Pid, eff: &mut Effects<P::Msg>) {
        let idx = pid.index();
        let ctx = AdversaryCtx::new(&self.st.table.live, self.st.metrics.crashes);
        let fate = self.st.adversary.intercept(round, pid, eff, ctx);
        let ruling = fate.ruling();

        for tag in eff.notes() {
            self.st.trace.push(Event::Note { round, pid, tag });
        }

        if let Some(&unit) = eff.work().first().filter(|_| ruling.count_work) {
            self.st.metrics.record_work(unit, 1);
            self.st.trace.push(Event::Work { round, pid, unit });
        }

        // Most steps send nothing: skip building and dropping a `Drain`
        // for them. `Drain::drop` is an out-of-line call per step whenever
        // the inliner declines it, which on the step-bound giant cells is a
        // tenth of the pass.
        if eff.send_count() > 0 {
            // The filter indexes messages in send order (spans expand in
            // ascending pid order). Unfiltered ops go out whole; a partial
            // filter splits an op into its maximal runs of escaping
            // recipients, one payload clone per extra run (never per
            // recipient).
            let total = eff.send_count() as u64;
            let before = self.st.metrics.messages;
            let mut msg_idx = 0usize;
            for op in eff.drain_sends() {
                let len = op.to.len();
                match ruling.filter {
                    None => self.queue(round, pid, op.to, op.payload),
                    Some(Deliver::None) => {}
                    Some(d) => {
                        let escaping = op
                            .to
                            .iter()
                            .enumerate()
                            .filter(|&(k, to)| d.lets_through(msg_idx + k, to))
                            .map(|(_, to)| to);
                        split_runs(escaping, op.payload, |run, m| {
                            let to = Recipients::Span { lo: run.start, hi: run.end };
                            self.queue(round, pid, to, m);
                        });
                    }
                }
                msg_idx += len;
            }
            // Send omission: the surviving process's suppressed messages
            // never left it. (A crash's unsent messages are not omissions.)
            let suppressed = total - (self.st.metrics.messages - before);
            if !ruling.crash && suppressed > 0 {
                self.st.metrics.omissions += suppressed;
                self.st.trace.push(Event::Note { round, pid, tag: "fault:omit" });
            }
        }

        if ruling.crash || eff.is_terminated() {
            let st = &mut self.st;
            st.table.retire(idx, !ruling.crash, round, &mut st.metrics, &mut st.trace);
        }
        if let Some((downtime, wipe)) = ruling.revival {
            let at = round.saturating_add(u128::from(downtime));
            self.st.revive.insert(idx as u32, (at, wipe));
            self.st.next_revive = Some(self.st.next_revive.map_or(at, |r| r.min(at)));
        }
    }

    /// Queues one surviving send op for next round's delivery: bulk
    /// message accounting (O(1) per op) plus per-recipient trace events
    /// when tracing is on.
    fn queue(&mut self, round: Round, from: Pid, to: Recipients, payload: P::Msg) {
        let class = payload.class();
        self.st.metrics.record_messages(class, to.len() as u64);
        if self.st.trace.is_recording() {
            for recipient in to.iter() {
                self.st.trace.push(Event::Send { round, from, to: recipient, class });
            }
        }
        self.next_pending.push(FlightOp { from, to, payload });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashSpec, NoFailures};
    use crate::faults::FaultPlan;
    use crate::ids::Unit;

    /// Token ring: process 0 starts the token at its wakeup round; each
    /// process performs one unit, forwards the token, and terminates.
    #[derive(Clone, Debug)]
    struct Token;
    impl Classify for Token {
        fn class(&self) -> &'static str {
            "token"
        }
    }

    struct Ring {
        me: usize,
        t: usize,
        start_at: Round,
        done: bool,
    }

    impl Ring {
        fn procs(t: usize, start_at: impl Into<Round>) -> Vec<Ring> {
            let start_at = start_at.into();
            (0..t).map(|me| Ring { me, t, start_at, done: false }).collect()
        }
    }

    impl Protocol for Ring {
        type Msg = Token;

        fn step(&mut self, round: Round, inbox: Inbox<'_, Token>, eff: &mut Effects<Token>) {
            if self.done {
                return;
            }
            let triggered = (self.me == 0 && round >= self.start_at) || !inbox.is_empty();
            if triggered {
                eff.perform(Unit::new(self.me + 1));
                if self.me + 1 < self.t {
                    eff.send(Pid::new(self.me + 1), Token);
                }
                eff.terminate();
                self.done = true;
            }
        }

        fn next_wakeup(&self, now: Round) -> Option<Round> {
            if self.me == 0 && !self.done {
                Some(self.start_at.max(now))
            } else {
                None
            }
        }
    }

    #[test]
    fn ring_completes_with_exact_metrics() {
        let report = run(Ring::procs(4, 1), NoFailures, RunConfig::new(4, 100)).unwrap();
        assert_eq!(report.metrics.work_total, 4);
        assert_eq!(report.metrics.messages, 3);
        assert_eq!(report.metrics.rounds, 4u64);
        assert!(report.metrics.all_work_done());
        assert_eq!(report.survivor_count(), 4);
        assert_eq!(report.survivors(), vec![Pid::new(0), Pid::new(1), Pid::new(2), Pid::new(3)]);
        assert_eq!(report.survivors_iter().count(), report.survivor_count());
        assert_eq!(report.metrics.messages_by_class["token"], 3);
    }

    #[test]
    fn fast_forward_skips_to_distant_wakeups_without_losing_time() {
        let report =
            run(Ring::procs(3, 1_000_000), NoFailures, RunConfig::new(3, 2_000_000)).unwrap();
        // Time reflects the skipped idle prefix...
        assert_eq!(report.metrics.rounds, 1_000_002u64);
        // ...but the run completes quickly (if it executed every round this
        // test would take far too long, so reaching here at all is the
        // point).
        assert_eq!(report.metrics.work_total, 3);
    }

    #[test]
    fn round_limit_is_enforced() {
        let err = run(Ring::procs(3, 50), NoFailures, RunConfig::new(3, 10)).unwrap_err();
        match err {
            RunError::RoundLimit { limit, .. } => assert_eq!(limit, 10u64),
            other => panic!("expected RoundLimit, got {other}"),
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn run_error_stays_within_64_bytes() {
        // Metrics and diagnosis are boxed, so every `Result<_, RunError>`
        // the engines pass around stays small.
        assert!(std::mem::size_of::<RunError>() <= 64, "{}", std::mem::size_of::<RunError>());
    }

    #[test]
    fn silent_crash_of_token_holder_deadlocks_the_ring() {
        // Crash p1 the round it would forward the token: the remaining
        // processes wait forever — the engine must detect this, not hang.
        let schedule = FaultPlan::default().crash_at(Pid::new(1), 2, CrashSpec::silent());
        let err = run(Ring::procs(3, 1), schedule, RunConfig::new(3, 1000)).unwrap_err();
        match err {
            RunError::Deadlock { diagnosis, .. } => {
                assert_eq!(diagnosis.stalled, [(Pid::new(2), Waiting::Wakeup(None))]);
            }
            other => panic!("expected Deadlock, got {other}"),
        }
    }

    #[test]
    fn crash_with_full_delivery_lets_the_token_escape() {
        let schedule = FaultPlan::default().crash_at(Pid::new(1), 2, CrashSpec::after_round());
        let report = run(Ring::procs(3, 1), schedule, RunConfig::new(3, 1000)).unwrap();
        // p1 crashed but its work and send both counted.
        assert_eq!(report.metrics.work_total, 3);
        assert_eq!(report.metrics.messages, 2);
        assert_eq!(report.metrics.crashes, 1);
        assert_eq!(report.statuses[1], Status::Crashed(Round::new(2)));
        assert!(report.has_survivor());
    }

    #[test]
    fn crash_with_suppressed_work_uncounts_the_unit() {
        let schedule = FaultPlan::default().crash_at(
            Pid::new(2),
            3,
            CrashSpec { deliver: crate::Deliver::All, count_work: false },
        );
        let report = run(Ring::procs(3, 1), schedule, RunConfig::new(3, 1000)).unwrap();
        assert_eq!(report.metrics.work_total, 2);
        assert!(!report.metrics.all_work_done());
        assert_eq!(report.metrics.missing_units(), vec![Unit::new(3)]);
    }

    #[test]
    fn dead_letters_are_counted_for_retired_recipients() {
        // Crash p1 one round before the token reaches it.
        let schedule = FaultPlan::default().crash_at(Pid::new(1), 1, CrashSpec::silent());
        let err = run(Ring::procs(3, 1), schedule, RunConfig::new(3, 1000)).unwrap_err();
        match err {
            RunError::Deadlock { metrics, .. } => {
                assert_eq!(metrics.dead_letters, 1);
                assert_eq!(metrics.messages, 1);
            }
            other => panic!("expected Deadlock, got {other}"),
        }
    }

    #[test]
    fn trace_records_all_event_kinds() {
        let report =
            run(Ring::procs(2, 1), NoFailures, RunConfig::new(2, 100).with_trace()).unwrap();
        let kinds: Vec<&str> = report
            .trace
            .events()
            .iter()
            .map(|e| match e {
                Event::Work { .. } => "work",
                Event::Send { .. } => "send",
                Event::Terminate { .. } => "terminate",
                Event::Crash { .. } => "crash",
                Event::Note { .. } => "note",
                Event::Notice { .. } => "notice", // async-plane only
                Event::Recover { .. } => "recover",
            })
            .collect();
        assert_eq!(kinds, vec!["work", "send", "terminate", "work", "terminate"]);
    }

    #[test]
    fn statuses_report_rounds() {
        let report = run(Ring::procs(2, 1), NoFailures, RunConfig::new(2, 100)).unwrap();
        assert_eq!(report.statuses[0], Status::Terminated(Round::new(1)));
        assert_eq!(report.statuses[1], Status::Terminated(Round::new(2)));
        assert_eq!(Status::Terminated(Round::new(2)).round(), Some(Round::new(2)));
        assert_eq!(Status::Alive.round(), None);
    }

    /// Broadcasts a span to everyone each round; used to pin down span
    /// delivery, dead-letter intersection, and crash filters over spans.
    struct Blaster {
        me: usize,
        t: usize,
        rounds: Round,
        received: u64,
    }

    #[derive(Clone, Debug)]
    struct Blast;
    impl Classify for Blast {
        fn class(&self) -> &'static str {
            "blast"
        }
    }

    impl Protocol for Blaster {
        type Msg = Blast;

        fn step(&mut self, round: Round, inbox: Inbox<'_, Blast>, eff: &mut Effects<Blast>) {
            self.received += inbox.len() as u64;
            for (from, _) in inbox.iter() {
                assert_ne!(from.index(), self.me, "nobody self-addresses here");
            }
            if round <= self.rounds {
                // Everyone else, as two spans around `me`.
                eff.multicast_except(0..self.t, self.me, Blast);
            }
            if round == self.rounds + 1u64 {
                eff.terminate();
            }
        }

        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }

    fn blasters(t: usize, rounds: impl Into<Round>) -> Vec<Blaster> {
        let rounds = rounds.into();
        (0..t).map(|me| Blaster { me, t, rounds, received: 0 }).collect()
    }

    #[test]
    fn span_broadcasts_count_per_recipient_and_deliver_to_all() {
        let t = 5;
        let report = run(blasters(t, 3), NoFailures, RunConfig::new(0, 10)).unwrap();
        // 3 rounds × 5 senders × 4 recipients.
        assert_eq!(report.metrics.messages, 3 * 5 * 4);
        assert_eq!(report.metrics.messages_by_class["blast"], 60);
        assert_eq!(report.metrics.dead_letters, 0);
        assert_eq!(report.survivor_count(), t);
    }

    #[test]
    fn span_intersection_with_dead_recipients_yields_dead_letters() {
        // p2 dies silently in round 1; round-1 messages sent by the others
        // to p2 (4 of them) arrive at round 2 as dead letters, and p2's own
        // round-1 sends are suppressed.
        let t = 5;
        let adv = FaultPlan::default().crash_at(Pid::new(2), 1, CrashSpec::silent());
        let report = run(blasters(t, 2), adv, RunConfig::new(0, 10)).unwrap();
        // Round 1: 4 survivors × 4 + p2 suppressed. Round 2: 4 × 4.
        assert_eq!(report.metrics.messages, 16 + 16);
        // Dead letters: round-2 deliveries to p2 (4) and round-3
        // deliveries to p2 (4).
        assert_eq!(report.metrics.dead_letters, 8);
    }

    #[test]
    fn prefix_crash_truncates_spans_at_the_message_boundary() {
        // p2 in a t = 6 system sends spans 0..2 (2 msgs) then 3..6
        // (3 msgs). Prefix(3) must deliver 0..2 whole and only p3 from the
        // second span.
        let t = 6;
        let adv = FaultPlan::default().crash_at(Pid::new(2), 1, CrashSpec::prefix(3));
        let report = run(blasters(t, 1), adv, RunConfig::new(0, 10).with_trace()).unwrap();
        let from_p2: Vec<usize> = report
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Send { from, to, .. } if *from == Pid::new(2) => Some(to.index()),
                _ => None,
            })
            .collect();
        assert_eq!(from_p2, vec![0, 1, 3]);
        // 5 surviving senders × 5 recipients + 3 let-through from p2.
        assert_eq!(report.metrics.messages, 25 + 3);
    }

    #[test]
    fn subset_crash_fragments_spans_into_runs() {
        // p0 broadcasts the span 1..6; the subset {1, 2, 4} splits it into
        // the runs [1,2] and [4].
        struct SpanOnce {
            me: usize,
            sent: bool,
        }
        impl Protocol for SpanOnce {
            type Msg = Blast;
            fn step(&mut self, _: Round, _: Inbox<'_, Blast>, eff: &mut Effects<Blast>) {
                if self.me == 0 && !self.sent {
                    eff.multicast(1..6, Blast);
                    self.sent = true;
                }
                eff.terminate();
            }
            fn next_wakeup(&self, now: Round) -> Option<Round> {
                Some(now)
            }
        }
        let procs: Vec<SpanOnce> = (0..6).map(|me| SpanOnce { me, sent: false }).collect();
        let adv = FaultPlan::default().crash_at(
            Pid::new(0),
            1,
            CrashSpec::subset([Pid::new(1), Pid::new(2), Pid::new(4)]),
        );
        let report = run(procs, adv, RunConfig::new(0, 10).with_trace()).unwrap();
        let tos: Vec<usize> = report
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Send { to, .. } => Some(to.index()),
                _ => None,
            })
            .collect();
        assert_eq!(tos, vec![1, 2, 4]);
        assert_eq!(report.metrics.messages, 3);
    }

    #[test]
    fn order_compaction_preserves_pid_order_across_mass_retirement() {
        // Retire most of a large system early; the survivors' later rounds
        // must still step in pid order (the ring relies on it) and produce
        // the same metrics as a fresh small system.
        let t = 64;
        let mut adv = FaultPlan::default();
        for p in 8..t {
            adv = adv.crash_at(Pid::new(p), 1, CrashSpec::silent());
        }
        let report = run(blasters(t, 6), adv, RunConfig::new(0, 20)).unwrap();
        assert_eq!(report.metrics.crashes, (t - 8) as u32);
        assert_eq!(report.survivor_count(), 8);
        // Round 1: 64 senders × 63... minus the 56 suppressed silent
        // crashers: 8 × 63. Rounds 2..=6: 8 × 63 each (spans still address
        // everyone; the dead become dead letters).
        assert_eq!(report.metrics.messages, 6 * 8 * 63);
        assert_eq!(report.metrics.dead_letters, 6 * 8 * 56);
    }
}
