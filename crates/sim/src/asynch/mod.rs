//! Event-driven asynchronous engine with a retirement detector — the
//! asynchronous peer of the synchronous round engine, built on the same
//! span-multicast message plane.
//!
//! §2.1 of the paper observes that Protocol A "can be easily modified to
//! run in a completely asynchronous system equipped with a failure
//! detection mechanism": instead of waiting for the deadline `DD(j)`,
//! process `j` waits until it has been *informed* that processes
//! `0, …, j−1` crashed or terminated. This module provides that system:
//!
//! * messages experience arbitrary finite, adversary-seeded delays (see
//!   [`DelayDist`]);
//! * a **retirement detector** eventually informs every alive process of
//!   every retirement (crash *or* voluntary termination), and is *sound*:
//!   it never accuses a live process. (The paper's text speaks of being
//!   "informed that processes 1, …, j−1 crashed **or terminated**", which
//!   is why the detector reports retirement rather than just crashes.)
//!
//! Time is not a meaningful complexity measure here; the engine reports
//! work and message counts, which is exactly what the paper claims carries
//! over from the synchronous analysis.
//!
//! A handler records its actions on the same [`Effects`] a synchronous
//! step does. Only the rules differ: untimed, a handler may perform any
//! number of units, and [`Effects::continue_later`] asks for an
//! [`AsyncProtocol::on_tick`] one time-step later — the round engine
//! rejects both.
//!
//! ## The op arena
//!
//! An in-flight payload lives **once**, in a slab slot shared by every
//! recipient of its send op; the event queue carries `(time, op_id,
//! recipient)` triples, so a `k`-recipient broadcast costs `k` 16-byte
//! events and **zero payload clones** (the pre-PR-4 engine cloned the
//! payload `k − 1` times at scheduling). A slot is freed once its last
//! recipient has been served, so arena memory is bounded by the in-flight
//! high-water mark.
//!
//! ## Notice runs
//!
//! The detector's reports outnumber deliveries, and a crash storm issues
//! them in bursts, so they are not queued one event per observer. A
//! retirement draws each alive observer's delay (one draw per observer,
//! ascending pid), groups the pids by delay into one pid array in a slot of
//! the notice-run table — a counting sort with one bucket per calendar
//! slot, plus one overflow bucket, sorted on its own, for draws wider than
//! the ring — and queues one `NoticeRun` event per distinct delay, in
//! ascending delay: one per fan-out under [`DelayDist::Fixed`], at most two
//! under [`DelayDist::Bimodal`]. A revival's replay of past retirements is
//! the same fan-out with the observer fixed. Dispatch walks a run in place,
//! one [`AsyncProtocol::on_retirement`] invocation per observer still
//! alive. Since nothing else is pushed between a fan-out's runs, each
//! timestamp's share of it is contiguous in schedule order and ascending by
//! pid — the order per-observer events would have had — so runs change no
//! handler call, RNG draw or trace event.
//!
//! ## Batched delivery
//!
//! All messages reaching one process at one timestamp are handed to its
//! [`AsyncProtocol::on_messages`] handler together, as a borrowing
//! [`Inbox`] view straight over the arena — the same zero-copy inbox the
//! synchronous engine hands to [`Protocol::step`](crate::Protocol::step).
//!
//! ## Fault injection
//!
//! Faults come from a pluggable [`AsyncAdversary`] ruling per handler
//! invocation with the synchronous plane's [`crate::Fate`] /
//! [`crate::CrashSpec`] / [`crate::Deliver`]
//! vocabulary — fail-stop crashes (possibly mid-broadcast), send omission
//! ([`crate::Fate::Omit`]), receive omission
//! ([`AsyncAdversary::omits_delivery`]), and crash-recovery
//! ([`crate::Fate::CrashRecover`], which restarts the
//! victim — stale or wiped — after its downtime via
//! [`AsyncProtocol::on_recover`]); a [`FaultPlan`](crate::FaultPlan) drives
//! named-fault schedules on both planes. With
//! [`AsyncConfig::record_trace`] set, runs record a [`Trace`] whose events
//! feed the ported invariant checkers (including
//! [`check_detector_soundness`](crate::invariants::check_detector_soundness)).

mod adversary;
mod queue;

use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

pub use adversary::AsyncAdversary;

use crate::adversary::{AdversaryCtx, Fate};
use crate::effects::Effects;
use crate::engine::{
    survivor_queries, MemBudget, ProcTable, RunError, StallDiagnosis, Status, Waiting,
};
use crate::ids::{Pid, Round};
use crate::message::{Classify, FlightOp, Inbox};
use crate::metrics::Metrics;
use crate::trace::{Event, Trace};

use queue::{ring_width, Ev, EventQueue};

/// Logical timestamp of the asynchronous scheduler — the same wide
/// virtual-time clock as the synchronous plane's [`Round`], so traces,
/// metrics and invariant checkers speak one time type across both engines
/// and arbitrarily deep idle stretches stay representable.
pub type Time = Round;

/// How per-hop delays are drawn. Every distribution is bounded by
/// [`AsyncConfig::max_delay`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayDist {
    /// Uniform in `1..=max_delay` — the classic adversary-seeded delay.
    #[default]
    Uniform,
    /// Every hop takes exactly `max_delay`: a lockstep-like schedule that
    /// makes the asynchronous plane behave like a slowed synchronous one.
    Fixed,
    /// Half the hops are fast (delay 1), half are `max_delay` stragglers —
    /// the tail-latency shape real networks exhibit.
    Bimodal,
}

impl DelayDist {
    fn sample(self, rng: &mut SmallRng, max_delay: u64) -> u64 {
        match self {
            DelayDist::Uniform => rng.gen_range(1..=max_delay),
            DelayDist::Fixed => max_delay,
            DelayDist::Bimodal => {
                if rng.gen_bool(0.5) {
                    1
                } else {
                    max_delay
                }
            }
        }
    }

    /// A short, stable label for tables and logs, naming the bound the
    /// engine uses: a `max_delay` of `0` reads as `1`.
    pub fn label(self, max_delay: u64) -> String {
        let max_delay = max_delay.max(1);
        match self {
            DelayDist::Uniform => format!("uniform(1..={max_delay})"),
            DelayDist::Fixed => format!("fixed({max_delay})"),
            DelayDist::Bimodal => format!("bimodal(1|{max_delay})"),
        }
    }
}

/// The asynchronous plane's old name for [`Effects`], the one step record
/// both planes share. This name survives only because the frozen
/// `benchmark/` crate (`src/span.rs`) still uses it.
pub type AsyncEffects<M> = Effects<M>;

/// A per-process asynchronous protocol.
pub trait AsyncProtocol {
    /// Message payload type.
    type Msg: Clone + fmt::Debug + Classify;

    /// Invoked once at the start of the execution.
    fn on_start(&mut self, eff: &mut Effects<Self::Msg>);

    /// Invoked when messages arrive: every message reaching this process
    /// at one timestamp is delivered in a single batched [`Inbox`] view
    /// (iterated as `(sender, &payload)` in schedule order), borrowing
    /// straight from the engine's op arena — no payload is cloned.
    fn on_messages(&mut self, inbox: Inbox<'_, Self::Msg>, eff: &mut Effects<Self::Msg>);

    /// Invoked when the retirement detector reports that `retired` has
    /// crashed or terminated. Reports are sound and eventually complete,
    /// but arbitrarily delayed; each retirement is reported once per
    /// observer — except that the detector replays all past retirements
    /// to a process that recovers from a crash (see
    /// [`on_recover`](AsyncProtocol::on_recover)), so implementations
    /// must treat repeated reports idempotently.
    fn on_retirement(&mut self, retired: Pid, eff: &mut Effects<Self::Msg>);

    /// Invoked after a previous handler called
    /// [`Effects::continue_later`]. Default: no-op.
    fn on_tick(&mut self, eff: &mut Effects<Self::Msg>) {
        let _ = eff;
    }

    /// Invoked when the engine restarts this process after a
    /// [`Fate::CrashRecover`](crate::Fate::CrashRecover) downtime. With
    /// `wipe`, the process lost all state and must reset to its initial
    /// configuration; without it, the state is exactly what it was at the
    /// crash (stale: every message delivered during the downtime was
    /// lost). This is a full handler invocation — record sends, work or a
    /// [`continue_later`](Effects::continue_later) on `eff` to
    /// re-establish any tick chain the crash severed. The default keeps
    /// the stale state and does nothing, which is safe for protocols whose
    /// progress claims tolerate silent periods.
    fn on_recover(&mut self, wipe: bool, eff: &mut Effects<Self::Msg>) {
        let _ = (wipe, eff);
    }
}

/// Configuration of an asynchronous run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Number of work units (pre-sizes metrics).
    pub n: usize,
    /// Seed for delay randomness (runs are reproducible per seed).
    pub seed: u64,
    /// Maximum message / detector-notice delay (`0` is read as `1`). Any
    /// value is valid and none changes which code runs: the event queue's
    /// ring is sized from it up to a fixed cap, and wider delays route
    /// their far draws through the queue's overflow heap.
    pub max_delay: u64,
    /// Shape of the per-hop delay distribution within `1..=max_delay`.
    pub delay: DelayDist,
    /// Safety cap on handler invocations.
    pub max_events: u64,
    /// Whether to record a full [`Trace`] (tests: yes; large sweeps: no).
    pub record_trace: bool,
    /// Watchdog window in virtual time: if more than this many time-steps
    /// elapse after the last *progress* (a delivered message batch, or any
    /// movement of the work / crash / termination / recovery counters),
    /// the run fails with [`RunError::Stalled`], the variant the sync
    /// watchdog ([`RunConfig::stall_window`](crate::RunConfig::stall_window))
    /// raises too.
    /// `None` (the default) disables the watchdog.
    pub stall_window: Option<u64>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            n: 0,
            seed: 0,
            max_delay: 5,
            delay: DelayDist::Uniform,
            max_events: 10_000_000,
            record_trace: false,
            stall_window: None,
        }
    }
}

impl AsyncConfig {
    /// Convenience constructor for an `n`-unit workload with a seed.
    pub fn new(n: usize, seed: u64) -> Self {
        AsyncConfig { n, seed, ..Default::default() }
    }

    /// Sets the delay distribution and its bound.
    pub fn with_delay(mut self, delay: DelayDist, max_delay: u64) -> Self {
        self.delay = delay;
        self.max_delay = max_delay;
        self
    }

    /// Enables trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Arms the livelock watchdog (see [`AsyncConfig::stall_window`]).
    pub fn with_stall_window(mut self, window: u64) -> Self {
        self.stall_window = Some(window);
        self
    }
}

/// Result of an asynchronous run.
///
/// Two reports compare equal when their *semantic* outcome matches —
/// metrics, statuses, and trace. The [`mem`](AsyncReport::mem)
/// probe and [`executed`](AsyncReport::executed) counter are excluded from
/// equality, mirroring [`Report`](crate::Report): they measure host-side
/// footprint and effort, not the simulated execution.
#[derive(Clone, Debug)]
pub struct AsyncReport {
    /// Work / message counters (rounds field holds the final timestamp).
    pub metrics: Metrics,
    /// Final status of each process, in [`Report`](crate::Report)'s
    /// vocabulary: the timestamp at which it crashed or terminated, or
    /// [`Status::Alive`] (only on a paused or failed run). A process that
    /// recovered from a crash reads its later fate.
    pub statuses: Vec<Status>,
    /// Event log (empty unless [`AsyncConfig::record_trace`] was set); the
    /// `round` field of each event holds the logical timestamp. Protocol
    /// notes live only here, as on the synchronous plane: read them with
    /// [`Trace::notes`] on a traced run.
    pub trace: Trace,
    /// Peak memory held by the engine (arena, event queue, SoA columns,
    /// scratch) — see [`MemBudget`]. The reference scheduler in the test
    /// suite's `tests/support/` reports zeroes: it is an executable spec,
    /// not a measured engine.
    pub mem: MemBudget,
    /// Number of timestamp batches the engine actually processed — the
    /// async peer of [`Report::executed_rounds`](crate::Report::executed_rounds)
    /// and the correct denominator for wall-clock rates
    /// ([`Metrics::rounds`] holds the final *virtual* timestamp, which
    /// idle stretches inflate arbitrarily).
    pub executed: u64,
}

impl PartialEq for AsyncReport {
    fn eq(&self, other: &Self) -> bool {
        self.metrics == other.metrics
            && self.statuses == other.statuses
            && self.trace == other.trace
    }
}

impl Eq for AsyncReport {}

impl AsyncReport {
    survivor_queries!();
}

/// The asynchronous engine's errors are the synchronous engine's
/// [`RunError`]. This name survives only because the frozen `benchmark/`
/// crate still uses it.
pub type AsyncRunError = RunError;

/// The in-flight op slab: every payload lives in exactly one slot, shared
/// by all its pending delivery events; `refs` counts the deliveries still
/// outstanding and a slot returns to the free list when it hits zero (the
/// stale value is overwritten on reuse), so memory is bounded by the
/// in-flight high-water mark.
#[derive(Clone)]
struct OpArena<M> {
    slots: Vec<FlightOp<M>>,
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl<M> OpArena<M> {
    fn new() -> Self {
        OpArena { slots: Vec::new(), refs: Vec::new(), free: Vec::new() }
    }

    /// Stores `op` once, with `refs` pending deliveries.
    fn insert(&mut self, op: FlightOp<M>, refs: u32) -> u32 {
        debug_assert!(refs > 0, "an op with no deliveries must not enter the arena");
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = op;
                self.refs[id as usize] = refs;
                id
            }
            None => {
                self.slots.push(op);
                self.refs.push(refs);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Marks one delivery of `id` as served.
    fn release(&mut self, id: u32) {
        let r = &mut self.refs[id as usize];
        debug_assert!(*r > 0, "op released more times than it was referenced");
        *r -= 1;
        if *r == 0 {
            self.free.push(id);
        }
    }

    fn ops(&self) -> &[FlightOp<M>] {
        &self.slots
    }
}

/// One retirement-detector fan-out: the pid shared by all its reports,
/// and the other side of each report grouped by drawn delay (ascending pid
/// within a delay), so that each [`Ev::NoticeRun`] names a contiguous
/// range of `pids`. Runs are queued at strictly increasing times, so the
/// run ending at `pids.len()` is the last one dispatched.
#[derive(Clone, Default)]
struct NoticeFan {
    pids: Box<[Pid]>,
    /// The retired process of a retirement fan-out, or the observer of a
    /// revival replay.
    fixed: Pid,
    /// Whether `fixed` is the observer (a revival replay: one observer
    /// told of many retirements) rather than the retired process.
    replay: bool,
}

impl NoticeFan {
    /// The `(observer, retired)` pair of report `k`.
    fn notice(&self, k: u32) -> (Pid, Pid) {
        let other = self.pids[k as usize];
        if self.replay {
            (self.fixed, other)
        } else {
            (other, self.fixed)
        }
    }
}

/// The notice-run table: one slot per fan-out with runs still queued,
/// recycled through a free list like the op arena's. A freed slot drops
/// its pids; `pids` counts the live ones so the memory probe never scans
/// the table.
#[derive(Clone, Default)]
struct NoticeRuns {
    fans: Vec<NoticeFan>,
    free: Vec<u32>,
    pids: usize,
}

impl NoticeRuns {
    /// Stores a fan-out whose pids, grouped by delay, are `pids` and
    /// returns its slot.
    fn insert(&mut self, fixed: Pid, replay: bool, pids: Box<[Pid]>) -> u32 {
        let fan = NoticeFan { pids, fixed, replay };
        self.pids += fan.pids.len();
        match self.free.pop() {
            Some(slot) => {
                self.fans[slot as usize] = fan;
                slot
            }
            None => {
                self.fans.push(fan);
                (self.fans.len() - 1) as u32
            }
        }
    }

    /// Marks the run of `slot` ending at position `end` as dispatched,
    /// freeing the slot after its last run.
    fn release(&mut self, slot: u32, end: u32) {
        let fan = &mut self.fans[slot as usize];
        if end as usize == fan.pids.len() {
            self.pids -= fan.pids.len();
            fan.pids = Box::default();
            self.free.push(slot);
        }
    }

    fn bytes(&self) -> usize {
        self.fans.capacity() * std::mem::size_of::<NoticeFan>()
            + self.pids * std::mem::size_of::<Pid>()
            + self.free.capacity() * 4
    }
}

/// One notice fan-out in the making: its `(delay, pid)` draws in draw
/// (ascending pid) order, counted into buckets as they are drawn, and then
/// laid into the notice-run table by [`queue_runs`](FanOut::queue_runs).
/// Scratch: between fan-outs it holds no draw and every bucket is zero.
struct FanOut {
    draws: Vec<(u64, Pid)>,
    /// Draws per bucket: one bucket per delay below the ring's width, then
    /// one overflow bucket for every draw at or past it.
    sizes: Vec<u32>,
    /// The overflow bucket's draws, stable-sorted by delay; empty whenever
    /// `max_delay` fits the ring.
    far: Vec<(u64, Pid)>,
    /// The smallest and the largest delay drawn.
    lo: u64,
    hi: u64,
}

impl FanOut {
    fn new(max_delay: u64) -> Self {
        let sizes = vec![0; ring_width(max_delay) + 1];
        FanOut { draws: Vec::new(), sizes, far: Vec::new(), lo: u64::MAX, hi: 0 }
    }

    /// The bucket of `delay`: its calendar slot below the ring's width,
    /// the overflow bucket (the last) at or past it.
    fn bucket(&self, delay: u64) -> usize {
        delay.min(self.sizes.len() as u64 - 1) as usize
    }

    /// Records the drawn delay of the report to or about `pid`.
    fn draw(&mut self, delay: u64, pid: Pid) {
        let b = self.bucket(delay);
        self.sizes[b] += 1;
        self.lo = self.lo.min(delay);
        self.hi = self.hi.max(delay);
        self.draws.push((delay, pid));
    }

    /// Stores the drawn fan-out around the shared pid `fixed` (the retired
    /// process, or with `replay` the observer) in a slot of `notices`,
    /// grouped by delay, and queues one run per distinct delay.
    ///
    /// The grouping is a counting sort keyed by calendar slot: each
    /// bucket below the ring's width scatters its pids straight into the
    /// slot's pid array in draw order, and the overflow bucket, at the end
    /// of the array, is the only one stable-sorted by delay. A fan-out
    /// whose draws share one delay (every `Fixed` one) is stored in draw
    /// order. Either way each run is ascending by pid, the runs are queued
    /// in ascending delay with consecutive `seq`s — so the queue orders
    /// them against every other event exactly as it would the per-report
    /// events — and the slot's last run is its last dispatched.
    fn queue_runs(
        &mut self,
        now: Time,
        fixed: Pid,
        replay: bool,
        notices: &mut NoticeRuns,
        queue: &mut EventQueue,
    ) {
        if self.draws.is_empty() {
            return;
        }
        let (lo, hi) = (std::mem::replace(&mut self.lo, u64::MAX), std::mem::take(&mut self.hi));
        if lo == hi {
            let b = self.bucket(lo);
            let len = std::mem::take(&mut self.sizes[b]);
            let pids = self.draws.drain(..).map(|(_, pid)| pid).collect();
            let slot = notices.insert(fixed, replay, pids);
            queue.push(now + lo, Ev::NoticeRun { slot, start: 0, len });
            return;
        }
        // Bucket sizes become start positions, then (after the scatter)
        // end positions.
        let far = self.sizes.len() - 1;
        let (lo, hi) = (self.bucket(lo), self.bucket(hi));
        let mut end = 0u32;
        for size in &mut self.sizes[lo..=hi] {
            end += std::mem::replace(size, end);
        }
        let mut pids = vec![Pid::default(); self.draws.len()].into_boxed_slice();
        for &(delay, pid) in &self.draws {
            let b = self.bucket(delay);
            if b == far {
                self.far.push((delay, pid));
            } else {
                pids[self.sizes[b] as usize] = pid;
                self.sizes[b] += 1;
            }
        }
        self.far.sort_by_key(|&(delay, _)| delay);
        let tail = pids.len() - self.far.len();
        for (to, &(_, pid)) in pids[tail..].iter_mut().zip(&self.far) {
            *to = pid;
        }
        let slot = notices.insert(fixed, replay, pids);
        let mut start = 0u32;
        for b in lo..=hi.min(far - 1) {
            let end = std::mem::take(&mut self.sizes[b]);
            if end > start {
                queue.push(now + b as u64, Ev::NoticeRun { slot, start, len: end - start });
                start = end;
            }
        }
        self.sizes[far] = 0;
        for run in self.far.chunk_by(|a, b| a.0 == b.0) {
            let len = run.len() as u32;
            queue.push(now + run[0].0, Ev::NoticeRun { slot, start, len });
            start += len;
        }
        self.far.clear();
        self.draws.clear();
    }

    fn bytes(&self) -> usize {
        (self.draws.capacity() + self.far.capacity()) * std::mem::size_of::<(u64, Pid)>()
            + self.sizes.capacity() * 4
    }
}

/// A serializable snapshot of an [`AsyncEngine`] at a batch boundary —
/// which is to say the engine's run state itself: the engine holds one
/// value of this type and [`AsyncEngine::snapshot`] clones it.
///
/// Captures *everything* the engine needs to continue — protocol states,
/// the op arena with its in-flight payloads, the notice-run table with its
/// partly dispatched fan-outs, the full event schedule
/// (including tie-breaking sequence numbers), the delay RNG mid-stream,
/// metrics, trace, the process table and the pending revivals — so that
/// [`AsyncEngine::resume`] followed by a run to completion is
/// **bit-identical** to the uninterrupted run.
#[derive(Clone, Serialize, Deserialize)]
pub struct AsyncEngineSnapshot<P: AsyncProtocol, A> {
    procs: Vec<P>,
    adversary: A,
    cfg: AsyncConfig,
    rng: SmallRng,
    queue: EventQueue,
    arena: OpArena<P::Msg>,
    notices: NoticeRuns,
    metrics: Metrics,
    trace: Trace,
    // Status, retirement time and live set, shared with the sync engine.
    table: ProcTable,
    // Crashed processes with a scheduled Revive event still pending,
    // sparse: the run must not end (nor count as stalled) while one exists.
    reviving: BTreeSet<u32>,
    invocations: Vec<u64>,
    handled: u64,
    now: Time,
    last_progress: Time,
    finished: bool,
    // Peak-memory probe (observed once per processed batch) and the count
    // of batches actually processed; both excluded from report equality.
    #[serde(default)]
    mem: MemBudget,
    #[serde(default)]
    executed: u64,
}

impl<P, A> AsyncEngineSnapshot<P, A>
where
    P: AsyncProtocol,
{
    /// The timestamp of the last batch processed before the snapshot.
    pub fn time(&self) -> Time {
        self.now
    }

    /// The metrics as of the snapshot.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// The resumable asynchronous engine behind [`run_async`].
///
/// Events (start signals, message deliveries, detector notices, ticks) are
/// processed in timestamp order, with all deliveries to one process at one
/// timestamp batched into a single [`AsyncProtocol::on_messages`]
/// invocation. Each delivery and notice is delayed by a seeded draw from
/// [`AsyncConfig::delay`]. When a process retires, the detector draws a
/// notice delay for every alive process and queues the fan-out as runs,
/// one event per distinct delay, each dispatched as one
/// [`AsyncProtocol::on_retirement`] invocation per observer still alive.
/// After every handler invocation the
/// [`AsyncAdversary`] rules on the process's fate; a crashing handler's
/// outgoing messages pass through its [`Deliver`](crate::Deliver) filter
/// in send order, exactly as in the synchronous engine.
///
/// [`run_until`](AsyncEngine::run_until) can pause the execution at any
/// batch boundary; [`snapshot`](AsyncEngine::snapshot) /
/// [`resume`](AsyncEngine::resume) round-trip the paused state with a
/// bit-identical-continuation guarantee. The optional
/// [`AsyncConfig::stall_window`] watchdog converts tick-loop livelocks
/// into a loud [`RunError::Stalled`] with a diagnosis.
pub struct AsyncEngine<P: AsyncProtocol, A: AsyncAdversary<P::Msg>> {
    // ---- state: the whole of it, and exactly what a snapshot is ----
    st: AsyncEngineSnapshot<P, A>,
    // ---- derived: computed from cfg / adversary by resume() ----
    max_delay: u64,
    // Whether deliveries must be checked for receive omission; queried
    // once so the zero-fault delivery path stays branch-predictable.
    filters: bool,
    // ---- scratch: built empty by resume() (safe: a group index is only
    // trusted within the batch that built it, and `batch` is empty at
    // every pause boundary) ----
    eff: Effects<P::Msg>,
    batch: Vec<Ev>,
    inbox_ids: Vec<u32>,
    // The retirement detector's fan-out being drawn.
    fan: FanOut,
    // Per-timestamp delivery grouping (one linear pre-pass instead of a
    // rescan of the batch per recipient): `groups[slot[p]]` lists the
    // `(op, batch position)` pairs addressed to `p` this timestamp. The
    // pair is a sparse set: `slot[p]` counts only if it names a group of
    // this batch whose first delivery is addressed to `p`, so a stale
    // entry is never cleared.
    slot: Vec<u32>,
    groups: Vec<Vec<(u32, u32)>>,
}

impl<P, A> AsyncEngine<P, A>
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
{
    /// Creates an engine poised before the first event.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidAdversary`] if the adversary's
    /// [`validate`](AsyncAdversary::validate) hook rejects the schedule
    /// (e.g. a [`FaultPlan`](crate::FaultPlan) that permanently crashes
    /// every process).
    pub fn new(procs: Vec<P>, adversary: A, cfg: AsyncConfig) -> Result<Self, RunError> {
        let t = procs.len();
        adversary.validate(t).map_err(|reason| RunError::InvalidAdversary { reason })?;
        let mut queue = EventQueue::with_horizon(cfg.max_delay.max(1));
        for pid in 0..t {
            queue.push(Time::ZERO, Ev::Start(Pid::new(pid)));
        }
        // Adversary-scheduled injection points: handler-free invocations
        // that let time-based faults strike quiescent processes (see
        // [`AsyncAdversary::scheduled_events`]).
        for (time, pid) in adversary.scheduled_events() {
            if pid.index() < t {
                queue.push(time, Ev::Inject(pid));
            }
        }
        Ok(Self::resume(AsyncEngineSnapshot {
            rng: SmallRng::seed_from_u64(cfg.seed),
            queue,
            arena: OpArena::new(),
            notices: NoticeRuns::default(),
            metrics: Metrics::new(cfg.n),
            trace: Trace::recording(cfg.record_trace),
            table: ProcTable::new((0..t).map(|_| None)),
            reviving: BTreeSet::new(),
            invocations: vec![0; t],
            handled: 0,
            now: Time::ZERO,
            last_progress: Time::ZERO,
            finished: false,
            mem: MemBudget {
                proc_bytes: (t * std::mem::size_of::<P>()) as u64,
                ..MemBudget::default()
            },
            executed: 0,
            procs,
            adversary,
            cfg,
        }))
    }

    /// The timestamp of the most recently processed batch.
    pub fn time(&self) -> Time {
        self.st.now
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.st.metrics
    }

    /// The per-process protocol states (e.g. for mid-run inspection).
    pub fn processes(&self) -> &[P] {
        &self.st.procs
    }

    /// Processes event batches until the execution completes, an error
    /// occurs, or — with `stop = Some(s)` — the first batch boundary at or
    /// past timestamp `s` is reached. Returns `true` when the execution
    /// completed, `false` when it paused at `stop`.
    ///
    /// Pausing is exact: a paused engine continued to completion produces
    /// bit-for-bit the report of an uninterrupted run (same metrics,
    /// message schedule and trace).
    ///
    /// # Errors
    ///
    /// [`RunError::EventLimit`] if the invocation cap is exceeded;
    /// [`RunError::Deadlock`] if live processes remain with nothing
    /// pending (a protocol bug — in a correct protocol some process always
    /// eventually acts); [`RunError::Stalled`] if the
    /// [`AsyncConfig::stall_window`] watchdog trips. Each carries the
    /// metrics and a [`StallDiagnosis`].
    pub fn run_until(&mut self, stop: Option<Time>) -> Result<bool, RunError> {
        while !self.st.finished {
            debug_assert!(self.batch.is_empty(), "batch buffer must drain between timestamps");
            let Some(now) = self.st.queue.drain_next(&mut self.batch) else {
                break;
            };
            self.st.now = now;
            self.st.executed += 1;
            let mark = self.st.metrics.progress();
            let result = self.process_batch(now);
            self.batch.clear();
            self.observe_mem();
            let delivered = result?;
            if self.st.finished {
                return Ok(true);
            }
            // Watchdog: progress is a delivered message batch or a move of
            // the progress mark (the sync engine's definition, on virtual
            // time instead of executed rounds). Revivals always count — the
            // mark moves — so an arbitrarily long crash downtime cannot
            // false-trip.
            if delivered || self.st.metrics.progress() != mark {
                self.st.last_progress = now;
            } else if let Some(window) = self.st.cfg.stall_window {
                if now.saturating_sub(self.st.last_progress) > u128::from(window) {
                    let metrics = self.error_metrics();
                    return Err(RunError::Stalled { window, metrics, diagnosis: self.diagnosis() });
                }
            }
            if stop.is_some_and(|s| now >= s) {
                return Ok(false);
            }
        }
        if self.st.finished || self.st.table.live().is_empty() {
            self.st.finished = true;
            return Ok(true);
        }
        let metrics = self.error_metrics();
        Err(RunError::Deadlock { metrics, diagnosis: self.diagnosis() })
    }

    /// Captures the engine's full state at the current batch boundary.
    pub fn snapshot(&self) -> AsyncEngineSnapshot<P, A>
    where
        P: Clone,
        P::Msg: Clone,
        A: Clone,
    {
        debug_assert!(self.batch.is_empty(), "snapshots are taken at batch boundaries");
        self.st.clone()
    }

    /// Reconstructs an engine from a snapshot; the continuation is
    /// bit-identical to the run the snapshot was taken from. The snapshot
    /// moves in whole as the engine's state; this is the only place the
    /// derived values and scratch buffers are built.
    pub fn resume(snapshot: AsyncEngineSnapshot<P, A>) -> Self {
        let t = snapshot.procs.len();
        let max_delay = snapshot.cfg.max_delay.max(1);
        AsyncEngine {
            max_delay,
            filters: snapshot.adversary.filters_deliveries(),
            st: snapshot,
            eff: Effects::default(),
            batch: Vec::new(),
            inbox_ids: Vec::new(),
            fan: FanOut::new(max_delay),
            slot: vec![0; t],
            groups: Vec::new(),
        }
    }

    /// Consumes the engine into its report (valid at any boundary; the
    /// usual call site is after [`run_until`](AsyncEngine::run_until)
    /// returned `Ok(true)`).
    pub fn into_report(mut self) -> AsyncReport {
        self.st.metrics.debug_check();
        self.observe_mem();
        let st = self.st;
        AsyncReport {
            metrics: st.metrics,
            statuses: st.table.statuses(),
            trace: st.trace,
            mem: st.mem,
            executed: st.executed,
        }
    }

    /// Folds the current buffer footprint into the peak-memory probe — the
    /// async peer of the sync engine's per-round observation. `soa` is the
    /// per-process columns, `flight` the op arena + notice-run table +
    /// event queue + batch and fan-out scratch, `ledger` the work table and
    /// the trace.
    fn observe_mem(&mut self) {
        self.st.mem.soa_bytes = self.st.table.bytes()
            + (self.st.invocations.capacity() * 8 + self.slot.capacity() * 4) as u64;
        let flight = (self.st.arena.slots.capacity() * std::mem::size_of::<FlightOp<P::Msg>>()
            + self.st.arena.refs.capacity() * 4
            + self.st.arena.free.capacity() * 4
            + self.batch.capacity() * std::mem::size_of::<Ev>()
            + self.inbox_ids.capacity() * 4
            + self.groups.iter().map(|g| g.capacity() * 8).sum::<usize>()
            + self.st.notices.bytes()
            + self.fan.bytes()) as u64
            + self.st.queue.bytes();
        self.st.mem.flight_bytes = self.st.mem.flight_bytes.max(flight);
        let ledger = (self.st.metrics.work_by_unit.capacity() * 4) as u64
            + std::mem::size_of_val(self.st.trace.events()) as u64;
        self.st.mem.ledger_bytes = self.st.mem.ledger_bytes.max(ledger);
    }

    /// The metrics an abnormal exit carries, checked.
    fn error_metrics(&self) -> Box<Metrics> {
        self.st.metrics.debug_check();
        Box::new(self.st.metrics.clone())
    }

    fn event_limit(&self) -> RunError {
        let (limit, metrics) = (self.st.cfg.max_events, self.error_metrics());
        RunError::EventLimit { limit, metrics, diagnosis: self.diagnosis() }
    }

    /// The engine's [`StallDiagnosis`]: who is alive, how often each was
    /// invoked, and what is still queued.
    fn diagnosis(&self) -> Box<StallDiagnosis> {
        let invocations = &self.st.invocations;
        let stalled = self.st.table.live().ones();
        Box::new(StallDiagnosis {
            round: self.st.now,
            last_progress: self.st.last_progress,
            stalled: stalled.map(|i| (Pid::new(i), Waiting::Invocations(invocations[i]))).collect(),
            pending: self.st.queue.len(),
            pending_revivals: self.st.reviving.len(),
        })
    }

    /// Dispatches every event of the drained batch at timestamp `now`.
    /// Returns whether at least one message batch was delivered (the
    /// watchdog's strongest progress signal). Sets `finished` on
    /// completion, leaving any remaining batch events undispatched (they
    /// are start-of-idle noise: every process has retired).
    fn process_batch(&mut self, now: Time) -> Result<bool, RunError> {
        let t = self.st.procs.len();
        let mut groups_used = 0usize;
        for (pos, ev) in self.batch.iter().enumerate() {
            if let Ev::Deliver { op, to } = *ev {
                let p = to.index();
                if p >= t {
                    // Addressed past the system: no group, a dead letter
                    // at dispatch, as on the sync plane.
                    continue;
                }
                let g = self.slot[p] as usize;
                let grouped = g < groups_used
                    && matches!(self.batch[self.groups[g][0].1 as usize],
                        Ev::Deliver { to: head, .. } if head == to);
                if !grouped {
                    if self.groups.len() == groups_used {
                        self.groups.push(Vec::new());
                    }
                    self.groups[groups_used].clear();
                    self.slot[p] = groups_used as u32;
                    groups_used += 1;
                }
                self.groups[self.slot[p] as usize].push((op, pos as u32));
            }
        }

        let mut delivered = false;
        for i in 0..self.batch.len() {
            let ev = std::mem::replace(&mut self.batch[i], Ev::Consumed);
            let pid = match ev {
                Ev::Consumed => continue,
                Ev::Start(pid) => {
                    if !self.st.table.live().contains(pid.index()) {
                        continue;
                    }
                    self.eff.reset();
                    self.st.procs[pid.index()].on_start(&mut self.eff);
                    pid
                }
                Ev::Tick(pid) => {
                    if !self.st.table.live().contains(pid.index()) {
                        continue;
                    }
                    self.eff.reset();
                    self.st.procs[pid.index()].on_tick(&mut self.eff);
                    pid
                }
                Ev::Inject(pid) => {
                    // Handler-free invocation: nothing runs, but the
                    // adversary gets its interception point below.
                    if !self.st.table.live().contains(pid.index()) {
                        continue;
                    }
                    self.eff.reset();
                    pid
                }
                Ev::Revive { pid, wipe } => {
                    let idx = pid.index();
                    if !self.st.reviving.remove(&(idx as u32)) {
                        continue;
                    }
                    let st = &mut self.st;
                    st.table.revive(idx, now, &mut st.metrics, &mut st.trace);
                    self.eff.reset();
                    self.st.procs[idx].on_recover(wipe, &mut self.eff);
                    // Detector re-registration: replay every past
                    // retirement to the recovered process, which may have
                    // missed reports during its downtime (or wiped the
                    // ones it had). Replays can duplicate reports heard
                    // before the crash, so `on_retirement` must be
                    // idempotent; soundness is untouched because only
                    // permanently retired processes are replayed.
                    for obs in 0..t {
                        let retired = !self.st.table.live().contains(obs);
                        if retired && !self.st.reviving.contains(&(obs as u32)) {
                            let delay = self.st.cfg.delay.sample(&mut self.st.rng, self.max_delay);
                            self.fan.draw(delay, Pid::new(obs));
                        }
                    }
                    let st = &mut self.st;
                    self.fan.queue_runs(now, pid, true, &mut st.notices, &mut st.queue);
                    pid
                }
                Ev::NoticeRun { slot, start, len } => {
                    // One report per position, in place: the run is this
                    // timestamp's share of one fan-out, ascending by pid —
                    // the order its per-observer events would have had.
                    for k in start..start + len {
                        let (observer, retired) = self.st.notices.fans[slot as usize].notice(k);
                        if !self.st.table.live().contains(observer.index()) {
                            continue;
                        }
                        self.st.trace.push(Event::Notice { round: now, observer, retired });
                        self.eff.reset();
                        self.st.procs[observer.index()].on_retirement(retired, &mut self.eff);
                        if self.settle(now, observer)? {
                            return Ok(delivered);
                        }
                    }
                    self.st.notices.release(slot, start + len);
                    continue;
                }
                Ev::Deliver { op, to } => {
                    if !self.st.table.live().contains(to.index()) {
                        // Individually dead-lettered: a recipient that died
                        // mid-batch (or before all-retired early return), or
                        // one past the system, never gets its group
                        // dispatched, matching the reference scheduler in
                        // `tests/support/` event for event.
                        self.st.metrics.dead_letters += 1;
                        self.st.arena.release(op);
                        continue;
                    }
                    // This is the recipient's first delivery of the
                    // timestamp (later ones were folded here by the
                    // pre-pass); hand the whole group over as one batched
                    // inbox and tombstone the folded positions.
                    self.inbox_ids.clear();
                    let grp_slot = self.slot[to.index()] as usize;
                    debug_assert_eq!(self.groups[grp_slot].first(), Some(&(op, i as u32)));
                    for gi in 0..self.groups[grp_slot].len() {
                        let (op2, pos) = self.groups[grp_slot][gi];
                        if pos as usize != i {
                            self.batch[pos as usize] = Ev::Consumed;
                        }
                        // Receive omission: consulted once per (message,
                        // recipient), at delivery time — the shared fault
                        // contract on [`Adversary`](crate::Adversary).
                        if self.filters
                            && self.st.adversary.omits_delivery(
                                now,
                                self.st.arena.ops()[op2 as usize].from,
                                to,
                            )
                        {
                            self.st.metrics.omissions += 1;
                            self.st.trace.push(Event::Note {
                                round: now,
                                pid: to,
                                tag: "fault:omit",
                            });
                            self.st.arena.release(op2);
                            continue;
                        }
                        self.inbox_ids.push(op2);
                    }
                    if self.inbox_ids.is_empty() {
                        // The whole batch was omitted: no invocation.
                        continue;
                    }
                    self.eff.reset();
                    let inbox = Inbox::csr(&self.inbox_ids, self.st.arena.ops());
                    self.st.procs[to.index()].on_messages(inbox, &mut self.eff);
                    for &id in &self.inbox_ids {
                        self.st.arena.release(id);
                    }
                    delivered = true;
                    to
                }
            };
            if self.settle(now, pid)? {
                return Ok(delivered);
            }
        }
        Ok(delivered)
    }

    /// The close of every handler invocation by `pid` at `now`, whose
    /// actions are in `eff`: counts the invocation and lets the adversary
    /// rule. An invocation that survives (or is ruled an omission) having
    /// recorded nothing — no note, unit, send, termination or tick — ends
    /// here: the clock is all it moves, and `pid` is still alive, so the
    /// run is not finished. Notices to observers that ignore them are most
    /// of the plane's invocations. Everything else goes to
    /// [`settle_tail`](Self::settle_tail). Returns whether the execution
    /// just finished.
    #[inline(always)]
    fn settle(&mut self, now: Time, pid: Pid) -> Result<bool, RunError> {
        self.st.handled += 1;
        if self.st.handled > self.st.cfg.max_events {
            return Err(self.event_limit());
        }
        let idx = pid.index();
        self.st.invocations[idx] += 1;

        let ctx = AdversaryCtx::new(self.st.table.live(), self.st.metrics.crashes);
        let fate = self.st.adversary.intercept(now, pid, self.st.invocations[idx], &self.eff, ctx);
        if matches!(fate, Fate::Survive | Fate::Omit(_))
            && self.eff.is_idle()
            && self.eff.notes().is_empty()
        {
            debug_assert!(self.st.table.live().contains(idx) && !self.st.finished);
            self.st.metrics.rounds = now;
            return Ok(false);
        }
        self.settle_tail(now, pid, fate)
    }

    /// The rest of [`settle`](Self::settle): applies the adversary's
    /// shared reading of `fate` (`Fate::ruling`) to the notes, work, sends,
    /// tick and retirement. What is this plane's own is how escaping sends
    /// are queued (one delay draw per recipient) and how a revival is
    /// scheduled (a queued [`Ev::Revive`]).
    #[inline(never)]
    fn settle_tail(&mut self, now: Time, pid: Pid, fate: Fate) -> Result<bool, RunError> {
        let idx = pid.index();
        let ruling = fate.ruling();

        for &tag in self.eff.notes() {
            self.st.trace.push(Event::Note { round: now, pid, tag });
        }
        if ruling.count_work {
            for &unit in self.eff.work() {
                self.st.metrics.record_work(unit, 1);
                self.st.trace.push(Event::Work { round: now, pid, unit });
            }
        }

        // Expand the handler's send ops: the payload enters the arena
        // once; each surviving recipient gets a payload-free delivery
        // event at an independently drawn time. The crash filter indexes
        // messages in send order (spans expand ascending), so crash
        // semantics match the synchronous engine's — and since filtering
        // happens at event granularity, even a fragmented `Subset` costs
        // zero payload clones here.
        let mut msg_idx = 0usize;
        let mut suppressed = 0u64;
        for op in self.eff.drain_sends() {
            let len = op.to.len();
            let lets_through =
                |k: usize, to: Pid| ruling.filter.is_none_or(|d| d.lets_through(msg_idx + k, to));
            let scheduled = op.to.iter().enumerate().filter(|&(k, to)| lets_through(k, to)).count();
            suppressed += (len - scheduled) as u64;
            if scheduled > 0 {
                let class = op.payload.class();
                self.st.metrics.record_messages(class, scheduled as u64);
                let id = self.st.arena.insert(
                    FlightOp { from: pid, to: op.to, payload: op.payload },
                    scheduled as u32,
                );
                for (k, to) in op.to.iter().enumerate() {
                    if lets_through(k, to) {
                        let delay = self.st.cfg.delay.sample(&mut self.st.rng, self.max_delay);
                        self.st.queue.push(now + delay, Ev::Deliver { op: id, to });
                        self.st.trace.push(Event::Send { round: now, from: pid, to, class });
                    }
                }
            }
            msg_idx += len;
        }
        // Send omission: the surviving process's suppressed messages never
        // left it. (A crash's unsent messages are not omissions.)
        if !ruling.crash && suppressed > 0 {
            self.st.metrics.omissions += suppressed;
            self.st.trace.push(Event::Note { round: now, pid, tag: "fault:omit" });
        }

        if ruling.crash || self.eff.is_terminated() {
            let st = &mut self.st;
            st.table.retire(idx, !ruling.crash, now, &mut st.metrics, &mut st.trace);
            if let Some((downtime, wipe)) = ruling.revival {
                // Recoverable crash: schedule the restart; crucially, NO
                // detector notices — the detector stays sound by never
                // accusing a process that will act again.
                self.st.reviving.insert(idx as u32);
                self.st.queue.push(now + downtime, Ev::Revive { pid, wipe });
            } else {
                // Retirement detector: eventually (and soundly) inform
                // everyone still alive.
                for obs in self.st.table.live().ones() {
                    let delay = self.st.cfg.delay.sample(&mut self.st.rng, self.max_delay);
                    self.fan.draw(delay, Pid::new(obs));
                }
                let st = &mut self.st;
                self.fan.queue_runs(now, pid, false, &mut st.notices, &mut st.queue);
            }
        } else if self.eff.wants_tick() {
            self.st.queue.push(now + 1u64, Ev::Tick(pid));
        }

        self.st.metrics.rounds = now;
        self.st.finished = self.st.table.live().is_empty() && self.st.reviving.is_empty();
        Ok(self.st.finished)
    }
}

/// Runs an asynchronous execution until all processes retire — a thin
/// wrapper over [`AsyncEngine`] (construct the engine directly for pause /
/// snapshot / resume control).
///
/// # Errors
///
/// [`RunError::InvalidAdversary`] if the adversary rejects the system's
/// shape, otherwise as [`AsyncEngine::run_until`].
pub fn run_async<P, A>(
    procs: Vec<P>,
    adversary: A,
    cfg: AsyncConfig,
) -> Result<AsyncReport, RunError>
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
{
    let mut engine = AsyncEngine::new(procs, adversary, cfg)?;
    engine.run_until(None)?;
    Ok(engine.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashSpec, NoFailures};
    use crate::faults::{FaultPlan, Trigger};
    use crate::ids::Unit;
    use crate::invariants::check_detector_soundness;

    #[derive(Clone, Debug)]
    struct Ball;
    impl Classify for Ball {
        fn class(&self) -> &'static str {
            "ball"
        }
    }

    /// p0 sends a ball to p1; whoever holds the ball terminates; p1
    /// terminates on detecting p0's retirement too (exercises notices).
    struct Player {
        me: usize,
    }

    impl AsyncProtocol for Player {
        type Msg = Ball;

        fn on_start(&mut self, eff: &mut Effects<Ball>) {
            if self.me == 0 {
                eff.perform(Unit::new(1));
                eff.send(Pid::new(1), Ball);
                eff.terminate();
            }
        }

        fn on_messages(&mut self, inbox: Inbox<'_, Ball>, eff: &mut Effects<Ball>) {
            assert!(!inbox.is_empty());
            eff.perform(Unit::new(2));
            eff.terminate();
        }

        fn on_retirement(&mut self, _retired: Pid, eff: &mut Effects<Ball>) {
            eff.note("saw_retirement");
        }
    }

    #[test]
    fn async_round_trip_completes() {
        let procs = vec![Player { me: 0 }, Player { me: 1 }];
        let report =
            run_async(procs, NoFailures, AsyncConfig { n: 2, ..Default::default() }).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.messages, 1);
        assert!(report.has_survivor());
        assert_eq!(report.survivor_count(), 2);
        assert_eq!(report.survivors_iter().collect::<Vec<_>>(), vec![Pid::new(0), Pid::new(1)]);
    }

    #[test]
    fn async_crash_suppresses_sends_and_work() {
        let procs = vec![Player { me: 0 }, Player { me: 1 }];
        let crash = FaultPlan::default().crash_on(
            Trigger::NthInvocationOf { pid: Pid::new(0), nth: 1 },
            CrashSpec { deliver: crate::Deliver::Prefix(0), count_work: false },
        );
        let err = run_async(procs, crash, AsyncConfig { n: 2, ..Default::default() }).unwrap_err();
        // p1 never hears anything except the retirement notice, which in
        // this toy protocol does not terminate it -> the run stalls.
        match err {
            RunError::Deadlock { diagnosis, .. } => {
                // p1 ran its start handler and heard p0's retirement.
                assert_eq!(diagnosis.stalled, [(Pid::new(1), Waiting::Invocations(2))]);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn async_is_deterministic_per_seed() {
        let mk = || vec![Player { me: 0 }, Player { me: 1 }];
        let cfg = AsyncConfig { n: 2, seed: 11, max_delay: 9, ..Default::default() };
        let a = run_async(mk(), NoFailures, cfg.clone()).unwrap();
        let b = run_async(mk(), NoFailures, cfg).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn detector_notices_reach_survivors_and_are_sound() {
        // p0 terminates immediately; p1 gets a retirement notice.
        struct Quitter {
            me: usize,
        }
        impl AsyncProtocol for Quitter {
            type Msg = Ball;
            fn on_start(&mut self, eff: &mut Effects<Ball>) {
                if self.me == 0 {
                    eff.terminate();
                }
            }
            fn on_messages(&mut self, _: Inbox<'_, Ball>, _: &mut Effects<Ball>) {}
            fn on_retirement(&mut self, _: Pid, eff: &mut Effects<Ball>) {
                eff.note("noticed");
                eff.terminate();
            }
        }
        let procs = vec![Quitter { me: 0 }, Quitter { me: 1 }];
        let report = run_async(procs, NoFailures, AsyncConfig::default().with_trace()).unwrap();
        assert!(report.trace.notes("noticed").any(|(_, p)| p == Pid::new(1)));
        assert!(report.statuses.iter().all(Status::is_terminated));
        assert!(!report.trace.is_empty());
        assert!(check_detector_soundness(&report.trace).is_empty());
    }

    /// Deliveries to one process at one timestamp arrive as one batch.
    #[test]
    fn same_timestamp_deliveries_are_batched() {
        struct Spray {
            me: usize,
        }
        impl AsyncProtocol for Spray {
            type Msg = Ball;
            fn on_start(&mut self, eff: &mut Effects<Ball>) {
                if self.me < 3 {
                    // Three senders each unicast to p3 — Fixed delay lands
                    // them all at the same timestamp.
                    eff.send(Pid::new(3), Ball);
                    eff.terminate();
                }
            }
            fn on_messages(&mut self, inbox: Inbox<'_, Ball>, eff: &mut Effects<Ball>) {
                // Record the batch width as a performed unit: unit 3 in
                // the report proves all three messages shared one
                // invocation.
                eff.perform(Unit::new(inbox.len()));
                eff.terminate();
            }
            fn on_retirement(&mut self, _: Pid, _: &mut Effects<Ball>) {}
        }
        let procs: Vec<Spray> = (0..4).map(|me| Spray { me }).collect();
        let cfg = AsyncConfig { n: 3, max_delay: 4, delay: DelayDist::Fixed, ..Default::default() };
        let report = run_async(procs, NoFailures, cfg).unwrap();
        assert_eq!(report.metrics.messages, 3);
        assert_eq!(report.metrics.dead_letters, 0);
        assert_eq!(report.metrics.work_total, 1);
        assert_eq!(report.metrics.work_by_unit[2], 1, "batch of 3 delivered in one invocation");
    }

    /// A crashing handler's `Deliver::Subset` filter selects recipients
    /// out of a span without any payload clone (observable: counts).
    #[test]
    fn subset_crash_filters_span_recipients() {
        struct Once {
            me: usize,
        }
        impl AsyncProtocol for Once {
            type Msg = Ball;
            fn on_start(&mut self, eff: &mut Effects<Ball>) {
                if self.me == 0 {
                    eff.multicast(1..6, Ball);
                }
                eff.terminate();
            }
            fn on_messages(&mut self, _: Inbox<'_, Ball>, eff: &mut Effects<Ball>) {
                eff.terminate();
            }
            fn on_retirement(&mut self, _: Pid, _: &mut Effects<Ball>) {}
        }
        let procs: Vec<Once> = (0..6).map(|me| Once { me }).collect();
        let adv = FaultPlan::default().crash_on(
            Trigger::NthInvocationOf { pid: Pid::new(0), nth: 1 },
            CrashSpec::subset([Pid::new(1), Pid::new(2), Pid::new(4)]),
        );
        let report = run_async(procs, adv, AsyncConfig::default()).unwrap();
        assert_eq!(report.metrics.messages, 3);
        assert_eq!(report.metrics.crashes, 1);
    }

    /// Chatty pair that keeps a message ping-pong going for a while, so a
    /// pause lands mid-conversation with ops in flight.
    #[derive(Clone)]
    struct PingPong {
        me: usize,
        hops: u32,
    }

    impl AsyncProtocol for PingPong {
        type Msg = Ball;

        fn on_start(&mut self, eff: &mut Effects<Ball>) {
            if self.me == 0 {
                eff.send(Pid::new(1), Ball);
            }
        }

        fn on_messages(&mut self, _: Inbox<'_, Ball>, eff: &mut Effects<Ball>) {
            eff.perform(Unit::new(self.me + 1));
            self.hops += 1;
            if self.hops >= 12 {
                eff.terminate();
            } else {
                eff.send(Pid::new(1 - self.me), Ball);
            }
        }

        fn on_retirement(&mut self, _: Pid, eff: &mut Effects<Ball>) {
            eff.terminate();
        }
    }

    #[test]
    fn pause_snapshot_resume_is_bit_identical() {
        let mk = || vec![PingPong { me: 0, hops: 0 }, PingPong { me: 1, hops: 0 }];
        let cfg =
            AsyncConfig { n: 2, seed: 42, max_delay: 7, record_trace: true, ..Default::default() };
        let straight = run_async(mk(), NoFailures, cfg.clone()).unwrap();

        let mut engine = AsyncEngine::new(mk(), NoFailures, cfg).unwrap();
        let completed = engine.run_until(Some(Time::from(10u64))).unwrap();
        assert!(!completed, "the ping-pong must outlive timestamp 10");
        let resumed = AsyncEngine::resume(engine.snapshot());
        // Drop the paused original; continue only from the snapshot.
        drop(engine);
        let mut resumed = resumed;
        assert!(resumed.run_until(None).unwrap());
        let report = resumed.into_report();
        assert_eq!(report.metrics, straight.metrics);
        assert_eq!(report.statuses, straight.statuses);
        assert_eq!(report.trace, straight.trace);
    }

    #[test]
    fn watchdog_trips_on_tick_livelock() {
        /// Spins a tick chain forever without working or messaging.
        struct Spinner;
        impl AsyncProtocol for Spinner {
            type Msg = Ball;
            fn on_start(&mut self, eff: &mut Effects<Ball>) {
                eff.continue_later();
            }
            fn on_messages(&mut self, _: Inbox<'_, Ball>, _: &mut Effects<Ball>) {}
            fn on_retirement(&mut self, _: Pid, _: &mut Effects<Ball>) {}
            fn on_tick(&mut self, eff: &mut Effects<Ball>) {
                eff.continue_later();
            }
        }
        let cfg = AsyncConfig { n: 1, ..Default::default() }.with_stall_window(16);
        let err = run_async(vec![Spinner], NoFailures, cfg).unwrap_err();
        match err {
            RunError::Stalled { window, diagnosis, .. } => {
                assert_eq!(window, 16);
                assert!(diagnosis.round > diagnosis.last_progress);
                let [(pid, Waiting::Invocations(count))] = diagnosis.stalled[..] else {
                    panic!("one stalled process with its invocation count: {diagnosis}");
                };
                assert_eq!(pid, Pid::new(0));
                // The diagnosis renders the per-pid invocation counts.
                assert!(diagnosis.to_string().contains(&format!("p0: {count} invocations")));
            }
            other => panic!("expected a watchdog stall, got {other}"),
        }
    }

    /// `pending` counts per-recipient events, not queue entries:
    /// three quitters fan retirement notices out under bimodal delays, so
    /// when the 16-step watchdog trips, each fan-out's delay-64 run is
    /// still queued and counts one event per report it carries — the
    /// figure per-observer notice events gave.
    #[test]
    fn livelock_diagnosis_counts_each_pending_notice_report() {
        struct Spinner {
            me: usize,
        }
        impl AsyncProtocol for Spinner {
            type Msg = Ball;
            fn on_start(&mut self, eff: &mut Effects<Ball>) {
                if self.me < 3 {
                    eff.terminate();
                } else {
                    eff.continue_later();
                }
            }
            fn on_messages(&mut self, _: Inbox<'_, Ball>, _: &mut Effects<Ball>) {}
            fn on_retirement(&mut self, _: Pid, _: &mut Effects<Ball>) {}
            fn on_tick(&mut self, eff: &mut Effects<Ball>) {
                eff.continue_later();
            }
        }
        let procs = (0..8).map(|me| Spinner { me }).collect();
        let cfg = AsyncConfig {
            n: 1,
            seed: 3,
            max_delay: 64,
            delay: DelayDist::Bimodal,
            ..Default::default()
        }
        .with_stall_window(16);
        match run_async(procs, NoFailures, cfg).unwrap_err() {
            RunError::Stalled { diagnosis, .. } => {
                assert_eq!(diagnosis.stalled.len(), 5);
                // Five pending ticks plus nine undelivered notices.
                assert_eq!(diagnosis.pending, 14);
            }
            other => panic!("expected a watchdog stall, got {other}"),
        }
    }

    #[test]
    fn delay_labels_name_the_bound_the_engine_uses() {
        assert_eq!(DelayDist::Uniform.label(0), "uniform(1..=1)");
        assert_eq!(DelayDist::Fixed.label(0), "fixed(1)");
        assert_eq!(DelayDist::Bimodal.label(0), "bimodal(1|1)");
        assert_eq!(DelayDist::Uniform.label(4), "uniform(1..=4)");
        assert_eq!(DelayDist::Bimodal.label(32), "bimodal(1|32)");
    }

    /// `FanOut`'s counting sort lays a fan-out out exactly as a stable sort
    /// by delay does: the slot's pid array, and the `(delay, start, len)`
    /// runs it queues. The widths straddle the ring cap, and the draws are
    /// uniform, all one delay, a mix of near and far delays around the
    /// ring's width, or congruent modulo it. One `FanOut` serves every
    /// case of a width, so each must leave its scratch clean.
    #[test]
    fn fan_out_buckets_match_a_stable_sort_by_delay() {
        let cap = queue::RING_CAP;
        for max_delay in [1, 4, 256, cap, cap + 1, u64::MAX] {
            let width = ring_width(max_delay) as u64;
            let mut rng = SmallRng::seed_from_u64(max_delay);
            let mut fan = FanOut::new(max_delay);
            for case in 0..48u64 {
                let k = 1 + rng.gen_range(0..70usize);
                let one = rng.gen_range(1..=max_delay);
                let base = rng.gen_range(1..=max_delay.min(width));
                let draw = |rng: &mut SmallRng| match case % 4 {
                    0 => rng.gen_range(1..=max_delay),
                    1 => one,
                    2 => {
                        let near = rng.gen_range(1..=max_delay.min(3));
                        let edge = (width - 2 + rng.gen_range(0..4u64)).clamp(1, max_delay);
                        let far = max_delay - rng.gen_range(0..max_delay.min(3));
                        [near, edge, far][rng.gen_range(0..3usize)]
                    }
                    _ => base
                        .saturating_add(width.saturating_mul(rng.gen_range(0..4u64)))
                        .min(max_delay),
                };
                let draws: Vec<(u64, Pid)> =
                    (0..k).map(|p| (draw(&mut rng), Pid::new(p))).collect();

                let (mut notices, mut queue) =
                    (NoticeRuns::default(), EventQueue::with_horizon(max_delay));
                let now = Time::from(5u64);
                for &(delay, pid) in &draws {
                    fan.draw(delay, pid);
                }
                fan.queue_runs(now, Pid::new(0), false, &mut notices, &mut queue);

                let mut model = draws.clone();
                model.sort_by_key(|&(delay, _)| delay);
                let mut runs = Vec::new();
                let mut start = 0u32;
                for run in model.chunk_by(|a, b| a.0 == b.0) {
                    runs.push((u128::from(run[0].0), start, run.len() as u32));
                    start += run.len() as u32;
                }
                let at = format!("max_delay={max_delay} case={case} draws={draws:?}");
                let pids: Vec<Pid> = model.iter().map(|&(_, pid)| pid).collect();
                assert_eq!(*notices.fans[0].pids, *pids, "{at}");

                let (mut batch, mut queued) = (Vec::new(), Vec::new());
                while let Some(time) = queue.drain_next(&mut batch) {
                    for ev in batch.drain(..) {
                        let Ev::NoticeRun { slot: 0, start, len } = ev else {
                            panic!("{at}: not a run of slot 0: {ev:?}");
                        };
                        queued.push((time.saturating_sub(now), start, len));
                    }
                }
                assert_eq!(queued, runs, "{at}");
                assert!(fan.sizes.iter().all(|&size| size == 0), "{at}");
                assert!(fan.draws.is_empty() && fan.far.is_empty(), "{at}");
            }
        }
    }

    #[test]
    fn invalid_plan_is_rejected_before_the_run() {
        use crate::faults::{FaultKind, FaultPlan};
        // Two processes, both permanently crashed: FaultPlan::validate
        // must reject this via the AsyncAdversary hook.
        let plan = FaultPlan::new(vec![
            FaultKind::Crash(Pid::new(0)).at(1u64),
            FaultKind::Crash(Pid::new(1)).at(1u64),
        ]);
        let procs = vec![Player { me: 0 }, Player { me: 1 }];
        let err = run_async(procs, plan, AsyncConfig { n: 2, ..Default::default() }).unwrap_err();
        match err {
            RunError::InvalidAdversary { reason } => {
                assert!(reason.contains("all"), "unexpected reason: {reason}");
            }
            other => panic!("expected invalid-adversary error, got {other}"),
        }
    }
}
