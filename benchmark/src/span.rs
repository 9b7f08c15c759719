//! Outside-in tracing: delegating wrappers that time the calls an engine
//! makes *into* a layer, and the span arithmetic over what they record.
//!
//! Nothing here touches the traced program: [`Spanned`] implements the four
//! plug-in traits (`Protocol`, `AsyncProtocol`, `Adversary`,
//! `AsyncAdversary`) by forwarding **every** method, defaults included, to
//! the value it wraps, and keeps a (calls, sampled calls, sampled ns) tally
//! per instance. When a wrapper is dropped — always on the thread that ran
//! the operation: lanes only borrow processes — its tallies are folded
//! into a thread-local sink the operation runner drains with
//! [`take_tallies`].

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use doall_sim::asynch::{AsyncAdversary, AsyncEffects, AsyncProtocol, Time};
use doall_sim::{Adversary, AdversaryCtx, Effects, Fate, Inbox, Pid, Protocol, Round};

use crate::json::Value;

/// A timed call costs two clock reads (~60 ns here) and a protocol step
/// about as much, so timing every call would more than double the
/// step-bound passes. Each wrapper therefore times every
/// `SAMPLE_EVERY`-th call, starting at a phase the runner varies per
/// process and per operation, and busy time is extrapolated as
/// `(sampled ns − sampled calls × clock cost) × calls / sampled calls`.
pub const SAMPLE_EVERY: u64 = 16;

/// What an empty timed region reads right now: the part of every sampled
/// measurement that is the clock, not the callee.
static CLOCK_COST_NS: AtomicU64 = AtomicU64::new(0);

/// Re-measures the clock cost (median of 2001 back-to-back empty regions).
/// Called before every traced pass: the cost follows the core's clock
/// speed, which on this host changes by the minute, and the callees it is
/// subtracted from are often no longer than it is.
pub fn calibrate_clock() -> u64 {
    let mut trials: Vec<u64> = (0..2001)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(start.elapsed().as_nanos() as u64)
        })
        .collect();
    trials.sort_unstable();
    let cost = trials[trials.len() / 2];
    // A statistic that publishes no other data.
    CLOCK_COST_NS.store(cost, Ordering::Relaxed);
    cost
}

/// Calls into one layer through one wrapper (or a sum of such).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub timed: u64,
    pub ns: u64,
}

impl Tally {
    /// Extrapolated busy nanoseconds over all `calls`, net of the clock.
    pub fn busy_ns(&self) -> u64 {
        if self.timed == 0 {
            return 0;
        }
        let net = self.ns.saturating_sub(self.timed * CLOCK_COST_NS.load(Ordering::Relaxed));
        (net as u128 * self.calls as u128 / self.timed as u128) as u64
    }

    pub fn add(&mut self, other: Tally) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.ns += other.ns;
    }

    #[inline]
    fn time<R>(&mut self, phase: u64, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.calls.wrapping_add(phase).is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            let r = f();
            self.ns += start.elapsed().as_nanos() as u64;
            self.timed += 1;
            r
        } else {
            f()
        }
    }
}

/// What a wrapper wraps, which decides where its tallies are booked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// `main` = `step` + `on_recover`, `side` = `next_wakeup`.
    Protocol,
    /// `main` = every handler (`on_start` … `on_recover`).
    Handler,
    /// `main` = `intercept`, `side` = every other adversary method.
    Adversary,
}

/// Everything the wrappers of one operation recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tallies {
    pub step: Tally,
    pub wakeup: Tally,
    pub handler: Tally,
    pub intercept: Tally,
    pub adversary_other: Tally,
}

impl Tallies {
    /// Busy nanoseconds inside `doall-core` (protocol code).
    pub fn core_ns(&self) -> u64 {
        self.step.busy_ns() + self.wakeup.busy_ns() + self.handler.busy_ns()
    }

    /// Busy nanoseconds inside adversary code.
    pub fn adversary_ns(&self) -> u64 {
        self.intercept.busy_ns() + self.adversary_other.busy_ns()
    }
}

thread_local! {
    static SINK: Cell<Tallies> = const {
        const EMPTY: Tally = Tally { calls: 0, timed: 0, ns: 0 };
        Cell::new(Tallies {
            step: EMPTY,
            wakeup: EMPTY,
            handler: EMPTY,
            intercept: EMPTY,
            adversary_other: EMPTY,
        })
    };
}

/// Drains this thread's sink: the tallies of every wrapper dropped here
/// since the last call.
pub fn take_tallies() -> Tallies {
    SINK.with(Cell::take)
}

/// A timing, delegating wrapper around a protocol process or an adversary.
#[derive(Debug)]
pub struct Spanned<T> {
    inner: T,
    role: Role,
    phase: u64,
    main: Tally,
    side: Cell<Tally>,
}

impl<T> Spanned<T> {
    fn new(inner: T, role: Role, phase: u64) -> Self {
        Spanned { inner, role, phase, main: Tally::default(), side: Cell::new(Tally::default()) }
    }

    /// Wraps the processes of a synchronous run; `salt` shifts the sampling
    /// phase so successive operations time different call ordinals.
    pub fn protocols(procs: Vec<T>, salt: u64) -> Vec<Spanned<T>> {
        let wrap = |(i, p)| Spanned::new(p, Role::Protocol, salt.wrapping_add(i as u64));
        procs.into_iter().enumerate().map(wrap).collect()
    }

    /// Wraps the processes of an asynchronous run.
    pub fn handlers(procs: Vec<T>, salt: u64) -> Vec<Spanned<T>> {
        let wrap = |(i, p)| Spanned::new(p, Role::Handler, salt.wrapping_add(i as u64));
        procs.into_iter().enumerate().map(wrap).collect()
    }

    /// Wraps an adversary of either plane.
    pub fn adversary(inner: T, salt: u64) -> Spanned<T> {
        Spanned::new(inner, Role::Adversary, salt)
    }

    #[inline]
    fn side<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let mut tally = self.side.get();
        let r = tally.time(self.phase, || f(&self.inner));
        self.side.set(tally);
        r
    }
}

/// Engine snapshots clone processes and adversary; the copy starts with
/// empty tallies so no call is booked twice.
impl<T: Clone> Clone for Spanned<T> {
    fn clone(&self) -> Self {
        Spanned::new(self.inner.clone(), self.role, self.phase)
    }
}

impl<T> Drop for Spanned<T> {
    fn drop(&mut self) {
        let (main, side) = (self.main, self.side.get());
        SINK.with(|sink| {
            let mut all = sink.get();
            match self.role {
                Role::Protocol => {
                    all.step.add(main);
                    all.wakeup.add(side);
                }
                Role::Handler => all.handler.add(main),
                Role::Adversary => {
                    all.intercept.add(main);
                    all.adversary_other.add(side);
                }
            }
            sink.set(all);
        });
    }
}

impl<P: Protocol> Protocol for Spanned<P> {
    type Msg = P::Msg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, P::Msg>, eff: &mut Effects<P::Msg>) {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.step(round, inbox, eff));
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.side(|p| p.next_wakeup(now))
    }

    fn on_recover(&mut self, round: Round, wipe: bool) {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.on_recover(round, wipe));
    }
}

impl<P: AsyncProtocol> AsyncProtocol for Spanned<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, eff: &mut AsyncEffects<P::Msg>) {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.on_start(eff));
    }

    fn on_messages(&mut self, inbox: Inbox<'_, P::Msg>, eff: &mut AsyncEffects<P::Msg>) {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.on_messages(inbox, eff));
    }

    fn on_retirement(&mut self, retired: Pid, eff: &mut AsyncEffects<P::Msg>) {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.on_retirement(retired, eff));
    }

    fn on_tick(&mut self, eff: &mut AsyncEffects<P::Msg>) {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.on_tick(eff));
    }

    fn on_recover(&mut self, wipe: bool, eff: &mut AsyncEffects<P::Msg>) {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.on_recover(wipe, eff));
    }
}

impl<M, A: Adversary<M>> Adversary<M> for Spanned<A> {
    fn intercept(
        &mut self,
        round: Round,
        pid: Pid,
        eff: &Effects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.intercept(round, pid, eff, ctx))
    }

    fn next_event(&self, now: Round) -> Option<Round> {
        self.side(|a| a.next_event(now))
    }

    fn filters_deliveries(&self) -> bool {
        self.side(|a| a.filters_deliveries())
    }

    fn omits_delivery(&mut self, now: Round, from: Pid, to: Pid) -> bool {
        let inner = &mut self.inner;
        self.side.get_mut().time(self.phase, || inner.omits_delivery(now, from, to))
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        self.side(|a| a.validate(t))
    }
}

impl<M, A: AsyncAdversary<M>> AsyncAdversary<M> for Spanned<A> {
    fn intercept(
        &mut self,
        time: Time,
        pid: Pid,
        invocation: u64,
        eff: &AsyncEffects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        let inner = &mut self.inner;
        self.main.time(self.phase, || inner.intercept(time, pid, invocation, eff, ctx))
    }

    fn scheduled_events(&self) -> Vec<(Time, Pid)> {
        self.side(|a| a.scheduled_events())
    }

    fn filters_deliveries(&self) -> bool {
        self.side(|a| a.filters_deliveries())
    }

    fn omits_delivery(&mut self, now: Time, from: Pid, to: Pid) -> bool {
        let inner = &mut self.inner;
        self.side.get_mut().time(self.phase, || inner.omits_delivery(now, from, to))
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        self.side(|a| a.validate(t))
    }
}

/// One node of the trace: a real interval the benchmark measured around a
/// call into a layer, or — when `calls > 1` — one aggregated child standing
/// for every call the engine made into a layer during its parent, laid out
/// as `[parent start, parent start + extrapolated busy time)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same list; `None` for a root.
    pub parent: Option<usize>,
    /// The operation (or pass, for pass-level spans) this span belongs to.
    pub op: u64,
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is booked to: the part of its name before the dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and a
/// child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times per layer, largest first.
pub fn layer_self_ns(spans: &[Span]) -> Vec<(String, u64)> {
    let mut by_layer: Vec<(String, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match by_layer.iter_mut().find(|(l, _)| l == s.layer()) {
            Some(slot) => slot.1 += own,
            None => by_layer.push((s.layer().to_string(), own)),
        }
    }
    by_layer.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    by_layer
}

/// The trace file: one row per span (`[id, parent, op, name, start_ns,
/// end_ns, calls]`, times relative to the first span) plus the per-layer
/// self-time summary.
pub fn trace_json(workload: &str, spans: &[Span]) -> Value {
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let rows = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::Arr(vec![
                id.into(),
                s.parent.map_or(Value::Null, Value::from),
                s.op.into(),
                s.name.as_str().into(),
                (s.start_ns - origin).into(),
                (s.end_ns - origin).into(),
                s.calls.into(),
            ])
        })
        .collect::<Vec<_>>();
    let mut layers = Value::obj();
    for (layer, ns) in layer_self_ns(spans) {
        layers.set(&layer, ns);
    }
    let mut doc = Value::obj();
    doc.set("workload", workload)
        .set("sample_every", SAMPLE_EVERY)
        .set("columns", "id, parent, op, name, start_ns, end_ns, calls")
        .set("layer_self_ns", layers)
        .set("spans", rows);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, op: 0, calls: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("engine.run", 10, 90, Some(0)),
            span("core.step", 10, 40, Some(1)),
            span("core.wakeup", 40, 50, Some(1)),
            span("engine.report", 90, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 40, 30, 10, 5]);
        // Every nanosecond of the root is booked to exactly one span.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers[0], ("engine".to_string(), 45));
        assert_eq!(layers[1], ("core".to_string(), 40));
        assert_eq!(layers[2], ("bench".to_string(), 15));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("sweep.map", 100, 200, None),
            span("chaos.case", 100, 160, Some(0)),
            span("chaos.case", 140, 180, Some(0)),
            span("chaos.case", 190, 250, Some(0)), // clipped at the parent's end
            span("chaos.case", 120, 130, Some(0)), // wholly inside a sibling
        ];
        // Covered: [100,180) ∪ [190,200) = 90.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tallies_extrapolate_from_sampled_calls() {
        let mut t = Tally::default();
        for _ in 0..160 {
            t.time(0, || std::hint::black_box(1 + 1));
        }
        assert_eq!((t.calls, t.timed), (160, 10));
        // 10 sampled calls of (clock + 50 ns) each stand for 160 calls of 50 ns.
        let t = Tally { calls: 160, timed: 10, ns: 10 * (calibrate_clock() + 50) };
        assert_eq!(t.busy_ns(), 8_000);
        assert_eq!(Tally { calls: 160, timed: 10, ns: 3 }.busy_ns(), 0);
        assert_eq!(Tally::default().busy_ns(), 0);
    }

    #[test]
    fn dropped_wrappers_fold_into_the_thread_sink_once() {
        let _ = take_tallies();
        let mut w = Spanned::new((), Role::Protocol, 15);
        w.main.time(w.phase, || ());
        w.side(|_| ());
        w.side(|_| ());
        let copy = w.clone();
        drop(w);
        drop(copy);
        let got = take_tallies();
        assert_eq!((got.step.calls, got.step.timed), (1, 1));
        assert_eq!(got.wakeup.calls, 2);
        assert_eq!(take_tallies(), Tallies::default());
    }
}

/// Wrapper transparency: a run with every process and the adversary wrapped
/// must produce the very `Report` of the bare run — metrics, full trace and
/// statuses — under fault plans that exercise every forwarded method
/// (recovery hooks, delivery filtering, scheduled injections, validation).
#[cfg(test)]
mod transparency {
    use doall_core::{AsyncProtocolA, AsyncProtocolB, ProtocolA, ProtocolB, ProtocolC, ProtocolD};
    use doall_sim::asynch::{run_async, AsyncConfig, AsyncProtocol, DelayDist};
    use doall_sim::chaos::{ChaosCase, ChaosConfig};
    use doall_sim::{run, FaultPlan, Protocol, Round, RunConfig};

    use super::{take_tallies, Spanned};

    /// Ten valid plans over a 16-process, 64-unit system, every fault kind on.
    fn plans() -> impl Iterator<Item = (u64, FaultPlan)> {
        let cfg = ChaosConfig::new(16, 64);
        (0..10).map(move |seed| (seed, ChaosCase::generate(seed, &cfg).plan()))
    }

    fn sync_twins<P>(build: impl Fn() -> Vec<P>)
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
    {
        let mut faults = 0;
        for (seed, plan) in plans() {
            let cfg = || {
                RunConfig::new(64, Round::MAX).with_trace().with_stall_window(4096).with_shards(1)
            };
            let bare = run(plan.wrap(build()), plan.clone(), cfg());
            let procs = plan.wrap(Spanned::protocols(build(), seed));
            let spanned = run(procs, Spanned::adversary(plan, seed), cfg());
            match (bare, spanned) {
                (Ok(bare), Ok(spanned)) => {
                    assert_eq!(bare, spanned, "seed {seed}: wrapped report differs");
                    let m = &bare.metrics;
                    faults += u64::from(m.crashes) + u64::from(m.recoveries) + m.omissions;
                }
                (bare, spanned) => assert_eq!(
                    bare.map(|_| ()).map_err(|e| e.to_string()),
                    spanned.map(|_| ()).map_err(|e| e.to_string()),
                    "seed {seed}: one twin errored"
                ),
            }
            let tallies = take_tallies();
            assert!(
                tallies.step.calls > 0 && tallies.intercept.calls > 0,
                "seed {seed}: nothing tallied"
            );
        }
        assert!(faults > 0, "the plans injected nothing: the test is vacuous");
    }

    fn async_twins<P: AsyncProtocol>(build: impl Fn() -> Vec<P>) {
        for (seed, plan) in plans() {
            let cfg = || {
                AsyncConfig::new(64, seed)
                    .with_delay(DelayDist::Uniform, 4)
                    .with_trace()
                    .with_stall_window(4096)
            };
            let bare = run_async(plan.wrap_async(build()), plan.clone(), cfg());
            let procs = plan.wrap_async(Spanned::handlers(build(), seed));
            let spanned = run_async(procs, Spanned::adversary(plan, seed), cfg());
            match (bare, spanned) {
                (Ok(bare), Ok(spanned)) => {
                    assert_eq!(bare, spanned, "seed {seed}: wrapped report differs")
                }
                (bare, spanned) => assert_eq!(
                    bare.map(|_| ()).map_err(|e| e.to_string()),
                    spanned.map(|_| ()).map_err(|e| e.to_string()),
                    "seed {seed}: one twin errored"
                ),
            }
            assert!(take_tallies().handler.calls > 0, "seed {seed}: nothing tallied");
        }
    }

    #[test]
    fn protocol_a() {
        sync_twins(|| ProtocolA::processes(64, 16).unwrap());
    }

    #[test]
    fn protocol_b() {
        sync_twins(|| ProtocolB::processes(64, 16).unwrap());
    }

    #[test]
    fn protocol_c() {
        sync_twins(|| ProtocolC::processes(64, 16).unwrap());
    }

    #[test]
    fn protocol_d() {
        sync_twins(|| ProtocolD::processes(64, 16).unwrap());
    }

    #[test]
    fn async_protocol_a() {
        async_twins(|| AsyncProtocolA::processes(64, 16).unwrap());
    }

    #[test]
    fn async_protocol_b() {
        async_twins(|| AsyncProtocolB::processes(64, 16).unwrap());
    }
}
