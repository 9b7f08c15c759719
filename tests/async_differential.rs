//! Differential property tests for the asynchronous op-arena engine.
//!
//! 1. [`doall::sim::asynch::run_async`] (payload stored once in the op
//!    arena, calendar-queue scheduling, batched zero-copy inboxes) must
//!    produce **bit-identical** [`AsyncReport`]s — metrics, statuses
//!    (whose retirement times must match the trace's), and full traces,
//!    notes included — to the reference scheduler in `tests/support/`
//!    (`run_async_reference`: payload cloned per recipient at scheduling,
//!    plain binary heap) over random send/delay patterns under crash
//!    rules and timed crashes, alone and with seeded send- and
//!    receive-omission windows on top. Drawn `max_delay`s stay small
//!    (dense same-bucket traffic); a fixed grid straddles the calendar
//!    ring's cap, so message traffic through the overflow heap is exercised
//!    too, and `max_delay = u64::MAX` pins that the ring is never sized
//!    from the raw input. Past the cap, `t = 64` systems draw notice
//!    fan-outs of dozens of far delays, which the engine alone sorts
//!    (its overflow bucket). The random patterns stay at `t ≤ 10`;
//!    Protocols A and B at `t = 1024` cover storm scale with full-struct
//!    [`Metrics`] equality.
//! 2. Failure-free asynchronous runs of Protocols A and B must report
//!    exactly the synchronous work and message counts over a small grid
//!    and, under a unit fixed delay, at storm scale `(2048, 1024)` — the
//!    §2.1 claim that the bounds carry over. On the traced small grid,
//!    both planes' statuses carry their trace's retirement times.
//! 3. With [`AsyncConfig::stall_window`] armed, both schedulers trip the
//!    same watchdog at the same timestamp with the same diagnosis: on a
//!    tick livelock, and on random-crash Protocol B cells.
//! 4. Both schedulers refuse an invalid adversary with the same error,
//!    dead-letter sends addressed past the system, and let a timed crash
//!    strike a quiescent process.

mod support;

use doall::sim::asynch::{run_async, AsyncConfig, AsyncProtocol, AsyncReport, DelayDist};
use doall::sim::{
    CrashSpec, Effects, Event, Fault, FaultKind, FaultPlan, Inbox, NoFailures, Pid, Round,
    RunConfig, RunError, Status, Trace, Trigger, Unit,
};
use doall::workload::Scenario;
use doall::{AsyncProtocolA, AsyncProtocolB, ProtocolA, ProtocolB};
use proptest::prelude::*;
use support::async_reference::run_async_reference;
use support::{crash_spec, mix, Chat};

/// A scripted chatterbox for the event-driven plane: self-drives through
/// `actions` tick-chained steps, each drawn from a deterministic hash —
/// some mix of work units (possibly several per handler), a unicast, one
/// or two span multicasts (possibly addressing retired pids, to exercise
/// dead letters), and a note; the final action terminates. Echoes the
/// first few received messages (reactive sends from batched inboxes) and
/// reacts to a bounded number of retirement notices, so every handler kind
/// feeds the comparison.
#[derive(Clone)]
struct AsyncChatter {
    me: usize,
    t: usize,
    n: usize,
    seed: u64,
    actions: u64,
    acted: u64,
    echoes_left: u32,
    checksum: u64,
}

impl AsyncChatter {
    fn procs(t: usize, n: usize, seed: u64) -> Vec<AsyncChatter> {
        (0..t)
            .map(|me| {
                let h = mix(seed ^ (me as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                AsyncChatter {
                    me,
                    t,
                    n,
                    seed,
                    actions: 1 + (h >> 48) % 8,
                    acted: 0,
                    echoes_left: (h >> 16) as u32 % 4,
                    checksum: 0,
                }
            })
            .collect()
    }

    fn act(&mut self, eff: &mut Effects<Chat>) {
        if self.acted >= self.actions {
            return;
        }
        self.acted += 1;
        let h = mix(self.seed ^ ((self.me as u64) << 32) ^ self.acted);
        if h.is_multiple_of(3) {
            eff.perform(Unit::new(1 + (h >> 8) as usize % self.n));
            if h.is_multiple_of(9) {
                // Asynchronous handlers may perform several units at once.
                eff.perform(Unit::new(1 + (h >> 12) as usize % self.n));
            }
        }
        match (h >> 16) % 4 {
            0 => {
                let to = Pid::new((h >> 24) as usize % self.t);
                eff.send(to, Chat(h >> 40));
            }
            1 => {
                let lo = (h >> 24) as usize % self.t;
                let hi = lo + 1 + (h >> 34) as usize % (self.t - lo);
                eff.multicast(lo..hi, Chat(h >> 40));
            }
            2 => {
                // Two ops in one handler: a span and a unicast.
                let lo = (h >> 24) as usize % self.t;
                eff.multicast(lo..self.t, Chat(h >> 40));
                eff.send(Pid::new((h >> 45) as usize % self.t), Chat(h >> 50));
            }
            _ => eff.note("mumble"),
        }
        if self.acted == self.actions {
            eff.terminate();
        } else {
            eff.continue_later();
        }
    }
}

impl AsyncProtocol for AsyncChatter {
    type Msg = Chat;

    fn on_start(&mut self, eff: &mut Effects<Chat>) {
        self.act(eff);
    }

    fn on_messages(&mut self, inbox: Inbox<'_, Chat>, eff: &mut Effects<Chat>) {
        for (from, msg) in inbox.iter() {
            self.checksum = mix(self.checksum ^ (from.index() as u64) ^ msg.0);
            if self.echoes_left > 0 && self.acted < self.actions {
                self.echoes_left -= 1;
                eff.send(from, Chat(self.checksum));
            }
        }
    }

    fn on_retirement(&mut self, retired: Pid, eff: &mut Effects<Chat>) {
        self.checksum = mix(self.checksum ^ 0xDEAD ^ retired.index() as u64);
        if self.checksum.is_multiple_of(5) {
            eff.note("observed_retirement");
        }
    }

    fn on_tick(&mut self, eff: &mut Effects<Chat>) {
        self.act(eff);
    }
}

/// A random crash schedule on top of the timed `windows`: up to 5
/// invocation-indexed crash rules with every delivery-filter shape
/// (silent, after-round, prefix, arbitrary subset), and up to two timed
/// `Crash(p).at(k)` faults on distinct pids at timestamps `0..16`, which
/// strike through the adversary's scheduled events. One pid is always
/// spared a timed crash, so the plan validates.
fn crash_schedule(t: usize, seed: u64, windows: Vec<Fault>) -> FaultPlan {
    let mut faults = windows;
    let mut timed: Vec<usize> = Vec::new();
    for c in 0..mix(seed ^ 0x7143) % 3 {
        let h = mix(seed ^ 0x7143 ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pid = h as usize % t;
        if !timed.contains(&pid) && timed.len() + 1 < t {
            timed.push(pid);
            faults.push(FaultKind::Crash(Pid::new(pid)).at((h >> 16) % 16));
        }
    }
    let mut sched = FaultPlan::new(faults);
    for c in 0..mix(seed) % 6 {
        let h = mix(seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pid = Pid::new(h as usize % t);
        let invocation = 1 + (h >> 16) % 12;
        let trigger = Trigger::NthInvocationOf { pid, nth: invocation };
        sched = sched.crash_on(trigger, crash_spec(h, t));
    }
    sched
}

/// Seeded omission windows: one `OmitSends` and one `OmitRecv`, each on a
/// drawn pid, opening within the first 8 timestamps (where a chatter's own
/// actions fall) and lasting up to `8 + 2 · min(max_delay, 96)` of them.
fn omission_windows(t: usize, max_delay: u64, seed: u64) -> Vec<Fault> {
    let span = 8 + 2 * max_delay.min(96);
    (0..2u64)
        .map(|k| {
            let h = mix(seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
            let pid = Pid::new(h as usize % t);
            let kind = if k == 0 { FaultKind::OmitSends(pid) } else { FaultKind::OmitRecv(pid) };
            kind.at((h >> 8) % 8).for_rounds(1 + (h >> 40) % span)
        })
        .collect()
}

/// Every pid's status carries the time of its retirement event in the
/// trace, on either plane: a retired pid's crash or termination time, none
/// for a pid still alive. (No run checked here recovers from a crash, so
/// each pid retires at most once.)
fn assert_statuses_match_trace(statuses: &[Status], trace: &Trace, at: &str) {
    assert!(!trace.is_empty(), "{at}: untraced run");
    for (p, status) in statuses.iter().enumerate() {
        assert_eq!(status.round(), trace.retirement_round(Pid::new(p)), "{at}: p{p}");
    }
}

fn dist_of(raw: u8) -> DelayDist {
    match raw % 3 {
        0 => DelayDist::Uniform,
        1 => DelayDist::Fixed,
        _ => DelayDist::Bimodal,
    }
}

/// Runs one chatter system under one crash schedule, on top of the
/// omission windows drawn from `omit_seed` if given, through the op-arena
/// engine and the per-recipient-clone reference scheduler and requires the
/// complete [`AsyncReport`](doall::sim::asynch::AsyncReport) to agree:
/// every metric (totals, per class, dead letters, omissions, per-unit
/// multiplicities, final timestamp), statuses, and the full recorded
/// trace, notes included. Returns the run's omission count.
fn assert_arena_matches_reference(
    t: usize,
    n: usize,
    max_delay: u64,
    delay: DelayDist,
    seed: u64,
    omit_seed: Option<u64>,
) -> u64 {
    let cfg = AsyncConfig {
        n,
        seed,
        max_delay,
        delay,
        max_events: 1_000_000,
        record_trace: true,
        stall_window: None,
    };
    let windows = omit_seed.map_or(Vec::new(), |s| omission_windows(t, max_delay, s));
    let sched = crash_schedule(t, seed, windows);
    let fast = run_async(AsyncChatter::procs(t, n, seed), sched.clone(), cfg.clone())
        .expect("chatters always retire");
    let (reference, events) = run_async_reference(AsyncChatter::procs(t, n, seed), sched, cfg)
        .expect("reference run must complete identically");
    let at = format!("t={t} n={n} max_delay={max_delay} {delay:?} seed={seed} omit={omit_seed:?}");
    assert_eq!(fast.metrics, reference.metrics, "{at}");
    assert_eq!(fast.statuses, reference.statuses, "{at}");
    assert_statuses_match_trace(&fast.statuses, &fast.trace, &at);
    assert_eq!(fast.trace.events(), events.as_slice(), "{at}");
    fast.metrics.omissions
}

/// The calendar ring's slot cap (`RING_CAP` in `asynch/queue.rs`, private
/// to the engine): delays at or past it route their far draws through the
/// queue's overflow heap.
const RING_CAP: u64 = 4096;

/// Delay widths just under, just over and well past the ring cap, at a
/// small shape: message traffic that fits the ring exactly, spills by one
/// slot, and mostly lives in the overflow heap must all still match the
/// reference scheduler event for event — crash-only, and with omission
/// windows, of which at least some must drop messages.
#[test]
fn arena_engine_matches_reference_across_the_ring_cap() {
    let mut omitted = 0;
    for max_delay in [RING_CAP - 1, RING_CAP + 1, 3 * RING_CAP] {
        for delay in [DelayDist::Uniform, DelayDist::Fixed, DelayDist::Bimodal] {
            for seed in 0..6u64 {
                assert_arena_matches_reference(6, 8, max_delay, delay, mix(seed), None);
                let omit_seed = Some(mix(seed ^ 0x0D15));
                omitted +=
                    assert_arena_matches_reference(6, 8, max_delay, delay, mix(seed), omit_seed);
            }
        }
    }
    assert!(omitted > 0, "no omission window ever dropped a message");
}

/// Wide delays with big fan-outs: at `t = 64` a retirement draws dozens of
/// notice delays, most of them at or past the ring's width, so each
/// fan-out fills the engine's overflow bucket — with delays that can be
/// congruent modulo the width — and must still queue its runs in the
/// reference's order, event for event, under every distribution. The
/// chatters retire within a few steps, so most of their far notices find
/// no observer; Protocol B's survivors of a dead-on-arrival burst wait on
/// the detector, so there the far runs are dispatched and traced.
#[test]
fn big_fan_outs_match_reference_past_the_ring_cap() {
    for max_delay in [RING_CAP + 1, 3 * RING_CAP, u64::MAX] {
        for delay in [DelayDist::Uniform, DelayDist::Fixed, DelayDist::Bimodal] {
            let mut far_notices = 0;
            for seed in 0..4u64 {
                assert_arena_matches_reference(64, 16, max_delay, delay, mix(seed ^ 0xFA7), None);

                let cfg = AsyncConfig::new(64, mix(seed)).with_delay(delay, max_delay).with_trace();
                let scenario = Scenario::DeadOnArrival { k: 40 };
                let procs = || AsyncProtocolB::processes(64, 64).unwrap();
                let fast = run_async(procs(), scenario.async_adversary(), cfg.clone()).unwrap();
                let (reference, events) =
                    run_async_reference(procs(), scenario.async_adversary(), cfg).unwrap();
                let at = format!("B(64, 64) max_delay={max_delay} {delay:?} seed={seed}");
                assert_eq!(fast.metrics, reference.metrics, "{at}");
                assert_eq!(fast.statuses, reference.statuses, "{at}");
                assert_eq!(fast.trace.events(), events.as_slice(), "{at}");
                far_notices += events
                    .iter()
                    .filter(|e| matches!(e, Event::Notice { round, .. } if *round > Round::from(RING_CAP)))
                    .count();
            }
            assert!(far_notices > 0, "{max_delay} {delay:?}: no far notice was dispatched");
        }
    }
}

/// `max_delay` is plain public data and `u64::MAX` is a valid value: the
/// run completes, does all the work, and — the guard that the ring is
/// never sized from the raw input — holds well under 1 MB of engine state.
#[test]
fn unbounded_max_delay_completes_in_bounded_memory() {
    for delay in [DelayDist::Uniform, DelayDist::Fixed, DelayDist::Bimodal] {
        let cfg = AsyncConfig::new(8, 3).with_delay(delay, u64::MAX);
        let report = run_async(AsyncProtocolA::processes(8, 4).unwrap(), NoFailures, cfg)
            .unwrap_or_else(|e| panic!("{delay:?}: {e}"));
        assert!(report.metrics.all_work_done(), "{delay:?}");
        assert!(report.has_survivor(), "{delay:?}");
        assert!(
            report.mem.engine_bytes() < 1 << 20,
            "{delay:?}: {} engine bytes",
            report.mem.engine_bytes()
        );
    }
}

/// The async peer of `tests/engine.rs`'s probability check: an
/// out-of-range `Scenario::Random` is a typed error, never a panic.
#[test]
fn out_of_range_crash_probability_is_a_typed_error() {
    for p in [2.0, -1.0, f64::NAN] {
        let err = doall::JobSpec::new(AsyncProtocolA::processes(8, 4).unwrap(), 8)
            .scenario(Scenario::Random { seed: 1, p, max_crashes: 3 })
            .run_async()
            .expect_err("an invalid probability must refuse the run");
        match err {
            doall::sim::RunError::InvalidAdversary { reason } => {
                assert!(reason.contains("probability"), "p = {p}: {reason}");
            }
            other => panic!("p = {p}: expected InvalidAdversary, got {other}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The op-arena engine and the per-recipient-clone reference scheduler
    /// agree on the complete AsyncReport over random shapes, schedules and
    /// delay distributions, crash-only and with seeded omission windows.
    #[test]
    fn arena_engine_matches_per_recipient_reference(
        t in 1usize..=10,
        n in 1usize..=12,
        // Small widths: few buckets, so timestamps collide densely. The
        // ring-cap grid above covers the wide ones.
        max_delay in 1u64..=96,
        raw_dist in 0u8..=2,
        seed in any::<u64>(),
        omit_seed in any::<u64>(),
    ) {
        assert_arena_matches_reference(t, n, max_delay, dist_of(raw_dist), seed, None);
        assert_arena_matches_reference(t, n, max_delay, dist_of(raw_dist), seed, Some(omit_seed));
    }

    /// Sanity on the generator itself: drawn systems really do send
    /// messages and suffer crashes (the comparison is not vacuous).
    #[test]
    fn async_chatter_runs_produce_traffic(seed in any::<u64>()) {
        let report = run_async(
            AsyncChatter::procs(8, 8, seed),
            crash_schedule(8, seed, Vec::new()),
            AsyncConfig { max_delay: 6, ..AsyncConfig::new(8, seed) },
        ).expect("chatters always retire");
        prop_assert_eq!(
            u64::from(report.metrics.crashes + report.metrics.terminations),
            8u64
        );
    }
}

/// Sanity on the omission windows: each kind on its own drops messages in
/// some drawn runs, so neither omission path is compared vacuously.
#[test]
fn omission_windows_drop_messages_of_both_kinds() {
    for kind in 0..2 {
        let dropped: u64 = (0..32u64)
            .map(|seed| {
                let windows = vec![omission_windows(8, 6, seed).swap_remove(kind)];
                let cfg = AsyncConfig { max_delay: 6, ..AsyncConfig::new(8, seed) };
                run_async(AsyncChatter::procs(8, 8, seed), crash_schedule(8, seed, windows), cfg)
                    .expect("chatters always retire")
                    .metrics
                    .omissions
            })
            .sum();
        assert!(dropped > 0, "window kind {kind} never dropped a message");
    }
}

/// The twin check at storm scale, where the random patterns above cannot
/// reach: one active process span-broadcasting through `t = 1024`
/// (Protocol A, failure-free) and the detector's O(t²) notice traffic
/// after 992 crashes (Protocol B). Full-struct equality — totals, per
/// class, dead letters, per-unit multiplicities, final timestamp — so an
/// arena path that misclassifies only under load cannot pass.
#[test]
fn arena_engine_matches_reference_at_storm_scale() {
    fn twin<P>(build: fn(u64, u64) -> Vec<P>, scenario: Scenario, messages: u64)
    where
        P: AsyncProtocol,
        P::Msg: 'static,
    {
        let cfg = AsyncConfig::new(2_048, 7).with_delay(DelayDist::Uniform, 4);
        let arena = run_async(build(2_048, 1_024), scenario.async_adversary(), cfg.clone());
        let reference = run_async_reference(build(2_048, 1_024), scenario.async_adversary(), cfg);
        let (arena, reference) = (arena.unwrap().metrics, reference.unwrap().0.metrics);
        assert_eq!(arena, reference, "{}", scenario.label());
        assert_eq!(arena.messages, messages, "{}", scenario.label());
    }
    twin(|n, t| AsyncProtocolA::processes(n, t).unwrap(), Scenario::FailureFree, 94_240);
    twin(
        |n, t| AsyncProtocolB::processes(n, t).unwrap(),
        Scenario::DeadOnArrival { k: 992 },
        31_744,
    );
}

/// Requires the two schedulers' outcomes to agree: equal metrics and
/// statuses when both complete; on a watchdog trip the same window,
/// metrics and diagnosis. Returns whether the run stalled.
fn assert_same_outcome(
    fast: Result<AsyncReport, RunError>,
    reference: Result<(AsyncReport, Vec<Event>), RunError>,
    at: &str,
) -> bool {
    match (fast, reference.map(|(report, _)| report)) {
        (Ok(fast), Ok(reference)) => {
            assert_eq!(fast.metrics, reference.metrics, "{at}");
            assert_eq!(fast.statuses, reference.statuses, "{at}");
            false
        }
        (
            Err(RunError::Stalled { window, metrics, diagnosis }),
            Err(RunError::Stalled { window: w, metrics: m, diagnosis: d }),
        ) => {
            assert_eq!((window, metrics), (w, m), "{at}");
            assert_eq!(diagnosis, d, "{at}");
            assert!(diagnosis.round > diagnosis.last_progress, "{at}");
            true
        }
        (fast, reference) => panic!("{at}: engine {fast:?}, reference {reference:?}"),
    }
}

/// A process that asks for a tick forever and does nothing else.
struct Spinner;

impl AsyncProtocol for Spinner {
    type Msg = Chat;
    fn on_start(&mut self, eff: &mut Effects<Chat>) {
        eff.continue_later();
    }
    fn on_messages(&mut self, _: Inbox<'_, Chat>, _: &mut Effects<Chat>) {}
    fn on_retirement(&mut self, _: Pid, _: &mut Effects<Chat>) {}
    fn on_tick(&mut self, eff: &mut Effects<Chat>) {
        eff.continue_later();
    }
}

/// A tick livelock trips the reference's watchdog exactly as the engine's:
/// two spinners under a 50-step window stall at time 51, long before the
/// default event cap, on both schedulers.
#[test]
fn reference_watchdog_trips_on_a_tick_livelock_like_the_engine() {
    let cfg = AsyncConfig::new(1, 0).with_stall_window(50);
    let fast = run_async(vec![Spinner, Spinner], NoFailures, cfg.clone());
    let reference = run_async_reference(vec![Spinner, Spinner], NoFailures, cfg);
    let Err(RunError::Stalled { diagnosis, .. }) = &fast else { panic!("{fast:?}") };
    assert_eq!((diagnosis.round.get(), diagnosis.last_progress.get()), (51, 0));
    assert!(assert_same_outcome(fast, reference, "spinners"));
}

/// Random-crash Protocol B cells under a 2-step window: most runs stall
/// (a passive process waits longer than the window for its turn), and each
/// one does so at the same timestamp, with the same metrics and diagnosis,
/// on both schedulers; the rest complete identically.
#[test]
fn reference_watchdog_matches_the_engine_on_random_crash_cells() {
    let mut stalled = 0;
    for seed in 0..64u64 {
        let plan = FaultPlan::random(seed, 0.05, 15);
        let cfg = AsyncConfig::new(32, seed).with_stall_window(2);
        let procs = || AsyncProtocolB::processes(32, 16).unwrap();
        let fast = run_async(procs(), plan.clone(), cfg.clone());
        let reference = run_async_reference(procs(), plan, cfg);
        stalled += usize::from(assert_same_outcome(fast, reference, &format!("seed {seed}")));
    }
    assert!(0 < stalled && stalled < 64, "{stalled} of 64 stalled: one outcome never seen");
}

/// §2.1's carried-over bounds, sharpened to equality where equality is a
/// theorem: under a **fixed** delay (every hop takes the same time), a
/// retiring process's final broadcast and the detector's notice about its
/// retirement arrive at the same timestamp with the message batched first,
/// so no passive process ever activates on stale knowledge — the
/// failure-free asynchronous Protocols A and B then perform exactly the
/// synchronous work and send exactly the synchronous messages. Under
/// skewed delay distributions a notice *can* legitimately outrun the
/// terminal message (the observer re-activates and redoes a tail of the
/// schedule), so there the Theorem 2.3 bounds — not equality — are the
/// carried-over claim.
#[test]
fn failure_free_async_equals_sync_for_a_and_b() {
    let grid = [(16u64, 16u64), (32, 16), (64, 16), (36, 36)];
    for (n, t) in grid {
        let cfg = RunConfig::new(n as usize, u64::MAX - 1).with_trace();
        let sync_a =
            doall::sim::run(ProtocolA::processes(n, t).unwrap(), NoFailures, cfg.clone()).unwrap();
        let sync_b = doall::sim::run(ProtocolB::processes(n, t).unwrap(), NoFailures, cfg).unwrap();
        assert_statuses_match_trace(&sync_a.statuses, &sync_a.trace, &format!("sync A({n},{t})"));
        assert_statuses_match_trace(&sync_b.statuses, &sync_b.trace, &format!("sync B({n},{t})"));
        // Exact equality under fixed delays, for several hop costs.
        for max_delay in [1u64, 3, 11] {
            let cfg = AsyncConfig::new(n as usize, 42)
                .with_delay(DelayDist::Fixed, max_delay)
                .with_trace();
            let async_a =
                run_async(AsyncProtocolA::processes(n, t).unwrap(), NoFailures, cfg.clone())
                    .unwrap();
            let async_b =
                run_async(AsyncProtocolB::processes(n, t).unwrap(), NoFailures, cfg).unwrap();
            for (label, sync, asynch) in [("A", &sync_a, &async_a), ("B", &sync_b, &async_b)] {
                let at = format!("{label}({n},{t},fixed {max_delay})");
                assert_statuses_match_trace(&asynch.statuses, &asynch.trace, &at);
                assert!(asynch.metrics.all_work_done(), "{label}({n},{t},fixed {max_delay})");
                assert_eq!(
                    asynch.metrics.work_total, sync.metrics.work_total,
                    "{label}({n},{t},fixed {max_delay}): async work drifted from sync"
                );
                assert_eq!(
                    asynch.metrics.messages, sync.metrics.messages,
                    "{label}({n},{t},fixed {max_delay}): async messages drifted from sync"
                );
                assert_eq!(
                    asynch.metrics.messages_by_class, sync.metrics.messages_by_class,
                    "{label}({n},{t},fixed {max_delay})"
                );
            }
        }
        // Carried-over bounds under adversarial delay shapes.
        let bound = doall::bounds::theorems::protocol_a(n, t);
        for (dist, max_delay, seed) in [
            (DelayDist::Uniform, 7, 0u64),
            (DelayDist::Uniform, 23, 5),
            (DelayDist::Bimodal, 16, 1),
            (DelayDist::Bimodal, 48, 9),
        ] {
            let cfg = AsyncConfig::new(n as usize, seed).with_delay(dist, max_delay);
            let async_a =
                run_async(AsyncProtocolA::processes(n, t).unwrap(), NoFailures, cfg.clone())
                    .unwrap();
            let async_b =
                run_async(AsyncProtocolB::processes(n, t).unwrap(), NoFailures, cfg).unwrap();
            for (label, asynch) in [("A", &async_a), ("B", &async_b)] {
                assert!(asynch.metrics.all_work_done(), "{label}({n},{t},{dist:?})");
                assert!(
                    asynch.metrics.work_total <= bound.work,
                    "{label}({n},{t},{dist:?}): work {} over 3n bound {}",
                    asynch.metrics.work_total,
                    bound.work
                );
                assert!(
                    asynch.metrics.messages <= bound.messages,
                    "{label}({n},{t},{dist:?}): messages {} over 9t*sqrt(t) bound {}",
                    asynch.metrics.messages,
                    bound.messages
                );
            }
        }
    }
    // Storm scale, the shape of `async_storm`'s failure-free cells, under
    // `Fixed` 1 only. p0's terminal checkpoint is batched ahead of every
    // detector notice about it, so p0 is the one process that ever
    // activates: the 1,023 others are still passive when it lands and
    // retire on it. A watermark that let one of them activate before
    // then would add an activation here.
    let (n, t) = (2_048u64, 1_024u64);
    let sync_b = doall::sim::run(
        ProtocolB::processes(n, t).unwrap(),
        NoFailures,
        doall::sim::RunConfig::new(n as usize, u64::MAX - 1),
    )
    .unwrap();
    let cfg = AsyncConfig::new(n as usize, 42).with_delay(DelayDist::Fixed, 1).with_trace();
    let async_a =
        run_async(AsyncProtocolA::processes(n, t).unwrap(), NoFailures, cfg.clone()).unwrap();
    let async_b = run_async(AsyncProtocolB::processes(n, t).unwrap(), NoFailures, cfg).unwrap();
    assert!(async_a.metrics.all_work_done() && async_b.metrics.all_work_done());
    for report in [&async_a, &async_b] {
        let activations = report.trace.notes("activate").count();
        assert_eq!(activations, 1, "({n},{t},fixed 1): only p0 activates");
    }
    assert_eq!(async_a.metrics.work_total, 2_048, "A({n},{t},fixed 1)");
    assert_eq!(async_a.metrics.messages, 94_240, "A({n},{t},fixed 1)");
    assert_eq!(async_b.metrics.work_total, sync_b.metrics.work_total, "B({n},{t},fixed 1)");
    assert_eq!(async_b.metrics.messages, sync_b.metrics.messages, "B({n},{t},fixed 1)");
    assert_eq!(
        async_b.metrics.messages_by_class, sync_b.metrics.messages_by_class,
        "B({n},{t},fixed 1)"
    );
}

/// The references refuse what the engines refuse: a crash rule on p99 over
/// four processes is the same [`RunError::InvalidAdversary`], with the same
/// reason, from the engine and from its reference.
#[test]
fn reference_refuses_an_invalid_adversary_like_the_engine() {
    let rule = Trigger::NthInvocationOf { pid: Pid::new(99), nth: 1 };
    let plan = FaultPlan::default().crash_on(rule, CrashSpec::silent());
    let cfg = AsyncConfig::new(16, 0);
    let procs = || AsyncProtocolA::processes(16, 4).unwrap();
    let fast = run_async(procs(), plan.clone(), cfg.clone());
    let reference = run_async_reference(procs(), plan, cfg);
    let Err(RunError::InvalidAdversary { reason }) = &fast else { panic!("{fast:?}") };
    assert!(reason.contains("p99"), "{reason}");
    assert_eq!(fast.err(), reference.err());
}

/// Four processes that each address pids past the system in three
/// tick-chained handlers, then terminate: one unicast to `t + 5`, or one
/// span over `0..t + 3` (three recipients past the end).
struct AsyncStray {
    t: usize,
    wide: bool,
    sent: u64,
}

impl AsyncStray {
    fn act(&mut self, eff: &mut Effects<Chat>) {
        if self.wide {
            eff.multicast(0..self.t + 3, Chat(self.sent));
        } else {
            eff.send(Pid::new(self.t + 5), Chat(self.sent));
        }
        self.sent += 1;
        if self.sent == 3 {
            eff.terminate();
        } else {
            eff.continue_later();
        }
    }
}

impl AsyncProtocol for AsyncStray {
    type Msg = Chat;
    fn on_start(&mut self, eff: &mut Effects<Chat>) {
        self.act(eff);
    }
    fn on_messages(&mut self, _: Inbox<'_, Chat>, _: &mut Effects<Chat>) {}
    fn on_retirement(&mut self, _: Pid, _: &mut Effects<Chat>) {}
    fn on_tick(&mut self, eff: &mut Effects<Chat>) {
        self.act(eff);
    }
}

/// A recipient past the system is a dead letter at delivery, never a
/// panic, and both schedulers agree on every report and event. Under a
/// unit fixed delay the counts are the sync plane's: 12 messages and 8
/// dead letters for the unicasts, 84 and 24 for the spans (the last sends
/// land after every process has retired).
#[test]
fn sends_past_the_system_are_dead_letters_like_the_reference() {
    for (wide, messages, dead) in [(false, 12, 8), (true, 84, 24)] {
        let delays = [(DelayDist::Fixed, 1), (DelayDist::Uniform, 3), (DelayDist::Bimodal, 3)];
        for (delay, max_delay) in delays {
            for seed in 0..8u64 {
                let procs = || (0..4).map(|_| AsyncStray { t: 4, wide, sent: 0 }).collect();
                let cfg = AsyncConfig::new(1, seed).with_delay(delay, max_delay).with_trace();
                let fast: AsyncReport = run_async(procs(), NoFailures, cfg.clone()).unwrap();
                let (reference, events) = run_async_reference(procs(), NoFailures, cfg).unwrap();
                let at = format!("wide={wide} {delay:?} {max_delay} seed={seed}");
                assert_eq!(fast.metrics, reference.metrics, "{at}");
                assert_eq!(fast.statuses, reference.statuses, "{at}");
                assert_eq!(fast.trace.events(), events.as_slice(), "{at}");
                assert_eq!(fast.metrics.messages, messages, "{at}");
                if delay == DelayDist::Fixed {
                    assert_eq!(fast.metrics.dead_letters, dead, "{at}");
                }
            }
        }
    }
}

/// A timed crash strikes a quiescent process through its injection point
/// on both schedulers: under `Crash(p3).at(2)`, Protocol B's p3 is still
/// passive at time 2 and crashes there, on the engine and on the
/// reference alike.
#[test]
fn timed_crash_strikes_a_quiescent_process_like_the_engine() {
    let plan = FaultPlan::new(vec![FaultKind::Crash(Pid::new(3)).at(2)]);
    let cfg = AsyncConfig::new(16, 5).with_trace();
    let procs = || AsyncProtocolB::processes(16, 4).unwrap();
    let fast = run_async(procs(), plan.clone(), cfg.clone()).unwrap();
    let (reference, events) = run_async_reference(procs(), plan, cfg).unwrap();
    assert_eq!(fast.statuses[3], Status::Crashed(2u64.into()));
    let p3 = Pid::new(3);
    assert!(!fast.trace.notes("activate").any(|(time, pid)| pid == p3 && time <= 2u64));
    assert_eq!(fast.metrics, reference.metrics);
    assert_eq!(fast.statuses, reference.statuses);
    assert_eq!(fast.trace.events(), events.as_slice());
}
