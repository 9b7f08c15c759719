//! Differential property test for the span-multicast message plane and
//! the sparse round scheduler: the *reference engine* in `tests/support/`
//! (`run_reference`), which expands every send op into per-recipient
//! `(from, to, payload)` triples — the representation span multicast
//! replaced — and steps every live process every executed round, must
//! produce byte-identical [`Report`]s (statuses and all metrics, including
//! `messages_by_class`, dead letters, and per-unit work multiplicities),
//! the same executed-round count and the same event trace as the
//! production engine's CSR span delivery and O(due) round index, over
//! randomly drawn unicast/multicast patterns, crash schedules,
//! crash-recovery fault plans, moving deadlines, and fast-forward gaps.
//! The production engine also runs untraced, where it grants work leases
//! (a traced run never does), and must agree with the reference on
//! everything but the trace. Where a run fails, the two must fail with
//! the same whole [`RunError`]: an invalid adversary, a deadlock, a round
//! limit, or a stall of the armed watchdog, diagnosis included.

mod support;

use doall::sim::{
    run, Adversary, CrashSpec, Effects, FaultKind, FaultPlan, Inbox, Pid, Protocol, Report, Round,
    RunConfig, RunError, Trigger, Unit,
};
use doall::{ProtocolB, ProtocolD};
use proptest::prelude::*;
use support::sync_reference::run_reference;
use support::{crash_spec, mix, Chat};

/// A scripted chatterbox: acts every `stride` rounds from `start`, for
/// `actions` actions, each drawn from a deterministic hash — some mix of a
/// work unit, a unicast, one or two span multicasts (possibly covering
/// dead pids), and a note; the final action terminates. Also echoes the
/// first few received messages, so reactive sends (and their ordering) are
/// covered too. Strides are drawn up to ~1000 rounds, which drives the
/// engine's fast-forward path between actions.
#[derive(Clone)]
struct Chatter {
    me: usize,
    t: usize,
    n: usize,
    seed: u64,
    start: Round,
    stride: u128,
    actions: u64,
    acted: u64,
    echoes_left: u32,
    checksum: u64,
}

impl Chatter {
    fn procs(t: usize, n: usize, seed: u64) -> Vec<Chatter> {
        (0..t)
            .map(|me| {
                let h = mix(seed ^ (me as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                let strides: [u128; 7] = [1, 2, 3, 5, 8, 40, 1000];
                Chatter {
                    me,
                    t,
                    n,
                    seed,
                    start: Round::from(1 + h % 25),
                    stride: strides[(h >> 32) as usize % strides.len()],
                    actions: 1 + (h >> 48) % 10,
                    acted: 0,
                    echoes_left: (h >> 16) as u32 % 4,
                    checksum: 0,
                }
            })
            .collect()
    }

    fn scheduled(&self, round: Round) -> bool {
        self.acted < self.actions
            && round >= self.start
            && (round - self.start).is_multiple_of(self.stride)
    }
}

impl Protocol for Chatter {
    type Msg = Chat;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Chat>, eff: &mut Effects<Chat>) {
        for (from, msg) in inbox.iter() {
            self.checksum = mix(self.checksum ^ (from.index() as u64) ^ msg.0);
            if self.echoes_left > 0 {
                self.echoes_left -= 1;
                eff.send(from, Chat(self.checksum));
            }
        }
        if !self.scheduled(round) {
            return;
        }
        self.acted += 1;
        let h = mix(self.seed ^ (self.me as u64) << 32 ^ round.get() as u64);
        if h.is_multiple_of(3) {
            eff.perform(Unit::new(1 + (h >> 8) as usize % self.n));
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
                // Two ops in one round: a span and a unicast.
                let lo = (h >> 24) as usize % self.t;
                eff.multicast(lo..self.t, Chat(h >> 40));
                eff.send(Pid::new((h >> 45) as usize % self.t), Chat(h >> 50));
            }
            _ => eff.note("mumble"),
        }
        if self.acted == self.actions {
            eff.terminate();
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.acted >= self.actions {
            return None;
        }
        if now <= self.start {
            return Some(self.start);
        }
        Some(self.start + (now - self.start).div_ceil(self.stride) * self.stride)
    }
}

/// A deadline-driven process whose deliveries move its next action earlier
/// *or* later: every received message resets the deadline to
/// `round + 1 + payload % k`, and every action sets it to
/// `round + 1 + hash % k`, with `k` drawn per process from
/// {1, 3, 40, 1000}. `k = 1` keeps a process due every round (the
/// next-round list), `k = 1000` parks it far out (the far-wakeup bound),
/// and a message can pull a parked deadline in or push a near one out
/// without the process ever being due. Actions mirror [`Chatter`]'s; a
/// few received messages are echoed. A wiped recovery restarts from the
/// initial state (whose deadline is usually already past, so the process
/// is due in its revival round); a stale one keeps its deadline, which may
/// lie anywhere ahead — unless the crash hit its final action, in which
/// case it is due at once and terminates.
#[derive(Clone)]
struct Mover {
    me: usize,
    t: usize,
    n: usize,
    seed: u64,
    k: u64,
    start: Round,
    actions: u64,
    echoes: u32,
    deadline: Round,
    acted: u64,
    echoes_left: u32,
    checksum: u64,
}

impl Mover {
    fn procs(t: usize, n: usize, seed: u64) -> Vec<Mover> {
        (0..t)
            .map(|me| {
                let h = mix(seed ^ 0x4D4F_5645 ^ (me as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                let ks: [u64; 4] = [1, 3, 40, 1000];
                let start = Round::from(1 + h % 30);
                let echoes = (h >> 16) as u32 % 4;
                Mover {
                    me,
                    t,
                    n,
                    seed,
                    k: ks[(h >> 32) as usize % ks.len()],
                    start,
                    actions: 1 + (h >> 48) % 6,
                    echoes,
                    deadline: start,
                    acted: 0,
                    echoes_left: echoes,
                    checksum: 0,
                }
            })
            .collect()
    }
}

impl Protocol for Mover {
    type Msg = Chat;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Chat>, eff: &mut Effects<Chat>) {
        if self.acted >= self.actions {
            // Only a stale revival of a process that crashed in its final
            // action gets here (due at once, see `on_recover`): finish.
            eff.terminate();
            return;
        }
        for (from, msg) in inbox.iter() {
            self.checksum = mix(self.checksum ^ (from.index() as u64) ^ msg.0);
            self.deadline = round.saturating_add(u128::from(1 + msg.0 % self.k));
            if self.echoes_left > 0 {
                self.echoes_left -= 1;
                eff.send(from, Chat(self.checksum));
            }
        }
        if self.deadline > round {
            return;
        }
        self.acted += 1;
        let h = mix(self.seed ^ (self.me as u64) << 32 ^ round.get() as u64 ^ self.checksum);
        self.deadline = round.saturating_add(u128::from(1 + (h >> 4) % self.k));
        if h.is_multiple_of(3) {
            eff.perform(Unit::new(1 + (h >> 8) as usize % self.n));
        }
        match (h >> 16) % 4 {
            0 => eff.send(Pid::new((h >> 24) as usize % self.t), Chat(h >> 40)),
            1 => {
                let lo = (h >> 24) as usize % self.t;
                let hi = lo + 1 + (h >> 34) as usize % (self.t - lo);
                eff.multicast(lo..hi, Chat(h >> 40));
            }
            2 => {
                let lo = (h >> 24) as usize % self.t;
                eff.multicast(lo..self.t, Chat(h >> 40));
                eff.send(Pid::new((h >> 45) as usize % self.t), Chat(h >> 50));
            }
            _ => eff.note("mumble"),
        }
        if self.acted == self.actions {
            eff.terminate();
        }
    }

    fn next_wakeup(&self, _now: Round) -> Option<Round> {
        Some(self.deadline)
    }

    fn on_recover(&mut self, round: Round, wipe: bool) {
        if wipe {
            self.deadline = self.start;
            self.acted = 0;
            self.echoes_left = self.echoes;
            self.checksum = 0;
        } else if self.acted >= self.actions {
            self.deadline = round;
        }
    }
}

/// A random crash schedule: up to 5 crashes in rounds `1..=horizon` with
/// every delivery-filter shape (silent, after-round, prefix, arbitrary
/// subset).
fn crash_schedule(t: usize, seed: u64, horizon: u64) -> FaultPlan {
    let mut sched = FaultPlan::default();
    let crashes = mix(seed) % 6;
    for c in 0..crashes {
        let h = mix(seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pid = Pid::new(h as usize % t);
        let round = 1 + (h >> 16) % horizon;
        sched = sched.crash_at(pid, round, crash_spec(h, t));
    }
    sched
}

/// A random valid fault plan of one to six faults injected in rounds
/// `1..=horizon`, at least half of them crash-recoveries (wiped or stale,
/// downtimes from one round to several hundred), plus permanent crashes,
/// send-omission and receive-omission windows. Pid 0 is never crashed for
/// good, and no pid gets both a permanent crash and another crash-like
/// fault, so the plan always validates.
fn fault_plan(t: usize, seed: u64, horizon: u64) -> FaultPlan {
    let mut faults = Vec::new();
    let mut crash_like: Vec<(usize, bool)> = Vec::new(); // (pid, permanent)
    for c in 0..1 + mix(seed ^ 0x0FA1_7000) % 6 {
        let h = mix(seed ^ 0x0FA1_7000 ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pid = h as usize % t;
        let at = 1 + (h >> 16) % horizon;
        let window = 1 + (h >> 40) % 20;
        let fault = match (h >> 32) % 6 {
            0..=2 => {
                if crash_like.iter().any(|&(p, permanent)| p == pid && permanent) {
                    continue;
                }
                crash_like.push((pid, false));
                let downtimes: [u64; 5] = [1, 2, 5, 40, 300];
                FaultKind::CrashRecover {
                    pid: Pid::new(pid),
                    downtime: downtimes[(h >> 44) as usize % downtimes.len()],
                    wipe: (h >> 50) & 1 == 1,
                }
                .at(at)
            }
            3 => {
                if pid == 0 || crash_like.iter().any(|&(p, _)| p == pid) {
                    continue;
                }
                crash_like.push((pid, true));
                FaultKind::Crash(Pid::new(pid)).at(at)
            }
            4 => FaultKind::OmitSends(Pid::new(pid)).at(at).for_rounds(window),
            _ => FaultKind::OmitRecv(Pid::new(pid)).at(at).for_rounds(window),
        };
        faults.push(fault);
    }
    let plan = FaultPlan::new(faults);
    assert!(plan.validate(t).is_ok(), "generator drew an invalid plan");
    plan
}

/// Runs `procs` through the production engine, traced and untraced, and
/// through the reference, and requires one outcome. When the reference
/// completes, all three agree on metrics, statuses and executed rounds,
/// and the traced run on the event trace; when it fails, both engine runs
/// fail with the same whole [`RunError`] — variant, metrics and diagnosis.
fn twin_outcome<P, A>(procs: Vec<P>, adversary: A, cfg: RunConfig) -> Result<Report, RunError>
where
    P: Protocol + Clone,
    A: Adversary<P::Msg> + Clone,
{
    let traced = run(procs.clone(), adversary.clone(), cfg.clone().with_trace());
    let bare = run(procs.clone(), adversary.clone(), cfg.clone());
    match run_reference(procs, adversary, cfg.with_trace()) {
        Ok((reference, events)) => {
            let traced = traced.expect("the engine must complete like the reference");
            let bare = bare.expect("the untraced engine must complete like the reference");
            for (label, report) in [("traced", &traced), ("untraced", &bare)] {
                assert_eq!(&report.metrics, &reference.metrics, "{label}");
                assert_eq!(&report.statuses, &reference.statuses, "{label}");
                assert_eq!(report.executed_rounds, reference.executed_rounds, "{label}");
            }
            assert_eq!(traced.trace.events(), events.as_slice());
            Ok(traced)
        }
        Err(e) => {
            assert_eq!(traced.as_ref().err(), Some(&e), "traced");
            assert_eq!(bare.as_ref().err(), Some(&e), "untraced");
            Err(e)
        }
    }
}

/// [`twin_outcome`] for systems that always retire.
fn assert_twins<P, A>(procs: Vec<P>, adversary: A, cfg: RunConfig) -> Report
where
    P: Protocol + Clone,
    A: Adversary<P::Msg> + Clone,
{
    twin_outcome(procs, adversary, cfg).expect("fixtures always retire")
}

/// A lease-offering worker, or a pinger that keeps deliveries landing on
/// leased workers. A worker performs `units` successive units (wrapping
/// at `n`) one per round from `start`, and each round offers a lease of
/// up to `chunk` of them: never across the wrap, and never the last
/// unit, whose round terminates. A pinger unicasts to a drawn pid every
/// `stride` rounds from `start`, `pings` times, then terminates. Neither
/// reads its inbox beyond a checksum, so a worker's lease holds whatever
/// arrives.
#[derive(Clone)]
struct Grinder {
    me: usize,
    t: usize,
    n: usize,
    seed: u64,
    start: Round,
    pinger: bool,
    stride: u64,
    count: u64,
    offset: usize,
    chunk: u64,
    done: u64,
    checksum: u64,
}

impl Grinder {
    fn procs(t: usize, n: usize, seed: u64) -> Vec<Grinder> {
        (0..t)
            .map(|me| {
                let h = mix(seed ^ 0x4752_494E ^ (me as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                Grinder {
                    me,
                    t,
                    n,
                    seed,
                    start: Round::from(1 + h % 20),
                    pinger: (h >> 8).is_multiple_of(3),
                    stride: 1 + (h >> 12) % 4,
                    count: 1 + (h >> 16) % 40,
                    offset: (h >> 24) as usize % n,
                    chunk: [1, 2, 7, 64][(h >> 32) as usize % 4],
                    done: 0,
                    checksum: 0,
                }
            })
            .collect()
    }

    fn unit(&self) -> usize {
        (self.offset + self.done as usize) % self.n
    }
}

impl Protocol for Grinder {
    type Msg = Chat;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Chat>, eff: &mut Effects<Chat>) {
        for (from, msg) in inbox.iter() {
            self.checksum = mix(self.checksum ^ (from.index() as u64) ^ msg.0);
        }
        if self.next_wakeup(round) != Some(round) {
            return;
        }
        if self.pinger {
            let h = mix(self.seed ^ (self.me as u64) << 32 ^ round.get() as u64 ^ self.checksum);
            eff.send(Pid::new(h as usize % self.t), Chat(h >> 40));
        } else {
            eff.perform(Unit::new(1 + self.unit()));
        }
        self.done += 1;
        if self.done == self.count {
            eff.terminate();
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.done >= self.count {
            None
        } else if !self.pinger {
            Some(now.max(self.start))
        } else {
            let due = self.start + u128::from(self.done * self.stride);
            Some(now.max(due))
        }
    }

    fn lease(&self, now: Round) -> Option<(Unit, u64)> {
        if self.pinger || now < self.start {
            return None;
        }
        let len = self.chunk.min(self.count - self.done - 1).min((self.n - self.unit()) as u64);
        (len > 0).then(|| (Unit::new(1 + self.unit()), len))
    }

    fn advance(&mut self, k: u64) {
        self.done += k;
    }
}

/// Non-adjacent exact-round crashes for Protocol D: up to three of every
/// other pid from 1 or 2 (pid 0 survives), each in a round drawn from the
/// first work phase and the agreement after it, so shares of the second
/// phase span runs and leases are clipped mid-phase.
fn d_crashes(t: usize, n: usize, seed: u64) -> FaultPlan {
    let rounds = n.div_ceil(t) as u64 + 4;
    let mut plan = FaultPlan::default();
    for c in 0..mix(seed ^ 0xD) % 4 {
        let pid = 1 + (seed % 2) as usize + 2 * c as usize;
        if pid >= t {
            break;
        }
        let h = mix(seed ^ 0xD ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let spec = match (h >> 32) % 3 {
            0 => CrashSpec::silent(),
            1 => CrashSpec::after_round(),
            _ => CrashSpec::prefix((h >> 40) as usize % t),
        };
        plan = plan.crash_at(Pid::new(pid), 1 + h % rounds, spec);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The span engine and the per-recipient reference engine agree on the
    /// complete Report: statuses, message counts (total, per class, dead
    /// letters), per-unit work multiplicities, the final round, and the
    /// number of executed rounds.
    #[test]
    fn span_engine_matches_per_recipient_reference(
        t in 1usize..=10,
        n in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let cfg = RunConfig::new(n, 200_000);
        assert_twins(Chatter::procs(t, n, seed), crash_schedule(t, seed, 60), cfg);
    }

    /// The round index twin under fail-stop crashes: moving deadlines keep
    /// processes entering and leaving the next-round list, being woken by
    /// inboxes before they are due, and parking far out, across live sets
    /// up to three bitset words wide.
    #[test]
    fn round_index_matches_dense_reference_under_crash_schedules(
        t in 1usize..=130,
        n in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let cfg = RunConfig::new(n, Round::MAX);
        assert_twins(Mover::procs(t, n, seed), crash_schedule(t, seed, 200), cfg);
    }

    /// The same twin under fault plans built around crash-recovery: a
    /// revived process re-enters the system with a wakeup no index entry
    /// knows about — due in its revival round, or anywhere ahead — and
    /// omission windows route delivery through the filtered inbox build.
    #[test]
    fn round_index_matches_dense_reference_under_recovery_plans(
        t in 1usize..=130,
        n in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let cfg = RunConfig::new(n, Round::MAX);
        let report = assert_twins(Mover::procs(t, n, seed), fault_plan(t, seed, 60), cfg);
        prop_assert!(report.metrics.crashes >= report.metrics.recoveries);
    }

    /// Protocol D, broadcast or coordinated, failure-free or under
    /// non-adjacent exact-round crashes, at shapes with `n % t != 0` and
    /// `n < t`: the untraced engine leases every work phase, clipped at
    /// each crash round.
    #[test]
    fn protocol_d_leases_match_dense_reference(
        t in 1usize..=12,
        n in 1usize..=60,
        coordinated in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let procs = if coordinated {
            ProtocolD::processes_with_coordinator(n as u64, t as u64)
        } else {
            ProtocolD::processes(n as u64, t as u64)
        }
        .expect("valid D shape");
        let plan = if seed.is_multiple_of(4) { FaultPlan::default() } else { d_crashes(t, n, seed) };
        let report = assert_twins(procs, plan, RunConfig::new(n, 100_000));
        prop_assert!(report.metrics.all_work_done());
    }

    /// Lease-offering workers among pingers under exact-round crashes:
    /// deliveries reach leased workers, leases stop at the unit-range wrap
    /// and at every crash round, and some workers are crashed mid-run.
    #[test]
    fn grinders_match_dense_reference_under_crash_schedules(
        t in 1usize..=40,
        n in 1usize..=30,
        seed in any::<u64>(),
    ) {
        let cfg = RunConfig::new(n, 10_000);
        assert_twins(Grinder::procs(t, n, seed), crash_schedule(t, seed, 60), cfg);
    }

    /// Sanity on the generator itself: some drawn systems really do send
    /// multicasts and suffer crashes (the comparison is not vacuous).
    #[test]
    fn chatter_runs_produce_traffic(seed in any::<u64>()) {
        let report = run(
            Chatter::procs(8, 8, seed),
            crash_schedule(8, seed, 60),
            RunConfig::new(8, 200_000),
        ).expect("chatters always retire");
        // Every process retired one way or the other.
        prop_assert_eq!(
            u64::from(report.metrics.crashes + report.metrics.terminations),
            8u64
        );
    }
}

/// The references refuse what the engines refuse: a crash rule on p99 over
/// four processes is the same [`RunError::InvalidAdversary`], with the same
/// reason, from the engine and from its reference.
#[test]
fn reference_refuses_an_invalid_adversary_like_the_engine() {
    let rule = Trigger::NthWorkBy { pid: Pid::new(99), nth: 1 };
    let plan = FaultPlan::default().crash_on(rule, CrashSpec::silent());
    let err = twin_outcome(Chatter::procs(4, 8, 1), plan, RunConfig::new(8, 10_000))
        .expect_err("a rule past the system must refuse the run");
    let RunError::InvalidAdversary { reason } = err else { panic!("{err}") };
    assert!(reason.contains("p99"), "{reason}");
}

/// Four processes that each address pids past the system for three
/// rounds, then terminate: one unicast to `t + 5`, or one span over
/// `0..t + 3` (three recipients past the end).
#[derive(Clone)]
struct Stray {
    t: usize,
    wide: bool,
    sent: u64,
}

impl Protocol for Stray {
    type Msg = Chat;

    fn step(&mut self, _: Round, _: Inbox<'_, Chat>, eff: &mut Effects<Chat>) {
        if self.wide {
            eff.multicast(0..self.t + 3, Chat(self.sent));
        } else {
            eff.send(Pid::new(self.t + 5), Chat(self.sent));
        }
        self.sent += 1;
        if self.sent == 3 {
            eff.terminate();
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        (self.sent < 3).then_some(now)
    }
}

/// A recipient past the system is a dead letter, never a panic: the last
/// round's sends are never delivered, so the unicasts read 12 messages and
/// 8 dead letters, the spans 84 messages and 24 dead letters, on the
/// engine and on its reference alike.
#[test]
fn sends_past_the_system_are_dead_letters_like_the_reference() {
    for (wide, messages, dead) in [(false, 12, 8), (true, 84, 24)] {
        let procs = vec![Stray { t: 4, wide, sent: 0 }; 4];
        let report = assert_twins(procs, FaultPlan::default(), RunConfig::new(1, 100));
        assert_eq!((report.metrics.messages, report.metrics.dead_letters), (messages, dead));
    }
}

/// A token ring: p0 holds the token at round 1, and each holder performs
/// one unit and passes the token on, until the holder of hop `hops`
/// broadcasts the end and everyone terminates on it. A process holding no
/// token never wakes on its own, so a silent crash of the holder, or a
/// pass to a crashed pid, loses the token for good: a deadlock.
#[derive(Clone)]
struct Ring {
    me: usize,
    t: usize,
    n: usize,
    hops: u64,
    start: bool,
}

impl Protocol for Ring {
    type Msg = Chat;

    fn step(&mut self, _: Round, inbox: Inbox<'_, Chat>, eff: &mut Effects<Chat>) {
        let mut token = std::mem::take(&mut self.start).then_some(0);
        for (_, &Chat(hop)) in inbox.iter() {
            if hop == u64::MAX {
                eff.terminate();
                return;
            }
            token = Some(hop);
        }
        let Some(hop) = token else { return };
        eff.perform(Unit::new(1 + hop as usize % self.n));
        if hop + 1 == self.hops {
            eff.multicast(0..self.t, Chat(u64::MAX));
            eff.terminate();
        } else {
            eff.send(Pid::new((self.me + 1) % self.t), Chat(hop + 1));
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.start.then_some(now)
    }
}

/// Random crash schedules over token rings under a watchdog armed wider
/// than the crash horizon (so a lost token deadlocks rather than stalls):
/// most runs deadlock, each at the same round, with the same metrics and the
/// same diagnosis, on the engine and on its reference; the rest complete
/// identically.
#[test]
fn reference_deadlocks_like_the_engine_on_random_crash_cells() {
    let mut deadlocked = 0;
    for seed in 0..64u64 {
        let t = 2 + (seed % 7) as usize;
        let procs: Vec<Ring> =
            (0..t).map(|me| Ring { me, t, n: 5, hops: 3 * t as u64, start: me == 0 }).collect();
        let cfg = RunConfig::new(5, 10_000).with_stall_window(64);
        match twin_outcome(procs, crash_schedule(t, seed, 3 * t as u64), cfg) {
            Ok(_) => {}
            Err(RunError::Deadlock { .. }) => deadlocked += 1,
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert!(0 < deadlocked && deadlocked < 64, "{deadlocked} of 64 deadlocked");
}

/// The sync peer of the async suite's watchdog twin: random-crash Protocol
/// B cells under a 2-round window. Most runs stall (a passive process
/// waits longer than the window for its deadline), each at the same round,
/// with the same metrics and the same diagnosis, wakeups included, on the
/// engine and on its reference; the rest complete identically.
#[test]
fn reference_watchdog_matches_the_engine_on_random_crash_cells() {
    let mut stalled = 0;
    for seed in 0..64u64 {
        let plan = FaultPlan::random(seed, 0.05, 15);
        let cfg = RunConfig::new(32, 100_000).with_stall_window(2);
        let procs = ProtocolB::processes(32, 16).unwrap();
        match twin_outcome(procs, plan, cfg) {
            Ok(_) => {}
            Err(RunError::Stalled { diagnosis, .. }) => {
                assert!(diagnosis.round > diagnosis.last_progress, "seed {seed}");
                stalled += 1;
            }
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert!(0 < stalled && stalled < 64, "{stalled} of 64 stalled");
}

/// Moving deadlines under crash schedules against a 12-round cap: runs
/// that outlive the cap hit [`RunError::RoundLimit`] at the same round,
/// with the same metrics and diagnosis (wakeups and in-flight ops
/// included), on the engine and on its reference.
#[test]
fn reference_hits_the_round_limit_like_the_engine() {
    let mut limited = 0;
    for seed in 0..64u64 {
        let cfg = RunConfig::new(8, 12).with_stall_window(64);
        match twin_outcome(Mover::procs(8, 8, seed), crash_schedule(8, seed, 12), cfg) {
            Ok(_) => {}
            Err(RunError::RoundLimit { diagnosis, .. }) => {
                assert!(diagnosis.round > 12u64, "seed {seed}");
                limited += 1;
            }
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert!(0 < limited && limited < 64, "{limited} of 64 hit the cap");
}
