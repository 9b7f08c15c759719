//! Differential property test for the span-multicast message plane and
//! the sparse round scheduler: a *reference engine* that expands every
//! send op into per-recipient `(from, to, payload)` triples — the pre-PR-3
//! representation — and steps every live process every executed round
//! must produce byte-identical [`Report`]s (statuses and all metrics,
//! including `messages_by_class`, dead letters, and per-unit work
//! multiplicities), the same executed-round count and the same event
//! trace as the production engine's CSR span delivery and O(due) round
//! index, over randomly drawn unicast/multicast patterns, crash schedules,
//! crash-recovery fault plans, moving deadlines, and fast-forward gaps.
//! The production engine also runs untraced, where it grants work leases
//! (a traced run never does), and must agree with the reference on
//! everything but the trace.

use std::collections::BTreeMap;

use doall::sim::{
    run, Adversary, AdversaryCtx, Classify, CrashSpec, Effects, Event, Fate, FaultKind, FaultPlan,
    Inbox, LiveSet, MemBudget, Metrics, Pid, Protocol, Report, Round, RunConfig, Status, Trace,
    Unit,
};
use doall::ProtocolD;
use proptest::prelude::*;

/// A payload with two metric classes, so `messages_by_class` is exercised.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Chat(u64);

impl Classify for Chat {
    fn class(&self) -> &'static str {
        if self.0.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }
}

/// SplitMix64: the per-(seed, pid, round) decision hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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

/// The reference engine: same model semantics as `doall::sim::run`, but
/// every send op is immediately expanded into one owned `(from, to,
/// payload)` triple per recipient — per-recipient clones, per-recipient
/// metric recording, per-recipient delivery — the representation the span
/// engine replaced. It keeps no wakeup cache and no round index: every
/// live process steps every executed round, and the fast-forward asks
/// every live process for its wakeup afresh. Crash-recovery revivals
/// happen at the start of their round (before delivery), and the report
/// counts executed rounds, so a production round index that adds or
/// drops an executed round is caught too. Alongside the report it returns
/// the events the production engine traces, in the order the model fixes:
/// each round's revivals, then its receive omissions (noted at the
/// recipient, in send order), then per stepped process its notes, its
/// work, one send per escaping recipient, a `"fault:omit"` note at the
/// sender when an omission fault suppressed some of its sends, and its
/// crash or termination.
fn run_reference<P, A>(
    mut procs: Vec<P>,
    mut adversary: A,
    cfg: RunConfig,
) -> Option<(Report, Vec<Event>)>
where
    P: Protocol,
    A: Adversary<P::Msg>,
{
    let t = procs.len();
    let mut statuses = vec![Status::Alive; t];
    let mut alive = LiveSet::new(t);
    let mut metrics = Metrics::new(cfg.n);
    let mut revive: BTreeMap<usize, (Round, bool)> = BTreeMap::new();
    let mut executed_rounds = 0u64;
    let mut events: Vec<Event> = Vec::new();
    let record_work = |m: &mut Metrics, unit: Unit| {
        m.work_total += 1;
        let idx = unit.zero_based();
        if idx >= m.work_by_unit.len() {
            m.work_by_unit.resize(idx + 1, 0);
        }
        m.work_by_unit[idx] += 1;
    };
    let mut pending: Vec<(Pid, Pid, P::Msg)> = Vec::new();
    let mut next_pending: Vec<(Pid, Pid, P::Msg)> = Vec::new();
    let mut eff: Effects<P::Msg> = Effects::new();
    let mut round: Round = Round::ONE;

    loop {
        if round > cfg.max_rounds {
            return None;
        }
        executed_rounds += 1;
        // Revive: restarts whose downtime has elapsed, before delivery.
        let ready: Vec<(usize, bool)> =
            revive.iter().filter(|(_, &(at, _))| at <= round).map(|(&i, &(_, w))| (i, w)).collect();
        for (idx, wipe) in ready {
            revive.remove(&idx);
            statuses[idx] = Status::Alive;
            alive.insert(idx);
            metrics.recoveries += 1;
            procs[idx].on_recover(round, wipe);
            events.push(Event::Recover { round, pid: Pid::new(idx) });
        }
        // Deliver: naive per-recipient inbox build, consulting receive
        // omission once per live (message, recipient) in send order.
        let filters = adversary.filters_deliveries();
        let mut inboxes: Vec<Vec<(Pid, P::Msg)>> = vec![Vec::new(); t];
        for (from, to, payload) in pending.drain(..) {
            if !alive.contains(to.index()) {
                metrics.dead_letters += 1;
            } else if filters && adversary.omits_delivery(round, from, to) {
                metrics.omissions += 1;
                events.push(Event::Note { round, pid: to, tag: "fault:omit" });
            } else {
                inboxes[to.index()].push((from, payload));
            }
        }

        for idx in 0..t {
            if !alive.contains(idx) {
                continue;
            }
            let pid = Pid::new(idx);
            eff.reset();
            procs[idx].step(round, Inbox::from_pairs(&inboxes[idx]), &mut eff);
            let ctx = AdversaryCtx::new(&alive, metrics.crashes);
            let fate = adversary.intercept(round, pid, &eff, ctx);
            for &tag in eff.notes() {
                events.push(Event::Note { round, pid, tag });
            }
            match fate {
                Fate::Survive => {
                    if let Some(unit) = eff.work() {
                        record_work(&mut metrics, unit);
                        events.push(Event::Work { round, pid, unit });
                    }
                    for op in eff.sends() {
                        for to in op.to.iter() {
                            let payload = op.payload.clone();
                            metrics.messages += 1;
                            *metrics.messages_by_class.entry(payload.class()).or_insert(0) += 1;
                            let class = payload.class();
                            events.push(Event::Send { round, from: pid, to, class });
                            next_pending.push((pid, to, payload));
                        }
                    }
                    if eff.is_terminated() {
                        statuses[idx] = Status::Terminated(round);
                        alive.remove(idx);
                        metrics.terminations += 1;
                        events.push(Event::Terminate { round, pid });
                    }
                }
                Fate::Crash(ref spec) | Fate::CrashRecover { ref spec, .. } => {
                    if spec.count_work {
                        if let Some(unit) = eff.work() {
                            record_work(&mut metrics, unit);
                            events.push(Event::Work { round, pid, unit });
                        }
                    }
                    let mut i = 0usize;
                    for op in eff.sends() {
                        for to in op.to.iter() {
                            if spec.deliver.lets_through(i, to) {
                                let payload = op.payload.clone();
                                metrics.messages += 1;
                                *metrics.messages_by_class.entry(payload.class()).or_insert(0) += 1;
                                let class = payload.class();
                                events.push(Event::Send { round, from: pid, to, class });
                                next_pending.push((pid, to, payload));
                            }
                            i += 1;
                        }
                    }
                    statuses[idx] = Status::Crashed(round);
                    alive.remove(idx);
                    metrics.crashes += 1;
                    events.push(Event::Crash { round, pid });
                    if let Fate::CrashRecover { downtime, wipe, .. } = fate {
                        revive
                            .insert(idx, (round.saturating_add(u128::from(downtime.max(1))), wipe));
                    }
                }
                Fate::Omit(filter) => {
                    // Send omission: the process survives, works, and its
                    // filtered messages count as omissions.
                    if let Some(unit) = eff.work() {
                        record_work(&mut metrics, unit);
                        events.push(Event::Work { round, pid, unit });
                    }
                    let mut i = 0usize;
                    let mut suppressed = 0u64;
                    for op in eff.sends() {
                        for to in op.to.iter() {
                            if filter.lets_through(i, to) {
                                let payload = op.payload.clone();
                                metrics.messages += 1;
                                *metrics.messages_by_class.entry(payload.class()).or_insert(0) += 1;
                                let class = payload.class();
                                events.push(Event::Send { round, from: pid, to, class });
                                next_pending.push((pid, to, payload));
                            } else {
                                suppressed += 1;
                            }
                            i += 1;
                        }
                    }
                    if suppressed > 0 {
                        metrics.omissions += suppressed;
                        events.push(Event::Note { round, pid, tag: "fault:omit" });
                    }
                    if eff.is_terminated() {
                        statuses[idx] = Status::Terminated(round);
                        alive.remove(idx);
                        metrics.terminations += 1;
                        events.push(Event::Terminate { round, pid });
                    }
                }
            }
        }

        if alive.is_empty() && revive.is_empty() {
            metrics.rounds = round;
            let report = Report {
                metrics,
                trace: Trace::new(),
                statuses,
                mem: MemBudget::default(),
                executed_rounds,
            };
            return Some((report, events));
        }

        std::mem::swap(&mut pending, &mut next_pending);
        next_pending.clear();

        if pending.is_empty() {
            let next = round.next();
            let wake =
                alive.ones().filter_map(|i| procs[i].next_wakeup(next)).map(|w| w.max(next)).min();
            let adv = adversary.next_event(next).map(|r| r.max(next));
            let rev = revive.values().map(|&(at, _)| at.max(next)).min();
            // `None` is a deadlock: neither fixture ever produces one.
            round = [wake, adv, rev].into_iter().flatten().min()?;
        } else {
            round = round.next();
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
        let spec = match (h >> 32) % 4 {
            0 => CrashSpec::silent(),
            1 => CrashSpec::after_round(),
            2 => CrashSpec::prefix((h >> 40) as usize % (t + 1)),
            _ => {
                let members = (0..t).filter(|&p| (h >> (p % 24)) & 1 == 1).map(Pid::new);
                CrashSpec::subset(members)
            }
        };
        sched = sched.crash_at(pid, round, spec);
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
/// the reference, and asserts all three agree on metrics, statuses and
/// executed rounds, and the traced run on the event trace.
fn assert_twins<P, A>(procs: Vec<P>, adversary: A, cfg: RunConfig) -> Report
where
    P: Protocol + Clone,
    A: Adversary<P::Msg> + Clone,
{
    let fast = run(procs.clone(), adversary.clone(), cfg.clone().with_trace())
        .expect("fixtures always retire");
    let bare = run(procs.clone(), adversary.clone(), cfg.clone()).expect("fixtures always retire");
    let (reference, events) =
        run_reference(procs, adversary, cfg).expect("reference run must complete identically");
    for (label, report) in [("traced", &fast), ("untraced", &bare)] {
        assert_eq!(&report.metrics, &reference.metrics, "{label}");
        assert_eq!(&report.statuses, &reference.statuses, "{label}");
        assert_eq!(report.executed_rounds, reference.executed_rounds, "{label}");
    }
    assert_eq!(fast.trace.events(), events.as_slice());
    fast
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
