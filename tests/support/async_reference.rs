//! The asynchronous plane's reference scheduler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use doall::sim::asynch::{
    AsyncAdversary, AsyncConfig, AsyncProtocol, AsyncReport, DelayDist, Time,
};
use doall::sim::{
    AdversaryCtx, Classify, Effects, Event, Fate, Inbox, LiveSet, MemBudget, Metrics, Pid,
    RunError, StallDiagnosis, Status, Trace, Waiting,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{progress, record_message, record_work, Log};

enum RefEv<M> {
    Start(Pid),
    Inject(Pid),
    Deliver { from: Pid, to: Pid, payload: M },
    Notice { observer: Pid, retired: Pid },
    Tick(Pid),
    Consumed,
}

struct Entry<M> {
    time: Time,
    seq: u64,
    ev: RefEv<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One per-hop delay draw, as [`DelayDist`] documents it.
fn draw(delay: DelayDist, rng: &mut SmallRng, max_delay: u64) -> u64 {
    match delay {
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

/// `doall::sim::asynch::run_async` with the pre-arena per-recipient-clone
/// event representation: the same batching rule, adversary protocol and
/// RNG draw order, but every delivery is an owned `(from, to, payload)`
/// event — a `k`-recipient broadcast clones the payload `k` times at
/// scheduling — and the queue is a plain binary heap. Events are ordered
/// by time, then by push order: each process's start signal, then the
/// adversary's [`scheduled_events`](AsyncAdversary::scheduled_events) as
/// handler-free invocations (in the order listed, pids past the system
/// skipped), then everything the run schedules. A delivery to a pid that
/// is not alive, including one past the system, is a dead letter.
///
/// Alongside the report (whose trace is empty) it returns, when
/// [`AsyncConfig::record_trace`] is set, the events the engine traces.
///
/// # Errors
///
/// [`RunError::InvalidAdversary`] if the adversary's `validate` refuses
/// the system, before any event; otherwise as `run_async`, with the same
/// per-batch watchdog: [`RunError::Stalled`] once more than
/// [`AsyncConfig::stall_window`] time passes after the last batch that
/// delivered a message or moved the progress mark. Diagnoses match the
/// engine's; with no crash-recovery here, `pending_revivals` is always 0.
///
/// # Panics
///
/// On a [`Fate::CrashRecover`] verdict: crash-recovery exists only in the
/// arena engine; this specification covers the fail-stop, send-omission
/// and receive-omission semantics the two schedulers share.
pub fn run_async_reference<P, A>(
    mut procs: Vec<P>,
    mut adversary: A,
    cfg: AsyncConfig,
) -> Result<(AsyncReport, Vec<Event>), RunError>
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
{
    let t = procs.len();
    adversary.validate(t).map_err(|reason| RunError::InvalidAdversary { reason })?;
    let AsyncConfig { n, seed, max_delay, delay, max_events, record_trace, stall_window } = cfg;
    let max_delay = max_delay.max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut heap: BinaryHeap<Reverse<Entry<P::Msg>>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut push =
        |heap: &mut BinaryHeap<Reverse<Entry<P::Msg>>>, time: Time, ev: RefEv<P::Msg>| {
            heap.push(Reverse(Entry { time, seq, ev }));
            seq += 1;
        };
    for pid in 0..t {
        push(&mut heap, Time::ZERO, RefEv::Start(Pid::new(pid)));
    }
    for (time, pid) in adversary.scheduled_events() {
        if pid.index() < t {
            push(&mut heap, time, RefEv::Inject(pid));
        }
    }

    let filters = adversary.filters_deliveries();
    let mut metrics = Metrics::new(n);
    let mut log = Log::new(record_trace);
    let mut statuses = vec![Status::Alive; t];
    let mut alive = LiveSet::new(t);
    let mut invocations = vec![0u64; t];
    let mut handled: u64 = 0;
    let mut executed: u64 = 0;
    let mut eff: Effects<P::Msg> = Effects::new();
    let mut now = Time::ZERO;
    let mut last_progress = Time::ZERO;
    let diagnosis = |now, last_progress, alive: &LiveSet, invocations: &[u64], pending| {
        let stalled = alive.ones().map(|i| (Pid::new(i), Waiting::Invocations(invocations[i])));
        let stalled = stalled.collect();
        Box::new(StallDiagnosis {
            round: now,
            last_progress,
            stalled,
            pending,
            pending_revivals: 0,
        })
    };

    'run: while let Some(Reverse(first)) = heap.pop() {
        now = first.time;
        executed += 1;
        let mark = progress(&metrics);
        let mut delivered = false;
        let mut batch: Vec<RefEv<P::Msg>> = vec![first.ev];
        while heap.peek().is_some_and(|Reverse(e)| e.time == now) {
            batch.push(heap.pop().expect("peeked").0.ev);
        }

        for i in 0..batch.len() {
            let ev = std::mem::replace(&mut batch[i], RefEv::Consumed);
            let pid = match ev {
                RefEv::Consumed => continue,
                RefEv::Start(pid) => {
                    if !alive.contains(pid.index()) {
                        continue;
                    }
                    eff.reset();
                    procs[pid.index()].on_start(&mut eff);
                    pid
                }
                RefEv::Inject(pid) => {
                    // Handler-free: only the adversary's ruling below runs.
                    if !alive.contains(pid.index()) {
                        continue;
                    }
                    eff.reset();
                    pid
                }
                RefEv::Tick(pid) => {
                    if !alive.contains(pid.index()) {
                        continue;
                    }
                    eff.reset();
                    procs[pid.index()].on_tick(&mut eff);
                    pid
                }
                RefEv::Notice { observer, retired } => {
                    if !alive.contains(observer.index()) {
                        continue;
                    }
                    log.push(Event::Notice { round: now, observer, retired });
                    eff.reset();
                    procs[observer.index()].on_retirement(retired, &mut eff);
                    observer
                }
                RefEv::Deliver { from, to, payload } => {
                    if !alive.contains(to.index()) {
                        metrics.dead_letters += 1;
                        continue;
                    }
                    let mut pairs: Vec<(Pid, P::Msg)> = vec![(from, payload)];
                    for later in batch.iter_mut().skip(i + 1) {
                        if matches!(later, RefEv::Deliver { to: to2, .. } if *to2 == to) {
                            let RefEv::Deliver { from: f2, payload: p2, .. } =
                                std::mem::replace(later, RefEv::Consumed)
                            else {
                                unreachable!("matched Deliver above");
                            };
                            pairs.push((f2, p2));
                        }
                    }
                    // Receive omission: once per (message, recipient), at
                    // dispatch; a wholly dropped group invokes nothing.
                    if filters {
                        pairs.retain(|&(from, _)| {
                            let drop = adversary.omits_delivery(now, from, to);
                            if drop {
                                metrics.omissions += 1;
                                log.push(Event::Note { round: now, pid: to, tag: "fault:omit" });
                            }
                            !drop
                        });
                        if pairs.is_empty() {
                            continue;
                        }
                    }
                    eff.reset();
                    procs[to.index()].on_messages(Inbox::from_pairs(&pairs), &mut eff);
                    delivered = true;
                    to
                }
            };

            handled += 1;
            if handled > max_events {
                return Err(RunError::EventLimit {
                    limit: max_events,
                    metrics: Box::new(metrics),
                    diagnosis: diagnosis(now, last_progress, &alive, &invocations, heap.len()),
                });
            }
            let idx = pid.index();
            invocations[idx] += 1;

            let ctx = AdversaryCtx::new(&alive, metrics.crashes);
            let fate = adversary.intercept(now, pid, invocations[idx], &eff, ctx);

            for &tag in eff.notes() {
                log.push(Event::Note { round: now, pid, tag });
            }

            let (count_work, deliver) = match &fate {
                Fate::Survive => (true, None),
                Fate::Crash(spec) => (spec.count_work, Some(&spec.deliver)),
                Fate::Omit(filter) => (true, Some(filter)),
                Fate::CrashRecover { .. } => panic!(
                    "crash-recovery faults are not supported by the reference scheduler; \
                     use run_async (the arena engine) for recovery runs"
                ),
            };
            let crashed_now = matches!(fate, Fate::Crash(_));
            if count_work {
                for &unit in eff.work() {
                    record_work(&mut metrics, unit);
                    log.push(Event::Work { round: now, pid, unit });
                }
            }

            // Per-recipient expansion: one owned, cloned payload per
            // scheduled delivery — the representation under test.
            let (mut msg_idx, mut suppressed) = (0usize, 0u64);
            for op in eff.sends() {
                for to in op.to.iter() {
                    if deliver.is_none_or(|d| d.lets_through(msg_idx, to)) {
                        let payload = op.payload.clone();
                        let class = payload.class();
                        record_message(&mut metrics, class);
                        let at = now + draw(delay, &mut rng, max_delay);
                        push(&mut heap, at, RefEv::Deliver { from: pid, to, payload });
                        log.push(Event::Send { round: now, from: pid, to, class });
                    } else {
                        suppressed += 1;
                    }
                    msg_idx += 1;
                }
            }
            // Send omission: a crash's unsent messages are not omissions.
            if !crashed_now && suppressed > 0 {
                metrics.omissions += suppressed;
                log.push(Event::Note { round: now, pid, tag: "fault:omit" });
            }

            if eff.wants_tick() && !crashed_now && !eff.is_terminated() {
                push(&mut heap, now + 1u64, RefEv::Tick(pid));
            }

            let retired_now = if crashed_now {
                statuses[idx] = Status::Crashed(now);
                metrics.crashes += 1;
                log.push(Event::Crash { round: now, pid });
                true
            } else if eff.is_terminated() {
                statuses[idx] = Status::Terminated(now);
                metrics.terminations += 1;
                log.push(Event::Terminate { round: now, pid });
                true
            } else {
                false
            };

            if retired_now {
                alive.remove(idx);
                for obs in alive.ones() {
                    let at = now + draw(delay, &mut rng, max_delay);
                    push(&mut heap, at, RefEv::Notice { observer: Pid::new(obs), retired: pid });
                }
            }

            metrics.rounds = now;
            if alive.is_empty() {
                break 'run;
            }
        }

        // The engine's watchdog, on the same batch boundaries.
        if delivered || progress(&metrics) != mark {
            last_progress = now;
        } else if let Some(window) = stall_window {
            if now.saturating_sub(last_progress) > u128::from(window) {
                let diagnosis = diagnosis(now, last_progress, &alive, &invocations, heap.len());
                return Err(RunError::Stalled { window, metrics: Box::new(metrics), diagnosis });
            }
        }
    }

    if !alive.is_empty() {
        let diagnosis = diagnosis(now, last_progress, &alive, &invocations, 0);
        return Err(RunError::Deadlock { metrics: Box::new(metrics), diagnosis });
    }
    let report =
        AsyncReport { metrics, statuses, trace: Trace::new(), mem: MemBudget::default(), executed };
    Ok((report, log.events))
}
