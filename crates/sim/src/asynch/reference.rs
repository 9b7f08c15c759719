//! The per-recipient-clone reference scheduler: the representation the op
//! arena replaced, kept as an executable specification.
//!
//! [`run_async_reference`] implements *exactly* the semantics of
//! [`run_async`](super::run_async) — same batching rule, same adversary
//! protocol, same RNG draw order — but materializes every delivery as an
//! owned `(from, to, payload)` event: a `k`-recipient broadcast clones the
//! payload `k` times at scheduling and the queue is a plain binary heap.
//! The differential property test (`tests/async_differential.rs`) proves
//! the two produce bit-identical [`AsyncReport`]s over random
//! send/delay/crash/omission patterns at small `t`, and identical
//! [`Metrics`] for Protocols A and B at storm scale (`t = 1024`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{
    AsyncAdversary, AsyncConfig, AsyncEffects, AsyncProtocol, AsyncReport, AsyncRunError, Time,
};
use crate::adversary::{AdversaryCtx, Fate};
use crate::engine::{MemBudget, Status};
use crate::ids::Pid;
use crate::liveset::LiveSet;
use crate::message::{Classify, Inbox};
use crate::metrics::Metrics;
use crate::trace::{Event, Trace};

enum RefEv<M> {
    Start(Pid),
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

/// [`run_async`](super::run_async) with the pre-arena per-recipient-clone
/// event representation. Produces bit-identical reports; exists to be
/// differentially tested and benchmarked against.
///
/// # Errors
///
/// As [`run_async`](super::run_async).
///
/// # Panics
///
/// On a [`Fate::CrashRecover`] verdict: crash-recovery (like
/// adversary-scheduled injections) exists only in the arena engine; this
/// specification covers the fail-stop, send-omission and receive-omission
/// semantics the two engines share.
pub fn run_async_reference<P, A>(
    mut procs: Vec<P>,
    mut adversary: A,
    cfg: AsyncConfig,
) -> Result<AsyncReport, AsyncRunError>
where
    P: AsyncProtocol,
    A: AsyncAdversary<P::Msg>,
{
    let t = procs.len();
    let max_delay = cfg.max_delay.max(1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
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

    let filters = adversary.filters_deliveries();
    let mut metrics = Metrics::new(cfg.n);
    let mut trace = Trace::recording(cfg.record_trace);
    let mut statuses = vec![Status::Alive; t];
    let mut alive = LiveSet::new(t);
    let mut invocations = vec![0u64; t];
    let mut handled: u64 = 0;
    let mut executed: u64 = 0;
    let mut eff: AsyncEffects<P::Msg> = AsyncEffects::default();

    'run: while let Some(Reverse(first)) = heap.pop() {
        let now = first.time;
        executed += 1;
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
                    trace.push(Event::Notice { round: now, observer, retired });
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
                                trace.push(Event::Note { round: now, pid: to, tag: "fault:omit" });
                            }
                            !drop
                        });
                        if pairs.is_empty() {
                            continue;
                        }
                    }
                    eff.reset();
                    procs[to.index()].on_messages(Inbox::from_pairs(&pairs), &mut eff);
                    to
                }
            };

            handled += 1;
            if handled > cfg.max_events {
                return Err(AsyncRunError::EventLimit { limit: cfg.max_events });
            }
            let idx = pid.index();
            invocations[idx] += 1;

            let ctx = AdversaryCtx::new(&alive, metrics.crashes);
            let fate = adversary.intercept(now, pid, invocations[idx], &eff, ctx);

            for tag in eff.notes.drain(..) {
                trace.push(Event::Note { round: now, pid, tag });
            }

            let (count_work, deliver) = match &fate {
                Fate::Survive => (true, None),
                Fate::Crash(spec) => (spec.count_work, Some(spec.deliver.clone())),
                Fate::Omit(filter) => (true, Some(filter.clone())),
                Fate::CrashRecover { .. } => panic!(
                    "crash-recovery faults are not supported by the reference scheduler; \
                     use run_async (the arena engine) for recovery runs"
                ),
            };
            let is_omit = matches!(fate, Fate::Omit(_));
            if count_work {
                for &unit in &eff.work {
                    metrics.record_work(unit);
                    trace.push(Event::Work { round: now, pid, unit });
                }
            }

            // Per-recipient expansion: one owned, cloned payload per
            // scheduled delivery — the representation under test.
            let mut msg_idx = 0usize;
            let mut omitted_now = 0u64;
            for op in eff.drain_sends() {
                let len = op.to.len();
                for (k, to) in op.to.iter().enumerate() {
                    let pass = deliver
                        .as_ref()
                        .is_none_or(|d: &crate::Deliver| d.lets_through(msg_idx + k, to));
                    if is_omit && !pass {
                        omitted_now += 1;
                    }
                    if pass {
                        let payload = op.payload.clone();
                        let class = payload.class();
                        metrics.record_messages(class, 1);
                        let delay = cfg.delay.sample(&mut rng, max_delay);
                        push(&mut heap, now + delay, RefEv::Deliver { from: pid, to, payload });
                        trace.push(Event::Send { round: now, from: pid, to, class });
                    }
                }
                msg_idx += len;
            }

            if omitted_now > 0 {
                metrics.omissions += omitted_now;
                trace.push(Event::Note { round: now, pid, tag: "fault:omit" });
            }

            let crashed_now = matches!(fate, Fate::Crash(_));
            if eff.tick && !crashed_now && !eff.terminated {
                push(&mut heap, now + 1u64, RefEv::Tick(pid));
            }

            let retired_now = if crashed_now {
                statuses[idx] = Status::Crashed(now);
                metrics.crashes += 1;
                trace.push(Event::Crash { round: now, pid });
                true
            } else if eff.terminated {
                statuses[idx] = Status::Terminated(now);
                metrics.terminations += 1;
                trace.push(Event::Terminate { round: now, pid });
                true
            } else {
                false
            };

            if retired_now {
                alive.remove(idx);
                for obs in alive.ones() {
                    let delay = cfg.delay.sample(&mut rng, max_delay);
                    push(
                        &mut heap,
                        now + delay,
                        RefEv::Notice { observer: Pid::new(obs), retired: pid },
                    );
                }
            }

            metrics.rounds = now;
            if alive.is_empty() {
                break 'run;
            }
        }
    }

    if !alive.is_empty() {
        return Err(AsyncRunError::Stalled { alive: alive.ones().map(Pid::new).collect() });
    }
    Ok(AsyncReport { metrics, statuses, trace, mem: MemBudget::default(), executed })
}
