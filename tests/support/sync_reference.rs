//! The round model's reference engine.

use std::collections::BTreeMap;

use doall::sim::{
    Adversary, AdversaryCtx, Classify, Effects, Event, Fate, Inbox, LiveSet, MemBudget, Metrics,
    Pid, Protocol, Report, Round, RunConfig, RunError, StallDiagnosis, Status, Trace, Waiting,
};

use super::{progress, record_message, record_work, Log};

/// The reference engine: same model semantics as `doall::sim::run`, but
/// every send op is immediately expanded into one owned `(from, to,
/// payload)` triple per recipient — per-recipient clones, per-recipient
/// metric recording, per-recipient delivery — the representation the span
/// engine replaced. It keeps no round index and grants no leases: every
/// live process steps every executed round, and after each round every
/// live process is asked for its wakeup afresh. Crash-recovery revivals
/// happen at the start of their round (before delivery), and the report
/// counts executed rounds, so a production round index that adds or drops
/// an executed round is caught too.
///
/// Alongside the report it returns, when [`RunConfig::record_trace`] is
/// set, the events the production engine traces, in the order the model
/// fixes: each round's revivals, then its receive omissions (noted at the
/// recipient, in send order), then per stepped process its notes, its work,
/// one send per escaping recipient, a `"fault:omit"` note at the sender
/// when an omission fault suppressed some of its sends, and its crash or
/// termination.
///
/// # Errors
///
/// The engine's exit family, with the engine's payloads:
/// [`RunError::InvalidAdversary`] before round 1 if the adversary's
/// `validate` refuses the system; [`RunError::RoundLimit`] on reaching a
/// round past [`RunConfig::max_rounds`] (or a clock that cannot advance
/// past [`Round::MAX`]); [`RunError::Deadlock`] when live processes remain
/// with no message in flight, no wakeup, no adversary event and no revival;
/// and [`RunError::Stalled`] once more than [`RunConfig::stall_window`]
/// consecutive executed rounds pass with no delivery to a live process, no
/// work and no retirement or recovery. A diagnosis lists each live process
/// with its wakeup as last asked, and counts as pending one send op per
/// maximal run of consecutive pids that escaped its sender's fault filter
/// (the span engine's in-flight ops).
pub fn run_reference<P, A>(
    mut procs: Vec<P>,
    mut adversary: A,
    cfg: RunConfig,
) -> Result<(Report, Vec<Event>), RunError>
where
    P: Protocol,
    A: Adversary<P::Msg>,
{
    let t = procs.len();
    adversary.validate(t).map_err(|reason| RunError::InvalidAdversary { reason })?;
    // `shards` is accepted and ignored by the engine: no value changes a run.
    let RunConfig { n, max_rounds, record_trace, stall_window, shards: _ } = cfg;
    let mut statuses = vec![Status::Alive; t];
    let mut alive = LiveSet::new(t);
    let mut metrics = Metrics::new(n);
    let mut wakeups: Vec<Option<Round>> =
        procs.iter().map(|p| p.next_wakeup(Round::ONE).map(|w| w.max(Round::ONE))).collect();
    let mut revive: BTreeMap<usize, (Round, bool)> = BTreeMap::new();
    let mut executed_rounds = 0u64;
    let mut log = Log::new(record_trace);
    let mut pending: Vec<(Pid, Pid, P::Msg)> = Vec::new();
    let mut next_pending: Vec<(Pid, Pid, P::Msg)> = Vec::new();
    // Send ops in flight, one per escaping run (see `# Errors`).
    let (mut pending_ops, mut next_ops) = (0usize, 0usize);
    let (mut last_progress, mut streak) = (Round::ZERO, 0u64);
    let mut eff: Effects<P::Msg> = Effects::new();
    let mut round: Round = Round::ONE;

    let diagnosis =
        |round, last_progress, alive: &LiveSet, wakeups: &[Option<Round>], pending, revivals| {
            let stalled = alive.ones().map(|i| (Pid::new(i), Waiting::Wakeup(wakeups[i])));
            let stalled = stalled.collect();
            Box::new(StallDiagnosis {
                round,
                last_progress,
                stalled,
                pending,
                pending_revivals: revivals,
            })
        };

    loop {
        if round > max_rounds {
            let diagnosis =
                diagnosis(round, last_progress, &alive, &wakeups, pending_ops, revive.len());
            return Err(RunError::RoundLimit {
                limit: max_rounds,
                metrics: Box::new(metrics),
                diagnosis,
            });
        }
        executed_rounds += 1;
        metrics.rounds = round;
        let mark = progress(&metrics);
        // Revive: restarts whose downtime has elapsed, before delivery.
        let ready: Vec<(usize, bool)> =
            revive.iter().filter(|(_, &(at, _))| at <= round).map(|(&i, &(_, w))| (i, w)).collect();
        for (idx, wipe) in ready {
            revive.remove(&idx);
            statuses[idx] = Status::Alive;
            alive.insert(idx);
            metrics.recoveries += 1;
            procs[idx].on_recover(round, wipe);
            log.push(Event::Recover { round, pid: Pid::new(idx) });
        }
        // Deliver: naive per-recipient inbox build, consulting receive
        // omission once per live (message, recipient) in send order.
        let filters = adversary.filters_deliveries();
        let mut inboxes: Vec<Vec<(Pid, P::Msg)>> = vec![Vec::new(); t];
        let mut delivered = false;
        for (from, to, payload) in pending.drain(..) {
            if !alive.contains(to.index()) {
                metrics.dead_letters += 1;
            } else if filters && adversary.omits_delivery(round, from, to) {
                metrics.omissions += 1;
                log.push(Event::Note { round, pid: to, tag: "fault:omit" });
            } else {
                inboxes[to.index()].push((from, payload));
                delivered = true;
            }
        }

        for idx in 0..t {
            if !alive.contains(idx) {
                continue;
            }
            let pid = Pid::new(idx);
            eff.reset();
            procs[idx].step(round, Inbox::from_pairs(&inboxes[idx]), &mut eff);
            // The round model's rules, as the engine checks them.
            assert!(eff.work().len() <= 1, "model violation: {pid} did two units at {round}");
            assert!(!eff.wants_tick(), "model violation: {pid} asked for a tick at {round}");
            let ctx = AdversaryCtx::new(&alive, metrics.crashes);
            let fate = adversary.intercept(round, pid, &eff, ctx);
            let (count_work, filter, crash, revival) = match &fate {
                Fate::Survive => (true, None, false, None),
                Fate::Omit(filter) => (true, Some(filter), false, None),
                Fate::Crash(spec) => (spec.count_work, Some(&spec.deliver), true, None),
                Fate::CrashRecover { spec, downtime, wipe } => {
                    (spec.count_work, Some(&spec.deliver), true, Some((*downtime, *wipe)))
                }
            };
            for &tag in eff.notes() {
                log.push(Event::Note { round, pid, tag });
            }
            if count_work {
                for &unit in eff.work() {
                    record_work(&mut metrics, unit);
                    log.push(Event::Work { round, pid, unit });
                }
            }
            // Messages are indexed in send order across ops; spans expand
            // in ascending pid order.
            let (mut i, mut suppressed) = (0usize, 0u64);
            for op in eff.sends() {
                let mut last: Option<usize> = None;
                for to in op.to.iter() {
                    if filter.is_none_or(|d| d.lets_through(i, to)) {
                        let payload = op.payload.clone();
                        let class = payload.class();
                        record_message(&mut metrics, class);
                        log.push(Event::Send { round, from: pid, to, class });
                        next_pending.push((pid, to, payload));
                        next_ops += usize::from(last.is_none_or(|l| l + 1 != to.index()));
                        last = Some(to.index());
                    } else {
                        suppressed += 1;
                    }
                    i += 1;
                }
            }
            // Send omission: the surviving process's suppressed messages
            // never left it. (A crash's unsent messages are not omissions.)
            if !crash && suppressed > 0 {
                metrics.omissions += suppressed;
                log.push(Event::Note { round, pid, tag: "fault:omit" });
            }
            if crash {
                statuses[idx] = Status::Crashed(round);
                alive.remove(idx);
                metrics.crashes += 1;
                log.push(Event::Crash { round, pid });
                if let Some((downtime, wipe)) = revival {
                    revive.insert(idx, (round.saturating_add(u128::from(downtime.max(1))), wipe));
                }
            } else if eff.is_terminated() {
                statuses[idx] = Status::Terminated(round);
                alive.remove(idx);
                metrics.terminations += 1;
                log.push(Event::Terminate { round, pid });
            }
        }

        if alive.is_empty() && revive.is_empty() {
            let report = Report {
                metrics,
                trace: Trace::new(),
                statuses,
                mem: MemBudget::default(),
                executed_rounds,
            };
            return Ok((report, log.events));
        }

        std::mem::swap(&mut pending, &mut next_pending);
        (pending_ops, next_ops) = (next_ops, 0);
        let next = round.saturating_add(1);
        for i in alive.ones() {
            wakeups[i] = procs[i].next_wakeup(next).map(|w| w.max(next));
        }

        // The watchdog counts executed rounds without progress.
        if delivered || progress(&metrics) != mark {
            (last_progress, streak) = (round, 0);
        } else {
            streak += 1;
            if let Some(window) = stall_window.filter(|&w| streak > w) {
                let diagnosis =
                    diagnosis(round, last_progress, &alive, &wakeups, pending_ops, revive.len());
                return Err(RunError::Stalled { window, metrics: Box::new(metrics), diagnosis });
            }
        }

        let target = if pending.is_empty() {
            let wake = alive.ones().filter_map(|i| wakeups[i]).min();
            let adv = adversary.next_event(next).map(|r| r.max(next));
            let rev = revive.values().map(|&(at, _)| at.max(next)).min();
            let Some(target) = [wake, adv, rev].into_iter().flatten().min() else {
                let diagnosis = diagnosis(round, last_progress, &alive, &wakeups, 0, 0);
                return Err(RunError::Deadlock { metrics: Box::new(metrics), diagnosis });
            };
            target
        } else {
            next
        };
        if target == round {
            // Live processes remain but the clock cannot pass the horizon.
            let diagnosis =
                diagnosis(round, last_progress, &alive, &wakeups, pending_ops, revive.len());
            return Err(RunError::RoundLimit {
                limit: max_rounds,
                metrics: Box::new(metrics),
                diagnosis,
            });
        }
        round = target;
    }
}
