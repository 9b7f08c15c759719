//! Protocol B (§2.3–§2.4): Protocol A's checkpointing with message-driven
//! deadlines (`DDB`) and a polling *preactive* phase, bringing the running
//! time from `Θ(nt + t²)` down to `O(n + t)`.
//!
//! Guarantees (Theorem 2.8): at most `3n` work, `10t√t` messages (of which
//! at most `t√t` are `go ahead`s), and all processes retired by round
//! `3n + 8t`.
//!
//! How takeover works: a passive process `j` that last heard from `i` at
//! round `r'` waits `DDB(j, i)` rounds. If nothing arrives it becomes
//! *preactive*: it polls each lower-numbered process of its own group that
//! it cannot prove retired with a `go ahead` message, one every `PTO`
//! rounds. A polled process that is alive becomes active immediately (its
//! first `DoWork` operation is a broadcast to its own group, which reaches
//! the poller and demotes it back to passive); if none responds, `j`
//! becomes active at round `r' + TT(j, i)` exactly as the analysis
//! requires.

use doall_bounds::deadlines_ab::{ddb, pto, AbParams};
use doall_sim::{Effects, Inbox, Pid, Protocol, Round, Unit};

use super::{validate, AbMsg, DoWork, Heard};
use crate::error::ConfigError;

/// What a passive process is waiting on (stale once it is active).
#[derive(Clone, Copy, Debug)]
enum Waiting {
    /// Round `r' + DDB(j, i)`, to go preactive.
    Deadline {
        /// Round at which the last ordinary message was received (`r'`); 0
        /// for the fictitious initial message.
        heard_at: Round,
    },
    /// Preactive (Figure 2, `PreactivePhase`): a response to its polls.
    Polling {
        /// Round at which the preactive phase began.
        entry: Round,
        /// The next group member to poll (absolute pid).
        next_target: u64,
    },
}

/// One process of Protocol B.
///
/// # Examples
///
/// ```
/// use doall_core::ab::protocol_b::ProtocolB;
/// use doall_sim::{run, NoFailures, RunConfig};
///
/// let procs = ProtocolB::processes(32, 16)?;
/// let report = run(procs, NoFailures, RunConfig::new(32, 10_000))?;
/// assert!(report.metrics.all_work_done());
/// // Theorem 2.8(c): everyone retires by round 3n + 8t.
/// assert!(report.metrics.rounds <= 3u64 * 32 + 8 * 16);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolB {
    core: DoWork,
    waiting: Waiting,
    /// Sender of the last ordinary message (`i` in the paper); process 0
    /// fictitiously, before anything arrives.
    last_sender: u64,
}

impl ProtocolB {
    /// Creates process `j` of an `(n, t)` system.
    pub fn new(params: AbParams, j: u64) -> Self {
        let waiting = Waiting::Deadline { heard_at: Round::ZERO };
        ProtocolB { core: DoWork::new(params, j), waiting, last_sender: 0 }
    }

    /// Creates the full vector of `t` processes for `n` units of work.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `t` is a positive perfect square,
    /// `t | n`, and `n >= t`.
    pub fn processes(n: u64, t: u64) -> Result<Vec<ProtocolB>, ConfigError> {
        let params = validate(n, t)?;
        Ok((0..t).map(|j| ProtocolB::new(params, j)).collect())
    }

    /// The round at which this process will go preactive if it hears
    /// nothing more, `r' + DDB(j, i)` — or the round it did.
    pub fn preactive_deadline(&self) -> Round {
        match self.waiting {
            Waiting::Deadline { heard_at } => {
                heard_at + ddb(self.core.params, self.core.rank, self.last_sender)
            }
            Waiting::Polling { entry, .. } => entry,
        }
    }

    /// First pid to poll with `go ahead`s: the start of our group if the
    /// last sender was an outsider (we know nothing about our own group),
    /// or the process right after the sender if it was one of ours
    /// (everything up to the sender has provably retired — Lemma 2.7).
    fn first_poll_target(&self) -> u64 {
        let p = self.core.params;
        let gj = p.group_of(self.core.rank);
        if p.group_of(self.last_sender) != gj {
            (gj - 1) * p.sqrt_t()
        } else {
            self.last_sender + 1
        }
    }

    /// Digests the inbox. Returns `(terminal, got_go_ahead)`. Of several
    /// ordinary messages in one round the lowest-numbered sender's is
    /// held, as in Protocol A.
    fn ingest(&mut self, round: Round, inbox: Inbox<'_, AbMsg>) -> (bool, bool) {
        let mut terminal = false;
        let mut held = false;
        let mut got_go_ahead = false;
        for (from, msg) in inbox.iter() {
            let from = from.index() as u64;
            match self.core.hear((!held).then_some(from), *msg) {
                Heard::Terminal => terminal = true,
                Heard::Updated => {
                    // "If it does get a message, then j becomes passive
                    // again."
                    self.last_sender = from;
                    self.waiting = Waiting::Deadline { heard_at: round };
                    held = true;
                }
                Heard::Ignored => got_go_ahead |= *msg == AbMsg::GoAhead,
            }
        }
        (terminal, got_go_ahead)
    }

    /// One round of the preactive phase (Figure 2, `PreactivePhase`): every
    /// `PTO` rounds, poll the next candidate or — once all lower group
    /// members have been polled without response — become active.
    fn preactive_tick(&mut self, round: Round, eff: &mut Effects<AbMsg>) {
        let Waiting::Polling { entry, next_target } = self.waiting else { return };
        if !(round - entry).is_multiple_of(u128::from(pto(self.core.params))) {
            return; // between polls, waiting for a response
        }
        if next_target < self.core.rank {
            eff.send(Pid::new(next_target as usize), AbMsg::GoAhead);
            self.waiting = Waiting::Polling { entry, next_target: next_target + 1 };
        } else {
            self.core.activate(eff);
        }
    }
}

impl Protocol for ProtocolB {
    type Msg = AbMsg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, AbMsg>, eff: &mut Effects<AbMsg>) {
        // Active processes ignore incoming traffic (stray go_aheads from
        // pollers that had not yet heard our broadcasts).
        if self.core.advance(eff) {
            return;
        }

        // Passive / preactive: digest the inbox first — a message arriving
        // exactly at a deadline round cancels the takeover.
        let (terminal, got_go_ahead) = self.ingest(round, inbox);
        if terminal {
            self.core.retire(eff);
            return;
        }
        // Figure 2, main protocol lines 1–2 — and process 0, which is
        // active from the start (it "becomes active in round 0", before
        // the execution begins).
        if (got_go_ahead && !self.core.knows_all_work_done()) || self.core.rank == 0 {
            self.core.activate(eff);
            return;
        }

        if matches!(self.waiting, Waiting::Deadline { .. })
            && !self.core.knows_all_work_done()
            && round >= self.preactive_deadline()
        {
            // Enter the preactive phase; its first poll (or immediate
            // activation) happens this very round.
            self.waiting = Waiting::Polling { entry: round, next_target: self.first_poll_target() };
        }
        self.preactive_tick(round, eff);
    }

    // The engine asks after every step. Delegating to the shared driver
    // made this too big for rustc's automatic cross-crate inlining, which
    // the hand-written match used to get (+3 % on `sync_sparse` without).
    #[inline]
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.core.next_wakeup(now, || match self.waiting {
            Waiting::Polling { entry, .. } => {
                let p = u128::from(pto(self.core.params));
                Some(entry + now.saturating_sub(entry).div_ceil(p) * p)
            }
            Waiting::Deadline { .. } if self.core.rank == 0 => Some(now),
            // Only waiting for the final (t)/(t, g_j); purely reactive.
            Waiting::Deadline { .. } if self.core.knows_all_work_done() => None,
            Waiting::Deadline { .. } => Some(self.preactive_deadline().max(now)),
        })
    }

    fn on_recover(&mut self, _round: Round, wipe: bool) {
        self.core.on_recover(wipe);
        if wipe {
            // Full reset to the initial configuration: the fictitious
            // message from process 0 at round 0 re-arms DDB, which has
            // usually long passed — the next step goes preactive and the
            // go-ahead polling re-integrates the process safely.
            self.waiting = Waiting::Deadline { heard_at: Round::ZERO };
            self.last_sender = 0;
        } else if self.core.knows_all_work_done() {
            // Stale state already proves all n units performed; the only
            // thing the downtime can have cost us is the terminal message,
            // which nobody will resend. Retire instead of waiting for it.
            self.core.retire_on_next_step();
        }
        // Other stale states need no adjustment: a passed deadline sends
        // the process into its preactive polling phase, whose go-aheads
        // either wake a live lower process or license a safe takeover.
    }

    /// An active process ignores its inbox (stray `go ahead`s included),
    /// so the leading work run of its schedule is a lease.
    #[inline]
    fn lease(&self, _now: Round) -> Option<(Unit, u64)> {
        let (first, len) = self.core.lease(self.core.params.n)?;
        Some((Unit::new(first as usize), len))
    }

    fn advance(&mut self, k: u64) {
        self.core.skip(k);
    }
}

#[cfg(test)]
mod tests {
    use doall_bounds::theorems;
    use doall_sim::invariants::{
        check_activation_order, check_sequential_work, check_single_active,
    };
    use doall_sim::{run, CrashSpec, Deliver, FaultPlan, NoFailures, Pid, RunConfig, Trigger};

    use super::*;
    use crate::ab::tests::walk_leases;
    use crate::ab::LastOrdinary;

    const N: u64 = 32;
    const T: u64 = 16;

    fn cfg() -> RunConfig {
        RunConfig::new(N as usize, 100_000).with_trace()
    }

    fn bounds_hold(report: &doall_sim::Report, n: u64, t: u64) {
        let b = theorems::protocol_b(n, t);
        assert!(
            report.metrics.work_total <= b.work,
            "work {} exceeds Theorem 2.8 bound {}",
            report.metrics.work_total,
            b.work
        );
        assert!(
            report.metrics.messages <= b.messages,
            "messages {} exceed Theorem 2.8 bound {}",
            report.metrics.messages,
            b.messages
        );
        assert!(
            report.metrics.rounds <= b.rounds,
            "rounds {} exceed Theorem 2.8 bound {} (3n + 8t)",
            report.metrics.rounds,
            b.rounds
        );
    }

    fn invariants_hold(report: &doall_sim::Report) {
        assert!(check_single_active(&report.trace).is_empty(), "two active processes");
        assert!(check_activation_order(&report.trace).is_empty(), "activation out of order");
        assert!(check_sequential_work(&report.trace).is_empty());
    }

    #[test]
    fn lease_then_advance_lands_where_steps_do() {
        // (144, 9): subchunks of 16. Rank 4 (group 2), activated fresh or
        // after a restart prologue, leases every remaining subchunk's work
        // run — the first one less the unit its activation step performed
        // — and `advance(k)` lands where `k` steps do, `waiting` and the
        // last sender untouched (see `ab::tests::walk_leases`).
        let lasts = [
            (LastOrdinary::Fictitious, 0, 9),
            (LastOrdinary::Partial { c: 3 }, 3, 6),
            (LastOrdinary::Partial { c: 4 }, 4, 5),
            (LastOrdinary::Full { c: 6, g: 3, sender_in_own_group: true }, 6, 3),
            (LastOrdinary::Full { c: 6, g: 2, sender_in_own_group: false }, 6, 3),
        ];
        for (last, c, leases) in lasts {
            let mut b = ProtocolB::processes(144, 9).unwrap().remove(4);
            b.core.last = last;
            let mut eff = Effects::new();
            b.core.activate(&mut eff);
            let (units, got) = walk_leases(b, 2);
            let all: Vec<u64> = eff.work().iter().map(|u| u.get() as u64).chain(units).collect();
            assert_eq!(all, (c * 16 + 1..=144).collect::<Vec<_>>(), "{last:?}");
            assert_eq!(got, leases, "{last:?}");
        }
    }

    #[test]
    fn failure_free_run_matches_protocol_a_exactly() {
        let report = run(ProtocolB::processes(N, T).unwrap(), NoFailures, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N);
        // Nobody ever goes preactive, so zero go_aheads...
        assert_eq!(report.metrics.messages_by_class.get("go_ahead"), None);
        // ...and the run is byte-for-byte Protocol A's failure-free run.
        let a = run(crate::ab::protocol_a::ProtocolA::processes(N, T).unwrap(), NoFailures, cfg())
            .unwrap();
        assert_eq!(report.metrics.messages, a.metrics.messages);
        assert_eq!(report.metrics.rounds, a.metrics.rounds);
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn silent_crash_of_p0_hands_over_within_pto() {
        let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::silent());
        let report = run(ProtocolB::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        let activations: Vec<_> = report.trace.notes("activate").collect();
        // p1 takes over at round PTO = n/t + 2 — vastly sooner than
        // Protocol A's DD(1) = n + 3t.
        assert_eq!(activations[1], (Round::from(N / T + 2), Pid::new(1)));
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn go_ahead_wakes_the_lowest_alive_process() {
        // p0 and p1 die instantly; p2's self-deadline fires before p3 can
        // poll it, and every activation stays single.
        let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::silent()).crash_at(
            Pid::new(1),
            1,
            CrashSpec::silent(),
        );
        let report = run(ProtocolB::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        let activations: Vec<_> = report.trace.notes("activate").collect();
        assert_eq!(activations.last().unwrap().1, Pid::new(2));
        // go_aheads were sent (p2 polls p1; p3 polls p1 before hearing p2).
        assert!(report.metrics.messages_by_class.get("go_ahead").copied().unwrap_or(0) >= 1);
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn partial_checkpoint_subset_delivery_keeps_single_active() {
        // p0 dies during its first partial checkpoint, reaching only p3.
        // p1 restarts from scratch while p3 knows subchunk 1 is done — the
        // exact interleaving Lemma 2.7 worries about.
        let adv = FaultPlan::default().crash_on(
            Trigger::NthSendRoundBy { pid: Pid::new(0), nth: 1 },
            CrashSpec::subset([Pid::new(3)]),
        );
        let report = run(ProtocolB::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N + N / T, "p1 redoes subchunk 1 only");
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn takeover_cascade_stays_within_bounds() {
        let plan = (0..T - 1).fold(FaultPlan::default(), |plan, j| {
            plan.crash_on(
                Trigger::NthWorkBy { pid: Pid::new(j as usize), nth: 1 },
                CrashSpec { deliver: Deliver::None, count_work: true },
            )
        });
        let report = run(ProtocolB::processes(N, T).unwrap(), plan, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.crashes, (T - 1) as u32);
        assert_eq!(report.metrics.work_total, N + T - 1);
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn cross_group_takeover_uses_gto_deadlines() {
        // Kill all of group 1 at once: group 2's first member must take
        // over after GTO-based waiting, polling nobody (it is first in its
        // group).
        let mut adv = FaultPlan::default();
        for j in 0..4u64 {
            adv = adv.crash_at(Pid::new(j as usize), 1, CrashSpec::silent());
        }
        let report = run(ProtocolB::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        let activations: Vec<_> = report.trace.notes("activate").collect();
        let (takeover_round, who) = activations[1];
        assert_eq!(who, Pid::new(4));
        // DDB(4, 0) = GTO(0); p4 is first in its group so it activates
        // immediately on going preactive.
        let p = AbParams::new(N, T);
        assert_eq!(takeover_round, ddb(p, 4, 0));
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn worst_case_time_is_linear_not_quadratic() {
        // Only the last process survives. Protocol A would need
        // DD(t-1) = (t-1)(n+3t) rounds; Protocol B must finish within
        // 3n + 8t (Theorem 2.8(c)).
        let mut adv = FaultPlan::default();
        for j in 0..T - 1 {
            adv = adv.crash_at(Pid::new(j as usize), 1, CrashSpec::silent());
        }
        let report = run(ProtocolB::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N);
        assert!(report.metrics.rounds <= 3 * N + 8 * T);
        invariants_hold(&report);
    }

    #[test]
    fn go_ahead_to_dead_process_times_out_to_next() {
        // Group 1 processes 0,1,2 die; p3 (last of group 1) must poll 1, 2
        // (it knows nothing about them) and then activate on its own.
        let adv = FaultPlan::default()
            .crash_at(Pid::new(0), 1, CrashSpec::silent())
            .crash_at(Pid::new(1), 1, CrashSpec::silent())
            .crash_at(Pid::new(2), 1, CrashSpec::silent());
        let report = run(ProtocolB::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        let activations: Vec<_> = report.trace.notes("activate").collect();
        assert_eq!(activations.last().unwrap().1, Pid::new(3));
        let go_aheads = report.metrics.messages_by_class.get("go_ahead").copied().unwrap_or(0);
        assert!(go_aheads >= 2, "p3 must poll p1 and p2; saw {go_aheads}");
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn random_crashes_never_violate_theorem_2_8() {
        for seed in 0..20 {
            let adv = FaultPlan::random(seed, 0.01, (T - 1) as u32);
            let report = run(ProtocolB::processes(N, T).unwrap(), adv, cfg()).unwrap();
            assert!(report.has_survivor());
            assert!(report.metrics.all_work_done(), "seed {seed}: work incomplete");
            bounds_hold(&report, N, T);
            invariants_hold(&report);
        }
    }

    #[test]
    fn larger_configuration_stays_within_bounds_under_stress() {
        let (n, t) = (256, 64);
        for seed in 0..5 {
            let adv = FaultPlan::random(seed, 0.01, (t - 1) as u32);
            let report = run(
                ProtocolB::processes(n, t).unwrap(),
                adv,
                RunConfig::new(n as usize, 1_000_000).with_trace(),
            )
            .unwrap();
            assert!(report.metrics.all_work_done(), "seed {seed}");
            let b = theorems::protocol_b(n, t);
            assert!(report.metrics.work_total <= b.work);
            assert!(report.metrics.messages <= b.messages);
            assert!(
                report.metrics.rounds <= b.rounds,
                "seed {seed}: {} > {}",
                report.metrics.rounds,
                b.rounds
            );
            invariants_hold(&report);
        }
    }

    #[test]
    fn rejects_invalid_configurations() {
        assert!(ProtocolB::processes(12, 6).is_err());
        assert!(ProtocolB::processes(0, 16).is_err());
    }
}
