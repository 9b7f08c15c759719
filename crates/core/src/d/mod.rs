//! Protocol D (§4): the time-optimal algorithm — alternate *work phases*
//! (the outstanding units split evenly among the processes believed live)
//! with *agreement phases* (an Eventual-Byzantine-Agreement-style exchange
//! that re-establishes a common view of what remains and who is alive).
//!
//! Failure-free it takes `n/t + 2` rounds and `2t²` messages — optimal
//! time — and degrades gracefully: with `f` failures (never more than half
//! of the live processes per phase) it finishes within
//! `(f+1)n/t + 4f + 2` rounds, `(4f+2)t²` messages and `2n` work
//! (Theorem 4.1, case 1). If some phase *does* lose more than half of the
//! live processes, it reverts to Protocol A on the remaining units
//! (case 2; see [`fallback`]).

pub mod fallback;

use std::fmt;

use doall_sim::{Classify, Effects, Inbox, Pid, Protocol, Round, Unit};

use crate::ab::AbMsg;
use crate::error::ConfigError;
use crate::intervals::IntervalSet;
use fallback::FallbackMachine;

/// Messages of Protocol D.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DMsg {
    /// One agreement-phase broadcast: `(j, S, T, done)` of Figure 4,
    /// tagged with the phase number so one-round stragglers never confuse
    /// consecutive phases.
    Agree {
        /// Work/agreement phase index (0-based).
        phase: u32,
        /// The sender's outstanding-units set.
        s: IntervalSet,
        /// The sender's set of processes believed live.
        t: IntervalSet,
        /// Whether the sender has decided this agreement phase.
        done: bool,
    },
    /// Coordinator variant (§4 closing remark): a participant's
    /// outstanding-units set sent to the phase coordinator instead of being
    /// broadcast. The coordinator learns who is live from who reported, so
    /// the sender's live set is not sent.
    Report {
        /// Work/agreement phase index.
        phase: u32,
        /// The sender's outstanding-units set.
        s: IntervalSet,
    },
    /// Coordinator variant: the coordinator's merged, authoritative view.
    Decision {
        /// Work/agreement phase index.
        phase: u32,
        /// The agreed outstanding-units set.
        s: IntervalSet,
        /// The agreed live set.
        t: IntervalSet,
    },
    /// A relabeled Protocol A message of the fallback (§4 / Figure 4
    /// line 12).
    Fallback(AbMsg),
}

impl Classify for DMsg {
    fn class(&self) -> &'static str {
        match self {
            DMsg::Agree { .. } => "agree",
            DMsg::Report { .. } => "coord_report",
            DMsg::Decision { .. } => "coord_decision",
            DMsg::Fallback(_) => "fallback",
        }
    }
}

impl fmt::Display for DMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DMsg::Agree { phase, s, t, done } => {
                write!(f, "agree(phase={phase}, |S|={}, |T|={}, done={done})", s.len(), t.len())
            }
            DMsg::Report { phase, s } => write!(f, "report(phase={phase}, |S|={})", s.len()),
            DMsg::Decision { phase, s, t } => {
                write!(f, "decision(phase={phase}, |S|={}, |T|={})", s.len(), t.len())
            }
            DMsg::Fallback(m) => write!(f, "fallback({m})"),
        }
    }
}

#[derive(Clone, Debug)]
enum DState {
    /// Performing this phase's share `S'`, one unit per round, then idling
    /// so every process spends exactly `⌈|S|/|T|⌉` rounds in the phase.
    /// The share is walked by an inline cursor — `next..end` is what is
    /// left of the run being worked, `run` the index of the share run to
    /// load once it is used up — and `S` is left alone until the phase
    /// ends, when line 8 removes the whole share at once.
    Work {
        share: IntervalSet,
        next: u64,
        end: u64,
        run: usize,
        rounds_left: u64,
    },
    /// Running the Figure 4 `Agree` exchange.
    Agree {
        /// Processes not yet known faulty (`U`).
        u: IntervalSet,
        /// The rebuilt live set (`T` in the figure; starts at `{j}`).
        t_new: IntervalSet,
        /// |T'| — the live-set size before this agreement phase.
        t_prev: u64,
        /// Broadcast iterations completed.
        iter: u64,
        /// First iteration at which silence means faulty and stability
        /// means done (1 in the first phase, 2 afterwards — the paper's
        /// grace round).
        enable_iter: u64,
    },
    /// Coordinator variant, non-coordinator side: report sent, awaiting
    /// the coordinator's decision (`entry == 0` until the first step).
    CoordFollower {
        entry: Round,
        t_prev: u64,
    },
    /// Coordinator variant, coordinator side: collecting reports.
    CoordLeader {
        entry: Round,
        t_prev: u64,
        s_acc: IntervalSet,
        heard: IntervalSet,
    },
    /// Reverted to Protocol A. Boxed: it is built only after a mass
    /// failure, and inline it would grow every process from 160 bytes to
    /// 256.
    Fallback(Box<FallbackMachine>),
    Done,
}

/// One process of Protocol D.
///
/// # Examples
///
/// ```
/// use doall_core::d::ProtocolD;
/// use doall_sim::{run, NoFailures, RunConfig};
///
/// let procs = ProtocolD::processes(100, 10)?;
/// let report = run(procs, NoFailures, RunConfig::new(100, 1000))?;
/// assert!(report.metrics.all_work_done());
/// // §4: failure-free Protocol D is time-optimal — n/t + 2 rounds.
/// assert_eq!(report.metrics.rounds, 100u64 / 10 + 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolD {
    n: u64,
    t: u64,
    j: u64,
    /// Outstanding units (`S`), run-compressed so `n = 10^8` costs a
    /// handful of interval runs, not a gigabyte of tree nodes.
    s: IntervalSet,
    /// Processes thought correct at the end of the previous work phase
    /// (`T`).
    t_set: IntervalSet,
    /// Current phase index (0-based; phase 0 gets no grace round).
    phase: u32,
    /// Whether agreement phases use the §4 coordinator optimization.
    coordinated: bool,
    /// Set once a coordinator failure forces this process back to the
    /// broadcast agreement (one-way, for all later phases).
    fell_back_to_broadcast: bool,
    /// Set by a stale crash-recovery that found the state already
    /// [`DState::Done`]: the crash preempted the final step's terminate,
    /// so the next step must retire for real.
    retire_next_step: bool,
    state: DState,
}

impl ProtocolD {
    /// Creates process `j` of an `(n, t)` system.
    ///
    /// Unlike Protocols A–C, Figure 4 is written with general `⌈|S|/|T|⌉`
    /// arithmetic, so any `n >= 1`, `t >= 1` works.
    pub fn new(n: u64, t: u64, j: u64) -> Self {
        debug_assert!(j < t);
        let mut d = ProtocolD {
            n,
            t,
            j,
            s: IntervalSet::from_range(1..n + 1),
            t_set: IntervalSet::from_range(0..t),
            phase: 0,
            coordinated: false,
            fell_back_to_broadcast: false,
            retire_next_step: false,
            state: DState::Done,
        };
        d.state = d.build_work_phase();
        d
    }

    /// The workload size `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The system size `t`.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Creates the full vector of `t` processes for `n` units of work.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoProcesses`] / [`ConfigError::NoWork`] on
    /// empty systems.
    pub fn processes(n: u64, t: u64) -> Result<Vec<ProtocolD>, ConfigError> {
        if t == 0 {
            return Err(ConfigError::NoProcesses);
        }
        if n == 0 {
            return Err(ConfigError::NoWork);
        }
        Ok((0..t).map(|j| ProtocolD::new(n, t, j)).collect())
    }

    /// Creates the `t` processes with the §4 coordinator optimization:
    /// during agreement, views are sent to a central coordinator (the
    /// lowest-numbered live process), who merges them and broadcasts the
    /// result — `2(t − 1)` messages per failure-free agreement phase
    /// instead of `≈ 2t²`, at the cost of one extra round.
    ///
    /// The paper notes that "dealing with failures is somewhat subtle" in
    /// this variant and leaves it unanalysed; our resolution: a process
    /// that times out waiting for its coordinator permanently reverts to
    /// the Figure 4 broadcast agreement. If the coordinator dies *while*
    /// broadcasting a decision, the system may briefly split into teams
    /// with divergent live-sets; each team still covers all outstanding
    /// work (idempotently), so correctness is never at risk — only up to a
    /// factor-two work overhead in that corner case.
    ///
    /// # Errors
    ///
    /// As [`ProtocolD::processes`].
    pub fn processes_with_coordinator(n: u64, t: u64) -> Result<Vec<ProtocolD>, ConfigError> {
        let mut procs = Self::processes(n, t)?;
        for p in &mut procs {
            p.coordinated = true;
        }
        Ok(procs)
    }

    /// The current phase coordinator: the lowest process this one believes
    /// to be alive.
    fn coordinator(&self) -> u64 {
        self.t_set.min().expect("t_set always contains self")
    }

    /// Figure 4 line 5: my share of the outstanding work, by grade.
    fn build_work_phase(&self) -> DState {
        let w = self.s.len().div_ceil(self.t_set.len());
        let grade = if self.t_set.contains(self.j) { self.t_set.rank(self.j) } else { 0 };
        let share = self.s.slice_by_rank(grade * w, w);
        DState::Work { share, next: 0, end: 0, run: 0, rounds_left: w }
    }

    fn enter_agree(&mut self) -> DState {
        if self.coordinated && !self.fell_back_to_broadcast {
            let t_prev = self.t_set.len();
            return if self.coordinator() == self.j {
                DState::CoordLeader {
                    entry: Round::ZERO,
                    t_prev,
                    s_acc: self.s.clone(),
                    heard: [self.j].into_iter().collect(),
                }
            } else {
                DState::CoordFollower { entry: Round::ZERO, t_prev }
            };
        }
        let enable_iter = if self.phase == 0 { 1 } else { 2 };
        DState::Agree {
            u: self.t_set.clone(),
            t_new: [self.j].into_iter().collect(),
            t_prev: self.t_set.len(),
            iter: 0,
            enable_iter,
        }
    }

    /// Abandons the coordinator protocol (its coordinator is presumed
    /// dead) and joins the broadcast agreement for this phase.
    fn revert_to_broadcast(&mut self, t_prev: u64) -> DState {
        self.fell_back_to_broadcast = true;
        let dead_coordinator = self.coordinator();
        let mut u = self.t_set.clone();
        u.remove(dead_coordinator);
        self.t_set.remove(dead_coordinator);
        DState::Agree {
            u,
            t_new: [self.j].into_iter().collect(),
            t_prev,
            iter: 0,
            // Extra grace: fallen-back processes join within a couple of
            // rounds of one another; do not declare anyone faulty (or the
            // view stable) before everyone has had time to join.
            enable_iter: 4,
        }
    }

    /// One round of the coordinator-variant agreement.
    fn coord_step(&mut self, round: Round, inbox: Inbox<'_, DMsg>, eff: &mut Effects<DMsg>) {
        // A broadcast-mode message for our phase means somebody already
        // gave up on the coordinator: join them.
        let saw_broadcast = inbox
            .iter()
            .any(|(_, msg)| matches!(msg, DMsg::Agree { phase, .. } if *phase == self.phase));

        match std::mem::replace(&mut self.state, DState::Done) {
            DState::CoordLeader { mut entry, t_prev, mut s_acc, mut heard } => {
                if entry == Round::ZERO {
                    entry = round;
                }
                if saw_broadcast {
                    self.state = self.revert_to_broadcast(t_prev);
                    self.agree_step(round, inbox, eff);
                    return;
                }
                for (from, msg) in inbox.iter() {
                    if let DMsg::Report { phase, s } = msg {
                        if *phase == self.phase {
                            s_acc.intersect(s);
                            heard.insert(from.index() as u64);
                        }
                    }
                }
                // In phase 0 every report is filed at `entry` and lands
                // at `entry + 1`; later phases carry one round of follower
                // skew, so the window extends one round further.
                let decide_at = entry + if self.phase == 0 { 1u64 } else { 2 };
                if round >= decide_at {
                    // Decide: the merged view is authoritative.
                    self.s = s_acc;
                    let t_new = heard.clone();
                    let msg =
                        DMsg::Decision { phase: self.phase, s: self.s.clone(), t: t_new.clone() };
                    // The live set is sorted, so this coalesces into at
                    // most two spans around `j` — no per-recipient clones,
                    // no scratch Vec.
                    let me = self.j;
                    eff.broadcast(
                        self.t_set.iter().filter(|&p| p != me).map(|p| Pid::new(p as usize)),
                        msg,
                    );
                    self.t_set = t_new;
                    self.finish_phase(round, t_prev, eff);
                } else {
                    self.state = DState::CoordLeader { entry, t_prev, s_acc, heard };
                }
            }
            DState::CoordFollower { mut entry, t_prev } => {
                if entry == Round::ZERO {
                    entry = round;
                    // First round of the phase: file our report.
                    let report = DMsg::Report { phase: self.phase, s: self.s.clone() };
                    eff.send(Pid::new(self.coordinator() as usize), report);
                    self.state = DState::CoordFollower { entry, t_prev };
                    return;
                }
                if let Some((_, msg)) = inbox.iter().find(
                    |(_, msg)| matches!(msg, DMsg::Decision { phase, .. } if *phase == self.phase),
                ) {
                    let DMsg::Decision { s, t, .. } = msg else { unreachable!() };
                    self.s = s.clone();
                    self.t_set = t.clone();
                    self.finish_phase(round, t_prev, eff);
                    return;
                }
                if saw_broadcast || round >= entry + 6u64 {
                    // The coordinator is gone (directly observed or timed
                    // out): revert to the Figure 4 broadcast agreement.
                    self.state = self.revert_to_broadcast(t_prev);
                    self.agree_step(round, inbox, eff);
                    return;
                }
                self.state = DState::CoordFollower { entry, t_prev };
            }
            other => {
                self.state = other;
                unreachable!("coord_step outside coordinator agreement");
            }
        }
    }

    /// Ends an agreement phase at `round` with the agreed `(S, T)`;
    /// decides between next work phase, fallback, and termination.
    fn finish_phase(&mut self, round: Round, t_prev: u64, eff: &mut Effects<DMsg>) {
        self.phase += 1;
        if self.s.is_empty() {
            eff.terminate();
            self.state = DState::Done;
            return;
        }
        // Figure 4 line 11: more than half the previously live processes
        // died during this phase — revert to Protocol A.
        if t_prev > 2 * self.t_set.len() {
            eff.note("fallback");
            let survivors: Vec<u64> = self.t_set.iter().collect();
            let units: Vec<u64> = self.s.iter().collect();
            let machine = FallbackMachine::new(self.j, survivors, units, round + 1u64);
            self.state = DState::Fallback(Box::new(machine));
            return;
        }
        self.state = self.build_work_phase();
    }

    /// One iteration of the Figure 4 `Agree` loop, driven once per round.
    fn agree_step(&mut self, round: Round, inbox: Inbox<'_, DMsg>, eff: &mut Effects<DMsg>) {
        let DState::Agree { mut u, mut t_new, t_prev, iter, enable_iter } =
            std::mem::replace(&mut self.state, DState::Done)
        else {
            unreachable!("agree_step outside agreement phase");
        };

        let mut done = false;
        if iter >= 1 {
            // Messages broadcast during the previous round are in. One pass
            // merges them and collects who was heard; the merges share one
            // scratch buffer.
            let mut scratch = Vec::new();
            let mut heard = IntervalSet::new();
            let mut adopted = false;
            for (from, msg) in inbox.iter() {
                let DMsg::Agree { phase, s, t, done: their_done } = msg else {
                    continue;
                };
                if *phase != self.phase {
                    continue; // stale straggler from an earlier phase
                }
                heard.insert(from.index() as u64);
                if *their_done {
                    // Line 11-14: adopt the decided view wholesale.
                    self.s = s.clone();
                    t_new = t.clone();
                    done = true;
                    adopted = true;
                } else if !adopted {
                    self.s.intersect_via(s, &mut scratch);
                    t_new.union_via(t, &mut scratch);
                }
            }
            if !adopted && iter >= enable_iter {
                // Everyone in `U` not heard from is faulty. `U` only
                // shrinks, so an unchanged size means an unchanged view.
                let before = u.len();
                heard.insert(self.j);
                u.intersect_via(&heard, &mut scratch);
                if u.len() == before {
                    done = true; // line 17: the view has stabilized
                }
            }
        }

        // Line 6 / line 20: broadcast the (possibly decided) view. `u` is
        // sorted, so the recipients coalesce into at most two spans around
        // `j` — no scratch Vec, no per-recipient view clones.
        let msg = DMsg::Agree { phase: self.phase, s: self.s.clone(), t: t_new.clone(), done };
        let me = self.j;
        eff.broadcast(u.iter().filter(|&p| p != me).map(|p| Pid::new(p as usize)), msg);

        if done {
            self.t_set = t_new;
            self.finish_phase(round, t_prev, eff);
        } else {
            self.state = DState::Agree { u, t_new, t_prev, iter: iter + 1, enable_iter };
        }
    }
}

impl Protocol for ProtocolD {
    type Msg = DMsg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, DMsg>, eff: &mut Effects<DMsg>) {
        if self.retire_next_step {
            self.retire_next_step = false;
            eff.terminate();
            return;
        }
        match &mut self.state {
            DState::Done => {}
            DState::Work { .. } => {
                // A work round performs what a lease would offer, if the
                // share has anything left, and is otherwise idle.
                if let Some((unit, _)) = self.lease(round) {
                    eff.perform(unit);
                }
                self.advance(1);
            }
            DState::Agree { .. } => self.agree_step(round, inbox, eff),
            DState::CoordLeader { .. } | DState::CoordFollower { .. } => {
                self.coord_step(round, inbox, eff)
            }
            DState::Fallback(machine) => {
                let translated: Vec<(u64, AbMsg)> = inbox
                    .iter()
                    .filter_map(|(from, msg)| match msg {
                        DMsg::Fallback(m) => Some((from.index() as u64, *m)),
                        _ => None,
                    })
                    .collect();
                machine.step(round, &translated, eff);
                if machine.is_done() {
                    self.state = DState::Done;
                }
            }
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.retire_next_step {
            return Some(now);
        }
        match &self.state {
            DState::Done => None,
            DState::Fallback(machine) => machine.next_wakeup(now),
            _ => Some(now),
        }
    }

    /// A work phase never reads its inbox, so what is left of the share
    /// run being worked (the next run once it is used up), up to the
    /// phase's last round, is a lease. So is the fallback's, which its
    /// machine relabels (see [`FallbackMachine::lease`]).
    fn lease(&self, _now: Round) -> Option<(Unit, u64)> {
        if self.retire_next_step {
            return None;
        }
        match &self.state {
            DState::Work { share, next, end, run, rounds_left } => {
                let (lo, hi) = if next < end { (*next, *end) } else { *share.runs().get(*run)? };
                Some((Unit::new(lo as usize), (hi - lo).min(*rounds_left)))
            }
            DState::Fallback(machine) => machine.lease(),
            _ => None,
        }
    }

    /// `k` rounds of the work phase: the cursor moves past the units they
    /// perform (none on an idle round), and the phase's last round applies
    /// line 8 and enters agreement. In the fallback, `k` work ops of the
    /// machine's schedule.
    fn advance(&mut self, k: u64) {
        if let DState::Fallback(machine) = &mut self.state {
            return machine.skip(k);
        }
        let DState::Work { share, next, end, run, rounds_left } = &mut self.state else {
            unreachable!("advance outside a work phase or the fallback");
        };
        if *next == *end {
            if let Some(&(lo, hi)) = share.runs().get(*run) {
                (*next, *end) = (lo, hi);
                *run += 1;
            }
        }
        *next = (*next + k).min(*end);
        *rounds_left -= k;
        if *rounds_left == 0 {
            // Line 8: S := S \ S'. The share holds at most as many units as
            // the phase has rounds, so all of it is done, and nothing reads
            // S before this point.
            let share = std::mem::take(share);
            self.s.subtract(&share);
            self.state = self.enter_agree();
        }
    }

    fn on_recover(&mut self, _round: Round, wipe: bool) {
        if wipe {
            let coordinated = self.coordinated;
            *self = ProtocolD::new(self.n, self.t, self.j);
            self.coordinated = coordinated;
        } else if matches!(self.state, DState::Done) {
            // The crash preempted the final step's terminate; the decision
            // stands (S was empty), so retire for real on the next step.
            self.retire_next_step = true;
        }
        // Any other stale state just resumes: agreement re-stabilizes on
        // whoever still answers, and a lapsed coordinator follower times
        // out into the broadcast exchange.
    }
}

#[cfg(test)]
mod tests {
    use doall_bounds::theorems;
    use doall_sim::invariants::check_no_zombie_actions;
    use doall_sim::{run, CrashSpec, Event, FaultPlan, NoFailures, Pid, RunConfig};

    use super::*;

    fn cfg(n: u64) -> RunConfig {
        RunConfig::new(n as usize, 10_000_000).with_trace()
    }

    #[test]
    fn failure_free_is_time_optimal() {
        // §4: n/t + 2 rounds, exactly n work, 2t(t-1) < 2t² messages.
        let (n, t) = (100, 10);
        let report = run(ProtocolD::processes(n, t).unwrap(), NoFailures, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, n);
        assert_eq!(report.metrics.rounds, n / t + 2);
        assert_eq!(report.metrics.messages, 2 * t * (t - 1));
        let b = theorems::protocol_d_failure_free(n, t);
        assert!(report.metrics.messages <= b.messages);
        assert!(check_no_zombie_actions(&report.trace).is_empty());
    }

    #[test]
    fn uneven_division_rounds_up() {
        // n = 7, t = 3: W = ⌈7/3⌉ = 3 rounds of work + 2 agreement rounds.
        let report = run(ProtocolD::processes(7, 3).unwrap(), NoFailures, cfg(7)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, 7);
        assert_eq!(report.metrics.rounds, 3u64 + 2);
    }

    #[test]
    fn single_process_system_just_works() {
        let report = run(ProtocolD::processes(5, 1).unwrap(), NoFailures, cfg(5)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.messages, 0);
    }

    #[test]
    fn one_crash_redistributes_within_one_extra_phase() {
        // p0 dies in the first work round: its share is redone in phase 2
        // by the survivors. §4 bounds: work <= n + n/t, messages <= 5t²,
        // rounds <= n/t + ⌈n/(t(t-1))⌉ + 6.
        let (n, t) = (100u64, 10u64);
        let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::silent());
        let report = run(ProtocolD::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        let b = theorems::protocol_d_one_failure(n, t);
        assert!(report.metrics.work_total <= b.work, "{} > {}", report.metrics.work_total, b.work);
        assert!(report.metrics.messages <= b.messages);
        assert!(report.metrics.rounds <= b.rounds, "{} > {}", report.metrics.rounds, b.rounds);
    }

    #[test]
    fn crash_after_work_before_broadcast_forces_rework() {
        // p0 completes its share but dies before its agreement broadcast:
        // the other processes cannot distinguish this from no work done,
        // so they must redo p0's share — the 2n work bound in action.
        let (n, t) = (100u64, 10u64);
        let adv = FaultPlan::default().crash_at(Pid::new(0), n / t + 1, CrashSpec::silent());
        let report = run(ProtocolD::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, n + n / t, "p0's share redone");
        assert!(report.metrics.work_total <= theorems::protocol_d_normal(n, t, 1).work);
    }

    #[test]
    fn graceful_degradation_with_f_failures() {
        // Crash one process per phase (f = 3, never more than half):
        // Theorem 4.1 case 1 bounds hold.
        let (n, t) = (64u64, 8u64);
        let adv = FaultPlan::default()
            .crash_at(Pid::new(1), 2, CrashSpec::silent())
            .crash_at(Pid::new(2), 15, CrashSpec::silent())
            .crash_at(Pid::new(3), 25, CrashSpec::silent());
        let report = run(ProtocolD::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        let f = u64::from(report.metrics.crashes);
        let b = theorems::protocol_d_normal(n, t, f);
        assert!(report.metrics.work_total <= b.work);
        assert!(
            report.metrics.messages <= b.messages,
            "{} > {}",
            report.metrics.messages,
            b.messages
        );
        assert!(report.metrics.rounds <= b.rounds, "{} > {}", report.metrics.rounds, b.rounds);
    }

    #[test]
    fn mass_extinction_triggers_protocol_a_fallback() {
        // 6 of 8 processes die in the first work phase: more than half of
        // the live set, so the survivors revert to Protocol A.
        let (n, t) = (64u64, 8u64);
        let mut adv = FaultPlan::default();
        for j in 2..8 {
            adv = adv.crash_at(Pid::new(j), 2, CrashSpec::silent());
        }
        let report = run(ProtocolD::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        // The fallback note must have been emitted by a survivor.
        assert!(report.trace.notes("fallback").count() >= 1);
        let f = u64::from(report.metrics.crashes);
        let b = theorems::protocol_d_fallback(n, t, f);
        assert!(report.metrics.work_total <= b.work);
        assert!(report.metrics.messages <= b.messages);
        assert!(report.metrics.rounds <= b.rounds);
        // Fallback messages actually flowed.
        assert!(report.metrics.messages_by_class.contains_key("fallback") || t == 1);
    }

    #[test]
    fn fallback_with_lone_survivor_finishes_silently() {
        let (n, t) = (30u64, 6u64);
        let mut adv = FaultPlan::default();
        for j in 1..6 {
            adv = adv.crash_at(Pid::new(j), 2, CrashSpec::silent());
        }
        let report = run(ProtocolD::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert!(report.survivors_iter().eq([Pid::new(0)]));
    }

    #[test]
    fn mid_broadcast_crash_in_agreement_still_agrees() {
        // p0 dies while broadcasting its first agreement message, reaching
        // only p1 and p2: views diverge momentarily; the exchange must
        // still converge and no unit may be lost.
        let (n, t) = (60u64, 6u64);
        let adv = FaultPlan::default().crash_at(
            Pid::new(0),
            n / t + 1,
            CrashSpec::subset([Pid::new(1), Pid::new(2)]),
        );
        let report = run(ProtocolD::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert!(report.metrics.work_total <= 2 * n);
    }

    #[test]
    fn agreement_counts_are_pinned() {
        // Exact counts of the broadcast agreement at (n, t) = (256, 64).
        // Failure-free: one work phase of n/t rounds, then two agreement
        // rounds of t(t − 1) messages each.
        let (n, t) = (256u64, 64u64);
        let counts = |adv: FaultPlan| {
            let report = run(ProtocolD::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
            assert!(report.metrics.all_work_done());
            let m = report.metrics;
            (m.messages, m.rounds.get(), m.work_total)
        };
        assert_eq!(counts(FaultPlan::default()), (8_064, 6, 256));
        // p0 dies mid-broadcast in the first agreement round, reaching only
        // p1..p31. Those hear everyone, so their `U` is stable and they
        // decide at once; p32..p63 miss p0, shrink `U`, and adopt the
        // decided view one round later.
        let heard_by = (1..32).map(Pid::new);
        let adv =
            FaultPlan::default().crash_at(Pid::new(0), n / t + 1, CrashSpec::subset(heard_by));
        assert_eq!(counts(adv), (9_921, 7, 256));
    }

    #[test]
    fn random_crash_storms_hold_theorem_4_1() {
        let (n, t) = (48u64, 8u64);
        for seed in 0..15 {
            let adv = FaultPlan::random(seed, 0.02, (t - 1) as u32);
            let report = run(ProtocolD::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
            assert!(report.has_survivor(), "seed {seed}");
            assert!(report.metrics.all_work_done(), "seed {seed}: incomplete work");
            let f = u64::from(report.metrics.crashes);
            let b = theorems::protocol_d_fallback(n, t, f); // the weaker of the two cases
            assert!(report.metrics.work_total <= b.work, "seed {seed}");
            assert!(report.metrics.messages <= b.messages, "seed {seed}");
            assert!(check_no_zombie_actions(&report.trace).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn coordinator_variant_failure_free_costs_2t_minus_2_messages() {
        // §4 closing remark: "cut down the message complexity in the case
        // of no failures to 2(t − 1) rather than 2t²". One extra round is
        // the price of the report/decision round trip in our
        // next-round-delivery model.
        let (n, t) = (100u64, 10u64);
        let report =
            run(ProtocolD::processes_with_coordinator(n, t).unwrap(), NoFailures, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, n);
        assert_eq!(report.metrics.messages, 2 * (t - 1));
        assert_eq!(report.metrics.rounds, n / t + 3);
        // An order of magnitude below the broadcast variant.
        let broadcast = run(ProtocolD::processes(n, t).unwrap(), NoFailures, cfg(n)).unwrap();
        assert!(report.metrics.messages * 5 <= broadcast.metrics.messages);
    }

    #[test]
    fn coordinator_variant_single_process() {
        let report =
            run(ProtocolD::processes_with_coordinator(7, 1).unwrap(), NoFailures, cfg(7)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.messages, 0);
    }

    #[test]
    fn coordinator_variant_follower_crash_is_absorbed() {
        // A follower dies mid-work: the coordinator simply never hears it,
        // excludes it from T, and its share is redone next phase.
        let (n, t) = (60u64, 6u64);
        let adv = FaultPlan::default().crash_at(Pid::new(3), 2, CrashSpec::silent());
        let report =
            run(ProtocolD::processes_with_coordinator(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert!(report.metrics.work_total <= n + n / t + t);
    }

    #[test]
    fn coordinator_crash_reverts_to_broadcast_agreement() {
        // The coordinator (p0) dies during the first work phase: followers
        // time out waiting for its decision and fall back to the Figure 4
        // broadcast exchange for the rest of the run.
        let (n, t) = (60u64, 6u64);
        let adv = FaultPlan::default().crash_at(Pid::new(0), 2, CrashSpec::silent());
        let report =
            run(ProtocolD::processes_with_coordinator(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        // Broadcast agreement messages must have flowed after the fallback.
        assert!(report.metrics.messages_by_class.contains_key("agree"));
        assert!(report.metrics.work_total <= 2 * n);
    }

    #[test]
    fn coordinator_crash_mid_decision_split_brain_is_safe() {
        // The coordinator dies while broadcasting its decision, reaching
        // only p1: p1 proceeds, the others fall back — both "teams" cover
        // the outstanding work; correctness holds, waste is bounded.
        let (n, t) = (60u64, 6u64);
        let decide_round = n / t + 3; // leader decides at entry + 2
        let adv = FaultPlan::default().crash_at(
            Pid::new(0),
            decide_round,
            CrashSpec::subset([Pid::new(1)]),
        );
        let report =
            run(ProtocolD::processes_with_coordinator(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert!(
            report.metrics.work_total <= 3 * n,
            "split-brain waste must stay bounded: {}",
            report.metrics.work_total
        );
    }

    #[test]
    fn coordinator_variant_random_storms_complete() {
        let (n, t) = (48u64, 8u64);
        for seed in 0..12 {
            let adv = FaultPlan::random(seed, 0.02, (t - 1) as u32);
            let report =
                run(ProtocolD::processes_with_coordinator(n, t).unwrap(), adv, cfg(n)).unwrap();
            assert!(report.has_survivor(), "seed {seed}");
            assert!(report.metrics.all_work_done(), "seed {seed}");
            assert!(report.metrics.work_total <= 3 * n, "seed {seed}");
        }
    }

    #[test]
    fn work_cursor_walks_a_fragmented_share_then_subtracts_it() {
        // S hand-fragmented into three runs: grade 1's share spans all of
        // them, grade 3's is short and leaves idle rounds. Each step
        // performs the next unit in ascending order, S is untouched until
        // the phase's last step, and then loses exactly the share (line 8).
        let (n, t) = (40u64, 4u64);
        for (j, share_runs) in [(1u64, 3usize), (3, 1)] {
            let mut d = ProtocolD::new(n, t, j);
            d.s = (1..=n).filter(|u| ![12, 15, 16].contains(u)).collect();
            d.state = d.build_work_phase();
            let DState::Work { share, .. } = &d.state else { unreachable!() };
            assert_eq!(share.runs().len(), share_runs, "p{j}");
            let before: Vec<u64> = d.s.iter().collect();
            let w = (before.len() as u64).div_ceil(t);
            let share: Vec<u64> =
                before.iter().copied().skip((j * w) as usize).take(w as usize).collect();
            let mut performed = Vec::new();
            for r in 1..=w {
                assert!(matches!(d.state, DState::Work { .. }), "p{j} round {r}");
                assert!(d.s.iter().eq(before.iter().copied()), "p{j} round {r}: S changed early");
                let mut eff = Effects::default();
                d.step(Round::new(r.into()), Inbox::empty(), &mut eff);
                performed.extend(eff.work().iter().map(|u| u.get() as u64));
            }
            assert_eq!(performed, share, "p{j}");
            assert!(!matches!(d.state, DState::Work { .. }), "p{j}");
            let expect = before.iter().copied().filter(|u| !share.contains(u));
            assert!(d.s.iter().eq(expect), "p{j}: S \\ S'");
        }
    }

    #[test]
    fn lease_then_advance_lands_where_steps_do() {
        // The fragmented share above, walked lease by lease: at every lease,
        // `k` default steps perform the offered units in order, send, note
        // and retire nothing and leave the process due each next round,
        // and `advance(k)` reaches the same state — `S`, the cursor and
        // the `DState` variant — for `k` below the lease and equal to it.
        let (n, t) = (40u64, 4u64);
        for j in [1u64, 3] {
            let mut d = ProtocolD::new(n, t, j);
            d.s = (1..=n).filter(|u| ![12, 15, 16].contains(u)).collect();
            d.state = d.build_work_phase();
            let mut now = 1u64;
            let mut leases = 0;
            while let Some((first, len)) = d.lease(Round::from(now)) {
                leases += 1;
                for k in [1, len / 2, len - 1, len].into_iter().filter(|&k| k >= 1) {
                    let mut stepped = d.clone();
                    for r in now..now + k {
                        let mut eff = Effects::default();
                        stepped.step(Round::from(r), Inbox::empty(), &mut eff);
                        let unit = Unit::new(first.get() + (r - now) as usize);
                        assert_eq!(eff.work(), [unit], "p{j} round {r}");
                        assert!(eff.sends().is_empty() && eff.notes().is_empty());
                        assert!(!eff.is_terminated());
                        let after = Round::from(r + 1);
                        assert_eq!(stepped.next_wakeup(after), Some(after));
                    }
                    let mut leased = d.clone();
                    leased.advance(k);
                    assert_eq!(format!("{leased:?}"), format!("{stepped:?}"), "p{j}: k = {k}");
                }
                d.advance(len);
                now += len;
            }
            // p1's share spans three runs, one lease each; p3's short share
            // leaves idle rounds, which no lease covers.
            assert_eq!(leases, if j == 1 { 3 } else { 1 }, "p{j}");
            while matches!(d.state, DState::Work { .. }) {
                let mut eff = Effects::default();
                d.step(Round::from(now), Inbox::empty(), &mut eff);
                assert!(eff.is_idle(), "p{j}: idle round {now}");
                now += 1;
            }
            assert!(d.lease(Round::from(now)).is_none(), "p{j}: agreement offers no lease");
        }
    }

    #[test]
    fn no_lease_while_a_stale_retirement_is_due() {
        let mut d = ProtocolD::new(8, 2, 0);
        assert_eq!(d.lease(Round::ONE), Some((Unit::new(1), 4)));
        d.retire_next_step = true;
        assert_eq!(d.lease(Round::ONE), None);
    }

    #[test]
    fn cold_fallback_state_is_boxed() {
        // 65,536 of these are swept every round of the scale cell.
        assert!(std::mem::size_of::<DState>() <= 80);
        assert!(std::mem::size_of::<ProtocolD>() <= 160);
    }

    /// p2, p5 and p9 of a `(120, 12)` system crash in round 4 of phase 0,
    /// so phase 1 redistributes three non-adjacent runs of 10 units over 9
    /// survivors, `w = 4`: p3's share is `{29, 30, 51, 52}`, across a gap.
    fn non_adjacent_crashes(base: FaultPlan) -> FaultPlan {
        [2usize, 5, 9]
            .into_iter()
            .fold(base, |adv, j| adv.crash_at(Pid::new(j), 4u64, CrashSpec::silent()))
    }

    #[test]
    fn shares_across_runs_after_non_adjacent_crashes_are_pinned() {
        let (n, t) = (120u64, 12u64);
        let counts = |procs: Vec<ProtocolD>| {
            let report = run(procs, non_adjacent_crashes(FaultPlan::default()), cfg(n)).unwrap();
            assert!(report.metrics.all_work_done());
            assert!(check_no_zombie_actions(&report.trace).is_empty());
            let m = report.metrics;
            (m.messages, m.rounds.get(), m.work_total)
        };
        assert_eq!(counts(ProtocolD::processes(n, t).unwrap()), (459, 20, 129));
        assert_eq!(counts(ProtocolD::processes_with_coordinator(n, t).unwrap()), (35, 20, 129));
    }

    #[test]
    fn stale_recovery_mid_share_resumes_the_cursor() {
        // On top of the crashes above, p3 crashes in round 15 after
        // performing 29 and 30 of its phase-1 share and rejoins stale three
        // steps later: it resumes at 51, the far side of the gap.
        use doall_sim::faults::FaultKind;
        let (n, t) = (120u64, 12u64);
        let recover = FaultKind::CrashRecover { pid: Pid::new(3), downtime: 3, wipe: false };
        let counts = |procs: Vec<ProtocolD>| {
            let plan = non_adjacent_crashes(FaultPlan::new([recover.clone().at(15u64)]));
            let report = run(procs, plan, cfg(n)).unwrap();
            assert!(report.metrics.all_work_done());
            assert!(check_no_zombie_actions(&report.trace).is_empty());
            let p3: Vec<(u128, usize)> = report
                .trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::Work { round, pid, unit } if pid.index() == 3 => {
                        Some((round.get(), unit.get()))
                    }
                    _ => None,
                })
                .filter(|&(r, _)| (14..20).contains(&r))
                .collect();
            assert_eq!(p3, [(14, 29), (15, 30), (18, 51), (19, 52)]);
            let m = report.metrics;
            (m.messages, m.rounds.get(), m.work_total)
        };
        assert_eq!(counts(ProtocolD::processes(n, t).unwrap()), (499, 50, 155));
        assert_eq!(counts(ProtocolD::processes_with_coordinator(n, t).unwrap()), (77, 58, 159));
    }

    #[test]
    fn rejects_empty_configurations() {
        assert!(ProtocolD::processes(0, 4).is_err());
        assert!(ProtocolD::processes(4, 0).is_err());
    }
}
