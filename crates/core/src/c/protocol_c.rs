//! The Protocol C per-process state machine (Figure 3 + the inactive-side
//! deadline rules of §3.1).

use doall_bounds::CParams;
use doall_sim::{Effects, Inbox, Pid, Protocol, Round, Unit};

use super::{validate_c, CMsg, Groups, View};
use crate::error::ConfigError;

#[derive(Clone, Debug, PartialEq, Eq)]
enum CState {
    /// Waiting for messages; becomes active at `deadline`.
    Passive {
        deadline: Round,
    },
    /// Active, about to send an `Are you alive?` poll at level `h`
    /// (`h = 0` means fault detection is complete — fall through to work).
    DetectSend {
        h: u32,
    },
    /// Active, waiting for the response from `target` (polled at `sent_at`;
    /// the verdict is in at `sent_at + 2`).
    DetectWait {
        h: u32,
        target: u64,
        sent_at: Round,
    },
    /// Active at level 0: perform the next unit of real work.
    Work,
    /// Active at level 0: report progress to the level-1 pointer.
    Report,
    Done,
}

/// One process of Protocol C (or C′ when built with
/// [`ProtocolC::processes_prime`]).
///
/// # Examples
///
/// ```
/// use doall_core::c::protocol_c::ProtocolC;
/// use doall_sim::{run, NoFailures, RunConfig};
///
/// let procs = ProtocolC::processes(8, 4)?;
/// let report = run(procs, NoFailures, RunConfig::new(8, u64::MAX))?;
/// assert!(report.metrics.all_work_done());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolC {
    params: CParams,
    groups: Groups,
    j: u64,
    view: View,
    state: CState,
    units_since_report: u64,
    /// Set by a stale crash-recovery that found the state already
    /// [`CState::Done`]: the crash preempted the final step's terminate,
    /// so the next step must retire for real.
    retire_next_step: bool,
}

impl ProtocolC {
    /// Creates process `j` of an `(n, t)` system.
    pub fn new(params: CParams, j: u64) -> Self {
        let groups = Groups::new(params.t);
        let state = if j == 0 {
            // "Initially process 0 is active": it starts fault detection at
            // the deepest level in round 1.
            CState::DetectSend { h: groups.levels() }
        } else {
            CState::Passive { deadline: Round::ZERO.saturating_add(params.d(j, 0)) }
        };
        ProtocolC {
            params,
            groups,
            j,
            view: View::initial(groups, j),
            state,
            units_since_report: 0,
            retire_next_step: false,
        }
    }

    /// Creates the `t` processes of Protocol C for `n` units of work
    /// (reporting after every unit).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `t` is a power of two (`>= 2`).
    pub fn processes(n: u64, t: u64) -> Result<Vec<ProtocolC>, ConfigError> {
        let params = validate_c(n, t, false)?;
        Ok((0..t).map(|j| ProtocolC::new(params, j)).collect())
    }

    /// Creates the `t` processes of the Corollary 3.9 variant C′
    /// (reporting to `G_1` only after every `n/t` units of real work),
    /// which sends only `O(t log t)` messages.
    ///
    /// # Errors
    ///
    /// As [`ProtocolC::processes`], plus `t` must divide `n`.
    pub fn processes_prime(n: u64, t: u64) -> Result<Vec<ProtocolC>, ConfigError> {
        let params = validate_c(n, t, true)?;
        Ok((0..t).map(|j| ProtocolC::new(params, j)).collect())
    }

    /// This process's current view (for tests and diagnostics).
    pub fn view(&self) -> &View {
        &self.view
    }

    fn n(&self) -> u64 {
        self.params.n
    }

    fn level_pointer(&self, h: u32) -> u64 {
        self.view.point(self.groups.flat_index(h, self.groups.block_of(self.j, h)))
    }

    /// Sends an ordinary report to the current pointer of our level-`h`
    /// group (normalized past known failures), stamping the pointer state
    /// into the outgoing view so the recipient learns it was served.
    /// Returns `true` if a message went out.
    fn send_report(&mut self, h: u32, round: Round, eff: &mut Effects<CMsg>) -> bool {
        let block = self.groups.block_of(self.j, h);
        let idx = self.groups.flat_index(h, block);
        let Some(target) =
            self.groups.normalize(h, block, self.view.point(idx), self.j, &self.view.f)
        else {
            return false; // everyone else in the group is known retired
        };
        let next = self
            .groups
            .successor(h, block, target, self.j, &self.view.f)
            .expect("target itself is eligible, so a successor exists");
        self.view.set(idx, next, round);
        eff.send(Pid::new(target as usize), CMsg::Ordinary(Box::new(self.view.clone())));
        true
    }

    /// Drives the active state machine for this round. May consume the
    /// round with a send/work op, or fall through several bookkeeping-only
    /// transitions first.
    fn dispatch(&mut self, round: Round, inbox: Inbox<'_, CMsg>, eff: &mut Effects<CMsg>) {
        loop {
            match self.state.clone() {
                CState::DetectSend { h: 0 } => {
                    self.state = CState::Work;
                }
                CState::DetectSend { h } => {
                    let block = self.groups.block_of(self.j, h);
                    let point = self.level_pointer(h);
                    match self.groups.normalize(h, block, point, self.j, &self.view.f) {
                        Some(target) => {
                            eff.send(Pid::new(target as usize), CMsg::AreYouAlive);
                            self.state = CState::DetectWait { h, target, sent_at: round };
                            return;
                        }
                        None => {
                            // Everyone else here is known retired; descend.
                            self.state = CState::DetectSend { h: h - 1 };
                        }
                    }
                }
                CState::DetectWait { h, target, sent_at } => {
                    if round < sent_at.saturating_add(2) {
                        return; // the response round
                    }
                    let responded = inbox.iter().any(|(from, msg)| {
                        from.index() as u64 == target && matches!(msg, CMsg::Alive)
                    });
                    if responded {
                        // Someone in G^i_h is alive: this level is covered.
                        self.state = CState::DetectSend { h: h - 1 };
                        continue;
                    }
                    // Failure detected.
                    self.view.f.insert(target);
                    let block = self.groups.block_of(self.j, h);
                    let has_more = self
                        .groups
                        .successor(h, block, target, self.j, &self.view.f)
                        .map(|next| {
                            // A pointer-only move: the stamp stays.
                            let idx = self.groups.flat_index(h, block);
                            self.view.set(idx, next, self.view.round(idx));
                        })
                        .is_some();
                    let next_state = if has_more {
                        CState::DetectSend { h }
                    } else {
                        CState::DetectSend { h: h - 1 }
                    };
                    // Report the failure one level up (not at the top level).
                    if h != self.groups.levels() && self.send_report(h + 1, round, eff) {
                        self.state = next_state;
                        return; // the report consumed this round's send
                    }
                    self.state = next_state;
                }
                CState::Work => {
                    if self.view.point_work > self.n() {
                        // Nothing left (knowledge might have said so already
                        // at activation); retire quietly.
                        eff.terminate();
                        self.state = CState::Done;
                        return;
                    }
                    let unit = self.view.point_work;
                    eff.perform(Unit::new(unit as usize));
                    self.view.point_work += 1;
                    self.view.round_work = round;
                    self.units_since_report += 1;
                    let all_done = self.view.point_work > self.n();
                    if all_done || self.units_since_report >= self.params.report_stride {
                        self.state = CState::Report;
                    }
                    return;
                }
                CState::Report => {
                    self.send_report(1, round, eff);
                    self.units_since_report = 0;
                    if self.view.point_work > self.n() {
                        // Figure 3: once point[G_0] = n + 1, halt (right
                        // after the final report).
                        eff.terminate();
                        self.state = CState::Done;
                    } else {
                        self.state = CState::Work;
                    }
                    return;
                }
                CState::Passive { .. } | CState::Done => return,
            }
        }
    }
}

impl Protocol for ProtocolC {
    type Msg = CMsg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, CMsg>, eff: &mut Effects<CMsg>) {
        if self.retire_next_step {
            // Post-recovery retirement: the crash preempted the step that
            // reached `Done`, so the engine never saw our terminate.
            self.retire_next_step = false;
            eff.terminate();
            self.state = CState::Done;
            return;
        }
        if matches!(self.state, CState::Done) {
            return;
        }

        let passive = matches!(self.state, CState::Passive { .. });
        if passive {
            // Inactive non-retired processes answer polls...
            for (from, msg) in inbox.iter() {
                if matches!(msg, CMsg::AreYouAlive) {
                    eff.send(from, CMsg::Alive);
                }
            }
            // ...and merge ordinary messages, resetting their deadline.
            let mut got_ordinary = false;
            for (from, msg) in inbox.iter() {
                if let CMsg::Ordinary(view) = msg {
                    debug_assert!(
                        view.dominates(&self.view) || self.view.dominates(view),
                        "Lemma 3.4(c) violated: incomparable views at {} (from {})",
                        self.j,
                        from,
                    );
                    self.view.merge(view);
                    got_ordinary = true;
                }
            }
            if got_ordinary {
                if self.view.point_work > self.n() {
                    // All work done: halt.
                    eff.terminate();
                    self.state = CState::Done;
                    return;
                }
                let m = self.view.reduced();
                self.state =
                    CState::Passive { deadline: round.saturating_add(self.params.d(self.j, m)) };
                return;
            }
            let CState::Passive { deadline } = self.state else { unreachable!() };
            if round >= deadline {
                eff.note("activate");
                self.state = CState::DetectSend { h: self.groups.levels() };
                self.dispatch(round, inbox, eff);
            }
            return;
        }

        // Active: drive the Figure 3 machine. Incoming ordinary messages
        // cannot occur while active (Lemma 3.4: the active process is the
        // most knowledgeable, nobody else sends); polls cannot occur either
        // (only active processes poll, and there is at most one).
        self.dispatch(round, inbox, eff);
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.retire_next_step {
            return Some(now);
        }
        match self.state {
            CState::Done => None,
            CState::Passive { deadline } => Some(deadline.max(now)),
            // Saturating: a deadline pinned at `Round::MAX` activates its
            // process on the last representable round; the engine then
            // reports the exhausted clock as `RunError::RoundLimit`.
            CState::DetectWait { sent_at, .. } => Some(sent_at.saturating_add(2).max(now)),
            _ => Some(now),
        }
    }

    fn on_recover(&mut self, _round: Round, wipe: bool) {
        if wipe {
            // Full reset to the initial configuration. The initial deadline
            // has usually long passed, so the next step goes active and the
            // `Are you alive?` sweep re-integrates the process safely.
            *self = ProtocolC::new(self.params, self.j);
        } else if matches!(self.state, CState::Done) {
            // The crash preempted the step that reached `Done`: the engine
            // recorded the crash instead of our terminate, so retire again.
            self.retire_next_step = true;
        }
        // Other stale states need no adjustment: a passed deadline simply
        // activates the process, whose fault-detection sweep resynchronises
        // its view before it performs any work.
    }
}

#[cfg(test)]
mod tests {
    use doall_bounds::theorems;
    use doall_sim::invariants::{check_sequential_work, check_single_active};
    use doall_sim::{
        run, run_returning, CrashSpec, Deliver, FaultPlan, NoFailures, Pid, RunConfig, Trigger,
    };

    use super::*;

    fn cfg(n: u64) -> RunConfig {
        RunConfig::new(n as usize, u64::MAX - 1).with_trace()
    }

    fn bounds_hold(report: &doall_sim::Report, n: u64, t: u64) {
        let b = theorems::protocol_c(n, t);
        assert!(
            report.metrics.work_total <= b.work,
            "work {} exceeds Theorem 3.8 bound {}",
            report.metrics.work_total,
            b.work
        );
        assert!(
            report.metrics.messages <= b.messages,
            "messages {} exceed Theorem 3.8 bound {}",
            report.metrics.messages,
            b.messages
        );
        assert!(report.metrics.rounds <= b.rounds, "rounds exceed Theorem 3.8 bound");
    }

    fn invariants_hold(report: &doall_sim::Report) {
        assert!(
            check_single_active(&report.trace).is_empty(),
            "two simultaneously active processes (Lemma 3.4(d) violated)"
        );
        assert!(check_sequential_work(&report.trace).is_empty());
    }

    #[test]
    fn failure_free_small_run_completes_exactly() {
        let report = run(ProtocolC::processes(8, 4).unwrap(), NoFailures, cfg(8)).unwrap();
        assert!(report.metrics.all_work_done());
        // p0 does all 8 units; survivors that time out uninformed redo a
        // bounded suffix.
        assert!(report.metrics.work_total >= 8);
        assert_eq!(report.metrics.crashes, 0);
        bounds_hold(&report, 8, 4);
        invariants_hold(&report);
    }

    #[test]
    fn failure_free_run_is_deterministic() {
        let a = run(ProtocolC::processes(8, 4).unwrap(), NoFailures, cfg(8)).unwrap();
        let b = run(ProtocolC::processes(8, 4).unwrap(), NoFailures, cfg(8)).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn dead_process_zero_makes_highest_process_take_over() {
        // D(i, 0) decreases with i: with no knowledge anywhere, the
        // highest-numbered process must be the first to time out.
        let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::silent());
        let report = run(ProtocolC::processes(8, 4).unwrap(), adv, cfg(8)).unwrap();
        assert!(report.metrics.all_work_done());
        let first_takeover = report.trace.notes("activate").next().unwrap();
        assert_eq!(first_takeover.1, Pid::new(3));
        bounds_hold(&report, 8, 4);
        invariants_hold(&report);
    }

    #[test]
    fn crash_mid_work_is_recovered_by_most_knowledgeable() {
        // p0 dies right after performing unit 3 unreported. The last
        // process it reported to (unit 2's recipient) knows most and must
        // take over before anyone less knowledgeable.
        let adv = FaultPlan::default().crash_on(
            Trigger::NthWorkBy { pid: Pid::new(0), nth: 3 },
            CrashSpec { deliver: Deliver::None, count_work: true },
        );
        let report = run(ProtocolC::processes(8, 4).unwrap(), adv, cfg(8)).unwrap();
        assert!(report.metrics.all_work_done());
        // Unit 3 was performed by p0 (counted) and redone by the successor.
        assert!(report.metrics.work_by_unit[2] >= 2);
        bounds_hold(&report, 8, 4);
        invariants_hold(&report);
    }

    #[test]
    fn cascade_of_takeover_crashes_respects_theorem_3_8() {
        // Every process crashes right after its first unit of real work —
        // maximal unreported-work waste.
        let plan = (0..7).fold(FaultPlan::default(), |plan, j| {
            plan.crash_on(
                Trigger::NthWorkBy { pid: Pid::new(j), nth: 1 },
                CrashSpec { deliver: Deliver::None, count_work: true },
            )
        });
        let report = run(ProtocolC::processes(8, 8).unwrap(), plan, cfg(8)).unwrap();
        assert!(report.metrics.all_work_done());
        // Not every trigger fires: a process that learns all work is done
        // halts without ever working, so its crash never happens. But the
        // first worker always crashes, and nobody survives *and* works.
        assert!(report.metrics.crashes >= 1 && report.metrics.crashes < 8);
        assert_eq!(report.metrics.crashes + report.metrics.terminations, 8);
        bounds_hold(&report, 8, 8);
        invariants_hold(&report);
    }

    #[test]
    fn fault_detection_prevents_quadratic_rework() {
        // The §3 strawman scenario: p0 performs a prefix then dies; half
        // the processes die silently. Fault detection must keep total work
        // within n + 2t (the naive algorithm would pay Θ(n + t²)).
        let t: u64 = 8;
        let n: u64 = 16;
        let mut plan = FaultPlan::default().crash_on(
            Trigger::NthWorkBy { pid: Pid::new(0), nth: (t - 1) },
            CrashSpec { deliver: Deliver::None, count_work: true },
        );
        for j in t / 2 + 1..t {
            let at = Trigger::AtRound { pid: Pid::new(j as usize), round: Round::from(2u64) };
            plan = plan.crash_on(at, CrashSpec::silent());
        }
        let report = run(ProtocolC::processes(n, t).unwrap(), plan, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        bounds_hold(&report, n, t);
        invariants_hold(&report);
    }

    #[test]
    fn crash_sweep_never_produces_two_actives() {
        // Kill the active process after its k-th operation for a sweep of
        // k: the successor's deadline arithmetic (Lemma 3.4) must hold at
        // every cut point.
        for k in 1..=14 {
            let adv = FaultPlan::default().crash_on(
                Trigger::NthSendRoundBy { pid: Pid::new(0), nth: k },
                CrashSpec { deliver: Deliver::Prefix(0), count_work: true },
            );
            let report = run(ProtocolC::processes(6, 4).unwrap(), adv, cfg(6)).unwrap();
            assert!(report.metrics.all_work_done(), "k = {k}");
            invariants_hold(&report);
            bounds_hold(&report, 6, 4);
        }
    }

    #[test]
    fn partial_report_delivery_keeps_views_ordered() {
        // p0 crashes while sending a report: the report still reaches its
        // single recipient or nobody — knowledge stays totally ordered
        // either way (the merge debug_assert checks Lemma 3.4(c) live).
        for prefix in [0usize, 1] {
            let adv = FaultPlan::default().crash_on(
                Trigger::NthSendRoundBy { pid: Pid::new(0), nth: 4 },
                CrashSpec { deliver: Deliver::Prefix(prefix), count_work: true },
            );
            let report = run(ProtocolC::processes(6, 4).unwrap(), adv, cfg(6)).unwrap();
            assert!(report.metrics.all_work_done(), "prefix = {prefix}");
            invariants_hold(&report);
        }
    }

    #[test]
    fn c_prime_reports_once_per_stride() {
        let report = run(ProtocolC::processes_prime(32, 4).unwrap(), NoFailures, cfg(32)).unwrap();
        assert!(report.metrics.all_work_done());
        let b = theorems::protocol_c_prime(32, 4);
        assert!(
            report.metrics.messages <= b.messages,
            "C' messages {} exceed Corollary 3.9 bound {}",
            report.metrics.messages,
            b.messages
        );
        // Far fewer ordinary messages than units of work.
        let ordinary = report.metrics.messages_by_class.get("ordinary").copied().unwrap_or(0);
        assert!(ordinary < 32, "stride reporting must beat per-unit reporting");
        invariants_hold(&report);
    }

    #[test]
    fn c_prime_message_savings_grow_with_n() {
        // Same t, quadruple n: C's messages grow linearly, C′'s stay flat.
        let msgs = |n: u64, prime: bool| {
            let procs = if prime {
                ProtocolC::processes_prime(n, 4).unwrap()
            } else {
                ProtocolC::processes(n, 4).unwrap()
            };
            run(procs, NoFailures, cfg(n)).unwrap().metrics.messages
        };
        let (c_small, c_big) = (msgs(16, false), msgs(64, false));
        let (cp_small, cp_big) = (msgs(16, true), msgs(64, true));
        assert!(c_big >= c_small + 40, "C grows with n: {c_small} -> {c_big}");
        assert!(cp_big <= cp_small + 8, "C' stays near-flat: {cp_small} -> {cp_big}");
    }

    #[test]
    fn survivors_eventually_halt_even_if_never_informed() {
        // Crash the active process right after its final report: the
        // remaining processes must time out, re-detect, possibly redo a
        // suffix, and still all retire.
        let adv = FaultPlan::default().crash_on(
            Trigger::NthWorkBy { pid: Pid::new(0), nth: 6 },
            CrashSpec { deliver: Deliver::None, count_work: true },
        );
        let report = run(ProtocolC::processes(6, 4).unwrap(), adv, cfg(6)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(
            report.metrics.crashes + report.metrics.terminations,
            4,
            "every process must retire"
        );
        bounds_hold(&report, 6, 4);
    }

    #[test]
    fn deep_idle_views_hold_only_moved_groups() {
        // The e3 deep-idle cell at t = 1024: p0 does all the work, and every
        // passive process vanishes silently at round 2^100. A dense table
        // would hold t − 1 groups per view; the sparse one holds at most
        // log t + 1, and O(t) over all views.
        let (n, t) = (1_024u64, 1_024u64);
        let horizon = Round::new(1 << 100);
        let plan = (1..t).fold(FaultPlan::default(), |plan, j| {
            let at = Trigger::AtRound { pid: Pid::new(j as usize), round: horizon };
            plan.crash_on(at, CrashSpec::silent())
        });
        let cfg = RunConfig::new(n as usize, Round::MAX);
        let (report, procs) =
            run_returning(ProtocolC::processes(n, t).unwrap(), plan, cfg).unwrap();
        assert!(report.metrics.all_work_done());
        let most = t.trailing_zeros() as usize + 1;
        let moved: Vec<usize> = procs.iter().map(|p| p.view.moved.len()).collect();
        assert!(moved.iter().all(|&m| m <= most), "{moved:?}");
        let total: usize = moved.iter().sum();
        assert!(total <= 2 * t as usize, "{total} moved groups over {t} views");
    }

    #[test]
    fn rejects_invalid_configurations() {
        assert!(ProtocolC::processes(8, 6).is_err());
        assert!(ProtocolC::processes(8, 0).is_err());
        assert!(ProtocolC::processes(0, 4).is_err());
        assert!(ProtocolC::processes_prime(10, 4).is_err());
        assert!(ProtocolC::processes_prime(12, 4).is_ok());
    }
}
