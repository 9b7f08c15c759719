//! Protocol A (§2.1–§2.2): checkpointing with the crude deadline
//! `DD(j) = j(n + 3t)`.
//!
//! Guarantees (Theorem 2.3): in every execution at most `3n` units of work
//! are performed, at most `9t√t` messages are sent, and all processes
//! retire by round `nt + 3t²`.
//!
//! §2.1 assumes `t` is a perfect square and `t | n` with `n >= t`;
//! [`ProtocolA::processes`] holds callers to that.
//! [`ProtocolA::processes_padded`] accepts any positive shape by running
//! the same machine on [`padded_params`] and clipping what it emits to the
//! real system.

use doall_bounds::deadlines_ab::{dd, AbParams};
use doall_sim::{Effects, Inbox, Protocol, Round, Unit};

use super::{padded_params, validate, AbMsg, Clipped, DoWork, Heard, Sink};
use crate::error::ConfigError;

/// One process of Protocol A.
///
/// Build the whole system with [`ProtocolA::processes`] and hand it to
/// [`doall_sim::run`].
///
/// # Examples
///
/// ```
/// use doall_core::ab::protocol_a::ProtocolA;
/// use doall_sim::{run, NoFailures, RunConfig};
///
/// let procs = ProtocolA::processes(32, 16)?;
/// let report = run(procs, NoFailures, RunConfig::new(32, 10_000))?;
/// assert!(report.metrics.all_work_done());
/// assert_eq!(report.metrics.work_total, 32); // no failures, no rework
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolA {
    core: DoWork,
    /// Real unit and process counts; below `core.params` only when padded.
    n_real: u64,
    t_real: u64,
}

impl ProtocolA {
    /// Creates process `j` of a `(n, t)` system.
    pub fn new(params: AbParams, j: u64) -> Self {
        ProtocolA { core: DoWork::new(params, j), n_real: params.n, t_real: params.t }
    }

    /// Creates the full vector of `t` processes for `n` units of work.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `t` is a positive perfect square,
    /// `t | n`, and `n >= t`.
    pub fn processes(n: u64, t: u64) -> Result<Vec<ProtocolA>, ConfigError> {
        let params = validate(n, t)?;
        Ok((0..t).map(|j| ProtocolA::new(params, j)).collect())
    }

    /// Creates the `t` real processes for `n` real units of any positive
    /// shape, padded per [`padded_params`]; on a shape
    /// [`ProtocolA::processes`] accepts the two build the same system.
    ///
    /// # Errors
    ///
    /// Rejects only empty systems and empty workloads.
    ///
    /// # Examples
    ///
    /// ```
    /// use doall_core::ab::protocol_a::ProtocolA;
    /// use doall_sim::{run, NoFailures, RunConfig};
    ///
    /// // 10 units on 6 processes: neither square nor divisible — fine here.
    /// let procs = ProtocolA::processes_padded(10, 6)?;
    /// let report = run(procs, NoFailures, RunConfig::new(10, 100_000))?;
    /// assert!(report.metrics.all_work_done());
    /// assert_eq!(report.metrics.work_total, 10); // phantoms are not counted
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn processes_padded(n: u64, t: u64) -> Result<Vec<ProtocolA>, ConfigError> {
        if t == 0 {
            return Err(ConfigError::NoProcesses);
        }
        if n == 0 {
            return Err(ConfigError::NoWork);
        }
        let params = padded_params(n, t);
        Ok((0..t)
            .map(|j| ProtocolA { core: DoWork::new(params, j), n_real: n, t_real: t })
            .collect())
    }

    /// The deadline at which this process takes over if still passive:
    /// `DD(j) = j(n + 3t)`.
    pub fn deadline(&self) -> Round {
        Round::from(dd(self.core.params, self.core.rank))
    }

    /// Digests the inbox: returns `true` if a terminal message arrived.
    fn ingest(&mut self, inbox: Inbox<'_, AbMsg>) -> bool {
        // Per the paper's convention, if several ordinary messages arrive in
        // one round (impossible in a clean execution), the lowest-numbered
        // sender wins: iterate in pid order and hold on to the first, so
        // later ones can only be terminal.
        let mut held = false;
        for (from, msg) in inbox.iter() {
            match self.core.hear((!held).then_some(from.index() as u64), *msg) {
                Heard::Terminal => return true,
                Heard::Updated => held = true,
                Heard::Ignored => {}
            }
        }
        false
    }
}

/// The identity-relabelled [`Clipped`] sink: virtual processes hold the
/// highest pids, so cutting a span at `t_real` drops exactly the messages
/// that must never be sent and what is left is still one O(1) span op.
fn clip(eff: &mut Effects<AbMsg>, n_real: u64, t_real: u64) -> impl Sink + '_ {
    Clipped {
        eff,
        n_real,
        t_real,
        unit: |u| u as usize,
        send: |eff: &mut Effects<AbMsg>, pids, msg| eff.multicast(pids, msg),
    }
}

impl Protocol for ProtocolA {
    type Msg = AbMsg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, AbMsg>, eff: &mut Effects<AbMsg>) {
        let mut out = clip(eff, self.n_real, self.t_real);
        if self.core.advance(&mut out) {
            return;
        }
        if self.ingest(inbox) {
            self.core.retire(&mut out);
        } else if round >= self.deadline().max(Round::ONE) {
            // Figure 1, main protocol: take over at round DD(j).
            self.core.activate(&mut out);
        }
    }

    // The engine asks after every step. Delegating to the shared driver
    // made this too big for rustc's automatic cross-crate inlining, which
    // the hand-written match used to get (+3 % on `sync_sparse` without).
    #[inline]
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.core.next_wakeup(now, || Some(self.deadline().max(Round::ONE).max(now)))
    }

    fn on_recover(&mut self, _round: Round, wipe: bool) {
        // Wiped, the process waits out DD(j) again — it has usually
        // passed, so the next step re-activates from the fictitious view.
        self.core.on_recover(wipe);
    }

    /// An active process ignores its inbox, so the leading work run of its
    /// schedule is a lease, ended at `n_real`: phantom units are silent
    /// rounds, not work.
    #[inline]
    fn lease(&self, _now: Round) -> Option<(Unit, u64)> {
        let (first, len) = self.core.lease(self.n_real)?;
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
        RunConfig::new(N as usize, 1_000_000).with_trace()
    }

    fn bounds_hold(report: &doall_sim::Report, n: u64, t: u64) {
        let b = theorems::protocol_a(n, t);
        assert!(
            report.metrics.work_total <= b.work,
            "work {} exceeds Theorem 2.3 bound {}",
            report.metrics.work_total,
            b.work
        );
        assert!(
            report.metrics.messages <= b.messages,
            "messages {} exceed Theorem 2.3 bound {}",
            report.metrics.messages,
            b.messages
        );
        assert!(
            report.metrics.rounds <= b.rounds,
            "rounds {} exceed Theorem 2.3 bound {}",
            report.metrics.rounds,
            b.rounds
        );
    }

    fn invariants_hold(report: &doall_sim::Report) {
        assert!(check_single_active(&report.trace).is_empty());
        assert!(check_activation_order(&report.trace).is_empty());
        assert!(check_sequential_work(&report.trace).is_empty());
    }

    #[test]
    fn failure_free_run_is_exact() {
        let report = run(ProtocolA::processes(N, T).unwrap(), NoFailures, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N, "no failures => no rework");
        assert_eq!(report.metrics.crashes, 0);
        assert_eq!(report.metrics.terminations, T as u32);
        // Process 0 does n work rounds + t partial + 2·√t(√t−1) full rounds.
        let sqrt_t = 4;
        let expected_rounds = N + T + 2 * sqrt_t * (sqrt_t - 1);
        assert_eq!(report.metrics.rounds, expected_rounds);
        // Exact failure-free message count: partial cps t·(√t−1) plus full
        // cps √t chunks × (√t−1) groups × (√t + √t−1).
        let expected_msgs = T * (sqrt_t - 1) + sqrt_t * (sqrt_t - 1) * (2 * sqrt_t - 1);
        assert_eq!(report.metrics.messages, expected_msgs);
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn minimal_system_t1_does_all_work_silently() {
        let report =
            run(ProtocolA::processes(8, 1).unwrap(), NoFailures, RunConfig::new(8, 100)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.messages, 0);
        assert_eq!(report.metrics.work_total, 8);
    }

    #[test]
    fn silent_crash_of_process_0_hands_over_at_dd1() {
        let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::silent());
        let report = run(ProtocolA::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        // p1 starts from scratch at DD(1) = n + 3t.
        let activations: Vec<_> = report.trace.notes("activate").collect();
        assert_eq!(activations[0], (Round::ONE, Pid::new(0)));
        assert_eq!(activations[1], (Round::from(N + 3 * T), Pid::new(1)));
        assert_eq!(report.metrics.work_total, N, "p0 did nothing countable");
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn crash_after_checkpoint_loses_no_work() {
        // p0 dies right after its first partial checkpoint went out in
        // full; p1 resumes at subchunk 2 without redoing anything.
        let adv = FaultPlan::default().crash_on(
            Trigger::NthSendRoundBy { pid: Pid::new(0), nth: 1 },
            CrashSpec::after_round(),
        );
        let report = run(ProtocolA::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N, "checkpointed work must not be redone");
        assert_eq!(report.metrics.wasted_work(), 0);
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn unreported_work_is_redone_by_the_successor() {
        // p0 performs exactly one unit and dies before any checkpoint: the
        // classic "work-optimal protocols must do n + t - 1 work" scenario.
        let adv = FaultPlan::default().crash_on(
            Trigger::NthWorkBy { pid: Pid::new(0), nth: 1 },
            CrashSpec { deliver: Deliver::None, count_work: true },
        );
        let report = run(ProtocolA::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N + 1, "unit 1 performed twice");
        assert_eq!(report.metrics.redone_units(), vec![(doall_sim::Unit::new(1), 2)]);
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn partial_broadcast_delivery_still_recovers() {
        // p0 crashes mid-partial-checkpoint: the (1) reaches only p3 (not
        // p1, p2). p1 takes over from scratch; single-active must still
        // hold thanks to DD's pessimism.
        let adv = FaultPlan::default().crash_on(
            Trigger::NthSendRoundBy { pid: Pid::new(0), nth: 1 },
            CrashSpec::subset([Pid::new(3)]),
        );
        let report = run(ProtocolA::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        // p1 redoes subchunk 1 (its view is fictitious).
        assert_eq!(report.metrics.work_total, N + N / T);
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn cascade_of_takeover_crashes_respects_all_bounds() {
        // Each newly-activated process dies right after performing one more
        // unit, unreported — the adversary that forces Θ(n + t) work.
        let plan = (0..T - 1).fold(FaultPlan::default(), |plan, j| {
            plan.crash_on(
                Trigger::NthWorkBy { pid: Pid::new(j as usize), nth: 1 },
                CrashSpec { deliver: Deliver::None, count_work: true },
            )
        });
        let report = run(ProtocolA::processes(N, T).unwrap(), plan, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.crashes, (T - 1) as u32);
        // Every faulty process redid unit 1: n + (t-1) total.
        assert_eq!(report.metrics.work_total, N + T - 1);
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn checkpoint_boundary_crashes_drive_rework_within_3n() {
        // Kill each successive activated process right before it finishes
        // checkpointing a chunk, forcing chunk-sized rework, the worst case
        // of Theorem 2.3's accounting.
        // Crash on the 9th send-round: subchunk cps 1-4 plus the
        // first 4 full-cp broadcasts of chunk 1, dying mid-full-cp.
        let plan = (0..T - 1).fold(FaultPlan::default(), |plan, j| {
            plan.crash_on(
                Trigger::NthSendRoundBy { pid: Pid::new(j as usize), nth: 5 },
                CrashSpec { deliver: Deliver::Prefix(1), count_work: true },
            )
        });
        let report = run(ProtocolA::processes(N, T).unwrap(), plan, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        bounds_hold(&report, N, T);
        invariants_hold(&report);
    }

    #[test]
    fn random_crashes_never_violate_theorem_2_3() {
        for seed in 0..20 {
            let adv = doall_sim::FaultPlan::random(seed, 0.002, (T - 1) as u32);
            let report = run(ProtocolA::processes(N, T).unwrap(), adv, cfg()).unwrap();
            assert!(report.has_survivor(), "budgeted adversary leaves a survivor");
            assert!(report.metrics.all_work_done(), "seed {seed}: work incomplete");
            bounds_hold(&report, N, T);
            invariants_hold(&report);
        }
    }

    #[test]
    fn worst_case_time_when_only_last_process_survives() {
        // Everybody but p_{t-1} is dead on arrival: it must wait for
        // DD(t-1) and then do everything — the Theorem 2.3(c) worst case.
        let mut adv = FaultPlan::default();
        for j in 0..T - 1 {
            adv = adv.crash_at(Pid::new(j as usize), 1, CrashSpec::silent());
        }
        let report = run(ProtocolA::processes(N, T).unwrap(), adv, cfg()).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N);
        let dd_last = (T - 1) * (N + 3 * T);
        assert!(report.metrics.rounds >= dd_last);
        bounds_hold(&report, N, T);
    }

    #[test]
    fn rejects_invalid_configurations() {
        assert!(ProtocolA::processes(10, 3).is_err());
        assert!(ProtocolA::processes(7, 4).is_err());
        assert!(ProtocolA::processes(0, 4).is_err());
        assert_eq!(ProtocolA::processes_padded(0, 4).unwrap_err(), ConfigError::NoWork);
        assert_eq!(ProtocolA::processes_padded(4, 0).unwrap_err(), ConfigError::NoProcesses);
    }

    // ---- The padded constructor: arbitrary shapes ----

    fn padded_cfg(n: u64) -> RunConfig {
        RunConfig::new(n as usize, 10_000_000).with_trace()
    }

    #[test]
    fn awkward_shapes_complete_failure_free() {
        for (n, t) in [(1, 1), (1, 2), (3, 2), (7, 3), (10, 6), (11, 7), (13, 5), (100, 11)] {
            let report =
                run(ProtocolA::processes_padded(n, t).unwrap(), NoFailures, padded_cfg(n)).unwrap();
            assert!(report.metrics.all_work_done(), "shape ({n},{t})");
            assert_eq!(report.metrics.work_total, n, "shape ({n},{t}): phantoms not counted");
        }
    }

    #[test]
    fn awkward_shapes_survive_crash_cascades() {
        for (n, t) in [(7, 3), (10, 6), (13, 5), (23, 7)] {
            let mut adv = FaultPlan::default();
            for j in 0..t - 1 {
                adv = adv.crash_at(Pid::new(j as usize), 1 + j * 3, CrashSpec::silent());
            }
            let report =
                run(ProtocolA::processes_padded(n, t).unwrap(), adv, padded_cfg(n)).unwrap();
            assert!(report.metrics.all_work_done(), "shape ({n},{t})");
            assert!(check_single_active(&report.trace).is_empty(), "shape ({n},{t})");
            assert!(check_activation_order(&report.trace).is_empty(), "shape ({n},{t})");
        }
    }

    #[test]
    fn padded_bounds_hold_in_padded_terms() {
        // Theorem 2.3 in padded parameters covers the real run.
        let (n, t) = (10u64, 6u64);
        let p = padded_params(n, t);
        let mut adv = FaultPlan::default();
        for j in 0..t - 1 {
            adv = adv.crash_at(Pid::new(j as usize), 2 + j, CrashSpec::silent());
        }
        let report = run(ProtocolA::processes_padded(n, t).unwrap(), adv, padded_cfg(n)).unwrap();
        bounds_hold(&report, p.n, p.t);
    }

    #[test]
    fn lease_then_advance_lands_where_steps_do() {
        // Padded (50, 6) runs on (54, 9): subchunks of 6, and the last one,
        // units 49..=54, holds two real units and four phantoms. Rank 4,
        // activated fresh or after a restart prologue, leases each
        // subchunk's work run, the last one cut at unit 50 — the phantoms
        // are silent rounds it steps — and `advance(k)` lands where `k`
        // steps do (see `ab::tests::walk_leases`).
        let lasts = [
            (LastOrdinary::Fictitious, 0, 9),
            (LastOrdinary::Partial { c: 3 }, 3, 6),
            (LastOrdinary::Full { c: 6, g: 3, sender_in_own_group: true }, 6, 3),
            (LastOrdinary::Full { c: 6, g: 2, sender_in_own_group: false }, 6, 3),
        ];
        for (last, c, leases) in lasts {
            let mut a = ProtocolA::processes_padded(50, 6).unwrap().remove(4);
            a.core.last = last;
            let mut eff = Effects::new();
            a.core.activate(&mut clip(&mut eff, a.n_real, a.t_real));
            let (units, got) = walk_leases(a, 2);
            let all: Vec<u64> = eff.work().iter().map(|u| u.get() as u64).chain(units).collect();
            assert_eq!(all, (c * 6 + 1..=50).collect::<Vec<_>>(), "{last:?}");
            assert_eq!(got, leases, "{last:?}");
        }
    }

    #[test]
    fn no_message_ever_targets_a_virtual_process() {
        let (n, t) = (10u64, 6u64); // padded to t=9: ranks 6..8 are virtual
        let report = run(
            ProtocolA::processes_padded(n, t).unwrap(),
            FaultPlan::default().crash_at(Pid::new(0), 4, CrashSpec::prefix(1)),
            padded_cfg(n),
        )
        .unwrap();
        for event in report.trace.events() {
            if let doall_sim::Event::Send { to, .. } = event {
                assert!(to.index() < t as usize, "message to virtual process {to}");
            }
        }
        assert!(report.metrics.all_work_done());
    }
}
