//! The asynchronous variant of Protocol A (§2.1 of the paper).
//!
//! > "Notice that we can easily modify this algorithm to run in a
//! > completely asynchronous system equipped with an appropriate failure
//! > detection mechanism: … rather than waiting until round `DD(j)` before
//! > becoming active, process `j` waits until it has been informed that
//! > processes `1, …, j−1` crashed or terminated."
//!
//! The checkpointing logic is byte-for-byte the synchronous `DoWork` of
//! Figure 1 — the [`compile_dowork`](super::compile_dowork) schedule is
//! shared — only the
//! activation trigger changes: the retirement detector of
//! [`doall_sim::asynch`] replaces the round deadline. Because the detector
//! is *sound* (it never reports a live process), at most one process is
//! active at any time, and the Theorem 2.3 work/message bounds carry over
//! unchanged; time is no longer a meaningful measure.
//!
//! See [`asynch_b`](super::asynch_b) for the Protocol B analogue, which
//! additionally infers retirements from received checkpoints instead of
//! waiting for a detector report about every lower-numbered process.

use std::collections::BTreeSet;

use doall_bounds::AbParams;
use doall_sim::asynch::{AsyncEffects, AsyncProtocol};
use doall_sim::{Inbox, Pid};

use super::{group_span, interpret, is_terminal_for, validate, AbMsg, LastOrdinary, Op, Schedule};
use crate::error::ConfigError;

#[derive(Clone, Debug)]
pub(super) enum AsyncState {
    Passive,
    Active { ops: Schedule },
    Done,
}

/// Executes the next one-round operation of an active schedule, requesting
/// a tick continuation until the schedule is exhausted — shared by the
/// asynchronous Protocols A and B (their active phases are identical).
pub(super) fn advance_schedule(
    state: &mut AsyncState,
    params: AbParams,
    j: u64,
    eff: &mut AsyncEffects<AbMsg>,
) {
    let AsyncState::Active { ops } = state else { return };
    if let Some(op) = ops.pop_front() {
        match op {
            Op::Work { u } => eff.perform(doall_sim::Unit::new(u as usize)),
            Op::PartialCp { c } => {
                eff.multicast(super::higher_own_group(params, j), AbMsg::Partial { c });
            }
            Op::FullCpGroup { c, g } => {
                eff.multicast(group_span(params, g), AbMsg::Full { c, g });
            }
            Op::FullCpOwn { c, g } => {
                eff.multicast(super::higher_own_group(params, j), AbMsg::Full { c, g });
            }
        }
    }
    if matches!(state, AsyncState::Active { ops } if ops.is_empty()) {
        eff.terminate();
        *state = AsyncState::Done;
    } else {
        eff.continue_later();
    }
}

/// One process of the asynchronous Protocol A.
///
/// Run with [`doall_sim::asynch::run_async`].
///
/// # Examples
///
/// ```
/// use doall_core::ab::asynch::AsyncProtocolA;
/// use doall_sim::asynch::{run_async, AsyncConfig};
/// use doall_sim::NoFailures;
///
/// let procs = AsyncProtocolA::processes(32, 16)?;
/// let report = run_async(procs, NoFailures, AsyncConfig::new(32, 1))?;
/// assert!(report.metrics.all_work_done());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct AsyncProtocolA {
    params: AbParams,
    j: u64,
    state: AsyncState,
    last: LastOrdinary,
    /// Detector reports received out of order (ahead of the watermark).
    retired: BTreeSet<u64>,
    /// Every pid below this is known retired — advanced incrementally so
    /// each notice costs amortized O(log t), not a rescan of `0..j`.
    retired_below: u64,
}

impl AsyncProtocolA {
    /// Creates process `j` of an `(n, t)` system.
    pub fn new(params: AbParams, j: u64) -> Self {
        AsyncProtocolA {
            params,
            j,
            state: AsyncState::Passive,
            last: LastOrdinary::Fictitious,
            retired: BTreeSet::new(),
            retired_below: 0,
        }
    }

    /// Creates the full vector of `t` processes for `n` units of work.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `t` is a positive perfect square,
    /// `t | n`, and `n >= t`.
    pub fn processes(n: u64, t: u64) -> Result<Vec<AsyncProtocolA>, ConfigError> {
        let params = validate(n, t)?;
        Ok((0..t).map(|j| AsyncProtocolA::new(params, j)).collect())
    }

    fn all_lower_retired(&mut self) -> bool {
        while self.retired_below < self.j && self.retired.remove(&self.retired_below) {
            self.retired_below += 1;
        }
        self.retired_below >= self.j
    }

    fn activate(&mut self, eff: &mut AsyncEffects<AbMsg>) {
        eff.note("activate");
        self.state = AsyncState::Active { ops: Schedule::new(self.params, self.j, self.last) };
        advance_schedule(&mut self.state, self.params, self.j, eff);
    }
}

impl AsyncProtocol for AsyncProtocolA {
    type Msg = AbMsg;

    fn on_start(&mut self, eff: &mut AsyncEffects<AbMsg>) {
        if self.j == 0 {
            self.activate(eff);
        }
    }

    fn on_messages(&mut self, inbox: Inbox<'_, AbMsg>, eff: &mut AsyncEffects<AbMsg>) {
        for (from, payload) in inbox.iter() {
            if !matches!(self.state, AsyncState::Passive) {
                return; // active/terminated processes ignore stray traffic
            }
            if is_terminal_for(self.params, self.j, *payload) {
                eff.terminate();
                self.state = AsyncState::Done;
                return;
            }
            if let Some(last) = interpret(self.params, self.j, from.index() as u64, *payload) {
                self.last = last;
            }
        }
    }

    fn on_retirement(&mut self, retired: Pid, eff: &mut AsyncEffects<AbMsg>) {
        self.retired.insert(retired.index() as u64);
        if matches!(self.state, AsyncState::Passive) && self.all_lower_retired() {
            self.activate(eff);
        }
    }

    fn on_tick(&mut self, eff: &mut AsyncEffects<AbMsg>) {
        advance_schedule(&mut self.state, self.params, self.j, eff);
    }

    fn on_recover(&mut self, wipe: bool, eff: &mut AsyncEffects<AbMsg>) {
        eff.note("rejoin");
        if wipe {
            self.state = AsyncState::Passive;
            self.last = LastOrdinary::Fictitious;
            self.retired.clear();
            self.retired_below = 0;
            if self.j == 0 {
                self.activate(eff);
            }
            // j > 0 waits: the detector replays past retirements to a
            // recovered process, so activation re-triggers via
            // on_retirement once the replayed notices land.
        } else {
            match self.state {
                // The crash severed the tick chain driving the schedule;
                // splice it back.
                AsyncState::Active { .. } => eff.continue_later(),
                // The crash preempted a same-invocation termination; the
                // work is done, so retire for real now.
                AsyncState::Done => eff.terminate(),
                AsyncState::Passive => {
                    if self.all_lower_retired() {
                        self.activate(eff);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use doall_bounds::theorems;
    use doall_sim::asynch::{run_async, AsyncConfig, AsyncCrashSchedule};
    use doall_sim::invariants::{
        check_activation_order, check_detector_soundness, check_no_zombie_actions,
        check_single_active,
    };
    use doall_sim::{CrashSpec, Deliver, NoFailures};

    use super::*;

    const N: u64 = 32;
    const T: u64 = 16;

    fn cfg(seed: u64) -> AsyncConfig {
        AsyncConfig { max_delay: 7, max_events: 1_000_000, ..AsyncConfig::new(N as usize, seed) }
    }

    #[test]
    fn failure_free_async_run_matches_synchronous_counts() {
        let report =
            run_async(AsyncProtocolA::processes(N, T).unwrap(), NoFailures, cfg(1)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N);
        // Same message count as the synchronous failure-free run: 132.
        assert_eq!(report.metrics.messages, 132);
        assert!(report.has_survivor());
        assert_eq!(report.survivor_count() as u64, T);
    }

    #[test]
    fn crash_of_active_process_hands_over_via_detector() {
        // p0 dies on its 5th handler invocation (start + 4 ticks = after 5
        // operations); p1 activates once the detector informs it.
        let crash = AsyncCrashSchedule::new().crash_at(
            Pid::new(0),
            5,
            CrashSpec { deliver: Deliver::Prefix(0), count_work: true },
        );
        let report = run_async(AsyncProtocolA::processes(N, T).unwrap(), crash, cfg(2)).unwrap();
        assert!(report.metrics.all_work_done());
        let b = theorems::protocol_a(N, T);
        assert!(report.metrics.work_total <= b.work);
        assert!(report.metrics.messages <= b.messages);
        // Activation order is preserved: p0 then p1.
        let activations: Vec<Pid> = report
            .notes
            .iter()
            .filter(|(_, _, tag)| *tag == "activate")
            .map(|(_, p, _)| *p)
            .collect();
        assert_eq!(activations, vec![Pid::new(0), Pid::new(1)]);
    }

    #[test]
    fn async_runs_are_deterministic_per_seed() {
        let run1 = run_async(AsyncProtocolA::processes(N, T).unwrap(), NoFailures, cfg(9)).unwrap();
        let run2 = run_async(AsyncProtocolA::processes(N, T).unwrap(), NoFailures, cfg(9)).unwrap();
        assert_eq!(run1.metrics, run2.metrics);
    }

    #[test]
    fn detector_soundness_preserves_single_active() {
        // Under several delay seeds with a mid-run crash, activations must
        // stay ordered by pid and never overlap (each activation happens
        // only after the previous active process truly retired) — checked
        // both directly on the notes and via the ported trace invariants.
        for seed in 0..8 {
            let crash = AsyncCrashSchedule::new().crash_at(
                Pid::new(0),
                9,
                CrashSpec { deliver: Deliver::Prefix(2), count_work: true },
            );
            let report =
                run_async(AsyncProtocolA::processes(N, T).unwrap(), crash, cfg(seed).with_trace())
                    .unwrap();
            assert!(report.metrics.all_work_done(), "seed {seed}");
            let activations: Vec<Pid> = report
                .notes
                .iter()
                .filter(|(_, _, tag)| *tag == "activate")
                .map(|(_, p, _)| *p)
                .collect();
            assert!(
                activations.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: activations not strictly ordered: {activations:?}"
            );
            assert!(check_single_active(&report.trace).is_empty(), "seed {seed}");
            assert!(check_activation_order(&report.trace).is_empty(), "seed {seed}");
            assert!(check_no_zombie_actions(&report.trace).is_empty(), "seed {seed}");
            assert!(check_detector_soundness(&report.trace).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn cascade_of_crashes_respects_work_bound() {
        // p0 dies right after performing its first unit of work.
        let crash = AsyncCrashSchedule::new().crash_at(
            Pid::new(0),
            1,
            CrashSpec { deliver: Deliver::Prefix(0), count_work: true },
        );
        let report = run_async(AsyncProtocolA::processes(N, T).unwrap(), crash, cfg(3)).unwrap();
        assert!(report.metrics.all_work_done());
        assert!(report.metrics.work_total <= theorems::protocol_a(N, T).work);
    }
}
