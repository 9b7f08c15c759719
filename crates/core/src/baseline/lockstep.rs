//! The "one worker, checkpoint everything to everyone" baseline (§1).

use doall_sim::{Classify, Effects, Inbox, Protocol, Round, Unit};

use crate::error::ConfigError;

/// Progress announcements of the lockstep baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMsg {
    /// "Units `1..=c` have been performed."
    Done {
        /// Units completed so far.
        c: u64,
    },
}

impl Classify for LockMsg {
    fn class(&self) -> &'static str {
        "checkpoint"
    }
}

/// §1's second trivial solution: exactly one process works at a time and
/// broadcasts a checkpoint to *all* other processes after *every* unit.
/// Work is near-optimal (`<= n + t − 1`: each takeover redoes at most the
/// one unreported unit) but the message bill is `Θ(tn)`.
///
/// Takeover uses a crude Protocol A-style deadline: process `j` takes over
/// at round `j · 2(n + 1)` if it has not yet seen the final checkpoint.
///
/// # Examples
///
/// ```
/// use doall_core::baseline::Lockstep;
/// use doall_sim::{run, NoFailures, RunConfig};
///
/// let report = run(Lockstep::processes(10, 4)?, NoFailures, RunConfig::new(10, 1000))?;
/// assert_eq!(report.metrics.work_total, 10);
/// assert_eq!(report.metrics.messages, 10 * 3); // n checkpoints × (t-1)
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Lockstep {
    n: u64,
    t: u64,
    j: u64,
    /// Highest prefix of units known complete.
    known: u64,
    /// `Some(next_action)` once active: alternates work and checkpoint.
    active: Option<ActivePhase>,
    done: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ActivePhase {
    Work,
    Checkpoint,
}

impl Lockstep {
    /// Creates the `t` processes for `n` units.
    ///
    /// # Errors
    ///
    /// Rejects empty systems and empty workloads.
    pub fn processes(n: u64, t: u64) -> Result<Vec<Lockstep>, ConfigError> {
        if t == 0 {
            return Err(ConfigError::NoProcesses);
        }
        if n == 0 {
            return Err(ConfigError::NoWork);
        }
        Ok((0..t).map(|j| Lockstep { n, t, j, known: 0, active: None, done: false }).collect())
    }

    /// The takeover deadline of process `j`: an active process alternates
    /// work and checkpoint rounds, so it lives at most `2n` rounds; one
    /// round of slack separates consecutive turns.
    fn deadline(&self) -> Round {
        Round::from(self.j * (2 * self.n + 2))
    }
}

impl Protocol for Lockstep {
    type Msg = LockMsg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, LockMsg>, eff: &mut Effects<LockMsg>) {
        if self.done {
            return;
        }
        for (_, msg) in inbox.iter() {
            let LockMsg::Done { c } = *msg;
            self.known = self.known.max(c);
        }
        if self.active.is_none() {
            if self.known == self.n {
                eff.terminate();
                self.done = true;
                return;
            }
            if round >= self.deadline().max(Round::ONE) {
                self.active = Some(ActivePhase::Work);
                eff.note("activate");
            } else {
                return;
            }
        }
        match self.active.expect("just set") {
            ActivePhase::Work => {
                eff.perform(Unit::new(self.known as usize + 1));
                self.known += 1;
                self.active = Some(ActivePhase::Checkpoint);
            }
            ActivePhase::Checkpoint => {
                eff.multicast_except(
                    0..self.t as usize,
                    self.j as usize,
                    LockMsg::Done { c: self.known },
                );
                if self.known == self.n {
                    eff.terminate();
                    self.done = true;
                } else {
                    self.active = Some(ActivePhase::Work);
                }
            }
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.done {
            None
        } else if self.active.is_some() {
            Some(now)
        } else {
            Some(self.deadline().max(Round::ONE).max(now))
        }
    }

    fn on_recover(&mut self, _round: Round, wipe: bool) {
        if wipe {
            self.known = 0;
            self.active = None;
            self.done = false;
        } else if self.done {
            // The crash preempted the step that set `done`: the engine
            // recorded the crash instead of our terminate. `known == n`
            // still holds, so the next step re-derives the retirement.
            self.done = false;
            self.active = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use doall_sim::invariants::check_single_active;
    use doall_sim::{run, CrashSpec, Deliver, FaultPlan, NoFailures, Pid, RunConfig, Trigger};

    use super::*;

    fn cfg(n: u64) -> RunConfig {
        RunConfig::new(n as usize, 1_000_000).with_trace()
    }

    #[test]
    fn failure_free_counts_match_section_1() {
        let (n, t) = (20u64, 5u64);
        let report = run(Lockstep::processes(n, t).unwrap(), NoFailures, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, n);
        // "the number of messages sent is almost tn".
        assert_eq!(report.metrics.messages, n * (t - 1));
        // 2n active rounds plus one round for the final checkpoint to
        // reach and retire the passive processes.
        assert_eq!(report.metrics.rounds, u128::from(2 * n + 1));
    }

    #[test]
    fn takeover_cascade_stays_under_n_plus_t() {
        // Each active process dies right after one unreported unit.
        let (n, t) = (12u64, 4u64);
        let plan = (0..t - 1).fold(FaultPlan::default(), |plan, j| {
            plan.crash_on(
                Trigger::NthWorkBy { pid: Pid::new(j as usize), nth: 1 },
                CrashSpec { deliver: Deliver::None, count_work: true },
            )
        });
        let report = run(Lockstep::processes(n, t).unwrap(), plan, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, n + t - 1);
        assert!(check_single_active(&report.trace).is_empty());
    }

    #[test]
    fn checkpointed_work_is_never_redone() {
        let (n, t) = (12u64, 4u64);
        // Round 10 is a checkpoint round: the crash happens after the
        // checkpoint of unit 5 is fully delivered.
        let adv = FaultPlan::default().crash_at(Pid::new(0), 10, CrashSpec::after_round());
        let report = run(Lockstep::processes(n, t).unwrap(), adv, cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.wasted_work(), 0);
    }
}
