//! The §3 strawman: spread knowledge round-robin, with **no fault
//! detection**.
//!
//! > "The problem with this naïve algorithm is that it requires `O(n + t²)`
//! > work and `O(n + t²)` messages in the worst case."
//!
//! Process 0 performs unit `i` and reports units `1..=i` to process
//! `i mod t`. On a crash, the most knowledgeable survivor takes over (the
//! deadlines below arrange exactly that) — but it has no way to know
//! whether the processes after its last report are dead, so it re-informs
//! (and re-does) everything past its own knowledge. A cascade of crashes
//! among the top half of the processes then costs `Θ(t²)` wasted work and
//! messages — the motivation for Protocol C, which treats fault detection
//! itself as work.

use doall_bounds::{mul_saturating, pow2_saturating};
use doall_sim::{Classify, Effects, Inbox, Pid, Protocol, Round, Unit};

use crate::error::ConfigError;

/// Messages of the naive-spread strawman.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpreadMsg {
    /// "Units `1..=c` have been performed."
    Progress {
        /// Highest completed unit.
        c: u64,
    },
    /// All `n` units are done; everyone may stop.
    Finished,
}

impl Classify for SpreadMsg {
    fn class(&self) -> &'static str {
        match self {
            SpreadMsg::Progress { .. } => "progress",
            SpreadMsg::Finished => "finished",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Work,
    Report,
}

#[derive(Clone, Debug)]
enum SState {
    Passive { deadline: Round },
    Active { phase: Phase },
    Done,
}

/// One process of the §3 strawman.
///
/// # Examples
///
/// ```
/// use doall_core::baseline::NaiveSpread;
/// use doall_sim::{run, NoFailures, RunConfig};
///
/// let report = run(NaiveSpread::processes(8, 4)?, NoFailures, RunConfig::new(8, 1 << 40))?;
/// assert!(report.metrics.all_work_done());
/// assert_eq!(report.metrics.work_total, 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct NaiveSpread {
    n: u64,
    t: u64,
    j: u64,
    /// Highest prefix of units known complete.
    known: u64,
    state: SState,
    /// Set by a stale crash-recovery that found the state already
    /// [`SState::Done`]: the crash preempted the final step's terminate,
    /// so the next step must retire for real.
    retire_next_step: bool,
}

impl NaiveSpread {
    /// Creates the `t` processes for `n` units.
    ///
    /// # Errors
    ///
    /// Rejects empty systems and workloads, and requires `n >= t` so the
    /// round-robin reporting covers every process.
    pub fn processes(n: u64, t: u64) -> Result<Vec<NaiveSpread>, ConfigError> {
        if t == 0 {
            return Err(ConfigError::NoProcesses);
        }
        if n == 0 {
            return Err(ConfigError::NoWork);
        }
        if n < t {
            return Err(ConfigError::WorkTooSmall { n, t });
        }
        Ok((0..t)
            .map(|j| {
                let state = if j == 0 {
                    SState::Active { phase: Phase::Work }
                } else {
                    SState::Passive { deadline: Round::from(deadline_d(n, t, j, 0)) }
                };
                NaiveSpread { n, t, j, known: 0, state, retire_next_step: false }
            })
            .collect())
    }
}

/// The takeover deadline: the same exponential shape as Protocol C's
/// `D(i, m)` (the strawman is "Protocol C without fault detection"), with
/// `K = 2t + 4` — an active process reports round-robin over all `t`
/// processes, so everyone alive hears within `2t` rounds.
///
/// Distinctness of deadlines (hence a single active process) holds because
/// a process only ever learns `m ≡ pid (mod t)`: reports for unit `u` go
/// to process `u mod t`.
fn deadline_d(n: u64, t: u64, i: u64, m: u64) -> u64 {
    let k = 2 * t + 4;
    let nt = n + t;
    if m >= 1 {
        mul_saturating(&[k, nt - m, pow2_saturating(nt - 1 - m)])
    } else {
        mul_saturating(&[k, t - i, nt, pow2_saturating(nt - 1)])
    }
}

impl Protocol for NaiveSpread {
    type Msg = SpreadMsg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, SpreadMsg>, eff: &mut Effects<SpreadMsg>) {
        if self.retire_next_step {
            // Post-recovery retirement: the crash preempted the step that
            // reached `Done`, so the engine never saw our terminate — and
            // a `Finished` that triggered it will never be resent.
            self.retire_next_step = false;
            eff.terminate();
            self.state = SState::Done;
            return;
        }
        if matches!(self.state, SState::Done) {
            return;
        }
        if let SState::Passive { .. } = self.state {
            let mut heard = false;
            for (_, msg) in inbox.iter() {
                match *msg {
                    SpreadMsg::Finished => {
                        eff.terminate();
                        self.state = SState::Done;
                        return;
                    }
                    SpreadMsg::Progress { c } => {
                        self.known = self.known.max(c);
                        heard = true;
                    }
                }
            }
            if heard {
                self.state = SState::Passive {
                    deadline: round
                        .saturating_add(u128::from(deadline_d(self.n, self.t, self.j, self.known))),
                };
                return;
            }
            let SState::Passive { deadline } = self.state else { unreachable!() };
            if round >= deadline {
                eff.note("activate");
                self.state = SState::Active { phase: Phase::Work };
            } else {
                return;
            }
        }
        let SState::Active { phase } = self.state else { unreachable!() };
        match phase {
            Phase::Work => {
                eff.perform(Unit::new(self.known as usize + 1));
                self.known += 1;
                self.state = SState::Active { phase: Phase::Report };
            }
            Phase::Report => {
                if self.known == self.n {
                    // Tell everyone to stop, then retire.
                    eff.multicast_except(0..self.t as usize, self.j as usize, SpreadMsg::Finished);
                    eff.terminate();
                    self.state = SState::Done;
                } else {
                    // Report units 1..=known to process (known mod t) —
                    // dead or alive; there is no fault detection here.
                    let target = self.known % self.t;
                    if target != self.j {
                        eff.send(Pid::new(target as usize), SpreadMsg::Progress { c: self.known });
                    }
                    self.state = SState::Active { phase: Phase::Work };
                }
            }
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.retire_next_step {
            return Some(now);
        }
        match self.state {
            SState::Done => None,
            SState::Active { .. } => Some(now),
            SState::Passive { deadline } => Some(deadline.max(now)),
        }
    }

    fn on_recover(&mut self, _round: Round, wipe: bool) {
        if wipe {
            self.known = 0;
            self.state = if self.j == 0 {
                SState::Active { phase: Phase::Work }
            } else {
                SState::Passive { deadline: Round::from(deadline_d(self.n, self.t, self.j, 0)) }
            };
            self.retire_next_step = false;
        } else if matches!(self.state, SState::Done) {
            self.retire_next_step = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use doall_sim::invariants::check_single_active;
    use doall_sim::{run, CrashSpec, Deliver, FaultPlan, NoFailures, RunConfig, Trigger};

    use super::*;

    fn cfg(n: u64) -> RunConfig {
        RunConfig::new(n as usize, u64::MAX - 1).with_trace()
    }

    /// The §3 cascade: p0 dies after unit `t-1`; the top half crashes; each
    /// successive most-knowledgeable survivor redoes the suffix and dies.
    fn cascade(_n: u64, t: u64) -> FaultPlan {
        let mut plan = FaultPlan::default().crash_on(
            Trigger::NthWorkBy { pid: Pid::new(0), nth: t - 1 },
            CrashSpec::after_round(),
        );
        for j in t / 2 + 1..t {
            let at = Trigger::AtRound { pid: Pid::new(j as usize), round: Round::from(2 * t) };
            plan = plan.crash_on(at, CrashSpec::silent());
        }
        for j in (2..=t / 2).rev() {
            // Process j knows units 1..=j; it redoes j+1..=t-1 and dies.
            plan = plan.crash_on(
                Trigger::NthWorkBy { pid: Pid::new(j as usize), nth: t - 1 - j },
                CrashSpec { deliver: Deliver::None, count_work: true },
            );
        }
        plan
    }

    #[test]
    fn failure_free_run_is_cheap() {
        let report = run(NaiveSpread::processes(12, 4).unwrap(), NoFailures, cfg(12)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, 12);
        // n - 1 reports (some to self are skipped) + final broadcast.
        assert!(report.metrics.messages <= 12 + 4);
        assert!(check_single_active(&report.trace).is_empty());
    }

    #[test]
    fn most_knowledgeable_survivor_takes_over() {
        // p0 dies after reporting unit 3 to p3 (t = 4): p3 must take over,
        // not p1.
        let adv = FaultPlan::default().crash_on(
            Trigger::NthSendRoundBy { pid: Pid::new(0), nth: 3 },
            CrashSpec { deliver: Deliver::All, count_work: true },
        );
        let report = run(NaiveSpread::processes(8, 4).unwrap(), adv, cfg(8)).unwrap();
        assert!(report.metrics.all_work_done());
        let first = report.trace.notes("activate").next().unwrap();
        assert_eq!(first.1, Pid::new(3));
        assert!(check_single_active(&report.trace).is_empty());
    }

    #[test]
    fn cascade_costs_quadratic_rework() {
        let (n, t) = (16u64, 16u64);
        let report = run(NaiveSpread::processes(n, t).unwrap(), cascade(n, t), cfg(n)).unwrap();
        assert!(report.metrics.all_work_done());
        // Each of the ~t/2 successive actives redoes a Θ(t) suffix.
        assert!(
            report.metrics.wasted_work() as u64 >= t * t / 8,
            "expected quadratic waste, saw {}",
            report.metrics.wasted_work()
        );
        assert!(check_single_active(&report.trace).is_empty());
    }

    #[test]
    fn quadratic_waste_grows_with_t_unlike_protocol_c() {
        let waste = |t: u64| {
            let report = run(NaiveSpread::processes(t, t).unwrap(), cascade(t, t), cfg(t)).unwrap();
            assert!(report.metrics.all_work_done());
            report.metrics.wasted_work()
        };
        let (w8, w16) = (waste(8), waste(16));
        // Quadratic: quadrupling expected when t doubles (allow slack).
        assert!(w16 >= 3 * w8, "waste should grow superlinearly: {w8} -> {w16}");
    }

    #[test]
    fn rejects_undersized_workloads() {
        assert!(NaiveSpread::processes(3, 4).is_err());
        assert!(NaiveSpread::processes(0, 4).is_err());
        assert!(NaiveSpread::processes(4, 0).is_err());
    }
}
