//! The "everyone does everything" baseline (§1).

use doall_sim::{Classify, Effects, Inbox, Protocol, Round, Unit};

use crate::error::ConfigError;

/// No messages are ever sent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NoMsg {}

impl Classify for NoMsg {}

/// §1's first trivial solution: each process performs units `1..=n` in
/// order, one per round, and terminates. Zero messages, perfect fault
/// tolerance, `Θ(tn)` work.
///
/// # Examples
///
/// ```
/// use doall_core::baseline::ReplicateAll;
/// use doall_sim::{run, NoFailures, RunConfig};
///
/// let report = run(ReplicateAll::processes(10, 4)?, NoFailures, RunConfig::new(10, 100))?;
/// assert_eq!(report.metrics.work_total, 40); // t * n
/// assert_eq!(report.metrics.messages, 0);
/// assert_eq!(report.metrics.rounds, 10u64); // n rounds
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct ReplicateAll {
    n: u64,
    next: u64,
}

impl ReplicateAll {
    /// Creates the `t` processes for `n` units.
    ///
    /// # Errors
    ///
    /// Rejects empty systems and empty workloads.
    pub fn processes(n: u64, t: u64) -> Result<Vec<ReplicateAll>, ConfigError> {
        if t == 0 {
            return Err(ConfigError::NoProcesses);
        }
        if n == 0 {
            return Err(ConfigError::NoWork);
        }
        Ok((0..t).map(|_| ReplicateAll { n, next: 1 }).collect())
    }
}

impl Protocol for ReplicateAll {
    type Msg = NoMsg;

    fn step(&mut self, _round: Round, _inbox: Inbox<'_, NoMsg>, eff: &mut Effects<NoMsg>) {
        eff.perform(Unit::new(self.next as usize));
        if self.next == self.n {
            eff.terminate();
        } else {
            self.next += 1;
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        Some(now)
    }

    fn on_recover(&mut self, _round: Round, wipe: bool) {
        if wipe {
            // Start over from unit 1; stale state needs nothing — the next
            // step re-performs `next` (and re-terminates when `next == n`).
            self.next = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use doall_sim::{run, CrashSpec, FaultPlan, NoFailures, Pid, RunConfig};

    use super::*;

    #[test]
    fn tolerates_any_crashes_with_one_survivor() {
        let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::silent()).crash_at(
            Pid::new(1),
            3,
            CrashSpec::silent(),
        );
        let report =
            run(ReplicateAll::processes(6, 3).unwrap(), adv, RunConfig::new(6, 100)).unwrap();
        assert!(report.metrics.all_work_done());
        // p0 did 0 units, p1 did 2, p2 did 6.
        assert_eq!(report.metrics.work_total, 8);
    }

    #[test]
    fn failure_free_costs_t_times_n() {
        let report =
            run(ReplicateAll::processes(5, 4).unwrap(), NoFailures, RunConfig::new(5, 100))
                .unwrap();
        assert_eq!(report.metrics.work_total, 20);
        assert_eq!(report.metrics.effort(), 20);
        assert_eq!(report.metrics.rounds, 5u64);
    }

    #[test]
    fn rejects_empty_configs() {
        assert!(ReplicateAll::processes(0, 3).is_err());
        assert!(ReplicateAll::processes(3, 0).is_err());
    }
}
