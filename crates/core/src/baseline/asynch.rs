//! The "everyone does everything" baseline on the asynchronous plane.

use doall_sim::asynch::{AsyncEffects, AsyncProtocol};
use doall_sim::{Inbox, Pid, Unit};

use super::replicate::NoMsg;
use crate::error::ConfigError;

/// §1's first trivial solution, event-driven: each process performs units
/// `1..=n` in order, one per event (self-scheduled ticks keep it
/// interruptible by crashes), and terminates. Zero messages, perfect fault
/// tolerance, `Θ(tn)` work — the effort floor the asynchronous A/B
/// variants are measured against in experiment `e14`.
///
/// # Examples
///
/// ```
/// use doall_core::baseline::AsyncReplicate;
/// use doall_sim::asynch::{run_async, AsyncConfig};
/// use doall_sim::NoFailures;
///
/// let report = run_async(AsyncReplicate::processes(10, 4)?, NoFailures, AsyncConfig::new(10, 0))?;
/// assert_eq!(report.metrics.work_total, 40); // t * n
/// assert_eq!(report.metrics.messages, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct AsyncReplicate {
    n: u64,
    next: u64,
}

impl AsyncReplicate {
    /// Creates the `t` processes for `n` units.
    ///
    /// # Errors
    ///
    /// Rejects empty systems and empty workloads.
    pub fn processes(n: u64, t: u64) -> Result<Vec<AsyncReplicate>, ConfigError> {
        if t == 0 {
            return Err(ConfigError::NoProcesses);
        }
        if n == 0 {
            return Err(ConfigError::NoWork);
        }
        Ok((0..t).map(|_| AsyncReplicate { n, next: 1 }).collect())
    }

    fn step(&mut self, eff: &mut AsyncEffects<NoMsg>) {
        eff.perform(Unit::new(self.next as usize));
        if self.next == self.n {
            eff.terminate();
        } else {
            self.next += 1;
            eff.continue_later();
        }
    }
}

impl AsyncProtocol for AsyncReplicate {
    type Msg = NoMsg;

    fn on_start(&mut self, eff: &mut AsyncEffects<NoMsg>) {
        self.step(eff);
    }

    fn on_messages(&mut self, _inbox: Inbox<'_, NoMsg>, _eff: &mut AsyncEffects<NoMsg>) {
        unreachable!("NoMsg is uninhabited: nothing can ever be sent");
    }

    fn on_retirement(&mut self, _retired: Pid, _eff: &mut AsyncEffects<NoMsg>) {}

    fn on_tick(&mut self, eff: &mut AsyncEffects<NoMsg>) {
        self.step(eff);
    }
}

#[cfg(test)]
mod tests {
    use doall_sim::asynch::{run_async, AsyncConfig};
    use doall_sim::{CrashSpec, FaultPlan, NoFailures, Trigger};

    use super::*;

    #[test]
    fn failure_free_costs_t_times_n() {
        let report =
            run_async(AsyncReplicate::processes(5, 4).unwrap(), NoFailures, AsyncConfig::new(5, 3))
                .unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, 20);
        assert_eq!(report.metrics.messages, 0);
        assert_eq!(report.survivor_count(), 4);
    }

    #[test]
    fn tolerates_crashes_with_one_survivor() {
        // p0 dies on its 1st event (0 units counted), p1 on its 3rd
        // (2 units counted: the crashing invocation's unit is suppressed).
        let adv = FaultPlan::default()
            .crash_on(Trigger::NthInvocationOf { pid: Pid::new(0), nth: 1 }, CrashSpec::silent())
            .crash_on(Trigger::NthInvocationOf { pid: Pid::new(1), nth: 3 }, CrashSpec::silent());
        // Fixed late notices keep the invocation numbering purely
        // start+ticks (a notice handler is an invocation too and would
        // otherwise shift which tick the crash lands on).
        let cfg = AsyncConfig::new(6, 1).with_delay(doall_sim::asynch::DelayDist::Fixed, 8);
        let report = run_async(AsyncReplicate::processes(6, 3).unwrap(), adv, cfg).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, 2 + 6);
        assert_eq!(report.metrics.crashes, 2);
    }

    #[test]
    fn rejects_empty_configs() {
        assert!(AsyncReplicate::processes(0, 3).is_err());
        assert!(AsyncReplicate::processes(3, 0).is_err());
    }
}
