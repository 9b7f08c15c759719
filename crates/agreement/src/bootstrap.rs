//! Work that is *not* initially common knowledge (§1 of the paper).
//!
//! > "If even one process knows about this work, then it can act as a
//! > general, run Byzantine agreement on the pool of work using one of the
//! > three algorithms, and then the actual work is performed by running
//! > the same algorithm a second time on the real work. If `n` … is
//! > `Ω(t)`, the overall cost at most doubles."
//!
//! This module composes the two runs: a [`BaSystem`] round on the workload
//! descriptor (the agreed value *is* the pool size), followed by a Do-All
//! run of Protocol B on the agreed units. Processes that crashed during
//! the agreement stay crashed for the work phase.

use doall_core::ProtocolB;
use doall_sim::{
    run, Adversary, CrashSpec, FaultPlan, Metrics, NoFailures, Pid, RunConfig, RunError,
};

use crate::ba::{BaMsg, BaSystem, Engine, Value};

/// The combined result of the agreement + work runs.
#[derive(Clone, Debug)]
pub struct BootstrapOutcome {
    /// The pool size every process agreed on.
    pub agreed_pool: Value,
    /// Metrics of the agreement run.
    pub agreement: Metrics,
    /// Metrics of the work run.
    pub work: Metrics,
}

impl BootstrapOutcome {
    /// Total effort across both runs (work + messages).
    pub fn total_effort(&self) -> u64 {
        self.agreement.effort() + self.work.effort()
    }
}

/// Errors from the bootstrap composition.
#[derive(Debug)]
pub enum BootstrapError {
    /// A sub-run failed (engine error).
    Run(RunError),
    /// Bad configuration for the agreement or work protocol.
    Config(doall_core::ConfigError),
    /// The agreement run left the survivors without a pool value (cannot
    /// happen with at most `t − 1` crashes).
    NoAgreement,
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::Run(e) => write!(f, "sub-run failed: {e}"),
            BootstrapError::Config(e) => write!(f, "bad configuration: {e}"),
            BootstrapError::NoAgreement => write!(f, "no surviving process decided a pool"),
        }
    }
}

impl std::error::Error for BootstrapError {}

impl From<RunError> for BootstrapError {
    fn from(e: RunError) -> Self {
        BootstrapError::Run(e)
    }
}

impl From<doall_core::ConfigError> for BootstrapError {
    fn from(e: doall_core::ConfigError) -> Self {
        BootstrapError::Config(e)
    }
}

/// Runs the §1 bootstrap: process 0 alone knows that `n` units of work
/// exist; the `t` processes agree on the pool via Byzantine agreement
/// (engine B, all processes acting as senders, tolerating `t − 1`
/// failures), then perform the agreed units with Protocol B.
///
/// `ba_adversary` drives crashes during the agreement; its victims stay
/// crashed for the work run (plus any extra crashes from
/// `extra_work_crashes`, scheduled on work-run rounds).
///
/// # Errors
///
/// `t` must be a perfect square with `t | n`, `n >= t` (Protocol B's
/// shape, used for both runs).
///
/// # Examples
///
/// ```
/// use doall_agreement::bootstrap::run_bootstrap;
/// use doall_sim::NoFailures;
///
/// let outcome = run_bootstrap(64, 16, NoFailures, &[])?;
/// assert_eq!(outcome.agreed_pool, 64);
/// assert!(outcome.work.all_work_done());
/// # Ok::<(), doall_agreement::bootstrap::BootstrapError>(())
/// ```
pub fn run_bootstrap<A: Adversary<BaMsg>>(
    n: u64,
    t: u64,
    ba_adversary: A,
    extra_work_crashes: &[(Pid, u64)],
) -> Result<BootstrapOutcome, BootstrapError> {
    // Stage 1: agree on the pool. All t processes participate; t - 1 may
    // fail; the "value" is the number of units. Engine B needs the sender
    // count (t_failures + 1 = t) to be a perfect square — same shape as
    // the work run below.
    let ba = BaSystem::new(t, t - 1, Engine::B)?.general_value(n);
    let outcome = ba.run(ba_adversary)?;
    let agreed_pool =
        outcome.decisions.iter().flatten().next().copied().ok_or(BootstrapError::NoAgreement)?;
    debug_assert!(outcome.agreement(), "BA broke agreement");

    // Stage 2: the survivors perform the agreed pool with Protocol B.
    // Casualties of stage 1 are dead on arrival here.
    let mut schedule = FaultPlan::default();
    for (pid, decided) in outcome.decisions.iter().enumerate() {
        if decided.is_none() {
            schedule = schedule.crash_at(Pid::new(pid), 1, CrashSpec::silent());
        }
    }
    for &(pid, round) in extra_work_crashes {
        schedule = schedule.crash_at(pid, round, CrashSpec::silent());
    }
    let report = run(
        ProtocolB::processes(agreed_pool, t)?,
        schedule,
        RunConfig::new(agreed_pool as usize, 10_000_000),
    )?;

    Ok(BootstrapOutcome { agreed_pool, agreement: outcome.metrics, work: report.metrics })
}

/// Effort of the direct (common-knowledge) solution, for the "at most
/// doubles" comparison.
///
/// # Errors
///
/// Same shape requirements as [`run_bootstrap`].
pub fn direct_effort(n: u64, t: u64) -> Result<u64, BootstrapError> {
    let report =
        run(ProtocolB::processes(n, t)?, NoFailures, RunConfig::new(n as usize, 10_000_000))?;
    Ok(report.metrics.effort())
}

#[cfg(test)]
mod tests {
    use doall_sim::{CrashSpec, FaultPlan, NoFailures, Pid};

    use super::*;

    #[test]
    fn bootstrap_reaches_and_performs_the_pool() {
        let outcome = run_bootstrap(64, 16, NoFailures, &[]).unwrap();
        assert_eq!(outcome.agreed_pool, 64);
        assert!(outcome.work.all_work_done());
        assert_eq!(outcome.work.work_total, 64);
    }

    #[test]
    fn cost_at_most_doubles_for_n_omega_t() {
        // §1: "the overall cost at most doubles when the work is not
        // initially common knowledge" (for n = Ω(t); failure-free).
        let (n, t) = (256u64, 16u64);
        let outcome = run_bootstrap(n, t, NoFailures, &[]).unwrap();
        let direct = direct_effort(n, t).unwrap();
        assert!(
            outcome.total_effort() <= 2 * direct,
            "bootstrap effort {} must be at most twice the direct effort {direct}",
            outcome.total_effort()
        );
    }

    #[test]
    fn crashes_during_agreement_carry_into_the_work_run() {
        // p1 and p2 die during the agreement; the work run must cope with
        // them dead on arrival and still finish everything.
        let adv = FaultPlan::default().crash_at(Pid::new(1), 2, CrashSpec::silent()).crash_at(
            Pid::new(2),
            3,
            CrashSpec::silent(),
        );
        let outcome = run_bootstrap(32, 16, adv, &[]).unwrap();
        assert_eq!(outcome.agreed_pool, 32);
        assert!(outcome.work.all_work_done());
    }

    #[test]
    fn extra_work_phase_crashes_are_tolerated() {
        let outcome =
            run_bootstrap(32, 16, NoFailures, &[(Pid::new(0), 3), (Pid::new(3), 9)]).unwrap();
        assert!(outcome.work.all_work_done());
        assert!(outcome.work.crashes >= 1);
    }

    #[test]
    fn rejects_non_square_t() {
        assert!(matches!(run_bootstrap(30, 15, NoFailures, &[]), Err(BootstrapError::Config(_))));
    }
}
