//! The naive flooding Byzantine-agreement baseline.
//!
//! The textbook crash-model algorithm §5 improves on: the general
//! broadcasts its value to everyone; then, for `t + 1` rounds, every
//! process broadcasts its current value to every other process; decide at
//! the end. Tolerates `t` crashes but costs `Θ(n²t)` messages.

use doall_sim::{
    run_returning, Adversary, Classify, Effects, Inbox, Metrics, Protocol, Round, RunConfig,
    RunError,
};

use crate::ba::Value;

/// Flooding messages: just the sender's current value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Echo {
    /// The sender's current value for the general.
    pub v: Value,
}

impl Classify for Echo {
    fn class(&self) -> &'static str {
        "echo"
    }
}

/// One process of the flooding baseline.
///
/// # Examples
///
/// ```
/// use doall_agreement::FloodingBa;
/// use doall_sim::NoFailures;
///
/// let (decisions, metrics) = FloodingBa::run_system(8, 2, 5, NoFailures)?;
/// assert!(decisions.iter().all(|d| *d == Some(5)));
/// // Θ(n²t) messages: the cost §5's reduction avoids.
/// assert!(metrics.messages > 8 * 7 * 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct FloodingBa {
    me: u64,
    n: u64,
    /// `None` until informed; the first value received wins (the classic
    /// crash-model rule — in the crash model only the general's value ever
    /// circulates, so first-wins is unambiguous).
    value: Option<Value>,
    decide_at: Round,
    decision: Option<Value>,
}

impl FloodingBa {
    /// Creates the `n` processes with the given failure bound `t` and
    /// general's value.
    pub fn processes(n: u64, t: u64, general_value: Value) -> Vec<FloodingBa> {
        (0..n)
            .map(|me| FloodingBa {
                me,
                n,
                value: if me == 0 { Some(general_value) } else { None },
                decide_at: Round::from(t + 3),
                decision: None,
            })
            .collect()
    }

    /// Runs the flooding system and returns per-process decisions plus
    /// metrics.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (cannot happen for valid configurations).
    pub fn run_system<A: Adversary<Echo>>(
        n: u64,
        t: u64,
        general_value: Value,
        adversary: A,
    ) -> Result<(Vec<Option<Value>>, Metrics), RunError> {
        let cfg = RunConfig { n: 0, max_rounds: Round::from(t + 10), ..RunConfig::default() };
        let (report, procs) = run_returning(Self::processes(n, t, general_value), adversary, cfg)?;
        Ok((procs.iter().map(|p| p.decision).collect(), report.metrics))
    }

    /// Everyone but `self.me`, as at most two O(1) spans.
    fn echo_others(&self, v: Value, eff: &mut Effects<Echo>) {
        eff.multicast_except(0..self.n as usize, self.me as usize, Echo { v });
    }
}

impl Protocol for FloodingBa {
    type Msg = Echo;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Echo>, eff: &mut Effects<Echo>) {
        for (_, msg) in inbox.iter() {
            // First value wins; uninformed processes stay silent below, so
            // only the general's value ever circulates.
            if self.value.is_none() {
                self.value = Some(msg.v);
            }
        }
        if round >= self.decide_at {
            self.decision = Some(self.value.unwrap_or_default());
            eff.terminate();
            return;
        }
        match self.value {
            // Stage 1 is the general's broadcast; rounds 2..=t+2 are the
            // t + 1 echo rounds of every *informed* process.
            Some(v) if round == Round::ONE && self.me == 0 => {
                self.echo_others(v, eff);
            }
            Some(v) if round >= 2u64 => {
                self.echo_others(v, eff);
            }
            _ => {}
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.decision.is_some() {
            None
        } else {
            Some(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use doall_bounds::theorems;
    use doall_sim::{CrashSpec, FaultPlan, NoFailures, Pid};

    use super::*;

    #[test]
    fn failure_free_flooding_agrees_on_generals_value() {
        let (decisions, metrics) = FloodingBa::run_system(10, 3, 7, NoFailures).unwrap();
        assert_eq!(decisions.len(), 10);
        assert!(decisions.iter().all(|d| *d == Some(7)));
        assert!(metrics.messages <= theorems::ba_flooding_messages(10, 3));
    }

    #[test]
    fn general_crash_mid_broadcast_still_agrees() {
        // The general reaches only p5; t echo rounds spread p5's adopted
        // value to everyone.
        let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::subset([Pid::new(5)]));
        let (decisions, _) = FloodingBa::run_system(10, 3, 9, adv).unwrap();
        let decided: Vec<Value> = decisions.iter().flatten().copied().collect();
        assert_eq!(decided.len(), 9);
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "agreement violated: {decisions:?}");
    }

    #[test]
    fn cascading_crashes_up_to_t_keep_agreement() {
        for seed_round in 1..4u64 {
            let adv = FaultPlan::default()
                .crash_at(Pid::new(1), seed_round, CrashSpec::prefix(2))
                .crash_at(Pid::new(2), seed_round + 1, CrashSpec::prefix(1))
                .crash_at(Pid::new(3), seed_round + 2, CrashSpec::prefix(3));
            let (decisions, _) = FloodingBa::run_system(10, 3, 4, adv).unwrap();
            let decided: Vec<Value> = decisions.iter().flatten().copied().collect();
            assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "agreement violated at {seed_round}: {decisions:?}"
            );
        }
    }

    #[test]
    fn message_cost_is_quadratic_in_n() {
        let (_, m_small) = FloodingBa::run_system(8, 2, 1, NoFailures).unwrap();
        let (_, m_big) = FloodingBa::run_system(16, 2, 1, NoFailures).unwrap();
        assert!(m_big.messages >= 3 * m_small.messages, "quadratic growth expected");
    }
}
