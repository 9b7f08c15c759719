//! Named failure scenarios: the crash schedules the paper's proofs and
//! examples revolve around, packaged for reuse by tests, examples and the
//! experiment harness.
//!
//! Since PR 10 there is **one** scenario vocabulary for both planes: every
//! [`Scenario`] lowers to a synchronous adversary via
//! [`Scenario::adversary`] *and* to an asynchronous one via
//! [`Scenario::async_adversary`].

use doall_sim::asynch::{
    AsyncAdversary, AsyncCrashSchedule, AsyncRandomCrashes, AsyncTrigger, AsyncTriggerAdversary,
    AsyncTriggerRule,
};
use doall_sim::chaos::{ChaosCase, ChaosConfig};
use doall_sim::{
    Adversary, CrashSchedule, CrashSpec, Deliver, FaultKind, FaultPlan, NoFailures, Pid,
    RandomCrashes, Round, Trigger, TriggerAdversary, TriggerRule,
};

/// A named, parameterized failure scenario, usable on **either plane**.
///
/// Each variant builds a fresh adversary via [`Scenario::adversary`]
/// (synchronous rounds) or [`Scenario::async_adversary`] (event-driven
/// timestamps); the same scenario value can drive any protocol
/// (adversaries are generic in the message type).
///
/// Round-indexed parameters are interpreted on the asynchronous plane as
/// virtual **timestamps** (crash injections, omission windows) or
/// **handler-invocation ordinals** (slowdown windows) — the same reading
/// [`FaultPlan`] itself uses on that plane. Behaviour-triggered scenarios
/// ([`TakeoverCascade`](Scenario::TakeoverCascade),
/// [`KillNthActivation`](Scenario::KillNthActivation)) carry over exactly.
///
/// # Examples
///
/// ```
/// use doall_workload::Scenario;
/// use doall_core::ProtocolB;
/// use doall_sim::{run, RunConfig};
///
/// let scenario = Scenario::TakeoverCascade { victims: 15 };
/// let report = run(
///     ProtocolB::processes(32, 16)?,
///     scenario.adversary::<doall_core::ab::AbMsg>(),
///     RunConfig::new(32, 100_000),
/// )?;
/// assert!(report.metrics.all_work_done());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Scenario {
    /// No process ever fails.
    FailureFree,
    /// Processes `0..k` crash silently in round 1 (dead on arrival). On
    /// the asynchronous plane they crash on their first handler
    /// invocation (their start signal).
    DeadOnArrival {
        /// Number of initial victims.
        k: u64,
    },
    /// Every process among the first `victims` crashes immediately after
    /// performing its first unit of work, unreported — the scenario behind
    /// the `n + t − 1` work lower bound. Behaviour-triggered, so it means
    /// the same thing on both planes.
    TakeoverCascade {
        /// Number of cascade victims (use `t − 1` to spare one survivor).
        victims: u64,
    },
    /// Each of the first `victims` processes dies on its `nth` *sending*
    /// round, delivering only a length-`prefix` prefix of that broadcast —
    /// the mid-checkpoint splits of §2's analysis. Asynchronous handlers
    /// have no sending rounds, so there the crash strikes the victim's
    /// `nth` handler invocation instead (same prefix semantics).
    CheckpointSplit {
        /// Number of victims.
        victims: u64,
        /// Which sending round (sync) / handler invocation (async) kills
        /// each victim (1-based).
        nth_send: u64,
        /// How many messages of the final broadcast escape.
        prefix: usize,
    },
    /// The §3 strawman cascade: process 0 dies after performing `t − 1`
    /// units; the top half of the processes dies; each successive
    /// most-knowledgeable survivor redoes the suffix and dies too. The
    /// asynchronous lowering keeps the work-triggered rules and kills the
    /// top half on their start signal (asynchronous time has no round
    /// `2t` to anchor the mid-run extinction to).
    Strawman {
        /// System size `t` (used to derive the victim set).
        t: u64,
    },
    /// Seeded random crashes with budget `max_crashes`. Per-round
    /// per-process probability on the synchronous plane, per-handler-
    /// invocation probability on the asynchronous one.
    Random {
        /// RNG seed (runs are reproducible).
        seed: u64,
        /// Per-round (sync) / per-invocation (async) crash probability.
        p: f64,
        /// Total crash budget (use `t − 1` for a guaranteed survivor).
        max_crashes: u32,
    },
    /// Kills the `nth` process ever to emit the `"activate"` note, right
    /// on its activation with nothing delivered — the takeover-cascade
    /// driver in note-speak, identical on both planes (the sync lowering
    /// rides [`Trigger::NthNote`], the async one
    /// [`AsyncTrigger::NthNote`]).
    KillNthActivation {
        /// Which activation to strike (1-based).
        nth: u64,
    },
    /// Crash `k` processes (pids `from..from+k`) at the given round — the
    /// mass-extinction trigger for Protocol D's fallback. Asynchronously,
    /// `round` is the injection timestamp.
    MassExtinction {
        /// First victim pid.
        from: u64,
        /// Number of victims.
        k: u64,
        /// Round (sync) / timestamp (async) at which they all die.
        round: u64,
    },
    /// The wide-clock *deep idle* scenario: every passive process (pids
    /// `1..=k`) crashes silently at one far-future instant, astronomically
    /// beyond the active process's completion round. Between completion
    /// and the extinction the system is perfectly silent, so the engine
    /// must cross the whole stretch in a single sparse fast-forward jump —
    /// with instants beyond 2⁶⁴ only representable on the 128-bit clock.
    /// Already-retired victims are ignored, so the scenario composes with
    /// protocols that terminate some of the passive processes early.
    DeepIdle {
        /// Number of victims (pids `1..=k`).
        k: u64,
        /// The extinction instant (typically `Round::new(1 << 100)`).
        round: Round,
    },
    /// Beyond fail-stop: `pid` crashes silently at `round` and restarts
    /// `downtime` rounds later — wiped to its initial state or stale —
    /// then must rejoin without violating task-completion safety.
    CrashRecovery {
        /// The victim.
        pid: u64,
        /// The crash round (sync) / timestamp (async).
        round: u64,
        /// Rounds / time units of downtime before the restart.
        downtime: u64,
        /// Whether the restart loses all protocol state.
        wipe: bool,
    },
    /// Beyond fail-stop: `pid` runs at `1/factor` speed for `rounds`
    /// rounds starting at `from` (handler-invocation ordinals on the
    /// asynchronous plane). Wrapper-enforced — callers must also wrap the
    /// processes with [`Scenario::fault_plan`]'s [`FaultPlan::wrap`] /
    /// [`FaultPlan::wrap_async`]; the adversary half of the plan is a
    /// no-op for this kind.
    Slowdown {
        /// The degraded process.
        pid: u64,
        /// First round (sync) / invocation ordinal (async) of the window.
        from: u64,
        /// Slow-down factor (`4` = quarter speed).
        factor: u64,
        /// Length of the window in rounds / invocations.
        rounds: u64,
    },
    /// Beyond fail-stop: messages sent by (`send = true`) or addressed to
    /// (`send = false`) `pid` are silently dropped for `rounds` rounds
    /// (time units) starting at `from`; the process itself keeps running.
    Omission {
        /// The afflicted process.
        pid: u64,
        /// Send-side (`true`) or receive-side (`false`) omission.
        send: bool,
        /// First round (sync) / timestamp (async) of the omission window.
        from: u64,
        /// Length of the window in rounds / time units.
        rounds: u64,
    },
    /// A seeded random chaos storm from the
    /// [`chaos`](doall_sim::chaos) generator: crashes, recoveries,
    /// slowdowns and omissions composed under budget constraints (never
    /// all `t` processes permanently crashed, windows bounded, at most
    /// one crash-kind fault per process). If the generated plan contains
    /// [`Slow`](FaultKind::Slow) faults, callers must also wrap the
    /// processes with [`FaultPlan::wrap`] / [`FaultPlan::wrap_async`] on
    /// this plan.
    Chaos {
        /// The generator seed (runs are reproducible).
        seed: u64,
        /// System size the storm is budgeted for.
        t: u64,
        /// Workload size.
        n: u64,
    },
}

impl Scenario {
    /// Builds the **synchronous** adversary for this scenario.
    pub fn adversary<M>(&self) -> Box<dyn Adversary<M>>
    where
        M: 'static,
    {
        match *self {
            Scenario::FailureFree => Box::new(NoFailures),
            Scenario::DeadOnArrival { k } => {
                let mut s = CrashSchedule::new();
                for j in 0..k {
                    s = s.crash_at(Pid::new(j as usize), 1, CrashSpec::silent());
                }
                Box::new(s)
            }
            Scenario::TakeoverCascade { victims } => {
                let rules = (0..victims)
                    .map(|j| TriggerRule {
                        trigger: Trigger::NthWorkBy { pid: Pid::new(j as usize), nth: 1 },
                        target: None,
                        spec: CrashSpec { deliver: Deliver::None, count_work: true },
                    })
                    .collect();
                Box::new(TriggerAdversary::new(rules))
            }
            Scenario::CheckpointSplit { victims, nth_send, prefix } => {
                let rules = (0..victims)
                    .map(|j| TriggerRule {
                        trigger: Trigger::NthSendRoundBy {
                            pid: Pid::new(j as usize),
                            nth: nth_send,
                        },
                        target: None,
                        spec: CrashSpec { deliver: Deliver::Prefix(prefix), count_work: true },
                    })
                    .collect();
                Box::new(TriggerAdversary::new(rules))
            }
            Scenario::Strawman { t } => {
                let mut rules = vec![TriggerRule {
                    trigger: Trigger::NthWorkBy {
                        pid: Pid::new(0),
                        nth: t.saturating_sub(1).max(1),
                    },
                    target: None,
                    spec: CrashSpec { deliver: Deliver::All, count_work: true },
                }];
                for j in t / 2 + 1..t {
                    rules.push(TriggerRule {
                        trigger: Trigger::AtRound(Round::from(2 * t)),
                        target: Some(Pid::new(j as usize)),
                        spec: CrashSpec::silent(),
                    });
                }
                for j in (2..=t / 2).rev() {
                    let redo = t.saturating_sub(1 + j);
                    if redo == 0 {
                        continue;
                    }
                    rules.push(TriggerRule {
                        trigger: Trigger::NthWorkBy { pid: Pid::new(j as usize), nth: redo },
                        target: None,
                        spec: CrashSpec { deliver: Deliver::None, count_work: true },
                    });
                }
                Box::new(TriggerAdversary::new(rules))
            }
            Scenario::Random { seed, p, max_crashes } => {
                Box::new(RandomCrashes::new(seed, p, max_crashes))
            }
            Scenario::KillNthActivation { nth } => {
                Box::new(TriggerAdversary::new(vec![TriggerRule {
                    trigger: Trigger::NthNote { tag: "activate", nth },
                    target: None,
                    spec: CrashSpec { deliver: Deliver::None, count_work: true },
                }]))
            }
            Scenario::MassExtinction { from, k, round } => {
                let mut s = CrashSchedule::new();
                for j in from..from + k {
                    s = s.crash_at(Pid::new(j as usize), round, CrashSpec::silent());
                }
                Box::new(s)
            }
            Scenario::DeepIdle { k, round } => {
                let mut s = CrashSchedule::new();
                for j in 1..=k {
                    s = s.crash_at(Pid::new(j as usize), round, CrashSpec::silent());
                }
                Box::new(s)
            }
            Scenario::CrashRecovery { .. }
            | Scenario::Slowdown { .. }
            | Scenario::Omission { .. }
            | Scenario::Chaos { .. } => Box::new(self.fault_plan()),
        }
    }

    /// Builds the **asynchronous** adversary for this scenario.
    ///
    /// Every variant lowers: behaviour-triggered scenarios carry over
    /// exactly; round-indexed ones read their rounds as timestamps (or,
    /// for [`Slowdown`](Scenario::Slowdown), invocation ordinals); the
    /// [`Strawman`](Scenario::Strawman) and
    /// [`CheckpointSplit`](Scenario::CheckpointSplit) interpretations are
    /// documented on the variants.
    pub fn async_adversary<M>(&self) -> Box<dyn AsyncAdversary<M>>
    where
        M: 'static,
    {
        match *self {
            Scenario::FailureFree => Box::new(NoFailures),
            Scenario::DeadOnArrival { k } => {
                let mut s = AsyncCrashSchedule::new();
                for j in 0..k {
                    s = s.crash_at(Pid::new(j as usize), 1, CrashSpec::silent());
                }
                Box::new(s)
            }
            Scenario::TakeoverCascade { victims } => {
                let rules = (0..victims)
                    .map(|j| AsyncTriggerRule {
                        trigger: AsyncTrigger::NthWorkBy { pid: Pid::new(j as usize), nth: 1 },
                        spec: CrashSpec { deliver: Deliver::None, count_work: true },
                    })
                    .collect();
                Box::new(AsyncTriggerAdversary::new(rules))
            }
            Scenario::CheckpointSplit { victims, nth_send, prefix } => {
                let rules = (0..victims)
                    .map(|j| AsyncTriggerRule {
                        trigger: AsyncTrigger::NthInvocationOf {
                            pid: Pid::new(j as usize),
                            nth: nth_send,
                        },
                        spec: CrashSpec { deliver: Deliver::Prefix(prefix), count_work: true },
                    })
                    .collect();
                Box::new(AsyncTriggerAdversary::new(rules))
            }
            Scenario::Strawman { t } => {
                let mut rules = vec![AsyncTriggerRule {
                    trigger: AsyncTrigger::NthWorkBy {
                        pid: Pid::new(0),
                        nth: t.saturating_sub(1).max(1),
                    },
                    spec: CrashSpec { deliver: Deliver::All, count_work: true },
                }];
                for j in t / 2 + 1..t {
                    rules.push(AsyncTriggerRule {
                        trigger: AsyncTrigger::NthInvocationOf {
                            pid: Pid::new(j as usize),
                            nth: 1,
                        },
                        spec: CrashSpec::silent(),
                    });
                }
                for j in (2..=t / 2).rev() {
                    let redo = t.saturating_sub(1 + j);
                    if redo == 0 {
                        continue;
                    }
                    rules.push(AsyncTriggerRule {
                        trigger: AsyncTrigger::NthWorkBy { pid: Pid::new(j as usize), nth: redo },
                        spec: CrashSpec { deliver: Deliver::None, count_work: true },
                    });
                }
                Box::new(AsyncTriggerAdversary::new(rules))
            }
            Scenario::Random { seed, p, max_crashes } => {
                Box::new(AsyncRandomCrashes::new(seed, p, max_crashes))
            }
            Scenario::KillNthActivation { nth } => {
                Box::new(AsyncTriggerAdversary::new(vec![AsyncTriggerRule {
                    trigger: AsyncTrigger::NthNote { tag: "activate", nth },
                    spec: CrashSpec { deliver: Deliver::None, count_work: true },
                }]))
            }
            Scenario::MassExtinction { from, k, round } => {
                let faults =
                    (from..from + k).map(|j| FaultKind::Crash(Pid::new(j as usize)).at(round));
                Box::new(FaultPlan::new(faults))
            }
            Scenario::DeepIdle { k, round } => {
                let faults = (1..=k).map(|j| FaultKind::Crash(Pid::new(j as usize)).at(round));
                Box::new(FaultPlan::new(faults))
            }
            Scenario::CrashRecovery { .. }
            | Scenario::Slowdown { .. }
            | Scenario::Omission { .. }
            | Scenario::Chaos { .. } => Box::new(self.fault_plan()),
        }
    }

    /// The catalog [`FaultPlan`] behind this scenario — empty for the
    /// fail-stop scenarios. For [`Slowdown`](Scenario::Slowdown) the plan
    /// must *also* wrap the processes ([`FaultPlan::wrap`] /
    /// [`FaultPlan::wrap_async`]); for the other fault scenarios the plan
    /// doubles as the adversary that [`Scenario::adversary`] and
    /// [`Scenario::async_adversary`] already return.
    pub fn fault_plan(&self) -> FaultPlan {
        match *self {
            Scenario::CrashRecovery { pid, round, downtime, wipe } => {
                FaultPlan::new([FaultKind::CrashRecover {
                    pid: Pid::new(pid as usize),
                    downtime,
                    wipe,
                }
                .at(round)])
            }
            Scenario::Slowdown { pid, from, factor, rounds } => {
                FaultPlan::new([FaultKind::Slow { pid: Pid::new(pid as usize), factor }
                    .at(from)
                    .for_rounds(rounds)])
            }
            Scenario::Omission { pid, send, from, rounds } => {
                let p = Pid::new(pid as usize);
                let kind = if send { FaultKind::OmitSends(p) } else { FaultKind::OmitRecv(p) };
                FaultPlan::new([kind.at(from).for_rounds(rounds)])
            }
            Scenario::Chaos { seed, t, n } => {
                ChaosCase::generate(seed, &ChaosConfig::new(t as usize, n as usize)).plan()
            }
            _ => FaultPlan::default(),
        }
    }

    /// A short, stable label for tables and logs.
    pub fn label(&self) -> String {
        match self {
            Scenario::FailureFree => "failure-free".into(),
            Scenario::DeadOnArrival { k } => format!("dead-on-arrival({k})"),
            Scenario::TakeoverCascade { victims } => format!("takeover-cascade({victims})"),
            Scenario::CheckpointSplit { victims, nth_send, prefix } => {
                format!("checkpoint-split({victims},{nth_send},{prefix})")
            }
            Scenario::Strawman { t } => format!("strawman({t})"),
            Scenario::Random { seed, p, max_crashes } => {
                format!("random(seed={seed},p={p},f<={max_crashes})")
            }
            Scenario::KillNthActivation { nth } => format!("kill-activation({nth})"),
            Scenario::MassExtinction { from, k, round } => {
                format!("mass-extinction({from}..{},r={round})", from + k)
            }
            Scenario::DeepIdle { k, round } => {
                let r = round.get();
                if r.is_power_of_two() {
                    format!("deep-idle({k},r=2^{})", r.trailing_zeros())
                } else {
                    format!("deep-idle({k},r={round})")
                }
            }
            Scenario::CrashRecovery { pid, round, downtime, wipe } => {
                let mode = if *wipe { "wipe" } else { "stale" };
                format!("crash-recovery({pid},r={round},down={downtime},{mode})")
            }
            Scenario::Slowdown { pid, from, factor, rounds } => {
                format!("slowdown({pid},x{factor},r={from}+{rounds})")
            }
            Scenario::Omission { pid, send, from, rounds } => {
                let side = if *send { "send" } else { "recv" };
                format!("omit-{side}({pid},r={from}+{rounds})")
            }
            Scenario::Chaos { seed, t, n } => format!("chaos(seed={seed},t={t},n={n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Scenario::FailureFree.label(), "failure-free");
        assert_eq!(Scenario::DeadOnArrival { k: 3 }.label(), "dead-on-arrival(3)");
        assert_eq!(Scenario::KillNthActivation { nth: 2 }.label(), "kill-activation(2)");
        assert_eq!(
            Scenario::MassExtinction { from: 2, k: 6, round: 2 }.label(),
            "mass-extinction(2..8,r=2)"
        );
        assert_eq!(
            Scenario::DeepIdle { k: 255, round: Round::new(1 << 100) }.label(),
            "deep-idle(255,r=2^100)"
        );
        assert_eq!(Scenario::DeepIdle { k: 3, round: Round::new(12) }.label(), "deep-idle(3,r=12)");
        assert_eq!(
            Scenario::CrashRecovery { pid: 0, round: 4, downtime: 6, wipe: false }.label(),
            "crash-recovery(0,r=4,down=6,stale)"
        );
        assert_eq!(
            Scenario::Slowdown { pid: 1, from: 2, factor: 4, rounds: 12 }.label(),
            "slowdown(1,x4,r=2+12)"
        );
        assert_eq!(
            Scenario::Omission { pid: 3, send: true, from: 1, rounds: 9 }.label(),
            "omit-send(3,r=1+9)"
        );
        assert_eq!(
            Scenario::Chaos { seed: 11, t: 16, n: 256 }.label(),
            "chaos(seed=11,t=16,n=256)"
        );
    }

    #[test]
    fn chaos_scenarios_generate_nonempty_deterministic_plans() {
        let s = Scenario::Chaos { seed: 3, t: 8, n: 64 };
        assert!(!s.fault_plan().is_empty());
        assert_eq!(s.fault_plan().len(), s.fault_plan().len());
    }

    #[test]
    fn fault_plans_match_their_scenarios() {
        assert!(Scenario::FailureFree.fault_plan().is_empty());
        assert!(Scenario::Random { seed: 1, p: 0.1, max_crashes: 3 }.fault_plan().is_empty());
        let plan = Scenario::Slowdown { pid: 1, from: 2, factor: 4, rounds: 12 }.fault_plan();
        assert_eq!(plan.len(), 1);
        let plan =
            Scenario::CrashRecovery { pid: 0, round: 9, downtime: 40, wipe: true }.fault_plan();
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn adversaries_build_for_any_message_type_on_both_planes() {
        for s in [
            Scenario::FailureFree,
            Scenario::DeadOnArrival { k: 2 },
            Scenario::TakeoverCascade { victims: 3 },
            Scenario::CheckpointSplit { victims: 2, nth_send: 1, prefix: 1 },
            Scenario::Strawman { t: 8 },
            Scenario::Random { seed: 1, p: 0.1, max_crashes: 3 },
            Scenario::KillNthActivation { nth: 1 },
            Scenario::MassExtinction { from: 0, k: 2, round: 5 },
            Scenario::DeepIdle { k: 2, round: Round::new(1 << 100) },
            Scenario::CrashRecovery { pid: 0, round: 4, downtime: 6, wipe: true },
            Scenario::Slowdown { pid: 1, from: 2, factor: 4, rounds: 12 },
            Scenario::Omission { pid: 3, send: false, from: 1, rounds: 9 },
            Scenario::Chaos { seed: 5, t: 8, n: 64 },
        ] {
            let _a = s.adversary::<u32>();
            let _b = s.adversary::<String>();
            let _c = s.async_adversary::<u32>();
            let _d = s.async_adversary::<String>();
        }
    }
}
