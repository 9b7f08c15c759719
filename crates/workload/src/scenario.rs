//! Named failure scenarios: the crash schedules the paper's proofs and
//! examples revolve around, packaged for reuse by tests, examples and the
//! experiment harness.
//!
//! There is **one** scenario vocabulary for both planes, and one lowering:
//! [`Scenario::fault_plan`] turns a scenario into the [`FaultPlan`] for a
//! given [`Plane`], and [`Scenario::adversary`] /
//! [`Scenario::async_adversary`] box that plan for the synchronous and the
//! asynchronous engine.

use doall_sim::asynch::AsyncAdversary;
use doall_sim::chaos::{ChaosCase, ChaosConfig, Plane};
use doall_sim::Trigger::{self, AtRound, NthInvocationOf, NthNote, NthSendRoundBy, NthWorkBy};
use doall_sim::{Adversary, CrashSpec, Deliver, FaultKind, FaultPlan, NoFailures, Pid, Round};

/// A named, parameterized failure scenario, usable on **either plane**.
///
/// Each variant builds a fresh [`FaultPlan`] via [`Scenario::fault_plan`],
/// boxed by [`Scenario::adversary`] (synchronous rounds) or
/// [`Scenario::async_adversary`] (event-driven timestamps); the same
/// scenario value can drive any protocol (a plan is an adversary for every
/// message type).
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
    /// on its activation with nothing delivered — the takeover cascade in
    /// note-speak, one [`Trigger::NthNote`] rule on both planes.
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
    /// asynchronous plane). Wrapper-enforced: see [`Scenario::fault_plan`].
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
    /// one crash-kind fault per process). Its
    /// [`Slow`](FaultKind::Slow) faults are wrapper-enforced: see
    /// [`Scenario::fault_plan`].
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
    /// The **synchronous** adversary: the scenario's
    /// [`fault_plan`](Scenario::fault_plan), or [`NoFailures`] for
    /// [`FailureFree`](Scenario::FailureFree), whose dense cells
    /// intercept every process every round.
    pub fn adversary<M: 'static>(&self) -> Box<dyn Adversary<M>> {
        match self {
            Scenario::FailureFree => Box::new(NoFailures),
            _ => Box::new(self.fault_plan(Plane::Sync)),
        }
    }

    /// The **asynchronous** peer of [`adversary`](Scenario::adversary).
    pub fn async_adversary<M: 'static>(&self) -> Box<dyn AsyncAdversary<M>> {
        match self {
            Scenario::FailureFree => Box::new(NoFailures),
            _ => Box::new(self.fault_plan(Plane::Async)),
        }
    }

    /// The [`FaultPlan`] this scenario lowers to on `plane`: the adversary,
    /// and for `Slow*` faults also the wrapper the processes need
    /// ([`FaultPlan::wrap`] / [`FaultPlan::wrap_async`]). On the
    /// asynchronous plane round parameters read as timestamps, slowdown
    /// windows as handler-invocation ordinals; behaviour-triggered rules
    /// carry over exactly, and the variants lowered differently say how.
    pub fn fault_plan(&self, plane: Plane) -> FaultPlan {
        let pid = |j: u64| Pid::new(j as usize);
        let unreported = CrashSpec { deliver: Deliver::None, count_work: true };
        // Dead on arrival: in round `round`, or on the start signal.
        let doa = |pid, round| match plane {
            Plane::Sync => AtRound { pid, round },
            Plane::Async => NthInvocationOf { pid, nth: 1 },
        };
        match *self {
            Scenario::FailureFree => FaultPlan::default(),
            Scenario::DeadOnArrival { k } => {
                each(0..k, |p| doa(p, Round::ONE), CrashSpec::silent())
            }
            Scenario::TakeoverCascade { victims } => {
                each(0..victims, |pid| NthWorkBy { pid, nth: 1 }, unreported)
            }
            Scenario::CheckpointSplit { victims, nth_send: nth, prefix } => {
                let cut = CrashSpec { deliver: Deliver::Prefix(prefix), count_work: true };
                match plane {
                    Plane::Sync => each(0..victims, |pid| NthSendRoundBy { pid, nth }, cut),
                    Plane::Async => each(0..victims, |pid| NthInvocationOf { pid, nth }, cut),
                }
            }
            Scenario::Strawman { t } => {
                let first = NthWorkBy { pid: pid(0), nth: t.saturating_sub(1).max(1) };
                let mut plan = FaultPlan::default().crash_on(first, CrashSpec::after_round());
                for j in t / 2 + 1..t {
                    plan = plan.crash_on(doa(pid(j), Round::from(2 * t)), CrashSpec::silent());
                }
                for j in (2..=t / 2).rev().filter(|&j| j + 1 < t) {
                    plan = plan
                        .crash_on(NthWorkBy { pid: pid(j), nth: t - 1 - j }, unreported.clone());
                }
                plan
            }
            Scenario::Random { seed, p, max_crashes } => FaultPlan::random(seed, p, max_crashes),
            Scenario::KillNthActivation { nth } => {
                FaultPlan::default().crash_on(NthNote { tag: "activate", nth }, unreported)
            }
            Scenario::MassExtinction { from, k, round } => {
                extinction(plane, from..from + k, Round::from(round))
            }
            Scenario::DeepIdle { k, round } => extinction(plane, 1..=k, round),
            Scenario::CrashRecovery { pid: p, round, downtime, wipe } => {
                FaultPlan::new([FaultKind::CrashRecover { pid: pid(p), downtime, wipe }.at(round)])
            }
            Scenario::Slowdown { pid: p, from, factor, rounds } => {
                FaultPlan::new([FaultKind::Slow { pid: pid(p), factor }
                    .at(from)
                    .for_rounds(rounds)])
            }
            Scenario::Omission { pid: p, send, from, rounds } => {
                let kind = if send { FaultKind::OmitSends } else { FaultKind::OmitRecv };
                FaultPlan::new([kind(pid(p)).at(from).for_rounds(rounds)])
            }
            Scenario::Chaos { seed, t, n } => {
                ChaosCase::generate(seed, &ChaosConfig::new(t as usize, n as usize)).plan()
            }
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

/// One crash rule per victim pid in `victims`, each with `spec`.
fn each(
    victims: impl Iterator<Item = u64>,
    rule: impl Fn(Pid) -> Trigger,
    spec: CrashSpec,
) -> FaultPlan {
    victims.fold(FaultPlan::default(), |plan, j| {
        plan.crash_on(rule(Pid::new(j as usize)), spec.clone())
    })
}

/// Every victim dies silently at `round`: in exactly that round on the
/// synchronous plane, at that timestamp on the asynchronous one.
fn extinction(plane: Plane, victims: impl Iterator<Item = u64>, round: Round) -> FaultPlan {
    match plane {
        Plane::Sync => each(victims, |pid| AtRound { pid, round }, CrashSpec::silent()),
        Plane::Async => {
            FaultPlan::new(victims.map(|j| FaultKind::Crash(Pid::new(j as usize)).at(round)))
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
        assert!(!s.fault_plan(Plane::Sync).is_empty());
        assert_eq!(s.fault_plan(Plane::Sync).faults(), s.fault_plan(Plane::Async).faults());
    }

    #[test]
    fn fault_plans_match_their_scenarios() {
        for plane in [Plane::Sync, Plane::Async] {
            assert!(Scenario::FailureFree.fault_plan(plane).is_empty());
            let plan = Scenario::Random { seed: 1, p: 0.1, max_crashes: 3 }.fault_plan(plane);
            assert_eq!(plan.len(), 1);
            assert!(plan.faults().is_empty());
            let plan = Scenario::Slowdown { pid: 1, from: 2, factor: 4, rounds: 12 };
            assert_eq!(plan.fault_plan(plane).len(), 1);
            let plan = Scenario::CrashRecovery { pid: 0, round: 9, downtime: 40, wipe: true };
            assert_eq!(plan.fault_plan(plane).len(), 1);
            assert_eq!(Scenario::DeadOnArrival { k: 3 }.fault_plan(plane).len(), 3);
            assert_eq!(Scenario::Strawman { t: 8 }.fault_plan(plane).len(), 1 + 3 + 3);
        }
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
            let _c = s.async_adversary::<u32>();
            // Every lowering is valid on its own plane for the t = 8 the
            // parameters above are sized for.
            assert_eq!(s.adversary::<String>().validate(8), Ok(()), "{}", s.label());
            assert_eq!(s.async_adversary::<String>().validate(8), Ok(()), "{}", s.label());
        }
    }
}
