//! Byzantine agreement from Do-All work protocols (§5 of the paper).
//!
//! The reduction: the *general* broadcasts its value to the `t + 1`
//! *senders* (processes `0..=t`); the senders then run one of the work
//! protocols where **unit `u` of work is "send the general's value to
//! process `u − 1`"**. Since at least one sender survives (at most `t`
//! failures), every process is eventually informed. Every process decides
//! its current value at a predetermined round by which the work protocol
//! has provably terminated.
//!
//! Two details the paper's correctness proof leans on:
//!
//! * with Protocols A and B the inter-sender checkpoint messages must
//!   **not** carry the value (a broadcast checkpoint could otherwise leak
//!   a value to a high-numbered process out of order);
//! * with Protocol C the checkpoint messages **must** carry it.
//!
//! Costs: via Protocol B, `O(n + t√t)` messages and `O(n)` rounds — a
//! constructive match for Bracha's nonconstructive bound; via Protocol C,
//! `O(n + t log t)` messages at exponential time.

use std::fmt;

use doall_bounds::theorems;
use doall_core::ab::AbMsg;
use doall_core::c::CMsg;
use doall_core::{ConfigError, ProtocolA, ProtocolB, ProtocolC};
use doall_sim::{
    run_returning, Adversary, Classify, Effects, Inbox, Metrics, Pid, Protocol, Recipients, Round,
    RunConfig, RunError, SendOp, Unit,
};

/// The agreement value (the paper's `V` is abstract; 64 bits cover the
/// experiments and keep messages `O(log n + log |V|)` as in §1.1).
pub type Value = u64;

/// Which work protocol the senders run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Protocol A: `O(n + t√t)` messages, `O(nt + t²)` worst-case rounds.
    A,
    /// Protocol B: `O(n + t√t)` messages, `O(n + t)` rounds.
    B,
    /// Protocol C: `O(n + t log t)` messages, exponential rounds.
    C,
}

/// Messages of the Byzantine-agreement reduction.
#[derive(Clone, Debug)]
pub enum BaMsg {
    /// Stage 1: the general distributing its value to the senders.
    GeneralsValue {
        /// The general's value.
        v: Value,
    },
    /// A unit of work being performed: "the general's value is `v`".
    Inform {
        /// The current value of the informing sender.
        v: Value,
    },
    /// Inter-sender traffic of Protocols A/B — deliberately value-free.
    Ab(AbMsg),
    /// Inter-sender traffic of Protocol C — deliberately value-carrying.
    C {
        /// The wrapped Protocol C message.
        inner: CMsg,
        /// The sender's current value, adopted by the receiving sender.
        v: Value,
    },
}

impl Classify for BaMsg {
    fn class(&self) -> &'static str {
        match self {
            BaMsg::GeneralsValue { .. } => "general",
            BaMsg::Inform { .. } => "inform",
            BaMsg::Ab(m) => m.class(),
            BaMsg::C { inner, .. } => inner.class(),
        }
    }
}

impl fmt::Display for BaMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaMsg::GeneralsValue { v } => write!(f, "general's value is {v}"),
            BaMsg::Inform { v } => write!(f, "the general's value is {v}"),
            BaMsg::Ab(m) => write!(f, "ab:{m}"),
            BaMsg::C { inner, v } => write!(f, "c:{inner} (v={v})"),
        }
    }
}

enum SenderEngine {
    A(ProtocolA),
    B(ProtocolB),
    C(ProtocolC),
}

/// One process of the §5 Byzantine-agreement algorithm.
///
/// Processes `0..=t` are senders (process 0 doubles as the general);
/// everyone decides at the configured decision round. Build the system
/// with [`BaSystem`].
pub struct BaProcess {
    me: u64,
    n: u64,
    t: u64,
    value: Value,
    decide_at: Round,
    decision: Option<Value>,
    sender: Option<SenderEngine>,
    sender_done: bool,
}

impl BaProcess {
    /// The value this process decided, if it reached the decision round.
    pub fn decision(&self) -> Option<Value> {
        self.decision
    }

    fn adopt(&mut self, v: Value) {
        // "If a process receives a message informing it about a value for
        // the general different from its current value, it adopts it."
        if v != self.value {
            self.value = v;
        }
    }

    /// Runs one inner work-protocol round (inner rounds are offset by the
    /// stage-1 round). Inner sends come back as ops, so a checkpoint span
    /// stays a single span after wrapping — the reduction preserves the
    /// O(1)-per-broadcast representation end to end.
    fn sender_step(&mut self, round: Round, inbox: Inbox<'_, BaMsg>, eff: &mut Effects<BaMsg>) {
        let inner_round = Round::new(round - Round::ONE);
        let mut ieff;
        match self.sender.as_mut().expect("sender_step on a non-sender") {
            SenderEngine::A(inner) => {
                let tin: Vec<(Pid, AbMsg)> = inbox
                    .iter()
                    .filter_map(|(from, msg)| match msg {
                        BaMsg::Ab(m) => Some((from, *m)),
                        _ => None,
                    })
                    .collect();
                let mut inner_eff = Effects::new();
                inner.step(inner_round, Inbox::from_pairs(&tin), &mut inner_eff);
                ieff = Translated::from_ab(inner_eff);
            }
            SenderEngine::B(inner) => {
                let tin: Vec<(Pid, AbMsg)> = inbox
                    .iter()
                    .filter_map(|(from, msg)| match msg {
                        BaMsg::Ab(m) => Some((from, *m)),
                        _ => None,
                    })
                    .collect();
                let mut inner_eff = Effects::new();
                inner.step(inner_round, Inbox::from_pairs(&tin), &mut inner_eff);
                ieff = Translated::from_ab(inner_eff);
            }
            SenderEngine::C(inner) => {
                let tin: Vec<(Pid, CMsg)> = inbox
                    .iter()
                    .filter_map(|(from, msg)| match msg {
                        BaMsg::C { inner: m, .. } => Some((from, m.clone())),
                        _ => None,
                    })
                    .collect();
                let mut inner_eff = Effects::new();
                inner.step(inner_round, Inbox::from_pairs(&tin), &mut inner_eff);
                ieff = Translated::from_c(inner_eff);
            }
        }

        // A performed unit u means: inform process u-1 of the value.
        if let Some(u) = ieff.work.take() {
            let target = u.get() as u64 - 1;
            if target < self.n && target != self.me {
                eff.send(Pid::new(target as usize), BaMsg::Inform { v: self.value });
            }
            // Units beyond n are divisibility padding: silently consumed.
        }
        for op in ieff.sends.drain(..) {
            let wrapped = match op.payload {
                EitherMsg::Ab(m) => BaMsg::Ab(m),
                EitherMsg::C(m) => BaMsg::C { inner: m, v: self.value },
            };
            match op.to {
                Recipients::One(to) => eff.send(to, wrapped),
                Recipients::Span { lo, hi } => eff.multicast(lo..hi, wrapped),
            }
        }
        for note in ieff.notes.drain(..) {
            eff.note(note);
        }
        if ieff.terminated {
            self.sender_done = true;
        }
    }
}

enum EitherMsg {
    Ab(AbMsg),
    C(CMsg),
}

struct Translated {
    work: Option<Unit>,
    sends: Vec<SendOp<EitherMsg>>,
    notes: Vec<&'static str>,
    terminated: bool,
}

impl Translated {
    fn from_ab(eff: Effects<AbMsg>) -> Self {
        let work = eff.work();
        let terminated = eff.is_terminated();
        let notes = eff.notes().to_vec();
        let sends = eff
            .sends()
            .iter()
            .map(|op| SendOp { to: op.to, payload: EitherMsg::Ab(op.payload) })
            .collect();
        Translated { work, sends, notes, terminated }
    }

    fn from_c(eff: Effects<CMsg>) -> Self {
        let work = eff.work();
        let terminated = eff.is_terminated();
        let notes = eff.notes().to_vec();
        let sends = eff
            .sends()
            .iter()
            .map(|op| SendOp { to: op.to, payload: EitherMsg::C(op.payload.clone()) })
            .collect();
        Translated { work, sends, notes, terminated }
    }
}

impl Protocol for BaProcess {
    type Msg = BaMsg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, BaMsg>, eff: &mut Effects<BaMsg>) {
        // Value adoption comes first, from any message kind that carries one.
        for (_, msg) in inbox.iter() {
            match msg {
                BaMsg::GeneralsValue { v } | BaMsg::Inform { v } | BaMsg::C { v, .. } => {
                    self.adopt(*v);
                }
                BaMsg::Ab(_) => {}
            }
        }

        if round >= self.decide_at {
            self.decision = Some(self.value);
            eff.terminate();
            return;
        }

        if round == Round::ONE {
            if self.me == 0 {
                // Stage 1: the general tells the senders — one span op.
                eff.multicast(1..self.t as usize + 1, BaMsg::GeneralsValue { v: self.value });
            }
            return;
        }

        if self.sender.is_some() && !self.sender_done {
            self.sender_step(round, inbox, eff);
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.decision.is_some() {
            return None;
        }
        if let (Some(engine), false) = (&self.sender, self.sender_done) {
            let inner = match engine {
                SenderEngine::A(p) => p.next_wakeup(Round::new(now.saturating_sub(Round::ONE))),
                SenderEngine::B(p) => p.next_wakeup(Round::new(now.saturating_sub(Round::ONE))),
                SenderEngine::C(p) => p.next_wakeup(Round::new(now.saturating_sub(Round::ONE))),
            };
            if let Some(w) = inner {
                return Some(w.saturating_add(1).max(now).min(self.decide_at));
            }
        }
        Some(self.decide_at.max(now))
    }
}

/// Builder for the §5 Byzantine-agreement system.
///
/// # Examples
///
/// ```
/// use doall_agreement::ba::{BaSystem, Engine};
/// use doall_sim::NoFailures;
///
/// let outcome = BaSystem::new(16, 3, Engine::B)?.general_value(7).run(NoFailures)?;
/// assert!(outcome.agreement());
/// assert_eq!(outcome.decisions[0], Some(7)); // validity: the general's value wins
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct BaSystem {
    n: u64,
    t: u64,
    engine: Engine,
    value: Value,
}

impl BaSystem {
    /// Creates a system of `n` processes tolerating up to `t` crash
    /// failures, with senders running the given work engine.
    ///
    /// # Errors
    ///
    /// The sender count `t + 1` must satisfy the engine's shape
    /// requirement: a perfect square for [`Engine::A`]/[`Engine::B`]
    /// (t ∈ {3, 8, 15, 24, …}), a power of two for [`Engine::C`]
    /// (t ∈ {1, 3, 7, 15, …}); and `t + 1 <= n`.
    pub fn new(n: u64, t: u64, engine: Engine) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::NoWork);
        }
        if t + 1 > n {
            return Err(ConfigError::WorkTooSmall { n, t: t + 1 });
        }
        // Validate the inner configuration eagerly.
        let (n_pad, t_senders) = Self::inner_shape(n, t);
        match engine {
            Engine::A => drop(ProtocolA::processes(n_pad, t_senders)?),
            Engine::B => drop(ProtocolB::processes(n_pad, t_senders)?),
            Engine::C => drop(ProtocolC::processes(n_pad, t_senders)?),
        }
        Ok(BaSystem { n, t, engine, value: Value::default() })
    }

    /// Sets the general's input value (default 0).
    pub fn general_value(mut self, v: Value) -> Self {
        self.value = v;
        self
    }

    fn inner_shape(n: u64, t: u64) -> (u64, u64) {
        let t_senders = t + 1;
        let n_pad = n.div_ceil(t_senders).max(1) * t_senders;
        (n_pad, t_senders)
    }

    /// The predetermined decision round: one stage-1 round plus the work
    /// protocol's proven termination bound (plus slack for delivery).
    pub fn decision_round(&self) -> Round {
        let (n_pad, t_senders) = Self::inner_shape(self.n, self.t);
        let inner = match self.engine {
            Engine::A => theorems::protocol_a(n_pad, t_senders).rounds,
            Engine::B => theorems::protocol_b(n_pad, t_senders).rounds,
            Engine::C => theorems::protocol_c(n_pad, t_senders).rounds,
        };
        Round::new(inner).saturating_add(3)
    }

    /// Instantiates the processes.
    pub fn processes(&self) -> Vec<BaProcess> {
        let (n_pad, t_senders) = Self::inner_shape(self.n, self.t);
        let decide_at = self.decision_round();
        (0..self.n)
            .map(|me| {
                let sender = if me < t_senders {
                    Some(match self.engine {
                        Engine::A => SenderEngine::A(
                            ProtocolA::processes(n_pad, t_senders)
                                .expect("validated")
                                .remove(me as usize),
                        ),
                        Engine::B => SenderEngine::B(
                            ProtocolB::processes(n_pad, t_senders)
                                .expect("validated")
                                .remove(me as usize),
                        ),
                        Engine::C => SenderEngine::C(
                            ProtocolC::processes(n_pad, t_senders)
                                .expect("validated")
                                .remove(me as usize),
                        ),
                    })
                } else {
                    None
                };
                BaProcess {
                    me,
                    n: self.n,
                    t: self.t,
                    value: if me == 0 { self.value } else { Value::default() },
                    decide_at,
                    decision: None,
                    sender,
                    sender_done: false,
                }
            })
            .collect()
    }

    /// Runs the system to completion under the given adversary.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the engine (a protocol bug; correct
    /// configurations always terminate by the decision round).
    pub fn run<A: Adversary<BaMsg>>(&self, adversary: A) -> Result<BaOutcome, RunError> {
        let cfg = RunConfig {
            n: 0,
            max_rounds: self.decision_round().saturating_add(8),
            ..RunConfig::default()
        };
        let (report, procs) = run_returning(self.processes(), adversary, cfg)?;
        let decisions = procs.iter().map(BaProcess::decision).collect();
        Ok(BaOutcome { decisions, metrics: report.metrics, general_value: self.value })
    }
}

/// The result of a Byzantine-agreement run.
#[derive(Clone, Debug)]
pub struct BaOutcome {
    /// Per-process decision (`None` = crashed before deciding).
    pub decisions: Vec<Option<Value>>,
    /// Message/round counters of the run.
    pub metrics: Metrics,
    /// The general's input, for validity checks.
    pub general_value: Value,
}

impl BaOutcome {
    /// Agreement: all deciding processes decided the same value.
    pub fn agreement(&self) -> bool {
        let mut decided = self.decisions.iter().flatten();
        match decided.next() {
            None => true,
            Some(first) => decided.all(|v| v == first),
        }
    }

    /// Validity: if the general survived to decide, everyone decided its
    /// value.
    pub fn validity(&self) -> bool {
        match self.decisions.first().copied().flatten() {
            Some(_general_decided) => {
                self.decisions.iter().flatten().all(|v| *v == self.general_value)
            }
            None => true,
        }
    }

    /// Number of processes that decided.
    pub fn decided_count(&self) -> usize {
        self.decisions.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use doall_sim::{CrashSpec, FaultPlan, NoFailures, Trigger};

    use super::*;

    #[test]
    fn failure_free_ba_via_b_decides_the_generals_value() {
        let outcome =
            BaSystem::new(24, 3, Engine::B).unwrap().general_value(42).run(NoFailures).unwrap();
        assert!(outcome.agreement());
        assert!(outcome.validity());
        assert_eq!(outcome.decided_count(), 24);
        assert!(outcome.decisions.iter().all(|d| *d == Some(42)));
    }

    #[test]
    fn ba_via_a_and_c_also_work_failure_free() {
        for engine in [Engine::A, Engine::C] {
            let outcome =
                BaSystem::new(16, 3, engine).unwrap().general_value(5).run(NoFailures).unwrap();
            assert!(outcome.agreement(), "{engine:?}");
            assert!(outcome.decisions.iter().all(|d| *d == Some(5)), "{engine:?}");
        }
    }

    #[test]
    fn message_counts_respect_section_5_bounds() {
        let (n, t) = (64u64, 8u64);
        let outcome =
            BaSystem::new(n, t, Engine::B).unwrap().general_value(1).run(NoFailures).unwrap();
        assert!(
            outcome.metrics.messages <= theorems::ba_via_b_messages(n, t),
            "{} > {}",
            outcome.metrics.messages,
            theorems::ba_via_b_messages(n, t)
        );
        let (n, t) = (32u64, 3u64);
        let outcome =
            BaSystem::new(n, t, Engine::C).unwrap().general_value(1).run(NoFailures).unwrap();
        assert!(outcome.metrics.messages <= theorems::ba_via_c_messages(n, t));
        // Both beat flooding by a wide margin.
        assert!(outcome.metrics.messages < theorems::ba_flooding_messages(n, t) / 10);
    }

    #[test]
    fn general_crash_during_stage_1_preserves_agreement() {
        // The general reaches only sender 2 with its value: some senders
        // inform 0, the survivor order ensures a consistent final value.
        for engine in [Engine::A, Engine::B] {
            let adv = FaultPlan::default().crash_on(
                Trigger::NthSendRoundBy { pid: Pid::new(0), nth: 1 },
                CrashSpec::subset([Pid::new(2)]),
            );
            let outcome = BaSystem::new(16, 3, engine).unwrap().general_value(9).run(adv).unwrap();
            assert!(outcome.agreement(), "{engine:?}: {:?}", outcome.decisions);
            // Validity is vacuous (the general crashed), but agreement must
            // hold and everyone alive must decide.
            assert_eq!(outcome.decided_count(), 15);
        }
    }

    #[test]
    fn sender_cascade_crashes_preserve_agreement_and_termination() {
        // Senders die one after another mid-work; the last sender finishes.
        for engine in [Engine::B, Engine::C] {
            let plan = (0..3).fold(FaultPlan::default(), |plan, s| {
                plan.crash_on(Trigger::NthWorkBy { pid: Pid::new(s), nth: 2 }, CrashSpec::silent())
            });
            let outcome = BaSystem::new(16, 3, engine).unwrap().general_value(4).run(plan).unwrap();
            assert!(outcome.agreement(), "{engine:?}: {:?}", outcome.decisions);
            assert!(outcome.decided_count() >= 13, "{engine:?}");
        }
    }

    #[test]
    fn late_sender_crashes_after_informs_are_consistent() {
        let adv = FaultPlan::default().crash_at(Pid::new(0), 30, CrashSpec::prefix(1));
        let outcome = BaSystem::new(24, 3, Engine::B).unwrap().general_value(11).run(adv).unwrap();
        assert!(outcome.agreement());
        assert!(outcome.decisions.iter().flatten().all(|v| *v == 11));
    }

    #[test]
    fn shape_validation_rejects_bad_sender_counts() {
        // t + 1 = 5 is not a perfect square.
        assert!(BaSystem::new(16, 4, Engine::B).is_err());
        // t + 1 = 6 is not a power of two.
        assert!(BaSystem::new(16, 5, Engine::C).is_err());
        // More senders than processes.
        assert!(BaSystem::new(3, 3, Engine::C).is_err());
        assert!(BaSystem::new(16, 3, Engine::A).is_ok());
    }
}
