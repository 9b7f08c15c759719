//! # doall-sim
//!
//! A deterministic simulator for the synchronous, crash-prone,
//! message-passing model of Dwork, Halpern & Waarts, *Performing Work
//! Efficiently in the Presence of Faults* (PODC 1992).
//!
//! The model: `t` processes numbered `0..t-1` proceed in lockstep rounds.
//! Per round a process may perform **one unit of work** and **one round of
//! communication** (any number of messages); messages sent in round `r`
//! arrive at the start of round `r + 1`. Processes fail only by crashing,
//! possibly *mid-broadcast* — in which case an adversary-chosen subset of
//! the recipients receives the message.
//!
//! The engine measures the paper's three complexity parameters exactly:
//! work performed (with multiplicity), messages sent, and rounds elapsed.
//! Because the engine *is* the model (rather than an approximation of a
//! testbed), measured values can be compared directly against the paper's
//! theorem bounds.
//!
//! ## Quick tour
//!
//! * implement [`Protocol`] for your per-process state machine;
//! * pick an [`Adversary`]: [`NoFailures`], or a [`FaultPlan`] — the one
//!   adversary data type, holding timed faults, crash rules fired by a
//!   [`Trigger`] (the proofs' scripted worst cases) and random crashes;
//! * call [`run`] and inspect the [`Report`].
//!
//! ```
//! use doall_sim::{run, NoFailures, RunConfig, Protocol, Effects, Inbox, Classify, Round, Unit};
//!
//! /// Every process performs one unit and stops.
//! struct OneUnit(usize);
//!
//! #[derive(Clone, Debug)]
//! struct NoMsg;
//! impl Classify for NoMsg {}
//!
//! impl Protocol for OneUnit {
//!     type Msg = NoMsg;
//!     fn step(&mut self, _: Round, _: Inbox<'_, NoMsg>, eff: &mut Effects<NoMsg>) {
//!         eff.perform(Unit::new(self.0 + 1));
//!         eff.terminate();
//!     }
//!     fn next_wakeup(&self, now: Round) -> Option<Round> { Some(now) }
//! }
//!
//! let procs = (0..4).map(OneUnit).collect();
//! let report = run(procs, NoFailures, RunConfig::new(4, 10))?;
//! assert!(report.metrics.all_work_done());
//! assert_eq!(report.metrics.rounds, 1u64);
//! # Ok::<(), doall_sim::RunError>(())
//! ```
//!
//! The [`asynch`] module provides the event-driven asynchronous engine —
//! adversary-seeded message delays plus a retirement detector (§2.1 of the
//! paper) — as a full peer of this round engine: in-flight payloads live
//! once in an op arena, same-timestamp deliveries batch into the same
//! borrowing [`Inbox`] views, and faults come from a pluggable
//! [`asynch::AsyncAdversary`] speaking the [`Fate`]/[`CrashSpec`]/
//! [`Deliver`] vocabulary above.
//!
//! Both planes go beyond fail-stop: adversaries can impose crash-recovery
//! (a crashed process restarts, stale or wiped), send/receive omission,
//! and — via the [`Degraded`]/[`AsyncDegraded`] wrappers — degraded-mode
//! slowdown. The [`faults`] module packages all of these as a named-fault
//! catalog ([`FaultKind`]) inside the same [`FaultPlan`], usable on either
//! plane.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod adversary;
mod effects;
mod engine;
mod ids;
mod liveset;
mod message;
mod metrics;
mod protocol;
mod trace;

pub mod asynch;
pub mod chaos;
pub mod faults;
pub mod invariants;

pub use adversary::{Adversary, AdversaryCtx, CrashSpec, Deliver, Fate, NoFailures};
pub use effects::{Effects, Recipients, SendOp};
pub use engine::{
    run, run_returning, Engine, EngineSnapshot, MemBudget, Report, RunConfig, RunError,
    StallDiagnosis, Status, Waiting,
};
pub use faults::{
    AsyncDegraded, Degraded, Fault, FaultKind, FaultPlan, FaultPlanError, SlowWindow, Trigger,
};
pub use ids::{Pid, Round, Unit};
pub use liveset::LiveSet;
pub use message::{Classify, Inbox, InboxIter};
pub use metrics::Metrics;
pub use protocol::Protocol;
pub use trace::{Event, Trace};
