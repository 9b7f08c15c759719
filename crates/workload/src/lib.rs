//! # doall-workload
//!
//! Workload scenarios for the Do-All protocol suite: named crash schedules
//! (the adversaries behind the paper's worst-case arguments) and realistic
//! idempotent task bindings (the valve bank and boolean-formula sweeps of
//! §1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod scenario;
pub mod tasks;

pub use scenario::Scenario;
pub use tasks::{FormulaSweep, IdempotentTask, ValveBank};
