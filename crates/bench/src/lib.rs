//! # doall-bench
//!
//! The experiment harness that regenerates every quantitative claim of
//! Dwork, Halpern & Waarts (PODC 1992). See `DESIGN.md` §4 for the
//! claim-to-experiment index and `EXPERIMENTS.md` for recorded results.
//!
//! Run all experiments:
//!
//! ```sh
//! cargo run --release -p doall-bench --bin experiments
//! ```
//!
//! or one of them: `… --bin experiments -- e3`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod sweep;
pub mod table;

pub use experiments::{all, by_id, Outcome};
pub use table::Table;
