//! # doall-service
//!
//! The job-stream service plane: the paper's own motivation (§1) is a pool
//! of workstations serving a *stream* of computations, not a single
//! (n, t) instance. This crate supplies the missing layer:
//!
//! * [`JobSpec`] — one builder describing a Do-All job (processes +
//!   scenario + limits), runnable on **either plane**: [`JobSpec::run`]
//!   drives the synchronous round engine, [`JobSpec::run_async`] the
//!   event-driven one. It replaces the split
//!   `run(procs, adversary, RunConfig)` / `run_async(...)` call styles
//!   (both remain available as low-level entry points).
//! * [`Pool`] / [`Admission`] / [`Session`] — a virtual-time job-stream
//!   scheduler: jobs arrive at virtual instants (hand-placed or drawn from
//!   an [`ArrivalModel`]), are admitted onto a shared slot pool under a
//!   queue-depth cap, and each admitted job runs on the existing engine —
//!   **bit-identically** to a direct [`JobSpec::run`], because both paths
//!   funnel through the same private execution routine
//!   (`tests/service_differential.rs` pins this).
//! * [`FleetReport`] — per-job records plus fleet-wide aggregates
//!   (p50/p99 completion rounds and sojourn, pool utilization, admission
//!   statistics), built on the engine's own [`Metrics`](doall_sim::Metrics).
//!
//! ## Serving a stream
//!
//! ```
//! use doall_core::ProtocolB;
//! use doall_service::{Admission, ArrivalModel, JobSpec, Pool, Session};
//!
//! let mut session = Session::new(Pool::new(32), Admission::new(4));
//! let arrivals = ArrivalModel::Bursty { burst: 4, period: 100 };
//! for (i, at) in arrivals.times(7, 12).into_iter().enumerate() {
//!     let spec = JobSpec::new(ProtocolB::processes(64, 16)?, 64)
//!         .label(format!("job{i}"))
//!         .deadline(10_000);
//!     session.submit(at, spec.into_job());
//! }
//! let fleet = session.run();
//! assert_eq!(fleet.metrics.completed + fleet.metrics.rejected, 12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod arrivals;
mod job;
mod session;

pub use arrivals::ArrivalModel;
pub use job::{Job, JobReport, JobSpec};
pub use session::{
    Admission, FleetMetrics, FleetReport, JobRecord, Pool, RejectReason, Session, Verdict,
};
