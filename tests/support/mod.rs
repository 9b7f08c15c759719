//! Shared integration-test support: the two executable specifications the
//! engines are twinned against, and the fixtures both differential suites
//! draw from.
//!
//! * [`sync_reference::run_reference`] — the round model, as a dense
//!   per-recipient engine (`tests/differential.rs` twins
//!   `doall::sim::run` against it).
//! * [`async_reference::run_async_reference`] — §2.1's asynchronous
//!   variant with a retirement detector, as a per-recipient-clone
//!   binary-heap scheduler (`tests/async_differential.rs` twins
//!   `run_async` against it).
//!
//! Both specs use only the library's public API. Each refuses an invalid
//! adversary first, with the engine's `RunError::InvalidAdversary`, and
//! destructures its config with no `..`, so a config field added to the
//! library does not compile here until the spec handles it. Each returns
//! the events it would trace beside its report (the report's own trace is
//! empty), recorded only when the config asks for a trace.
//!
//! Every test binary compiles its own copy of this module and uses only a
//! part of it, hence the `dead_code` allowance.
#![allow(dead_code)]

pub mod async_reference;
pub mod sync_reference;

use doall::sim::{Classify, CrashSpec, Event, Metrics, Pid, Unit};

/// A payload with two metric classes, so `messages_by_class` is exercised.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chat(pub u64);

impl Classify for Chat {
    fn class(&self) -> &'static str {
        if self.0.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }
}

/// SplitMix64: the per-(seed, pid, round or invocation) decision hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A crash spec drawn from the hash `h` over `t` processes, covering every
/// delivery-filter shape: silent, after-round, prefix, arbitrary subset.
pub fn crash_spec(h: u64, t: usize) -> CrashSpec {
    match (h >> 32) % 4 {
        0 => CrashSpec::silent(),
        1 => CrashSpec::after_round(),
        2 => CrashSpec::prefix((h >> 40) as usize % (t + 1)),
        _ => {
            let members = (0..t).filter(|&p| (h >> (p % 24)) & 1 == 1).map(Pid::new);
            CrashSpec::subset(members)
        }
    }
}

/// The events a spec would trace: kept only when the run is traced.
struct Log {
    on: bool,
    events: Vec<Event>,
}

impl Log {
    fn new(on: bool) -> Self {
        Log { on, events: Vec::new() }
    }

    fn push(&mut self, event: Event) {
        if self.on {
            self.events.push(event);
        }
    }
}

/// Counts one performance of `unit`, growing the per-unit table as needed.
fn record_work(metrics: &mut Metrics, unit: Unit) {
    metrics.work_total += 1;
    let idx = unit.zero_based();
    if idx >= metrics.work_by_unit.len() {
        metrics.work_by_unit.resize(idx + 1, 0);
    }
    metrics.work_by_unit[idx] += 1;
}

/// Counts one message of `class`.
fn record_message(metrics: &mut Metrics, class: &'static str) {
    metrics.messages += 1;
    *metrics.messages_by_class.entry(class).or_insert(0) += 1;
}

/// The watchdogs' progress mark: work plus every retirement and recovery.
/// All four only ever grow, so the mark moves exactly when one of them
/// does.
fn progress(metrics: &Metrics) -> u64 {
    metrics.work_total
        + u64::from(metrics.crashes)
        + u64::from(metrics.terminations)
        + u64::from(metrics.recoveries)
}
