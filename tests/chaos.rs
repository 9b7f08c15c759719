//! Regression fixture for the chaos campaign's failure path: a protocol
//! with a deliberately seeded Do-All contract violation is detected by
//! the campaign oracle, auto-shrunk to a minimal repro (≤ 3 faults), and
//! the emitted `doall-chaos-repro v1` file replays deterministically.
//!
//! The buggy protocol, `ForgetfulSpread`, statically partitions the `n`
//! units into per-process chunks and never reassigns them: a crash loses
//! the victim's chunk forever, yet the survivors terminate anyway. That
//! is exactly the class of bug the effectiveness checkers exist to catch
//! (survivors retired with work left undone).
//!
//! The last test replays campaign seeds that once panicked a real protocol.

use doall::sim::chaos::{contract_violations, shrink, ChaosCase, ChaosConfig, Plane, Repro};
use doall::sim::invariants::check_termination_after_completion;
use doall::sim::{run, Classify, Effects, Inbox, Protocol, Round, RunConfig, RunError, Unit};
use doall::ProtocolC;

#[derive(Clone, Debug)]
struct Hush;
impl Classify for Hush {}

/// Statically partitions units across processes with no hand-off: each
/// process performs its own chunk, one unit per round, then retires. Any
/// crash strands the victim's remaining units — the seeded bug.
struct ForgetfulSpread {
    next: usize,
    last: usize,
}

impl ForgetfulSpread {
    fn build(n: usize, t: usize) -> Vec<Self> {
        let chunk = n.div_ceil(t.max(1));
        (0..t)
            .map(|p| ForgetfulSpread { next: p * chunk + 1, last: ((p + 1) * chunk).min(n) })
            .collect()
    }
}

impl Protocol for ForgetfulSpread {
    type Msg = Hush;

    fn step(&mut self, _: Round, _: Inbox<'_, Hush>, eff: &mut Effects<Hush>) {
        if self.next <= self.last {
            eff.perform(Unit::new(self.next));
            self.next += 1;
        }
        if self.next > self.last {
            eff.terminate();
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        Some(now)
    }
}

/// The campaign oracle, specialised to `ForgetfulSpread`: `None` when the
/// case is not runnable (invalid plan for its `t`), otherwise the list of
/// contract/invariant violations (empty = clean run).
fn violations(case: &ChaosCase) -> Option<Vec<String>> {
    let plan = case.plan();
    if plan.validate(case.t).is_err() {
        return None;
    }
    let procs = plan.wrap(ForgetfulSpread::build(case.n, case.t));
    let cfg = RunConfig::new(case.n, Round::MAX).with_trace().with_stall_window(4_096);
    Some(match run(procs, plan, cfg) {
        Ok(report) => {
            let mut v = contract_violations(report.survivor_count(), &report.metrics);
            v.extend(
                check_termination_after_completion(&report.trace, case.n)
                    .into_iter()
                    .map(|w| format!("retirement: {w}")),
            );
            v
        }
        Err(e) => vec![format!("liveness: {e}")],
    })
}

fn fails(case: &ChaosCase) -> bool {
    violations(case).is_some_and(|v| !v.is_empty())
}

#[test]
fn seeded_bug_is_found_shrunk_and_replayed_from_its_repro_file() {
    // t = 4, n = 64: chunks take 16 rounds, so faults drawn from the
    // generator's default horizon routinely strike mid-chunk.
    let cfg = ChaosConfig::new(4, 64).crashes_only();

    // Campaign phase: sweep the seed bank until the bug surfaces. It must
    // surface quickly — a crash in rounds 1..=16 strands a chunk.
    let found = (0u64..64).map(|s| ChaosCase::generate(s, &cfg)).find(fails);
    let case = found.expect("the seeded contract violation must be detected within 64 seeds");
    let full = violations(&case).unwrap();
    assert!(
        full.iter().any(|v| v.contains("unit(s)")),
        "the violation must be the effectiveness contract, got {full:?}"
    );

    // Shrink phase: the minimal repro needs at most 3 faults (the
    // acceptance bar); for a single-crash bug it is exactly 1.
    let min = shrink(&case, fails);
    assert!(fails(&min), "shrinking must preserve failure");
    assert!(
        min.faults.len() <= 3,
        "shrunk case must have <= 3 faults, got {}: {:?}",
        min.faults.len(),
        min.faults
    );
    assert!(min.t <= case.t && min.n <= case.n, "shrinking must not grow the system");

    // Repro phase: emit -> parse round-trips, and the parsed case replays
    // the identical violation list twice (determinism).
    let repro = Repro { protocol: "forgetful".to_string(), plane: Plane::Sync, case: min };
    let text = repro.emit();
    // The pinned derivation quoted in EXPERIMENTS.md e16 (run with
    // `cargo test --test chaos -- --nocapture` to regenerate).
    eprintln!(
        "e16: seed {} ({} fault(s), t={}, n={}) shrank to {} fault(s), t={}, n={}; violation: {}\n{text}",
        case.seed,
        case.faults.len(),
        case.t,
        case.n,
        repro.case.faults.len(),
        repro.case.t,
        repro.case.n,
        full[0],
    );
    let parsed = Repro::parse(&text).expect("emitted repro must parse");
    assert_eq!(parsed.case, repro.case);
    assert_eq!(parsed.protocol, "forgetful");
    assert_eq!(parsed.plane, Plane::Sync);
    let first = violations(&parsed.case).expect("parsed case must be runnable");
    let second = violations(&parsed.case).unwrap();
    assert!(!first.is_empty(), "parsed repro must still fail");
    assert_eq!(first, second, "replay must be deterministic");
}

#[test]
fn fault_free_runs_of_the_buggy_protocol_are_clean() {
    // The bug only manifests under faults: with an empty plan every chunk
    // completes, so the oracle must report a clean run (no false alarms).
    let case = ChaosCase { seed: 0, t: 4, n: 64, faults: Vec::new() };
    assert_eq!(violations(&case), Some(Vec::new()));
}

#[test]
fn late_crashes_after_retirement_are_not_violations() {
    // Crashing a process after it finished its chunk loses nothing; the
    // oracle must not flag it (crash timing matters, not crash presence).
    use doall::sim::{FaultKind, Pid};
    let case =
        ChaosCase { seed: 0, t: 4, n: 64, faults: vec![FaultKind::Crash(Pid::new(1)).at(30u64)] };
    assert_eq!(violations(&case), Some(Vec::new()));
}

#[test]
fn protocol_c_on_a_saturated_clock_ends_in_a_typed_error() {
    // Three wide-grid plans under which a Protocol C deadline saturates at
    // `Round::MAX` and its process goes active there; polling from that
    // round used to panic with "round clock overflow" in `next_wakeup`.
    let cfg = ChaosConfig::new(64, 256);
    for seed in [48u64, 2805, 2815] {
        let plan = ChaosCase::generate(seed, &cfg).plan();
        plan.validate(64).expect("generated plans are valid for their t");
        let procs = plan.wrap(ProtocolC::processes(256, 64).unwrap());
        let run_cfg = RunConfig::new(256, Round::MAX).with_stall_window(4_096);
        match run(procs, plan, run_cfg) {
            Ok(report) => assert!(report.metrics.all_work_done(), "seed {seed}"),
            Err(e) => assert!(matches!(e, RunError::RoundLimit { .. }), "seed {seed}: {e}"),
        }
    }
}
