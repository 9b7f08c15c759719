//! Trace-based checkers for the paper's structural invariants.
//!
//! Protocols A, B and C all guarantee that **at most one process is active
//! at a time** and that a process becomes active **only after every
//! lower-numbered (A, B) or more-knowledgeable (C) process has retired**
//! (Lemmas 2.2, 2.7 and 3.4(d)). Protocol implementations emit an
//! `"activate"` note when a process takes over; these checkers replay a
//! recorded [`Trace`] and verify the claims for the given execution.

use crate::ids::{Pid, Round};
use crate::trace::{Event, Trace};

/// A violation found by a checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Round at which the violation is visible.
    pub round: Round,
    /// Human-readable description.
    pub what: String,
}

/// A `Pid`-keyed map stored densely, slot `pid.index()`, grown on demand:
/// a trace names processes `0..t`, so the checkers look a pid up by
/// indexing instead of searching a tree on every event.
struct PidMap<V>(Vec<Option<V>>);

impl<V: Copy> PidMap<V> {
    fn new() -> Self {
        PidMap(Vec::new())
    }

    fn insert(&mut self, pid: Pid, v: V) {
        let i = pid.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(v);
    }

    fn remove(&mut self, pid: Pid) -> Option<V> {
        self.0.get_mut(pid.index()).and_then(Option::take)
    }

    fn get(&self, pid: Pid) -> Option<V> {
        self.0.get(pid.index()).copied().flatten()
    }

    fn contains(&self, pid: Pid) -> bool {
        self.get(pid).is_some()
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "round {}: {}", self.round, self.what)
    }
}

/// Checks that activation periods never overlap: once process `q` emits
/// `"activate"`, the previously-activated process must already have retired
/// (Lemmas 2.2, 2.7(b), 3.4(d)).
///
/// Returns all violations found (empty = invariant holds on this trace).
pub fn check_single_active(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut current: Option<(Pid, Round)> = None;
    let mut retired = PidMap::new();

    for event in trace.events() {
        match event {
            Event::Note { round, pid, tag } if *tag == "activate" => {
                if let Some((prev, _)) = current {
                    if prev != *pid && !retired.contains(prev) {
                        violations.push(Violation {
                            round: *round,
                            what: format!(
                                "{pid} activated while {prev} was still active and unretired"
                            ),
                        });
                    }
                }
                current = Some((*pid, *round));
            }
            Event::Crash { pid, .. } | Event::Terminate { pid, .. } => {
                retired.insert(*pid, ());
            }
            _ => {}
        }
    }
    violations
}

/// Checks that every `"activate"` by process `j` happens only after all
/// processes `i < j` have retired — the takeover discipline of Protocols A
/// and B (Lemmas 2.2 and 2.7(b)). Not applicable to Protocol C, whose
/// takeover order follows knowledge, not process number.
pub fn check_activation_order(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut retired = PidMap::new();

    for event in trace.events() {
        match event {
            Event::Note { round, pid, tag } if *tag == "activate" => {
                for lower in Pid::range(0, pid.index()) {
                    if !retired.contains(lower) {
                        violations.push(Violation {
                            round: *round,
                            what: format!("{pid} activated before {lower} retired"),
                        });
                    }
                }
            }
            Event::Crash { pid, .. } | Event::Terminate { pid, .. } => {
                retired.insert(*pid, ());
            }
            _ => {}
        }
    }
    violations
}

/// Checks that work units are performed by *at most one process per round*
/// and that only one process performs work in any given round — the paper's
/// sequential protocols (A, B, C) interleave work of different processes
/// only across activation handoffs. Protocol D is parallel, so this checker
/// does not apply to it.
pub fn check_sequential_work(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut last: Option<(Round, Pid)> = None;
    for event in trace.events() {
        if let Event::Work { round, pid, .. } = event {
            if let Some((r, p)) = last {
                if r == *round && p != *pid {
                    violations.push(Violation {
                        round: *round,
                        what: format!("both {p} and {pid} performed work in the same round"),
                    });
                }
            }
            last = Some((*round, *pid));
        }
    }
    violations
}

/// Checks that no process acts (works, sends, or activates) after its own
/// retirement — a sanity check on the engine itself. A
/// [`Recover`](Event::Recover) un-retires its process: actions after the
/// recovery are legitimate again.
pub fn check_no_zombie_actions(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut retired_at = PidMap::new();
    for event in trace.events() {
        let (pid, round) = match event {
            Event::Crash { pid, round } | Event::Terminate { pid, round } => {
                retired_at.insert(*pid, *round);
                continue;
            }
            Event::Recover { pid, .. } => {
                retired_at.remove(*pid);
                continue;
            }
            Event::Work { pid, round, .. } => (*pid, *round),
            Event::Send { from, round, .. } => (*from, *round),
            Event::Note { pid, round, .. } => (*pid, *round),
            // A notice is the detector acting on the observer, not the
            // observer acting; retired observers never receive one anyway.
            Event::Notice { .. } => continue,
        };
        if let Some(r) = retired_at.get(pid) {
            if round > r {
                violations.push(Violation {
                    round,
                    what: format!("{pid} acted at round {round} after retiring at round {r}"),
                });
            }
        }
    }
    violations
}

/// Checks the recovery-silence guarantee: a process crashed with a
/// [`CrashRecover`](crate::Fate::CrashRecover) fate must not act — work,
/// send, or note — strictly between its [`Crash`](Event::Crash) and the
/// matching [`Recover`](Event::Recover). This is
/// [`check_no_zombie_actions`] specialized to the downtime window, but it
/// also flags a `Recover` for a process that never crashed.
pub fn check_recovery_silence(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut down_since = PidMap::new();
    for event in trace.events() {
        let (pid, round) = match event {
            Event::Crash { pid, round } => {
                down_since.insert(*pid, *round);
                continue;
            }
            Event::Recover { pid, round } => {
                if down_since.remove(*pid).is_none() {
                    violations.push(Violation {
                        round: *round,
                        what: format!("{pid} recovered without a preceding crash"),
                    });
                }
                continue;
            }
            Event::Terminate { pid, .. } => {
                down_since.remove(*pid);
                continue;
            }
            Event::Work { pid, round, .. } => (*pid, *round),
            Event::Send { from, round, .. } => (*from, *round),
            Event::Note { pid, round, .. } => (*pid, *round),
            Event::Notice { .. } => continue,
        };
        if let Some(since) = down_since.get(pid) {
            if round > since {
                violations.push(Violation {
                    round,
                    what: format!("{pid} acted at round {round} while down since round {since}"),
                });
            }
        }
    }
    violations
}

/// Checks that a degraded process respects its rate: within the window
/// `[from, until)`, `pid` may act (work or send) only at rounds `r` with
/// `(r - from) % factor == 0` — a slow-by-`factor` process never steps
/// faster than every `factor`-th round.
pub fn check_degraded_rate(
    trace: &Trace,
    pid: Pid,
    from: Round,
    until: Round,
    factor: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for event in trace.events() {
        let (p, round) = match event {
            Event::Work { pid: p, round, .. } => (*p, *round),
            Event::Send { from: p, round, .. } => (*p, *round),
            _ => continue,
        };
        if p == pid
            && round >= from
            && round < until
            && round.saturating_sub(from) % u128::from(factor) != 0
        {
            violations.push(Violation {
                round,
                what: format!(
                    "{pid} acted at round {round}, off its 1/{factor} grid anchored at {from}"
                ),
            });
        }
    }
    violations
}

/// Checks the Do-All retirement discipline: no process may *voluntarily*
/// terminate before all `n` work units have been performed at least once
/// (by anyone). The paper's protocols retire a process only once the
/// remaining work is provably covered — a termination while units are
/// still untouched is exactly the bug shape where a protocol "forgets"
/// a crashed process's chunk. Crashes are exempt: only
/// [`Terminate`](Event::Terminate) events are held to the discipline.
///
/// Intended for the paper's Do-All protocols (A–D and their async
/// variants). Deliberately fault-intolerant baselines (e.g. a spread
/// that never re-covers crashed peers' chunks) fail it by design.
pub fn check_termination_after_completion(trace: &Trace, n: usize) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut done = vec![false; n];
    let mut remaining = n;
    // A round's work is simultaneous in the model, so a retirement is
    // judged against everything performed up to *and including* its own
    // round: buffer each round's retirements and flush them only once the
    // trace moves past that round (rounds are nondecreasing in a trace).
    let mut pending: Vec<(Round, Pid)> = Vec::new();
    for event in trace.events() {
        let round = match event {
            Event::Work { round, .. } | Event::Terminate { round, .. } => *round,
            _ => continue,
        };
        if pending.first().is_some_and(|&(r, _)| r < round) {
            for (r, pid) in pending.drain(..) {
                if remaining > 0 {
                    violations.push(Violation {
                        round: r,
                        what: format!(
                            "{pid} terminated with {remaining} of {n} unit(s) never performed"
                        ),
                    });
                }
            }
        }
        match event {
            Event::Work { unit, .. } => {
                let idx = unit.zero_based();
                if idx < n && !done[idx] {
                    done[idx] = true;
                    remaining -= 1;
                }
            }
            Event::Terminate { round, pid } => pending.push((*round, *pid)),
            _ => {}
        }
    }
    if remaining > 0 {
        for (r, pid) in pending {
            violations.push(Violation {
                round: r,
                what: format!("{pid} terminated with {remaining} of {n} unit(s) never performed"),
            });
        }
    }
    violations
}

/// Checks the asynchronous retirement detector's *soundness* claim: a
/// [`Notice`](Event::Notice) about process `p` must never precede `p`'s
/// own retirement event — the detector may be arbitrarily slow, but it
/// never accuses a live process (the property the §2.1 asynchronous
/// variant's correctness rests on).
pub fn check_detector_soundness(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut retired = PidMap::new();
    for event in trace.events() {
        match event {
            Event::Crash { pid, .. } | Event::Terminate { pid, .. } => {
                retired.insert(*pid, ());
            }
            // A recovered process is alive again: accusing it from here on
            // (until it re-retires) is a soundness violation.
            Event::Recover { pid, .. } => {
                retired.remove(*pid);
            }
            Event::Notice { round, observer, retired: accused } if !retired.contains(*accused) => {
                violations.push(Violation {
                    round: *round,
                    what: format!("detector accused live process {accused} to observer {observer}"),
                });
            }
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Unit;

    fn trace(events: Vec<Event>) -> Trace {
        let mut t = Trace::new();
        for e in events {
            // Re-use the crate-internal push via a helper: Trace only
            // exposes push to the crate, which this test module is part of.
            t_push(&mut t, e);
        }
        t
    }

    fn t_push(t: &mut Trace, e: Event) {
        // Same-crate access to the pub(crate) method.
        t.push(e);
    }

    #[test]
    fn overlapping_activations_are_flagged() {
        let tr = trace(vec![
            Event::Note { round: Round::new(1), pid: Pid::new(0), tag: "activate" },
            Event::Note { round: Round::new(5), pid: Pid::new(1), tag: "activate" },
        ]);
        let v = check_single_active(&tr);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("still active"));
    }

    #[test]
    fn handoff_after_retirement_is_clean() {
        let tr = trace(vec![
            Event::Note { round: Round::new(1), pid: Pid::new(0), tag: "activate" },
            Event::Crash { round: Round::new(4), pid: Pid::new(0) },
            Event::Note { round: Round::new(9), pid: Pid::new(1), tag: "activate" },
        ]);
        assert!(check_single_active(&tr).is_empty());
        assert!(check_activation_order(&tr).is_empty());
    }

    #[test]
    fn activation_order_requires_all_lower_retired() {
        let tr = trace(vec![
            Event::Note { round: Round::new(1), pid: Pid::new(0), tag: "activate" },
            Event::Crash { round: Round::new(4), pid: Pid::new(0) },
            // p2 activates while p1 never retired.
            Event::Note { round: Round::new(9), pid: Pid::new(2), tag: "activate" },
        ]);
        let v = check_activation_order(&tr);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("before p1 retired"));
    }

    #[test]
    fn parallel_work_in_one_round_is_flagged() {
        let tr = trace(vec![
            Event::Work { round: Round::new(3), pid: Pid::new(0), unit: Unit::new(1) },
            Event::Work { round: Round::new(3), pid: Pid::new(1), unit: Unit::new(2) },
        ]);
        assert_eq!(check_sequential_work(&tr).len(), 1);
    }

    #[test]
    fn zombie_actions_are_flagged() {
        let tr = trace(vec![
            Event::Crash { round: Round::new(2), pid: Pid::new(0) },
            Event::Work { round: Round::new(3), pid: Pid::new(0), unit: Unit::new(1) },
        ]);
        let v = check_no_zombie_actions(&tr);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn premature_notice_is_a_soundness_violation() {
        let tr = trace(vec![
            Event::Notice { round: Round::new(3), observer: Pid::new(1), retired: Pid::new(0) },
            Event::Crash { round: Round::new(4), pid: Pid::new(0) },
        ]);
        let v = check_detector_soundness(&tr);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("accused live process p0"));
    }

    #[test]
    fn notice_after_retirement_is_sound() {
        let tr = trace(vec![
            Event::Terminate { round: Round::new(2), pid: Pid::new(0) },
            Event::Notice { round: Round::new(5), observer: Pid::new(1), retired: Pid::new(0) },
        ]);
        assert!(check_detector_soundness(&tr).is_empty());
        // A notice is not a zombie action by the observer.
        assert!(check_no_zombie_actions(&tr).is_empty());
    }

    #[test]
    fn recovery_unretires_for_zombie_and_detector_checks() {
        let tr = trace(vec![
            Event::Crash { round: Round::new(2), pid: Pid::new(0) },
            Event::Recover { round: Round::new(5), pid: Pid::new(0) },
            Event::Work { round: Round::new(6), pid: Pid::new(0), unit: Unit::new(1) },
            // Accusing the recovered (live-again) process is unsound.
            Event::Notice { round: Round::new(7), observer: Pid::new(1), retired: Pid::new(0) },
        ]);
        assert!(check_no_zombie_actions(&tr).is_empty());
        let v = check_detector_soundness(&tr);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("accused live process p0"));
    }

    #[test]
    fn action_during_downtime_is_flagged() {
        let tr = trace(vec![
            Event::Crash { round: Round::new(2), pid: Pid::new(0) },
            Event::Work { round: Round::new(3), pid: Pid::new(0), unit: Unit::new(1) },
            Event::Recover { round: Round::new(5), pid: Pid::new(0) },
            Event::Work { round: Round::new(5), pid: Pid::new(0), unit: Unit::new(2) },
        ]);
        let v = check_recovery_silence(&tr);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("while down since round 2"));
    }

    #[test]
    fn recovery_without_crash_is_flagged() {
        let tr = trace(vec![Event::Recover { round: Round::new(5), pid: Pid::new(3) }]);
        let v = check_recovery_silence(&tr);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("without a preceding crash"));
    }

    #[test]
    fn degraded_rate_flags_off_grid_actions_only() {
        let tr = trace(vec![
            // On-grid at rounds 10 and 14 (factor 4, anchored at 10).
            Event::Work { round: Round::new(10), pid: Pid::new(0), unit: Unit::new(1) },
            Event::Work { round: Round::new(14), pid: Pid::new(0), unit: Unit::new(2) },
            // Off-grid at round 12.
            Event::Send { round: Round::new(12), from: Pid::new(0), to: Pid::new(1), class: "m" },
            // Other processes and rounds outside the window are exempt.
            Event::Work { round: Round::new(12), pid: Pid::new(1), unit: Unit::new(3) },
            Event::Work { round: Round::new(99), pid: Pid::new(0), unit: Unit::new(4) },
        ]);
        let v = check_degraded_rate(&tr, Pid::new(0), Round::new(10), Round::new(20), 4);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].round, Round::new(12));
    }

    #[test]
    fn early_termination_is_flagged_but_crash_is_exempt() {
        let tr = trace(vec![
            Event::Work { round: Round::new(1), pid: Pid::new(0), unit: Unit::new(1) },
            // p1 crashes with u2 untouched: exempt.
            Event::Crash { round: Round::new(2), pid: Pid::new(1) },
            // p0 terminates with u2 untouched: the forgotten-chunk bug.
            Event::Terminate { round: Round::new(3), pid: Pid::new(0) },
        ]);
        let v = check_termination_after_completion(&tr, 2);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("p0 terminated with 1 of 2"));

        let complete = trace(vec![
            Event::Work { round: Round::new(1), pid: Pid::new(0), unit: Unit::new(1) },
            Event::Work { round: Round::new(2), pid: Pid::new(0), unit: Unit::new(2) },
            Event::Terminate { round: Round::new(2), pid: Pid::new(0) },
        ]);
        assert!(check_termination_after_completion(&complete, 2).is_empty());

        // Same-round simultaneity: p0's retirement is recorded before p1's
        // final unit, but the round's work is simultaneous, so it counts.
        let simultaneous = trace(vec![
            Event::Work { round: Round::new(1), pid: Pid::new(0), unit: Unit::new(1) },
            Event::Terminate { round: Round::new(1), pid: Pid::new(0) },
            Event::Work { round: Round::new(1), pid: Pid::new(1), unit: Unit::new(2) },
            Event::Terminate { round: Round::new(1), pid: Pid::new(1) },
        ]);
        assert!(check_termination_after_completion(&simultaneous, 2).is_empty());
    }

    #[test]
    fn clean_trace_passes_everything() {
        let tr = trace(vec![
            Event::Note { round: Round::new(1), pid: Pid::new(0), tag: "activate" },
            Event::Work { round: Round::new(1), pid: Pid::new(0), unit: Unit::new(1) },
            Event::Send {
                round: Round::new(2),
                from: Pid::new(0),
                to: Pid::new(1),
                class: "ordinary",
            },
            Event::Terminate { round: Round::new(3), pid: Pid::new(0) },
            Event::Note { round: Round::new(8), pid: Pid::new(1), tag: "activate" },
            Event::Terminate { round: Round::new(9), pid: Pid::new(1) },
        ]);
        assert!(check_single_active(&tr).is_empty());
        assert!(check_activation_order(&tr).is_empty());
        assert!(check_sequential_work(&tr).is_empty());
        assert!(check_no_zombie_actions(&tr).is_empty());
    }
}
