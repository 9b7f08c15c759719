//! The asynchronous variant of Protocol A (§2.1 of the paper) — and the
//! one machine behind both asynchronous protocols.
//!
//! > "Notice that we can easily modify this algorithm to run in a
//! > completely asynchronous system equipped with an appropriate failure
//! > detection mechanism: … rather than waiting until round `DD(j)` before
//! > becoming active, process `j` waits until it has been informed that
//! > processes `1, …, j−1` crashed or terminated."
//!
//! The checkpointing logic is not a copy of the synchronous `DoWork` of
//! Figure 1 but the same function: [`AsyncAb`] holds the crate's one
//! `DoWork` driver (see [`super`]) and emits through
//! [`Effects`] where the synchronous protocols emit through
//! `Effects`. Only the activation trigger changes: the retirement detector
//! of [`doall_sim::asynch`] replaces the round deadline. Because the
//! detector is *sound* (it never reports a live process), at most one
//! process is active at any time, and the Theorem 2.3 work/message bounds
//! carry over unchanged; time is no longer a meaningful measure.
//!
//! See [`asynch_b`](super::asynch_b) for the Protocol B analogue, which
//! additionally infers retirements from received checkpoints instead of
//! waiting for a detector report about every lower-numbered process — the
//! `INFER = true` instance of the same machine.

use doall_bounds::AbParams;
use doall_sim::asynch::AsyncProtocol;
use doall_sim::Effects;
use doall_sim::{Inbox, Pid};

use super::{validate, AbMsg, DoWork, Heard};
use crate::error::ConfigError;

/// One process of the asynchronous Protocol A.
///
/// Run with [`doall_sim::asynch::run_async`].
///
/// # Examples
///
/// ```
/// use doall_core::ab::asynch::AsyncProtocolA;
/// use doall_sim::asynch::{run_async, AsyncConfig};
/// use doall_sim::NoFailures;
///
/// let procs = AsyncProtocolA::processes(32, 16)?;
/// let report = run_async(procs, NoFailures, AsyncConfig::new(32, 1))?;
/// assert!(report.metrics.all_work_done());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type AsyncProtocolA = AsyncAb<false>;

/// One process of an asynchronous checkpointing protocol: it activates
/// once every lower-numbered process is *known* retired. Known means
/// reported by the retirement detector and, when `INFER` is set, also
/// implied by the highest ordinary sender heard from
/// ([`AsyncProtocolB`](super::asynch_b::AsyncProtocolB); without it,
/// [`AsyncProtocolA`]).
#[derive(Clone, Debug)]
pub struct AsyncAb<const INFER: bool> {
    core: DoWork,
    /// Bitmap of the detector reports that can still move the
    /// `known_below` watermark: bit `r` (word `r / 64`) is set for a
    /// report on `known_below ≤ r < j`, grown on demand, so it never
    /// holds more than `⌈j / 64⌉` words. Reports on `j` or above, or
    /// below the watermark, are never read and are not stored.
    reported: Vec<u64>,
    /// Everything below this pid is known retired by *inference*: an
    /// ordinary message from `i` proves all `k < i` retired (Lemma 2.2).
    /// Stays 0 unless `INFER`.
    inferred_below: u64,
    /// Everything below this pid is known retired (by report or
    /// inference) — advanced incrementally, one bit test per report, so a
    /// notice or message batch never rescans `0..j`.
    known_below: u64,
}

impl<const INFER: bool> AsyncAb<INFER> {
    /// Creates process `j` of an `(n, t)` system.
    pub fn new(params: AbParams, j: u64) -> Self {
        AsyncAb {
            core: DoWork::new(params, j),
            reported: Vec::new(),
            inferred_below: 0,
            known_below: 0,
        }
    }

    /// Creates the full vector of `t` processes for `n` units of work.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `t` is a positive perfect square,
    /// `t | n`, and `n >= t`.
    pub fn processes(n: u64, t: u64) -> Result<Vec<Self>, ConfigError> {
        let params = validate(n, t)?;
        Ok((0..t).map(|j| Self::new(params, j)).collect())
    }

    /// Whether every process below `j` is known retired (watermark
    /// advanced incrementally).
    fn all_lower_known_retired(&mut self) -> bool {
        self.known_below = self.known_below.max(self.inferred_below);
        while self.known_below < self.core.rank && self.is_reported(self.known_below) {
            self.known_below += 1;
        }
        self.known_below >= self.core.rank
    }

    /// Records a detector report on `r` if the watermark can still read it.
    fn record_report(&mut self, r: u64) {
        if !(self.known_below..self.core.rank).contains(&r) {
            return;
        }
        let word = (r / 64) as usize;
        if word >= self.reported.len() {
            self.reported.resize(word + 1, 0);
        }
        self.reported[word] |= 1 << (r % 64);
    }

    fn is_reported(&self, r: u64) -> bool {
        self.reported.get((r / 64) as usize).is_some_and(|w| w & (1 << (r % 64)) != 0)
    }

    fn maybe_activate(&mut self, eff: &mut Effects<AbMsg>) {
        if self.core.is_passive() && self.all_lower_known_retired() {
            self.core.activate(eff);
            self.keep_ticking(eff);
        }
    }

    /// An active schedule is driven one operation per tick.
    fn keep_ticking(&self, eff: &mut Effects<AbMsg>) {
        if self.core.is_active() {
            eff.continue_later();
        }
    }
}

impl<const INFER: bool> AsyncProtocol for AsyncAb<INFER> {
    type Msg = AbMsg;

    fn on_start(&mut self, eff: &mut Effects<AbMsg>) {
        if self.core.rank == 0 {
            self.maybe_activate(eff);
        }
    }

    fn on_messages(&mut self, inbox: Inbox<'_, AbMsg>, eff: &mut Effects<AbMsg>) {
        if !self.core.is_passive() {
            return; // active/terminated processes ignore stray traffic
        }
        for (from, payload) in inbox.iter() {
            let from = from.index() as u64;
            match self.core.hear(Some(from), *payload) {
                Heard::Terminal => return self.core.retire(eff),
                // The sender was active when it sent this, so everything
                // below it has retired. (Senders are always lower-numbered
                // here — checkpoints flow upward — but cap at `j` anyway:
                // inference must never cover `j` itself.)
                Heard::Updated if INFER => {
                    self.inferred_below = self.inferred_below.max(from.min(self.core.rank));
                }
                Heard::Updated | Heard::Ignored => {}
            }
        }
        if INFER {
            // Fresh inference may cover exactly the pids whose detector
            // reports this process was still waiting on.
            self.maybe_activate(eff);
        }
    }

    fn on_retirement(&mut self, retired: Pid, eff: &mut Effects<AbMsg>) {
        self.record_report(retired.index() as u64);
        self.maybe_activate(eff);
    }

    fn on_tick(&mut self, eff: &mut Effects<AbMsg>) {
        self.core.advance(eff);
        self.keep_ticking(eff);
    }

    fn on_recover(&mut self, wipe: bool, eff: &mut Effects<AbMsg>) {
        eff.note("rejoin");
        self.core.on_recover(wipe);
        if wipe {
            self.reported.clear();
            self.inferred_below = 0;
            self.known_below = 0;
        }
        if self.core.is_passive() {
            // Wiped, the process re-learns retirements from the detector's
            // replay (and any later checkpoints); p0 needs no predecessors
            // and starts over at once.
            self.maybe_activate(eff);
        } else if self.core.is_active() {
            // The crash severed the tick chain driving the schedule;
            // splice it back.
            eff.continue_later();
        } else {
            // The crash preempted a same-invocation termination; the work
            // is done, so retire for real now.
            self.core.advance(eff);
        }
    }
}

#[cfg(test)]
mod tests {
    use doall_bounds::theorems;
    use doall_sim::asynch::{run_async, AsyncConfig};
    use doall_sim::invariants::{
        check_activation_order, check_detector_soundness, check_no_zombie_actions,
        check_single_active,
    };
    use doall_sim::{CrashSpec, Deliver, FaultPlan, NoFailures, Trigger};

    use super::*;

    const N: u64 = 32;
    const T: u64 = 16;

    fn cfg(seed: u64) -> AsyncConfig {
        AsyncConfig { max_delay: 7, max_events: 1_000_000, ..AsyncConfig::new(N as usize, seed) }
    }

    #[test]
    fn failure_free_async_run_matches_synchronous_counts() {
        let report =
            run_async(AsyncProtocolA::processes(N, T).unwrap(), NoFailures, cfg(1)).unwrap();
        assert!(report.metrics.all_work_done());
        assert_eq!(report.metrics.work_total, N);
        // Same message count as the synchronous failure-free run: 132.
        assert_eq!(report.metrics.messages, 132);
        assert!(report.has_survivor());
        assert_eq!(report.survivor_count() as u64, T);
    }

    #[test]
    fn crash_of_active_process_hands_over_via_detector() {
        // p0 dies on its 5th handler invocation (start + 4 ticks = after 5
        // operations); p1 activates once the detector informs it.
        let crash = FaultPlan::default().crash_on(
            Trigger::NthInvocationOf { pid: Pid::new(0), nth: 5 },
            CrashSpec { deliver: Deliver::Prefix(0), count_work: true },
        );
        let report =
            run_async(AsyncProtocolA::processes(N, T).unwrap(), crash, cfg(2).with_trace())
                .unwrap();
        assert!(report.metrics.all_work_done());
        let b = theorems::protocol_a(N, T);
        assert!(report.metrics.work_total <= b.work);
        assert!(report.metrics.messages <= b.messages);
        // Activation order is preserved: p0 then p1.
        let activations: Vec<Pid> = report.trace.notes("activate").map(|(_, p)| p).collect();
        assert_eq!(activations, vec![Pid::new(0), Pid::new(1)]);
    }

    #[test]
    fn async_runs_are_deterministic_per_seed() {
        let run1 = run_async(AsyncProtocolA::processes(N, T).unwrap(), NoFailures, cfg(9)).unwrap();
        let run2 = run_async(AsyncProtocolA::processes(N, T).unwrap(), NoFailures, cfg(9)).unwrap();
        assert_eq!(run1.metrics, run2.metrics);
    }

    #[test]
    fn detector_soundness_preserves_single_active() {
        // Under several delay seeds with a mid-run crash, activations must
        // stay ordered by pid and never overlap (each activation happens
        // only after the previous active process truly retired) — checked
        // both directly on the notes and via the ported trace invariants.
        for seed in 0..8 {
            let crash = FaultPlan::default().crash_on(
                Trigger::NthInvocationOf { pid: Pid::new(0), nth: 9 },
                CrashSpec { deliver: Deliver::Prefix(2), count_work: true },
            );
            let report =
                run_async(AsyncProtocolA::processes(N, T).unwrap(), crash, cfg(seed).with_trace())
                    .unwrap();
            assert!(report.metrics.all_work_done(), "seed {seed}");
            let activations: Vec<Pid> = report.trace.notes("activate").map(|(_, p)| p).collect();
            assert!(
                activations.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: activations not strictly ordered: {activations:?}"
            );
            assert!(check_single_active(&report.trace).is_empty(), "seed {seed}");
            assert!(check_activation_order(&report.trace).is_empty(), "seed {seed}");
            assert!(check_no_zombie_actions(&report.trace).is_empty(), "seed {seed}");
            assert!(check_detector_soundness(&report.trace).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn cascade_of_crashes_respects_work_bound() {
        // p0 dies right after performing its first unit of work.
        let crash = FaultPlan::default().crash_on(
            Trigger::NthInvocationOf { pid: Pid::new(0), nth: 1 },
            CrashSpec { deliver: Deliver::Prefix(0), count_work: true },
        );
        let report = run_async(AsyncProtocolA::processes(N, T).unwrap(), crash, cfg(3)).unwrap();
        assert!(report.metrics.all_work_done());
        assert!(report.metrics.work_total <= theorems::protocol_a(N, T).work);
    }

    /// The watermark as it was kept before the bitmap: every report, for
    /// any pid, in a tree, removed as the watermark passes it.
    struct TreeWatermark {
        rank: u64,
        reported: std::collections::BTreeSet<u64>,
        inferred_below: u64,
        known_below: u64,
    }

    impl TreeWatermark {
        fn all_lower_known_retired(&mut self) -> bool {
            self.known_below = self.known_below.max(self.inferred_below);
            while self.known_below < self.rank && self.reported.remove(&self.known_below) {
                self.known_below += 1;
            }
            self.known_below >= self.rank
        }
    }

    /// Drives the bitmap watermark in lockstep with [`TreeWatermark`]:
    /// reports in random order, duplicates (the shape of a revival's
    /// replay), pids at or above the rank, inference jumps (`INFER` only)
    /// and wipes.
    fn bitmap_watermark_matches_tree<const INFER: bool>() {
        let params = AbParams::new(256, 256);
        let mut x = 0x2545f4914f6cdd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut eff = Effects::default();
        for rank in [0, 1, 2, 63, 64, 65, 127, 128, 200, 255] {
            let mut proc = AsyncAb::<INFER>::new(params, rank);
            let mut model = TreeWatermark {
                rank,
                reported: Default::default(),
                inferred_below: 0,
                known_below: 0,
            };
            let mut last = 0u64;
            for step in 0..20_000 {
                eff.reset();
                let r = next();
                let near = model.known_below + (r >> 8) % 4;
                let kind = (r >> 40) % 1024;
                match kind {
                    // Reports anywhere in the system, this pid and above
                    // included.
                    0..=383 => last = (r >> 8) % params.t,
                    // Reports at or just past the watermark, so it moves.
                    384..=767 => last = near.min(params.t - 1),
                    // A duplicate of the last report.
                    768..=895 => {}
                    // An ordinary message from `from` proves all below it
                    // retired (as `on_messages` records it).
                    896..=1022 if INFER => {
                        let from = near.min(params.t - 1);
                        proc.inferred_below = proc.inferred_below.max(from.min(rank));
                        model.inferred_below = model.inferred_below.max(from.min(rank));
                    }
                    896..=1022 => continue,
                    _ => {
                        proc.on_recover(true, &mut eff);
                        model.reported.clear();
                        model.inferred_below = 0;
                        model.known_below = 0;
                    }
                }
                if kind < 896 {
                    proc.on_retirement(Pid::new(last as usize), &mut eff);
                    model.reported.insert(last);
                }
                let ctx = format!("INFER={INFER} rank {rank} step {step}");
                assert_eq!(
                    proc.all_lower_known_retired(),
                    model.all_lower_known_retired(),
                    "{ctx}"
                );
                assert_eq!(proc.known_below, model.known_below, "{ctx}");
                assert!(proc.reported.len() as u64 <= rank.div_ceil(64), "{ctx}");
            }
        }
    }

    #[test]
    fn report_bitmap_matches_tree_model() {
        bitmap_watermark_matches_tree::<false>();
        bitmap_watermark_matches_tree::<true>();
    }
}
