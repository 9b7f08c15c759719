//! The asynchronous analogue of Protocol B — a **labeled extension**
//! beyond the paper's text, in the spirit of §2.1's asynchronous remark
//! (the paper only spells the remark out for Protocol A).
//!
//! Synchronous Protocol B improves on A by replacing the crude global
//! deadline `DD(j)` with *message-driven* knowledge: per-edge deadlines
//! `DDB(j, i)` plus a polling `go ahead` phase that probes whether the
//! lowest un-provably-retired process is still alive. In a fully
//! asynchronous system neither mechanism survives — there are no rounds to
//! count deadlines in, and a poll without a timeout proves nothing. What
//! *does* survive is B's key idea: **messages carry retirement knowledge**.
//!
//! By the activation discipline (every process activates only after all
//! lower-numbered processes retired — Lemma 2.2, preserved here by
//! induction), an ordinary checkpoint received from process `i` proves
//! that every process `k < i` has already retired, with no detector
//! involvement. `AsyncProtocolB` therefore activates once every `k < j` is
//! *known* retired, where known = reported by the retirement detector
//! **or** inferred from the highest ordinary sender heard from. Protocol
//! A's variant waits for explicit reports on all `j` predecessors; B's
//! never waits on a report the message flow already implies, so its
//! takeover can only be earlier (never later) on the same schedule — and
//! the `go ahead` machinery disappears entirely: `AsyncProtocolB` sends
//! **zero** `go_ahead` messages in every execution.
//!
//! The checkpointing is untouched — both asynchronous protocols are one
//! machine, [`AsyncAb`], whose `INFER` parameter is the whole of the
//! difference described above — so Theorem 2.3/2.8's work bound (`≤ 3n`)
//! and the ordinary-message bound (`≤ 9t√t`) carry over exactly as for the
//! asynchronous Protocol A.

use super::asynch::AsyncAb;

/// One process of the asynchronous Protocol B.
///
/// Run with [`doall_sim::asynch::run_async`].
///
/// # Examples
///
/// ```
/// use doall_core::ab::asynch_b::AsyncProtocolB;
/// use doall_sim::asynch::{run_async, AsyncConfig};
/// use doall_sim::NoFailures;
///
/// let procs = AsyncProtocolB::processes(32, 16)?;
/// let report = run_async(procs, NoFailures, AsyncConfig::new(32, 1))?;
/// assert!(report.metrics.all_work_done());
/// // No go_ahead ever: the detector replaced the polling phase.
/// assert_eq!(report.metrics.messages_by_class.get("go_ahead"), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type AsyncProtocolB = AsyncAb<true>;

#[cfg(test)]
mod tests {
    use doall_bounds::theorems;
    use doall_sim::asynch::{run_async, AsyncConfig, AsyncReport};
    use doall_sim::invariants::{
        check_activation_order, check_detector_soundness, check_single_active,
    };
    use doall_sim::{CrashSpec, FaultPlan, NoFailures, Pid, Trigger};

    use super::super::asynch::AsyncProtocolA;
    use super::*;

    const N: u64 = 32;
    const T: u64 = 16;

    fn cfg(seed: u64) -> AsyncConfig {
        AsyncConfig { max_delay: 7, max_events: 1_000_000, ..AsyncConfig::new(N as usize, seed) }
    }

    fn activation_of(report: &AsyncReport, pid: Pid) -> Option<doall_sim::asynch::Time> {
        report.trace.notes("activate").find(|&(_, p)| p == pid).map(|(time, _)| time)
    }

    #[test]
    fn failure_free_matches_async_protocol_a_exactly() {
        let b = run_async(AsyncProtocolB::processes(N, T).unwrap(), NoFailures, cfg(1)).unwrap();
        let a = run_async(AsyncProtocolA::processes(N, T).unwrap(), NoFailures, cfg(1)).unwrap();
        assert!(b.metrics.all_work_done());
        assert_eq!(b.metrics, a.metrics, "identical schedule, identical delays");
        assert_eq!(b.metrics.messages, 132);
        assert_eq!(b.metrics.messages_by_class.get("go_ahead"), None);
    }

    #[test]
    fn bounds_hold_under_random_crashes() {
        for seed in 0..12 {
            let adv = FaultPlan::random(seed, 0.01, (T - 1) as u32);
            let report =
                run_async(AsyncProtocolB::processes(N, T).unwrap(), adv, cfg(seed).with_trace())
                    .unwrap();
            assert!(report.metrics.all_work_done(), "seed {seed}");
            assert!(report.has_survivor(), "seed {seed}");
            let bound = theorems::protocol_a(N, T);
            assert!(report.metrics.work_total <= bound.work, "seed {seed}");
            assert!(report.metrics.messages <= bound.messages, "seed {seed}");
            assert_eq!(report.metrics.messages_by_class.get("go_ahead"), None, "seed {seed}");
            assert!(check_single_active(&report.trace).is_empty(), "seed {seed}");
            assert!(check_activation_order(&report.trace).is_empty(), "seed {seed}");
            assert!(check_detector_soundness(&report.trace).is_empty(), "seed {seed}");
        }
    }

    /// The takeover scenario where inference beats the detector: p0 dies
    /// mid-schedule, p1 takes over and checkpoints at least once, then p1
    /// dies too. Successor p2 needs {p0, p1} known-retired. Having heard a
    /// checkpoint *from p1*, AsyncProtocolB infers p0's retirement and
    /// waits only for the detector's report on p1, while AsyncProtocolA
    /// waits for both reports. Consequence: on every seed B's p2 activates
    /// no later than A's, and on some seed strictly earlier.
    #[test]
    fn message_inference_activates_no_later_than_protocol_a() {
        // p0 dies mid-schedule (after a few checkpoints), p1 takes over,
        // checkpoints at least once, then dies too; p2 succeeds it.
        let adv = || {
            FaultPlan::default()
                .crash_on(
                    Trigger::NthInvocationOf { pid: Pid::new(0), nth: 4 },
                    CrashSpec::after_round(),
                )
                .crash_on(
                    Trigger::NthInvocationOf { pid: Pid::new(1), nth: 6 },
                    CrashSpec::after_round(),
                )
        };
        // Bimodal delays (fast hops vs 32-step stragglers) make "the
        // report on long-dead p0 is still in flight when p1's report
        // lands" a common occurrence instead of a 1-in-100 coincidence.
        let cfg = |seed| {
            AsyncConfig::new(N as usize, seed)
                .with_delay(doall_sim::asynch::DelayDist::Bimodal, 32)
                .with_trace()
        };
        let mut strictly_earlier = 0u32;
        for seed in 0..40 {
            let b = run_async(AsyncProtocolB::processes(N, T).unwrap(), adv(), cfg(seed)).unwrap();
            let a = run_async(AsyncProtocolA::processes(N, T).unwrap(), adv(), cfg(seed)).unwrap();
            assert!(b.metrics.all_work_done(), "seed {seed}");
            assert!(a.metrics.all_work_done(), "seed {seed}");
            let (Some(tb), Some(ta)) =
                (activation_of(&b, Pid::new(2)), activation_of(&a, Pid::new(2)))
            else {
                continue; // p2 never needed to take over under this seed
            };
            // Up to p2's activation the two executions are identical, so
            // the activation times are directly comparable: B's weaker
            // (report-or-inference) predicate can only fire earlier.
            assert!(tb <= ta, "seed {seed}: B activated at {tb}, after A's {ta}");
            if tb < ta {
                strictly_earlier += 1;
            }
        }
        assert!(
            strictly_earlier > 0,
            "inference never beat the detector on any seed — the extension is vacuous"
        );
    }

    #[test]
    fn rejects_invalid_configurations() {
        assert!(AsyncProtocolB::processes(12, 6).is_err());
        assert!(AsyncProtocolB::processes(0, 16).is_err());
    }
}
