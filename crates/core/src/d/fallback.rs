//! The Protocol D → Protocol A fallback (Figure 4, line 12).
//!
//! When an agreement phase reveals that more than half of the previously
//! live processes died, Protocol D gives up on parallelism and "performs
//! the work in `S` using Protocol A". At that point all survivors agree on
//! the outstanding unit set `S` and the live set `T`, so we can relabel:
//! survivor ranks `0..|T|-1` play the roles of Protocol A's processes, the
//! sorted units of `S` play units `1..|S|`.
//!
//! Protocol A needs `t` a perfect square and `t | n` with `n >= t`; `|T|`
//! and `|S|` are arbitrary, so the machine runs on
//! [`padded_params`]`(|S|, |T|)`: virtual processes rank above every real
//! survivor and are silent from the start, phantom units consume their
//! round but emit no work.
//!
//! Nothing of Figure 1 is written here. The machine is the crate's one
//! `DoWork` driver (see [`crate::ab`]) under the activation rule
//! `base + DD(rank)`, emitting through the same clip sink as a padded
//! `ProtocolA` — with rank → survivor pid and unit → outstanding unit maps
//! where that one uses identities.

use doall_bounds::deadlines_ab::{dd, AbParams};
use doall_sim::{Effects, Pid, Round, Unit};

use crate::ab::{padded_params, AbMsg, Clipped, DoWork, Heard};

use super::DMsg;

/// The embedded, relabeled Protocol A machine driven by a Protocol D
/// process after the fallback trigger.
#[derive(Clone, Debug)]
pub struct FallbackMachine {
    /// Figure 1 for my rank within the sorted survivor set.
    core: DoWork,
    /// The engine round at which this machine started (deadlines offset).
    base: Round,
    /// Sorted survivor pids: `ranks[r]` is the real pid of rank `r`.
    ranks: Vec<u64>,
    /// Sorted outstanding units: `units[u-1]` is the real unit of
    /// relabeled unit `u`.
    units: Vec<u64>,
}

impl FallbackMachine {
    /// Builds the fallback machine for real process `me`, given the agreed
    /// survivor set and outstanding units, starting at engine round `base`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not in `survivors` (only agreed-live processes
    /// run the fallback) or if `units` is empty (an empty `S` skips the
    /// fallback entirely).
    pub fn new(me: u64, survivors: Vec<u64>, units: Vec<u64>, base: impl Into<Round>) -> Self {
        assert!(!units.is_empty(), "empty S never reaches the fallback");
        let rank = survivors
            .iter()
            .position(|&p| p == me)
            .expect("fallback is only run by agreed survivors") as u64;
        let params = padded_params(units.len() as u64, survivors.len() as u64);
        FallbackMachine {
            core: DoWork::new(params, rank),
            base: base.into(),
            ranks: survivors,
            units,
        }
    }

    /// Whether the machine has retired.
    pub fn is_done(&self) -> bool {
        self.core.is_done()
    }

    /// The padded Protocol A parameters (for tests).
    pub fn params(&self) -> AbParams {
        self.core.params
    }

    /// One engine round. `inbox` holds the fallback messages delivered this
    /// round as `(sender pid, message)` pairs.
    pub fn step(&mut self, round: Round, inbox: &[(u64, AbMsg)], eff: &mut Effects<DMsg>) {
        let (ranks, units) = (&self.ranks[..], &self.units[..]);
        let mut out = Clipped {
            eff,
            n_real: units.len() as u64,
            t_real: ranks.len() as u64,
            unit: |u| units[u as usize - 1] as usize,
            send: |eff: &mut Effects<DMsg>, to: std::ops::Range<usize>, msg| {
                for &pid in &ranks[to] {
                    eff.send(Pid::new(pid as usize), DMsg::Fallback(msg));
                }
            },
        };
        if self.core.advance(&mut out) {
            return;
        }
        // Of several messages in one round the last one is held; a
        // terminal one counts whoever sent it, anything else only from an
        // agreed survivor.
        for (from, msg) in inbox {
            let sender_rank = ranks.binary_search(from).ok().map(|r| r as u64);
            if self.core.hear(sender_rank, *msg) == Heard::Terminal {
                return self.core.retire(&mut out);
            }
        }
        if round.saturating_sub(self.base) >= u128::from(dd(self.core.params, self.core.rank)) {
            self.core.activate(&mut out);
        }
    }

    /// The driver's work lease relabelled onto the real units: offered
    /// only when the run maps onto consecutive real units (a lease
    /// performs `first, first + 1, …`), otherwise `None`. `units` is sorted
    /// and duplicate-free, so comparing the run's two ends decides it.
    pub fn lease(&self) -> Option<(Unit, u64)> {
        let (first, len) = self.core.lease(self.units.len() as u64)?;
        let lo = self.units[first as usize - 1];
        let hi = self.units[(first + len) as usize - 2];
        (hi - lo == len - 1).then(|| (Unit::new(lo as usize), len))
    }

    /// Where `k` steps of the lease last offered leave the machine.
    pub fn skip(&mut self, k: u64) {
        self.core.skip(k);
    }

    /// Earliest round at which this machine wants to act spontaneously.
    pub fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.core
            .next_wakeup(now, || Some((self.base + dd(self.core.params, self.core.rank)).max(now)))
    }
}

#[cfg(test)]
mod tests {
    use doall_sim::Unit;

    use super::*;

    #[test]
    fn padding_produces_valid_protocol_a_params() {
        // 3 survivors, 5 units: pad to t = 4, n = 8.
        let m = FallbackMachine::new(7, vec![2, 7, 9], vec![10, 11, 12, 40, 41], 100u64);
        assert_eq!(m.params().t, 4);
        assert_eq!(m.params().n, 8);
        assert_eq!(m.core.rank, 1);
    }

    #[test]
    fn single_survivor_pads_to_one_by_one() {
        let m = FallbackMachine::new(3, vec![3], vec![9], 5u64);
        assert_eq!(m.params().t, 1);
        assert_eq!(m.params().n, 1);
        assert_eq!(m.core.rank, 0);
    }

    #[test]
    fn rank_zero_activates_immediately_and_performs_real_units() {
        let mut m = FallbackMachine::new(2, vec![2, 7, 9], vec![10, 11, 12, 40, 41], 100u64);
        let mut eff = Effects::new();
        m.step(Round::new(100), &[], &mut eff);
        // First op is real unit 10 (relabeled unit 1).
        assert_eq!(eff.work(), [Unit::new(10)]);
        assert_eq!(eff.notes(), ["activate"]);
    }

    #[test]
    fn leases_only_runs_the_unit_map_keeps_contiguous() {
        // One survivor, S = {10, 11, 12, 40, 41}: relabelled units 1..=5
        // form one work run, but real units 12 and 40 are not adjacent.
        // Each step performs the next unit, and a lease is offered only
        // once the rest of the run maps onto consecutive real units.
        let mut m = FallbackMachine::new(3, vec![3], vec![10, 11, 12, 40, 41], 1u64);
        assert_eq!(m.lease(), None, "passive");
        let mut offered = Vec::new();
        for r in 1u64..4 {
            let mut eff = Effects::new();
            m.step(Round::from(r), &[], &mut eff);
            offered.push((eff.work()[0].get(), m.lease()));
        }
        let run = Some((Unit::new(40), 2));
        assert_eq!(offered, [(10, None), (11, None), (12, run)]);
        let mut stepped = m.clone();
        for r in 4u64..6 {
            stepped.step(Round::from(r), &[], &mut Effects::new());
        }
        m.skip(2);
        assert_eq!(format!("{m:?}"), format!("{stepped:?}"));
        assert_eq!(m.lease(), None, "a checkpoint comes next");
    }

    #[test]
    fn phantom_units_consume_rounds_without_work() {
        // 1 survivor, 1 real unit padded to n = 1: trivially fine; use 2
        // survivors (pad t to 4), 3 units padded to n = 4 -> 1 phantom.
        let mut m = FallbackMachine::new(0, vec![0, 1], vec![5, 6, 7], 1u64);
        let mut performed = Vec::new();
        for r in 1u64..200 {
            let mut eff = Effects::new();
            m.step(Round::from(r), &[], &mut eff);
            performed.extend(eff.work().iter().map(|u| u.get()));
            if m.is_done() {
                break;
            }
        }
        assert_eq!(performed, vec![5, 6, 7], "exactly the real units, in order");
        assert!(m.is_done());
    }

    #[test]
    fn messages_to_virtual_ranks_are_dropped() {
        // 2 survivors padded to t = 4: partial checkpoints address ranks
        // 1..3 but only rank 1 exists.
        let mut m = FallbackMachine::new(0, vec![0, 9], vec![1, 2, 3, 4], 1u64);
        let mut total_sends = 0;
        for r in 1u64..200 {
            let mut eff = Effects::new();
            m.step(Round::from(r), &[], &mut eff);
            for op in eff.sends() {
                for to in op.to.iter() {
                    assert!(to.index() == 9, "only the real survivor may be addressed");
                    total_sends += 1;
                }
            }
            if m.is_done() {
                break;
            }
        }
        assert!(total_sends > 0);
    }

    #[test]
    fn passive_rank_takes_over_after_dd() {
        let mut m = FallbackMachine::new(9, vec![2, 9], vec![1, 2, 3, 4], 50u64);
        let dd1 = dd(m.params(), 1);
        // Before the deadline: idle.
        let mut eff = Effects::new();
        m.step(Round::new(50), &[], &mut eff);
        assert!(eff.is_idle());
        assert_eq!(m.next_wakeup(Round::new(51)), Some(Round::from(50 + dd1)));
        // At the deadline: activates from scratch.
        let mut eff = Effects::new();
        m.step(Round::from(50 + dd1), &[], &mut eff);
        assert_eq!(eff.notes(), ["activate"]);
    }

    #[test]
    fn terminal_fallback_message_retires_passive_rank() {
        let mut m = FallbackMachine::new(9, vec![2, 9], vec![1, 2, 3, 4], 50u64);
        let t_sub = m.params().t; // relabeled final subchunk id
        let mut eff = Effects::new();
        m.step(Round::new(51), &[(2, AbMsg::Partial { c: t_sub })], &mut eff);
        assert!(eff.is_terminated());
        assert!(m.is_done());
    }

    /// Process `j` of a Protocol A system with its fallback twin under the
    /// identity relabelling riding along: every step is taken by both on
    /// the same inbox and must emit the same thing.
    struct Twin {
        a: crate::ab::protocol_a::ProtocolA,
        f: FallbackMachine,
    }

    impl doall_sim::Protocol for Twin {
        type Msg = AbMsg;

        fn step(
            &mut self,
            round: Round,
            inbox: doall_sim::Inbox<'_, AbMsg>,
            eff: &mut Effects<AbMsg>,
        ) {
            let pairs: Vec<(u64, AbMsg)> =
                inbox.iter().map(|(from, msg)| (from.index() as u64, *msg)).collect();
            self.a.step(round, inbox, eff);
            let mut twin = Effects::new();
            self.f.step(round, &pairs, &mut twin);

            let flat = |to: &doall_sim::Recipients, msg: AbMsg| {
                to.iter().map(move |pid| (pid, msg)).collect::<Vec<_>>()
            };
            let sent: Vec<_> = eff.sends().iter().flat_map(|op| flat(&op.to, op.payload)).collect();
            let twin_sent: Vec<_> = twin
                .sends()
                .iter()
                .flat_map(|op| match op.payload {
                    DMsg::Fallback(msg) => flat(&op.to, msg),
                    ref other => panic!("fallback sent {other}"),
                })
                .collect();
            let at = format!("round {round}, rank {}", self.f.core.rank);
            assert_eq!(twin.work(), eff.work(), "{at}");
            assert_eq!(twin_sent, sent, "{at}");
            assert_eq!(twin.notes(), eff.notes(), "{at}");
            assert_eq!(twin.is_terminated(), eff.is_terminated(), "{at}");
            assert_eq!(self.f.next_wakeup(round + 1u64), self.a.next_wakeup(round + 1u64), "{at}");
        }

        fn next_wakeup(&self, now: Round) -> Option<Round> {
            self.a.next_wakeup(now)
        }
    }

    #[test]
    fn identity_relabelled_fallback_is_protocol_a_step_for_step() {
        use doall_sim::{run, CrashSpec, FaultPlan, RunConfig};

        for (n, t) in [(32u64, 16u64), (18, 9), (8, 4)] {
            let twins: Vec<Twin> = crate::ab::protocol_a::ProtocolA::processes(n, t)
                .unwrap()
                .into_iter()
                .zip(0..t)
                .map(|(a, j)| Twin {
                    a,
                    f: FallbackMachine::new(j, (0..t).collect(), (1..=n).collect(), 0u64),
                })
                .collect();
            // Takeovers with every kind of handover: mid-work, mid-checkpoint
            // with a partial broadcast, and right after a full broadcast.
            let adv = FaultPlan::default()
                .crash_at(Pid::new(0), n / t + 1, CrashSpec::prefix(1))
                .crash_at(Pid::new(1), n + 3 * t + 2, CrashSpec::silent())
                .crash_at(Pid::new(2), 2 * (n + 3 * t) + n / 2, CrashSpec::after_round());
            let report = run(twins, adv, RunConfig::new(n as usize, 1_000_000)).unwrap();
            assert!(report.metrics.all_work_done());
            assert_eq!(report.metrics.crashes, 3);
        }
    }
}
