//! The trait implemented by every protocol under simulation.

use std::fmt;

use crate::effects::Effects;
use crate::ids::{Round, Unit};
use crate::message::{Classify, Inbox};

/// A per-process protocol state machine driven by the synchronous engine.
///
/// One value of the implementing type exists per process. Each *executed*
/// round, the engine calls [`step`](Protocol::step) on every process that is
/// still alive and unterminated, passing the messages delivered this round
/// (those sent during the previous round) as a borrowing [`Inbox`] view.
///
/// # Quiescence contract
///
/// The engine may **skip** a process's step in any round where its inbox
/// is empty, it is not yet due per [`next_wakeup`](Protocol::next_wakeup),
/// and the adversary has no event scheduled — and may **fast-forward** the
/// clock entirely over rounds in which this holds for every process and no
/// messages are in flight. For this to be sound, `step` must be a pure
/// no-op whenever the inbox is empty and `round` is earlier than the round
/// most recently reported by `next_wakeup`, and `next_wakeup` must name the
/// same absolute round regardless of when it is asked (the engine caches
/// its answer until the process next steps). All timing decisions must
/// therefore be derived from the absolute `round` argument (deadlines),
/// never from counting `step` invocations. Protocol C relies on this: its
/// deadlines are `Θ(K (n+t) 2^{n+t})` rounds long — wide-clock territory —
/// and simulating them round-by-round would be infeasible.
///
/// # Work leases
///
/// A process due next round may also offer a *lease*: a run of rounds in
/// which it only works, whatever it receives. [`lease`](Protocol::lease)
/// returning `Some((first, len))` at `now` promises, for rounds
/// `now .. now + len` and any inboxes: the process performs `first`,
/// `first + 1`, … one unit per round; it sends nothing, notes nothing and
/// does not terminate; and after any prefix of `k <= len` of those rounds
/// it is due at `now + k`. When the adversary
/// [permits](crate::Adversary::permits_lease) it and no trace is
/// recording, the engine credits the whole run to the ledger at once,
/// calls [`advance(len)`](Protocol::advance) and parks the process until
/// `now + len`. Leased rounds in which nobody steps and nothing is in
/// flight are crossed in one clock jump, counted as executed rounds with
/// progress, so every count is the one per-round stepping produces. Leases
/// are never cut short: the engine clips `len` at the adversary's next
/// event, at any pause point and at the round cap before granting it. The
/// defaults (no lease) are per-round stepping.
pub trait Protocol {
    /// The message payload exchanged by this protocol.
    type Msg: Clone + fmt::Debug + Classify;

    /// Executes one synchronous round.
    ///
    /// `inbox` holds the messages delivered at the start of this round,
    /// iterated as `(sender, &payload)` in sender order (deterministic).
    /// Record all actions on `eff`.
    fn step(&mut self, round: Round, inbox: Inbox<'_, Self::Msg>, eff: &mut Effects<Self::Msg>);

    /// The earliest round `>= now` at which this process may act without
    /// first receiving a message, or `None` if it is purely reactive.
    ///
    /// Used only for fast-forwarding; returning `Some(now)` every time is
    /// always correct (it merely disables the optimization for this
    /// process).
    fn next_wakeup(&self, now: Round) -> Option<Round>;

    /// Called when the engine restarts this process after a
    /// [`Fate::CrashRecover`](crate::Fate::CrashRecover) downtime, at
    /// `round` — before any step. With `wipe`, the process lost all state
    /// and must reset to its initial configuration; without it, the state
    /// is exactly what it was at the crash (stale: everything delivered in
    /// between was lost). Implementations must leave the process in a
    /// configuration from which [`next_wakeup`](Protocol::next_wakeup) is
    /// meaningful — the engine re-queries it right after this call. The
    /// default keeps the stale state untouched, which is always safe for
    /// protocols whose progress claims tolerate silent periods.
    fn on_recover(&mut self, round: Round, wipe: bool) {
        let _ = (round, wipe);
    }

    /// The run of units this process will perform one per round from `now`
    /// on, whatever arrives: `Some((first, len))` with `len >= 1`, under the
    /// promise of the trait-level lease contract. The default `None` never
    /// offers one.
    #[inline]
    fn lease(&self, now: Round) -> Option<(Unit, u64)> {
        let _ = now;
        None
    }

    /// Leaves the state where `k` steps of the lease last offered would
    /// have left it (`1 <= k <= len`). Called once per granted lease, at
    /// grant time; the default does nothing, matching the default `lease`.
    #[inline]
    fn advance(&mut self, k: u64) {
        let _ = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Pid;

    #[derive(Clone, Debug)]
    struct Tick;
    impl Classify for Tick {}

    /// A trivial protocol: sends one message to its successor at its wakeup
    /// round, then terminates.
    struct OneShot {
        me: Pid,
        t: usize,
        fire_at: Round,
        fired: bool,
    }

    impl Protocol for OneShot {
        type Msg = Tick;

        fn step(&mut self, round: Round, _inbox: Inbox<'_, Tick>, eff: &mut Effects<Tick>) {
            if !self.fired && round >= self.fire_at {
                let succ = Pid::new((self.me.index() + 1) % self.t);
                eff.send(succ, Tick);
                eff.terminate();
                self.fired = true;
            }
        }

        fn next_wakeup(&self, now: Round) -> Option<Round> {
            if self.fired {
                None
            } else {
                Some(self.fire_at.max(now))
            }
        }
    }

    #[test]
    fn one_shot_is_quiescent_before_wakeup() {
        let mut p = OneShot { me: Pid::new(0), t: 2, fire_at: Round::new(10), fired: false };
        let mut eff = Effects::new();
        p.step(Round::new(5), Inbox::empty(), &mut eff);
        assert!(eff.is_idle());
        assert_eq!(p.next_wakeup(Round::new(6)), Some(Round::new(10)));
    }

    #[test]
    fn one_shot_fires_at_wakeup() {
        let mut p = OneShot { me: Pid::new(1), t: 2, fire_at: Round::new(10), fired: false };
        let mut eff = Effects::new();
        p.step(Round::new(10), Inbox::empty(), &mut eff);
        assert_eq!(eff.send_count(), 1);
        assert!(eff.is_terminated());
        assert_eq!(p.next_wakeup(Round::new(11)), None);
    }
}
