//! Engine-level integration tests: model-rule enforcement, delivery
//! semantics, fast-forward equivalence, adversary composition.

use doall::sim::asynch::{run_async, AsyncConfig, AsyncProtocol, AsyncReport};
use doall::sim::{
    run, Classify, CrashSpec, Deliver, Effects, Engine, FaultPlan, Inbox, Metrics, NoFailures, Pid,
    Protocol, Round, RunConfig, RunError, StallDiagnosis, Unit, Waiting,
};

/// Ping-pong between two processes for a configurable number of volleys,
/// with an optional idle gap between volleys (to exercise fast-forward).
#[derive(Clone, Debug)]
struct Ball(u64);
impl Classify for Ball {
    fn class(&self) -> &'static str {
        "ball"
    }
}

struct Player {
    me: usize,
    volleys: u64,
    gap: u64,
    next_serve: Option<Round>,
    hits: u64,
}

impl Player {
    fn pair(volleys: u64, gap: u64) -> Vec<Player> {
        vec![
            Player { me: 0, volleys, gap, next_serve: Some(Round::ONE), hits: 0 },
            Player { me: 1, volleys, gap, next_serve: None, hits: 0 },
        ]
    }
}

impl Protocol for Player {
    type Msg = Ball;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Ball>, eff: &mut Effects<Ball>) {
        if let Some((from, ball)) = inbox.iter().next() {
            self.hits += 1;
            if ball.0 >= self.volleys {
                eff.terminate();
                // Tell the peer to stop too.
                eff.send(from, Ball(ball.0 + 1));
                return;
            }
            // Return the ball after `gap` idle rounds.
            self.next_serve = Some(round + self.gap);
            self.hits += 0;
        }
        if self.next_serve == Some(round) {
            let n = self.hits + 1;
            let peer = Pid::new(1 - self.me);
            let count = if self.me == 0 { 2 * self.hits + 1 } else { 2 * self.hits };
            eff.send(peer, Ball(count));
            self.next_serve = None;
            if count >= self.volleys {
                eff.terminate();
            }
            let _ = n;
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.next_serve.map(|r| r.max(now))
    }
}

#[test]
fn fast_forward_is_metric_equivalent_to_dense_execution() {
    // A run with huge idle gaps must produce identical message/work counts
    // and exactly the gap-scaled round count.
    let small = run(Player::pair(5, 2), NoFailures, RunConfig::new(0, 10_000)).unwrap();
    let large =
        run(Player::pair(5, 1_000_000), NoFailures, RunConfig::new(0, u64::MAX - 1)).unwrap();
    assert_eq!(small.metrics.messages, large.metrics.messages);
    assert!(large.metrics.rounds > 1_000_000u64, "gaps must count toward time");
}

/// A protocol that tries to perform two units in one round must be caught
/// by the model-rule assertion.
#[test]
#[should_panic(expected = "at most one unit of work per round")]
fn double_work_per_round_is_rejected() {
    struct Greedy;
    #[derive(Clone, Debug)]
    struct NoMsg;
    impl Classify for NoMsg {}
    impl Protocol for Greedy {
        type Msg = NoMsg;
        fn step(&mut self, _: Round, _: Inbox<'_, NoMsg>, eff: &mut Effects<NoMsg>) {
            eff.perform(Unit::new(1));
            eff.perform(Unit::new(2));
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let _ = run(vec![Greedy], NoFailures, RunConfig::new(2, 10));
}

/// `continue_later` is the asynchronous plane's self-scheduling; a round
/// protocol that calls it is caught by the same model-rule check.
#[test]
#[should_panic(expected = "model violation")]
fn continue_later_in_a_round_is_rejected() {
    struct Ticker;
    #[derive(Clone, Debug)]
    struct NoMsg;
    impl Classify for NoMsg {}
    impl Protocol for Ticker {
        type Msg = NoMsg;
        fn step(&mut self, _: Round, _: Inbox<'_, NoMsg>, eff: &mut Effects<NoMsg>) {
            eff.continue_later();
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let _ = run(vec![Ticker], NoFailures, RunConfig::new(2, 10));
}

#[test]
fn self_addressed_messages_are_delivered_next_round() {
    struct Echoist {
        sent: bool,
        got: bool,
    }
    #[derive(Clone, Debug)]
    struct Note;
    impl Classify for Note {}
    impl Protocol for Echoist {
        type Msg = Note;
        fn step(&mut self, _: Round, inbox: Inbox<'_, Note>, eff: &mut Effects<Note>) {
            if !self.sent {
                eff.send(Pid::new(0), Note);
                self.sent = true;
            } else if !inbox.is_empty() {
                self.got = true;
                eff.terminate();
            }
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let report =
        run(vec![Echoist { sent: false, got: false }], NoFailures, RunConfig::new(0, 10)).unwrap();
    assert_eq!(report.metrics.rounds, 2u64);
    assert_eq!(report.metrics.messages, 1);
}

/// A purely reactive protocol: never wakes on its own, acts only on
/// messages. Used to pin down fast-forward × adversary interactions.
struct Reactive;
#[derive(Clone, Debug)]
struct Nudge;
impl Classify for Nudge {}
impl Protocol for Reactive {
    type Msg = Nudge;
    fn step(&mut self, _: Round, _: Inbox<'_, Nudge>, _: &mut Effects<Nudge>) {}
    fn next_wakeup(&self, _: Round) -> Option<Round> {
        None
    }
}

/// Sleeps until `fire_at`, then performs one unit and terminates — the
/// minimal protocol for exercising fast-forward against round caps and
/// adversary schedules.
struct FireAt {
    fire_at: Round,
    done: bool,
}

impl FireAt {
    fn new(fire_at: impl Into<Round>) -> Self {
        FireAt { fire_at: fire_at.into(), done: false }
    }
}

impl Protocol for FireAt {
    type Msg = Nudge;
    fn step(&mut self, round: Round, _: Inbox<'_, Nudge>, eff: &mut Effects<Nudge>) {
        if round >= self.fire_at && !self.done {
            eff.perform(Unit::new(1));
            eff.terminate();
            self.done = true;
        }
    }
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.done {
            None
        } else {
            Some(self.fire_at.max(now))
        }
    }
}

#[test]
fn adversary_event_fires_on_a_round_where_no_process_wakes() {
    // No process ever wakes; the only future activity is the adversary's.
    // The engine must fast-forward *to the adversary's scheduled rounds*
    // (not deadlock, not execute 59 idle rounds) and let it crash both
    // processes at exactly the scheduled times.
    let adv = FaultPlan::default().crash_at(Pid::new(0), 50, CrashSpec::silent()).crash_at(
        Pid::new(1),
        60,
        CrashSpec::silent(),
    );
    let report = run(vec![Reactive, Reactive], adv, RunConfig::new(0, 1_000)).unwrap();
    assert_eq!(report.metrics.rounds, 60u64);
    assert_eq!(report.metrics.crashes, 2);
    assert_eq!(report.statuses[0], doall::sim::Status::Crashed(Round::new(50)));
    assert_eq!(report.statuses[1], doall::sim::Status::Crashed(Round::new(60)));
    assert_eq!(report.survivor_count(), 0);
}

#[test]
fn wakeup_exactly_at_max_rounds_is_not_a_round_limit_error() {
    // A process whose only action is at round == max_rounds must still get
    // that round: the cap is inclusive.
    let report = run(vec![FireAt::new(500)], NoFailures, RunConfig::new(1, 500)).unwrap();
    assert_eq!(report.metrics.rounds, 500u64);
    assert_eq!(report.survivor_count(), 1);
    assert!(report.metrics.all_work_done());

    // One round later is out of budget.
    let err = run(vec![FireAt::new(501)], NoFailures, RunConfig::new(1, 500)).unwrap_err();
    assert!(matches!(err, RunError::RoundLimit { limit, .. } if limit == 500u64));
}

#[test]
fn fast_forward_resumes_after_all_but_one_process_retires() {
    // Kill everyone but a distant-deadline straggler in round 1: the engine
    // must skip ~10^6 idle rounds in O(1) once the crashes have happened,
    // and the straggler must still act at its deadline.
    let t = 8;
    let mut adv = FaultPlan::default();
    for p in 0..t - 1 {
        adv = adv.crash_at(Pid::new(p), 1, CrashSpec::silent());
    }
    let mut procs: Vec<FireAt> = (0..t - 1).map(|_| FireAt::new(1)).collect();
    procs.push(FireAt::new(1_000_000));
    let report = run(procs, adv, RunConfig::new(1, 2_000_000)).unwrap();
    assert_eq!(report.metrics.rounds, 1_000_000u64);
    assert_eq!(report.metrics.crashes, (t - 1) as u32);
    assert_eq!(report.survivor_count(), 1);
    assert_eq!(report.survivors_iter().next(), Some(Pid::new(t - 1)));
    // Only the straggler's unit was performed: the victims died in round 1
    // before acting (silent crash), so exactly one unit total.
    assert_eq!(report.metrics.work_total, 1);
}

#[test]
fn crash_schedule_and_subset_delivery_compose() {
    // Two schedules on the same round, one clean and one subset: the
    // engine applies each victim's own spec.
    struct Spammer {
        me: usize,
        t: usize,
    }
    #[derive(Clone, Debug)]
    struct Blast;
    impl Classify for Blast {}
    impl Protocol for Spammer {
        type Msg = Blast;
        fn step(&mut self, round: Round, _: Inbox<'_, Blast>, eff: &mut Effects<Blast>) {
            let others = (0..self.t).filter(|p| *p != self.me).map(Pid::new);
            eff.broadcast(others, Blast);
            if round == 3u64 {
                eff.terminate();
            }
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let procs = (0..4).map(|me| Spammer { me, t: 4 }).collect();
    let adv = FaultPlan::default().crash_at(Pid::new(0), 2, CrashSpec::silent()).crash_at(
        Pid::new(1),
        2,
        CrashSpec { deliver: Deliver::Subset([Pid::new(3)].into()), count_work: true },
    );
    let report = run(procs, adv, RunConfig::new(0, 10)).unwrap();
    // Round 1: 4 broadcasts × 3. Round 2: p0 suppressed (0), p1 subset (1),
    // p2 + p3 full (3 each). Round 3: p2 + p3 full.
    assert_eq!(report.metrics.messages, 12 + 7 + 6);
    assert_eq!(report.metrics.crashes, 2);
}

/// Performs units 1, 2, 3 in rounds 1, 2, 3 and never terminates; after
/// round 3 it keeps waking every round when `busy`, and goes purely
/// reactive otherwise. One writer, one contiguous run of work: the error
/// payloads below see its units only if the engine folds the run into the
/// ledger before handing the metrics out.
struct Forever {
    busy: bool,
}
#[derive(Clone, Debug)]
struct NoMsg;
impl Classify for NoMsg {}
impl Protocol for Forever {
    type Msg = NoMsg;
    fn step(&mut self, round: Round, _: Inbox<'_, NoMsg>, eff: &mut Effects<NoMsg>) {
        if round <= 3u64 {
            eff.perform(Unit::new(round.get() as usize));
        }
    }
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        (self.busy || now <= 3u64).then_some(now)
    }
}

/// The payload every exit of a `Forever` run carries, on either plane:
/// the three units, `rounds` the last executed round or handled timestamp
/// `last`, and `stalled` the one live process with what it waits on.
fn assert_exit_payload(metrics: &Metrics, diagnosis: &StallDiagnosis, last: u64, on: Waiting) {
    assert_eq!(metrics.work_total, 3);
    assert_eq!(metrics.work_by_unit, [1, 1, 1]);
    assert_eq!(metrics.rounds, last);
    assert_eq!(diagnosis.stalled, [(Pid::new(0), on)]);
    assert!(diagnosis.round >= diagnosis.last_progress, "{diagnosis}");
}

#[test]
fn round_limit_reports_partial_metrics() {
    // A protocol that never terminates trips the round cap with its
    // accumulated metrics intact; the diagnosis is taken at the refused
    // round 51.
    match run(vec![Forever { busy: true }], NoFailures, RunConfig::new(3, 50)) {
        Err(RunError::RoundLimit { limit, metrics, diagnosis }) => {
            assert_eq!(limit, 50u64);
            assert_exit_payload(&metrics, &diagnosis, 50, Waiting::Wakeup(Some(Round::new(51))));
            assert_eq!((diagnosis.round, diagnosis.last_progress), (Round::new(51), Round::new(3)));
        }
        other => panic!("expected RoundLimit, got {other:?}"),
    }
}

#[test]
fn stall_reports_partial_metrics() {
    // The same run under the watchdog: five idle rounds after round 3's
    // work exhaust the window long before the cap.
    let cfg = RunConfig::new(3, 50).with_stall_window(5);
    match run(vec![Forever { busy: true }], NoFailures, cfg) {
        Err(RunError::Stalled { window, metrics, diagnosis }) => {
            assert_eq!(window, 5);
            assert_exit_payload(&metrics, &diagnosis, 9, Waiting::Wakeup(Some(Round::new(10))));
            assert_eq!((diagnosis.round, diagnosis.last_progress), (Round::new(9), Round::new(3)));
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

#[test]
fn deadlock_reports_partial_metrics() {
    // Purely reactive after round 3, with nothing in flight: the engine
    // proves nothing can ever happen and hands back the metrics so far.
    match run(vec![Forever { busy: false }], NoFailures, RunConfig::new(3, 50)) {
        Err(RunError::Deadlock { metrics, diagnosis }) => {
            assert_exit_payload(&metrics, &diagnosis, 3, Waiting::Wakeup(None));
            assert_eq!((diagnosis.round, diagnosis.last_progress), (Round::new(3), Round::new(3)));
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn a_paused_engine_reports_its_last_executed_round() {
    let mut engine = Engine::new(vec![Forever { busy: true }], NoFailures, RunConfig::new(3, 50))
        .expect("valid");
    assert!(!engine.run_until(Some(Round::new(10))).expect("no error before the cap"));
    assert_eq!(engine.round(), 10u64);
    assert_eq!(engine.metrics().rounds, 9u64);
}

/// `Forever` on the async plane: units 1, 2, 3 at timestamps 0, 1, 2 (the
/// start handler and two ticks), then a tick every time-step when `busy`
/// and nothing at all otherwise.
struct AsyncForever {
    busy: bool,
    done: usize,
}
impl AsyncForever {
    fn step(&mut self, eff: &mut Effects<NoMsg>) {
        if self.done < 3 {
            self.done += 1;
            eff.perform(Unit::new(self.done));
        }
        if self.busy || self.done < 3 {
            eff.continue_later();
        }
    }
}
impl AsyncProtocol for AsyncForever {
    type Msg = NoMsg;
    fn on_start(&mut self, eff: &mut Effects<NoMsg>) {
        self.step(eff);
    }
    fn on_messages(&mut self, _: Inbox<'_, NoMsg>, _: &mut Effects<NoMsg>) {}
    fn on_retirement(&mut self, _: Pid, _: &mut Effects<NoMsg>) {}
    fn on_tick(&mut self, eff: &mut Effects<NoMsg>) {
        self.step(eff);
    }
}

fn run_forever_async(busy: bool, cfg: AsyncConfig) -> Result<AsyncReport, RunError> {
    run_async(vec![AsyncForever { busy, done: 0 }], NoFailures, cfg)
}

#[test]
fn event_limit_reports_partial_metrics() {
    // Ten handlers (timestamps 0..=9) are settled; the eleventh, at 10, is
    // refused.
    let cfg = AsyncConfig { max_events: 10, ..AsyncConfig::new(3, 0) };
    match run_forever_async(true, cfg) {
        Err(RunError::EventLimit { limit, metrics, diagnosis }) => {
            assert_eq!(limit, 10);
            assert_exit_payload(&metrics, &diagnosis, 9, Waiting::Invocations(10));
            assert_eq!((diagnosis.round, diagnosis.last_progress), (Round::new(10), Round::new(2)));
        }
        other => panic!("expected EventLimit, got {other:?}"),
    }
}

#[test]
fn async_stall_reports_partial_metrics() {
    // Progress last moved at timestamp 2; the tick at 8 is the first more
    // than five time-steps later.
    let cfg = AsyncConfig::new(3, 0).with_stall_window(5);
    match run_forever_async(true, cfg) {
        Err(RunError::Stalled { window, metrics, diagnosis }) => {
            assert_eq!(window, 5);
            assert_exit_payload(&metrics, &diagnosis, 8, Waiting::Invocations(9));
            assert_eq!((diagnosis.round, diagnosis.last_progress), (Round::new(8), Round::new(2)));
            assert_eq!(diagnosis.pending, 1, "the next tick is queued");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

#[test]
fn async_deadlock_reports_partial_metrics() {
    // After the third unit nothing is queued and the process is alive.
    match run_forever_async(false, AsyncConfig::new(3, 0)) {
        Err(RunError::Deadlock { metrics, diagnosis }) => {
            assert_exit_payload(&metrics, &diagnosis, 2, Waiting::Invocations(3));
            assert_eq!((diagnosis.round, diagnosis.last_progress), (Round::new(2), Round::new(2)));
            assert_eq!(diagnosis.pending, 0);
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn terminated_processes_stop_receiving() {
    // After termination, inbound messages become dead letters.
    struct Quitter {
        me: usize,
    }
    #[derive(Clone, Debug)]
    struct Ping;
    impl Classify for Ping {}
    impl Protocol for Quitter {
        type Msg = Ping;
        fn step(&mut self, round: Round, _: Inbox<'_, Ping>, eff: &mut Effects<Ping>) {
            if self.me == 0 {
                eff.terminate();
            } else if round <= 3u64 {
                eff.send(Pid::new(0), Ping);
                if round == 3u64 {
                    eff.terminate();
                }
            }
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let report =
        run(vec![Quitter { me: 0 }, Quitter { me: 1 }], NoFailures, RunConfig::new(0, 10)).unwrap();
    assert_eq!(report.metrics.messages, 3);
    // Pings 1 and 2 arrive after p0 retired; ping 3 is still in flight
    // when the run ends (everyone has retired), so it is never delivered.
    assert_eq!(report.metrics.dead_letters, 2);
}

/// The engine steps every process on the calling thread, so neither the
/// protocol state nor the payload needs `Send`/`Sync`: processes may
/// share an `Rc` and ship one in a message.
#[test]
fn protocols_and_payloads_may_hold_an_rc() {
    use std::cell::Cell;
    use std::rc::Rc;

    #[derive(Clone, Debug)]
    struct Tally(Rc<Cell<u64>>);
    impl Classify for Tally {}
    struct Counter {
        me: usize,
        steps: Rc<Cell<u64>>,
    }
    impl Protocol for Counter {
        type Msg = Tally;
        fn step(&mut self, _: Round, inbox: Inbox<'_, Tally>, eff: &mut Effects<Tally>) {
            self.steps.set(self.steps.get() + 1);
            if self.me == 0 {
                eff.send(Pid::new(1), Tally(Rc::clone(&self.steps)));
                eff.terminate();
            } else if let Some((_, tally)) = inbox.iter().next() {
                assert!(Rc::ptr_eq(&tally.0, &self.steps), "payload is the shared counter");
                eff.terminate();
            }
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            (self.me == 0).then_some(now)
        }
    }
    let steps = Rc::new(Cell::new(0));
    let procs = (0..2).map(|me| Counter { me, steps: Rc::clone(&steps) }).collect();
    let report = run(procs, NoFailures, RunConfig::new(0, 10)).unwrap();
    assert_eq!(report.metrics.messages, 1);
    assert_eq!(report.survivor_count(), 2);
    assert_eq!(steps.get(), 2, "p0 at round 1, p1 on receipt at round 2");
}

/// `Scenario::Random` is plain public data: a crash probability outside
/// `[0, 1]` (or `NaN`) is refused by `validate` as a typed error before
/// round 1, never by a panic.
#[test]
fn out_of_range_crash_probability_is_a_typed_error() {
    use doall::workload::Scenario;
    for p in [2.0, -1.0, f64::NAN] {
        let err = doall::JobSpec::new(doall::ProtocolA::processes(8, 4).unwrap(), 8)
            .scenario(Scenario::Random { seed: 1, p, max_crashes: 3 })
            .run()
            .expect_err("an invalid probability must refuse the run");
        match err {
            RunError::InvalidAdversary { reason } => {
                assert!(reason.contains("probability"), "p = {p}: {reason}");
            }
            other => panic!("p = {p}: expected InvalidAdversary, got {other}"),
        }
    }
}
