//! The fault plan's rule and random sources on both planes: exact counts
//! of seeded random crashes, which rule wins a tie, one repeated-entry
//! rule, plane and range validation, and the parked behaviour of one-shot
//! timed crashes.

use doall::sim::asynch::{run_async, AsyncConfig, AsyncProtocol};
use doall::sim::chaos::Plane;
use doall::sim::{
    run, Classify, CrashSpec, Effects, FaultKind, FaultPlan, FaultPlanError, Inbox, Metrics, Pid,
    Protocol, Round, RunConfig, RunError, Trigger, Unit,
};
use doall::workload::Scenario;
use doall::{AsyncProtocolA, AsyncProtocolB, ProtocolA, ProtocolB};

/// Every counter of `m`, with the per-unit multiplicities folded into an
/// FNV-1a digest.
fn digest(m: &Metrics) -> String {
    let units = m
        .work_by_unit
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &c| (h ^ u64::from(c)).wrapping_mul(0x0100_0000_01b3));
    format!(
        "work={} msgs={} rounds={} crashes={} terms={} dead={} omit={} rec={} units={units:016x} classes={:?}",
        m.work_total,
        m.messages,
        m.rounds,
        m.crashes,
        m.terminations,
        m.dead_letters,
        m.omissions,
        m.recoveries,
        m.messages_by_class,
    )
}

const SEEDS: [u64; 3] = [1, 2, 3];

fn random(seed: u64) -> Scenario {
    Scenario::Random { seed, p: 0.02, max_crashes: 15 }
}

#[test]
fn random_crashes_are_pinned_on_the_sync_plane() {
    let (n, t) = (64u64, 16u64);
    let cfg = || RunConfig::new(n as usize, 1_000_000);
    let mut got = Vec::new();
    for seed in SEEDS {
        let s = random(seed);
        let b = run(ProtocolB::processes(n, t).unwrap(), s.adversary(), cfg()).unwrap();
        let a = run(ProtocolA::processes(n, t).unwrap(), s.adversary(), cfg()).unwrap();
        got.push(format!("B seed {seed}: {}", digest(&b.metrics)));
        got.push(format!("A seed {seed}: {}", digest(&a.metrics)));
    }
    let want = [
        "B seed 1: work=66 msgs=119 rounds=123 crashes=14 terms=2 dead=73 omit=0 rec=0 units=0cbad5dcf08e41a3 classes={\"go_ahead\": 2, \"ordinary\": 117}",
        "A seed 1: work=74 msgs=121 rounds=812 crashes=15 terms=1 dead=76 omit=0 rec=0 units=9dbdd38d8018ba7b classes={\"ordinary\": 121}",
        "B seed 2: work=72 msgs=116 rounds=245 crashes=15 terms=1 dead=55 omit=0 rec=0 units=7b7b02e80d77093d classes={\"go_ahead\": 1, \"ordinary\": 115}",
        "A seed 2: work=72 msgs=115 rounds=1476 crashes=15 terms=1 dead=54 omit=0 rec=0 units=7b7b02e80d77093d classes={\"ordinary\": 115}",
        "B seed 3: work=64 msgs=132 rounds=104 crashes=13 terms=3 dead=77 omit=0 rec=0 units=ea7805377dec9065 classes={\"ordinary\": 132}",
        "A seed 3: work=64 msgs=132 rounds=104 crashes=13 terms=3 dead=77 omit=0 rec=0 units=ea7805377dec9065 classes={\"ordinary\": 132}",
    ];
    assert_eq!(got, want);
}

#[test]
fn random_crashes_are_pinned_on_the_async_plane() {
    let (n, t) = (64u64, 16u64);
    let mut got = Vec::new();
    for seed in SEEDS {
        let s = random(seed);
        let cfg = || AsyncConfig::new(n as usize, seed);
        let b = run_async(AsyncProtocolB::processes(n, t).unwrap(), s.async_adversary(), cfg())
            .unwrap();
        let a = run_async(AsyncProtocolA::processes(n, t).unwrap(), s.async_adversary(), cfg())
            .unwrap();
        got.push(format!("B seed {seed}: {}", digest(&b.metrics)));
        got.push(format!("A seed {seed}: {}", digest(&a.metrics)));
    }
    let want = [
        "B seed 1: work=70 msgs=106 rounds=120 crashes=4 terms=12 dead=6 omit=0 rec=0 units=02f1161fb314080f classes={\"ordinary\": 106}",
        "A seed 1: work=70 msgs=106 rounds=120 crashes=4 terms=12 dead=6 omit=0 rec=0 units=02f1161fb314080f classes={\"ordinary\": 106}",
        "B seed 2: work=68 msgs=111 rounds=123 crashes=6 terms=10 dead=9 omit=0 rec=0 units=fc8d7b5f9712ba31 classes={\"ordinary\": 111}",
        "A seed 2: work=68 msgs=111 rounds=123 crashes=6 terms=10 dead=9 omit=0 rec=0 units=fc8d7b5f9712ba31 classes={\"ordinary\": 111}",
        "B seed 3: work=67 msgs=84 rounds=121 crashes=5 terms=11 dead=2 omit=0 rec=0 units=5cf7ab80d23c3380 classes={\"ordinary\": 84}",
        "A seed 3: work=67 msgs=84 rounds=121 crashes=5 terms=11 dead=2 omit=0 rec=0 units=5cf7ab80d23c3380 classes={\"ordinary\": 84}",
    ];
    assert_eq!(got, want);
}

#[derive(Clone, Debug)]
struct Ping;
impl Classify for Ping {}

/// p0 performs unit 1, notes `"go"` and pings p1 in its first step; both
/// processes terminate at once. Which crash spec struck p0 shows in the
/// counts: silent = no work, no message; after-round = both.
struct Burst(usize);

impl Protocol for Burst {
    type Msg = Ping;
    fn step(&mut self, _: Round, _: Inbox<'_, Ping>, eff: &mut Effects<Ping>) {
        if self.0 == 0 {
            eff.perform(Unit::new(1));
            eff.note("go");
            eff.send(Pid::new(1), Ping);
        }
        eff.terminate();
    }
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        Some(now)
    }
}

impl AsyncProtocol for Burst {
    type Msg = Ping;
    fn on_start(&mut self, eff: &mut Effects<Ping>) {
        if self.0 == 0 {
            eff.perform(Unit::new(1));
            eff.note("go");
            eff.send(Pid::new(1), Ping);
        }
        eff.terminate();
    }
    fn on_messages(&mut self, _: Inbox<'_, Ping>, _: &mut Effects<Ping>) {}
    fn on_retirement(&mut self, _: Pid, _: &mut Effects<Ping>) {}
}

fn burst() -> Vec<Burst> {
    vec![Burst(0), Burst(1)]
}

/// `(work, messages, crashes)` of a [`Burst`] run.
fn counts(m: &Metrics) -> (u64, u64, u32) {
    (m.work_total, m.messages, m.crashes)
}

#[test]
fn a_tie_between_two_rules_goes_to_the_earliest_added() {
    // Both rules trip on p0's first step, whichever plane runs it.
    let (silent, after) = (CrashSpec::silent(), CrashSpec::after_round());
    let note = Trigger::NthNote { tag: "go", nth: 1 };
    let work = Trigger::NthWorkBy { pid: Pid::new(0), nth: 1 };
    let plans = [
        ((note.clone(), &silent), (work.clone(), &after), (0, 0, 1)),
        ((work.clone(), &silent), (note.clone(), &after), (0, 0, 1)),
        ((note, &after), (work, &silent), (1, 1, 1)),
    ];
    for ((first, a), (second, b), want) in plans {
        let plan = FaultPlan::default().crash_on(first, a.clone()).crash_on(second, b.clone());
        let sync = run(burst(), plan.clone(), RunConfig::new(1, 100)).unwrap();
        assert_eq!(counts(&sync.metrics), want, "sync");
        let asynch = run_async(burst(), plan, AsyncConfig::new(1, 0)).unwrap();
        assert_eq!(counts(&asynch.metrics), want, "async");
    }
}

#[test]
fn a_repeated_entry_keeps_its_first_spec_on_the_sync_plane() {
    let adv = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::silent()).crash_at(
        Pid::new(0),
        1,
        CrashSpec::after_round(),
    );
    assert_eq!(adv.len(), 2);
    let r = run(burst(), adv, RunConfig::new(1, 100)).unwrap();
    assert_eq!(counts(&r.metrics), (0, 0, 1));
}

#[test]
fn a_repeated_entry_keeps_its_first_spec_on_the_async_plane() {
    let first = Trigger::NthInvocationOf { pid: Pid::new(0), nth: 1 };
    let adv = FaultPlan::default()
        .crash_on(first.clone(), CrashSpec::silent())
        .crash_on(first, CrashSpec::after_round());
    assert_eq!(adv.len(), 2);
    let r = run_async(burst(), adv, AsyncConfig::new(1, 0)).unwrap();
    assert_eq!(counts(&r.metrics), (0, 0, 1));
}

#[test]
fn plane_only_triggers_are_refused_on_the_other_plane() {
    let plan = |trigger| FaultPlan::default().crash_on(trigger, CrashSpec::silent());
    let pid = Pid::new(0);
    let sync_only =
        [Trigger::AtRound { pid, round: Round::ONE }, Trigger::NthSendRoundBy { pid, nth: 1 }];
    for trigger in sync_only {
        assert!(run(burst(), plan(trigger.clone()), RunConfig::new(1, 100)).is_ok());
        let err = run_async(burst(), plan(trigger), AsyncConfig::new(1, 0)).unwrap_err();
        assert!(matches!(err, RunError::InvalidAdversary { .. }), "{err}");
    }
    let trigger = Trigger::NthInvocationOf { pid, nth: 1 };
    assert!(run_async(burst(), plan(trigger.clone()), AsyncConfig::new(1, 0)).is_ok());
    let err = run(burst(), plan(trigger.clone()), RunConfig::new(1, 100)).unwrap_err();
    assert!(matches!(err, RunError::InvalidAdversary { .. }), "{err}");
    assert_eq!(
        plan(trigger.clone()).validate_on(2, Plane::Sync),
        Err(FaultPlanError::WrongPlane { trigger, plane: Plane::Sync })
    );
    for trigger in [Trigger::NthWorkBy { pid, nth: 1 }, Trigger::NthNote { tag: "go", nth: 1 }] {
        assert!(run(burst(), plan(trigger.clone()), RunConfig::new(1, 100)).is_ok());
        assert!(run_async(burst(), plan(trigger), AsyncConfig::new(1, 0)).is_ok());
    }
}

#[test]
fn rule_pids_and_crash_probabilities_are_validated() {
    let far = Pid::new(2);
    let exact = FaultPlan::default().crash_at(far, 1, CrashSpec::silent());
    assert_eq!(exact.validate(2), Err(FaultPlanError::PidOutOfRange { pid: far, t: 2 }));
    assert!(exact.validate(3).is_ok());
    let rule =
        FaultPlan::default().crash_on(Trigger::NthWorkBy { pid: far, nth: 1 }, CrashSpec::silent());
    assert!(matches!(
        run(burst(), rule, RunConfig::new(1, 100)),
        Err(RunError::InvalidAdversary { .. })
    ));
    for p in [-0.5, 1.5, f64::NAN] {
        let coins = FaultPlan::random(1, p, 1);
        assert!(matches!(coins.validate(2), Err(FaultPlanError::BadProbability { .. })), "{p}");
        let err = run_async(burst(), coins, AsyncConfig::new(1, 0)).unwrap_err();
        assert!(matches!(err, RunError::InvalidAdversary { .. }), "{p}");
    }
    assert!(FaultPlan::random(1, 1.0, 1).validate(2).is_ok());
}

/// p0 terminates in round 1; p1 sleeps until round 100,000 and then
/// terminates.
struct Sleeper(usize);

const WAKE: u64 = 100_000;

impl Protocol for Sleeper {
    type Msg = Ping;
    fn step(&mut self, round: Round, _: Inbox<'_, Ping>, eff: &mut Effects<Ping>) {
        if self.0 == 0 || round >= Round::from(WAKE) {
            eff.terminate();
        }
    }
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        Some(if self.0 == 0 { now } else { now.max(Round::from(WAKE)) })
    }
}

/// Pins the known behaviour documented on `FaultPlan`: a timed crash whose
/// victim retired first never fires and keeps announcing an event, so
/// every round from its `at` on is stepped densely; an exact-round rule
/// lets the engine fast-forward. The fix is parked with the benchmark's
/// pinned counts (ROADMAP.md item 1) and will change the first count.
#[test]
fn a_timed_crash_on_a_retired_pid_keeps_every_round_dense() {
    let cfg = || RunConfig::new(0, 1_000_000);
    let sleepers = || vec![Sleeper(0), Sleeper(1)];
    let timed = FaultPlan::new([FaultKind::Crash(Pid::new(0)).at(5u64)]);
    let r = run(sleepers(), timed, cfg()).unwrap();
    assert_eq!((r.executed_rounds, r.metrics.rounds), (99_997, Round::from(WAKE)));
    let exact = FaultPlan::default().crash_at(Pid::new(0), 5, CrashSpec::silent());
    let r = run(sleepers(), exact, cfg()).unwrap();
    assert_eq!((r.executed_rounds, r.metrics.rounds), (3, Round::from(WAKE)));
}
