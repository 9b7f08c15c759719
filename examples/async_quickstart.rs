//! §2.1's asynchronous remark, live: the same Do-All workload on the
//! event-driven plane — adversary-seeded message delays, a sound
//! retirement detector, and a crash striking mid-broadcast.
//!
//! ```sh
//! cargo run --release --example async_quickstart
//! ```

use doall::bounds::theorems;
use doall::sim::asynch::{AsyncReport, DelayDist};
use doall::sim::invariants::{check_activation_order, check_detector_soundness};
use doall::sim::{CrashSpec, FaultPlan, Pid, Trigger};
use doall::{AsyncProtocolA, AsyncProtocolB, AsyncReplicate, JobSpec};

fn describe(label: &str, report: &AsyncReport) {
    println!(
        "  {label:<16} work {:>5}  messages {:>5}  effort {:>5}  survivors {:>2}  final time {}",
        report.metrics.work_total,
        report.metrics.messages,
        report.metrics.effort(),
        report.survivor_count(),
        report.metrics.rounds,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, t) = (64u64, 16u64);
    println!("Asynchronous Do-All: n = {n} units, t = {t} processes.");
    println!("Delays: uniform in 1..=7 (seeded); detector notices delayed the same way.");
    println!("Adversary: p0 crashes on its 9th handler invocation, mid-broadcast —");
    println!("only the first 2 messages of that checkpoint escape.\n");

    // A custom adversary with no `Scenario` name: `run_async_with` is the
    // JobSpec escape hatch for exactly this case.
    let adversary = || {
        FaultPlan::default()
            .crash_on(Trigger::NthInvocationOf { pid: Pid::new(0), nth: 9 }, CrashSpec::prefix(2))
    };
    fn spec<P>(procs: Vec<P>, n: u64) -> JobSpec<P> {
        JobSpec::new(procs, n as usize).seed(42).delay(DelayDist::Uniform, 7).with_trace()
    }

    // Protocol A's asynchronous variant: a process activates once the
    // detector has reported every lower-numbered process retired.
    let a = spec(AsyncProtocolA::processes(n, t)?, n).run_async_with(adversary())?;
    // The Protocol B analogue (labeled extension): checkpoints already
    // prove their sender's predecessors retired, so only the un-inferable
    // detector reports are awaited — and no go_ahead is ever sent.
    let b = spec(AsyncProtocolB::processes(n, t)?, n).run_async_with(adversary())?;
    // The replicate baseline: perfect fault tolerance, Θ(tn) effort.
    let rep = spec(AsyncReplicate::processes(n, t)?, n).run_async_with(adversary())?;

    describe("async A", &a);
    describe("async B", &b);
    describe("replicate", &rep);

    // The §2.1 claim: Theorem 2.3's work/message bounds carry over.
    let bound = theorems::protocol_a(n, t);
    for (label, r) in [("A", &a), ("B", &b)] {
        assert!(r.metrics.all_work_done(), "async {label}: work left undone");
        assert!(r.metrics.work_total <= bound.work, "async {label}: 3n bound violated");
        assert!(r.metrics.messages <= bound.messages, "async {label}: 9t*sqrt(t) bound violated");
        assert!(
            check_activation_order(&r.trace).is_empty(),
            "async {label}: takeover discipline broken"
        );
        assert!(
            check_detector_soundness(&r.trace).is_empty(),
            "async {label}: detector accused a live process"
        );
    }
    assert_eq!(b.metrics.messages_by_class.get("go_ahead"), None);
    assert!(rep.metrics.all_work_done());
    assert!(rep.metrics.effort() > 4 * a.metrics.effort());

    println!("\nwork/message bounds (3n = {}, 9t*sqrt(t) = {}) hold;", bound.work, bound.messages);
    println!("activation order and detector soundness verified on the recorded traces;");
    println!("async B sent zero go_aheads — the retirement detector replaced the polling phase.");
    Ok(())
}
