//! An annotated, round-by-round replay of a Protocol B execution with a
//! mid-checkpoint crash — watch the checkpointing, the takeover deadline
//! arithmetic, and the `go ahead` polling play out.
//!
//! ```sh
//! cargo run --example trace_walkthrough
//! ```

use std::collections::BTreeMap;

use doall::core::ab::AbMsg;
use doall::sim::{run, CrashSpec, Event, FaultPlan, Pid, RunConfig, Trigger};
use doall::ProtocolB;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, t) = (8u64, 4u64);

    // p0 dies during its second checkpoint broadcast; only one copy
    // escapes. p1 must take over via the DDB deadline.
    let adversary = FaultPlan::default()
        .crash_on(Trigger::NthSendRoundBy { pid: Pid::new(0), nth: 2 }, CrashSpec::prefix(1));

    let report = run(
        ProtocolB::processes(n, t)?,
        adversary,
        RunConfig::new(n as usize, 10_000).with_trace(),
    )?;
    assert!(report.metrics.all_work_done());

    println!("Protocol B, n = {n} units, t = {t} processes (groups of √t = 2).");
    println!("Adversary: crash p0 during its 2nd checkpoint, delivering 1 copy.\n");

    // Group events by round for a readable timeline.
    let mut by_round: BTreeMap<doall::sim::Round, Vec<String>> = BTreeMap::new();
    for event in report.trace.events() {
        let (round, line) = match event {
            Event::Work { round, pid, unit } => (*round, format!("{pid} performs {unit}")),
            Event::Send { round, from, to, class } => {
                (*round, format!("{from} -> {to}  [{class}]"))
            }
            Event::Crash { round, pid } => (*round, format!("{pid} CRASHES")),
            Event::Recover { round, pid } => (*round, format!("{pid} RECOVERS")),
            Event::Terminate { round, pid } => (*round, format!("{pid} terminates")),
            Event::Note { round, pid, tag } => (*round, format!("{pid} *** {tag} ***")),
            Event::Notice { round, observer, retired } => {
                // Only the asynchronous engine emits these; a synchronous
                // trace never contains one.
                (*round, format!("detector informs {observer}: {retired} retired"))
            }
        };
        by_round.entry(round).or_default().push(line);
    }
    for (round, lines) in &by_round {
        println!("round {round:>3}:");
        for line in lines {
            println!("          {line}");
        }
    }

    println!(
        "\ntotals: work = {} (n = {n}), messages = {}, rounds = {}",
        report.metrics.work_total, report.metrics.messages, report.metrics.rounds
    );
    println!("message classes: {:?}", report.metrics.messages_by_class);
    let _ = AbMsg::GoAhead; // (the class names above come from this type)
    Ok(())
}
