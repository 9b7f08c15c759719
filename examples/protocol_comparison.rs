//! The paper's headline comparison (§1 + §6): work / messages / rounds /
//! effort for the trivial baselines and all four protocols, failure-free
//! and under crash scenarios. Reproduces the "who wins on which measure"
//! story: the baselines pay Θ(tn) effort, A/B/C are work-optimal with
//! small message terms, and D is time-optimal.
//!
//! Note the rounds column for C/C′ and naive-spread under failures: their
//! takeover deadlines are exponential in `n + t` (the paper's "at a price
//! in terms of time"), which is why `n + t` is kept small here.
//!
//! ```sh
//! cargo run --example protocol_comparison
//! ```

use doall::sim::{run, Metrics, Protocol, RunConfig, RunError};
use doall::workload::Scenario;
use doall::{Lockstep, NaiveSpread, ProtocolA, ProtocolB, ProtocolC, ProtocolD, ReplicateAll};

fn measure<P: Protocol>(procs: Vec<P>, scenario: &Scenario, n: u64) -> Result<Metrics, RunError>
where
    P::Msg: 'static,
{
    let report =
        run(procs, scenario.adversary::<P::Msg>(), RunConfig::new(n as usize, u64::MAX - 1))?;
    assert!(report.metrics.all_work_done(), "work incomplete under {}", scenario.label());
    Ok(report.metrics)
}

fn row(name: &str, m: &Metrics) {
    println!(
        "  {name:<14} {:>7} {:>9} {:>20} {:>9}",
        m.work_total,
        m.messages,
        m.rounds,
        m.effort()
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Perfect-square t, power-of-two t, t | n; n + t small enough that the
    // exponential (C, naive-spread) takeover deadlines stay below 2^64.
    let (n, t) = (32u64, 16u64);

    for scenario in [
        Scenario::FailureFree,
        Scenario::TakeoverCascade { victims: t - 1 },
        Scenario::DeadOnArrival { k: t / 2 },
    ] {
        println!("n = {n}, t = {t}, scenario: {}", scenario.label());
        println!("  {:<14} {:>7} {:>9} {:>20} {:>9}", "", "work", "messages", "rounds", "effort");
        row("replicate-all", &measure(ReplicateAll::processes(n, t)?, &scenario, n)?);
        row("lockstep", &measure(Lockstep::processes(n, t)?, &scenario, n)?);
        row("naive-spread", &measure(NaiveSpread::processes(n, t)?, &scenario, n)?);
        row("protocol A", &measure(ProtocolA::processes(n, t)?, &scenario, n)?);
        row("protocol B", &measure(ProtocolB::processes(n, t)?, &scenario, n)?);
        row("protocol C", &measure(ProtocolC::processes(n, t)?, &scenario, n)?);
        row("protocol C'", &measure(ProtocolC::processes_prime(n, t)?, &scenario, n)?);
        row("protocol D", &measure(ProtocolD::processes(n, t)?, &scenario, n)?);
        println!();
    }

    println!("Baselines pay Θ(tn) effort; A/B/C stay near n plus small message terms");
    println!("(C at an exponential price in time); D matches n/t + 2 rounds failure-free.");
    Ok(())
}
