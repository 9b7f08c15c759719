//! §5 of the paper: Byzantine agreement (crash-fault model) built on the
//! work protocols. "Informing process i of the general's value" is one
//! idempotent unit of work; the `t + 1` senders perform it with Protocol B
//! — yielding a *constructive* `O(n + t√t)`-message agreement algorithm —
//! or Protocol C for `O(n + t log t)` messages at exponential time.
//!
//! ```sh
//! cargo run --example byzantine_agreement
//! ```

use doall::agreement::{BaSystem, Engine, FloodingBa};
use doall::bounds::theorems;
use doall::sim::{CrashSpec, FaultPlan, NoFailures, Pid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, t) = (64u64, 8u64); // t + 1 = 9 senders (a perfect square)
    let value = 17;

    println!("Byzantine agreement among n = {n} processes, up to t = {t} crash failures");
    println!("general's value: {value}");
    println!();

    // --- §5 reduction via Protocol B -------------------------------------
    let outcome = BaSystem::new(n, t, Engine::B)?.general_value(value).run(NoFailures)?;
    assert!(outcome.agreement() && outcome.validity());
    println!("via Protocol B (failure-free):");
    println!("  decided {} / {n}, all on {value}", outcome.decided_count());
    println!(
        "  messages: {} (bound O(n + t√t) = {})",
        outcome.metrics.messages,
        theorems::ba_via_b_messages(n, t)
    );
    println!("  rounds:   {}", outcome.metrics.rounds);

    // --- the general crashes mid-broadcast --------------------------------
    let adversary = FaultPlan::default().crash_at(Pid::new(0), 1, CrashSpec::subset([Pid::new(3)]));
    let outcome = BaSystem::new(n, t, Engine::B)?.general_value(value).run(adversary)?;
    assert!(outcome.agreement(), "agreement must survive a treacherous stage 1");
    let agreed = outcome.decisions.iter().flatten().next().copied();
    println!();
    println!("via Protocol B (general crashes mid-broadcast, only sender 3 informed):");
    println!("  decided {} / {n}, all on {agreed:?}", outcome.decided_count());

    // --- the naive flooding baseline --------------------------------------
    let (decisions, metrics) = FloodingBa::run_system(n, t, value, NoFailures)?;
    assert!(decisions.iter().all(|d| *d == Some(value)));
    println!();
    println!("naive flooding baseline (everyone echoes every round for t + 1 rounds):");
    println!(
        "  messages: {} — {}x the §5 reduction",
        metrics.messages,
        metrics.messages / outcome.metrics.messages.max(1)
    );

    println!("\n§5's reduction beats flooding while keeping agreement under crashes.");
    Ok(())
}
