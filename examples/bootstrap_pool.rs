//! §1 of the paper: what if the work is *not* initially common knowledge?
//!
//! > "If even one process knows about this work, then it can act as a
//! > general, run Byzantine agreement on the pool of work …, and then the
//! > actual work is performed by running the same algorithm a second
//! > time. If n … is Ω(t), the overall cost at most doubles."
//!
//! Here process 0 alone discovers a pool of 256 units; the 16 processes
//! first agree on the pool (§5 agreement via Protocol B), then perform it
//! (Protocol B again) — with crashes in both stages. The agreed pool is
//! also served as a job through the service plane's shared [`Pool`], and
//! the engine metrics come out identical to the bootstrap's own work
//! stage: serving through a [`Session`] adds no distortion.
//!
//! ```sh
//! cargo run --example bootstrap_pool
//! ```

use doall::agreement::bootstrap::{direct_effort, run_bootstrap};
use doall::service::{Admission, JobSpec, Pool, Session};
use doall::sim::{CrashSpec, FaultPlan, NoFailures, Pid};
use doall::ProtocolB;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, t) = (256u64, 16u64);
    println!("Process 0 discovers a pool of {n} units; {t} processes must all learn of it");
    println!("and perform it, tolerating up to {} crashes.", t - 1);
    println!();

    // Failure-free: measure the §1 "at most doubles" claim.
    let outcome = run_bootstrap(n, t, NoFailures, &[])?;
    let direct = direct_effort(n, t)?;
    println!("failure-free:");
    println!("  agreed pool       : {} units", outcome.agreed_pool);
    println!("  agreement effort  : {}", outcome.agreement.effort());
    println!("  work effort       : {}", outcome.work.effort());
    println!(
        "  total             : {} (direct, common-knowledge: {direct})",
        outcome.total_effort()
    );
    assert!(outcome.total_effort() <= 2 * direct, "§1: cost at most doubles");

    // The agreed pool, served through the service plane: one job on the
    // shared workstation pool, bit-identical to the bootstrap's own
    // failure-free work stage.
    let mut session = Session::new(Pool::new(t as usize), Admission::new(1));
    let spec =
        JobSpec::new(ProtocolB::processes(outcome.agreed_pool, t)?, outcome.agreed_pool as usize)
            .label("agreed-pool");
    session.submit(0, spec.into_job());
    let fleet = session.run();
    let served = fleet.find("agreed-pool").expect("served");
    let served_metrics = served.report.as_ref().unwrap().metrics();
    assert_eq!(served_metrics, &outcome.work, "service plane distorts nothing");
    println!(
        "  served as a job   : {} effort over {} rounds (identical metrics)",
        served_metrics.effort(),
        served.rounds
    );

    // Crashes in both stages.
    let ba_adv = FaultPlan::default().crash_at(Pid::new(1), 2, CrashSpec::silent()).crash_at(
        Pid::new(2),
        4,
        CrashSpec::prefix(1),
    );
    let outcome = run_bootstrap(n, t, ba_adv, &[(Pid::new(3), 5), (Pid::new(4), 20)])?;
    println!();
    println!("with crashes during agreement (p1, p2) and work (p3, p4):");
    println!("  agreed pool       : {} units", outcome.agreed_pool);
    println!("  all work done     : {}", outcome.work.all_work_done());
    println!("  total effort      : {}", outcome.total_effort());
    assert!(outcome.work.all_work_done());
    assert_eq!(outcome.agreed_pool, n);

    println!("\nOne informed process suffices; the cost at most doubles (§1).");
    Ok(())
}
