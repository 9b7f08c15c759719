//! CLI for the experiment suite: `experiments [id ...]` (default: all).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcomes = if args.is_empty() {
        doall_bench::all()
    } else {
        let mut outcomes = Vec::new();
        for id in &args {
            match doall_bench::by_id(id) {
                Some(o) => outcomes.push(o),
                None => {
                    eprintln!("unknown experiment id: {id} (expected e1..e18)");
                    return ExitCode::FAILURE;
                }
            }
        }
        outcomes
    };

    let mut all_pass = true;
    for o in &outcomes {
        println!("== {} — {}", o.id.to_uppercase(), o.claim);
        println!("{}", o.rendered);
        println!("   result: {}\n", if o.pass { "PASS (all bounds hold)" } else { "FAIL" });
        all_pass &= o.pass;
    }
    println!(
        "{} / {} experiments passed",
        outcomes.iter().filter(|o| o.pass).count(),
        outcomes.len()
    );
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
