//! Chaos campaign driver: seeded random fault plans thrown at every
//! Do-All protocol on both execution planes, with invariant checking,
//! greedy auto-shrinking of failures, and replayable repro files.
//!
//! ```sh
//! cargo run --release -p doall-bench --bin chaos                  # default seed bank
//! cargo run --release -p doall-bench --bin chaos -- --smoke       # CI per-PR leg
//! cargo run --release -p doall-bench --bin chaos -- --seeds chaos-seeds.txt
//! cargo run --release -p doall-bench --bin chaos -- --replay target/chaos/repro.txt
//! ```
//!
//! Also `--count N` (seeds `0..N`) and `--out-dir DIR`. Any other
//! argument, a non-numeric `--count`, and an unreadable or malformed
//! `--seeds` or `--replay` file are rejected on stderr with exit code 2.
//!
//! The campaign itself fans out across the work-stealing sweep scheduler
//! ([`doall_bench::sweep`]): each seed × grid cell — run plus, on failure,
//! its shrink search — is one weighted sweep cell. Results are reported in
//! campaign order and every cell is deterministic, so the parallel
//! campaign's output matches the serial one (`DOALL_SWEEP_THREADS=1`).
//!
//! Per (seed × protocol × plane) the driver generates a valid fault plan
//! from the [`doall_sim::chaos`] budgeted generator, runs the protocol
//! under it with the watchdog armed, and checks:
//!
//! * **liveness** — the run completes (a watchdog stall, deadlock, or
//!   round/event-limit exit fails the case with its diagnosis);
//! * **the Do-All contract** — if anyone terminated, every unit was
//!   performed, and nobody retired before global completion;
//! * **engine invariants** — no zombie actions, recovery silence,
//!   detector soundness.
//!
//! Any failure is auto-shrunk to a minimal still-failing case and written
//! as a `doall-chaos-repro v1` file (under `--out-dir`, default
//! `target/chaos`); `--replay FILE` re-runs such a file and exits 0 iff
//! the failure still reproduces.

use doall_bench::{cli, sweep};
use doall_core::{AsyncProtocolA, AsyncProtocolB, ProtocolA, ProtocolB, ProtocolC, ProtocolD};
use doall_sim::asynch::{run_async, AsyncConfig, AsyncProtocol, DelayDist};
use doall_sim::chaos::{contract_violations, shrink, ChaosCase, ChaosConfig, Plane, Repro};
use doall_sim::{invariants, run, Protocol, Round, RunConfig, Trace};

/// Executed-round (sync) / virtual-time (async) no-progress window before
/// the watchdog declares livelock.
const STALL_WINDOW: u64 = 4_096;

/// The protocol × plane grid every seed is thrown at.
const GRID: [(&str, Plane); 6] = [
    ("A", Plane::Sync),
    ("B", Plane::Sync),
    ("C", Plane::Sync),
    ("D", Plane::Sync),
    ("A", Plane::Async),
    ("B", Plane::Async),
];

/// Trace-level checks shared by both planes.
fn trace_violations(trace: &Trace, n: usize, out: &mut Vec<String>) {
    for (what, found) in [
        ("zombie", invariants::check_no_zombie_actions(trace)),
        ("recovery-silence", invariants::check_recovery_silence(trace)),
        ("detector", invariants::check_detector_soundness(trace)),
        ("retirement", invariants::check_termination_after_completion(trace, n)),
    ] {
        out.extend(found.into_iter().map(|v| format!("{what}: {v}")));
    }
}

/// Runs `case` on the sync plane; `None` = shape not runnable (invalid
/// plan for this `t`, or a constructor that rejects the shape) — which a
/// shrink oracle must treat as "does not fail".
fn sync_violations<P, F>(build: &F, case: &ChaosCase) -> Option<Vec<String>>
where
    P: Protocol,
    P::Msg: 'static,
    F: Fn(u64, u64) -> Option<Vec<P>>,
{
    let plan = case.plan();
    if plan.validate(case.t).is_err() {
        return None;
    }
    let procs = plan.wrap(build(case.n as u64, case.t as u64)?);
    // No round cap: Protocol C legitimately retires at ~2^90-round
    // deadlines crossed by sparse fast-forward. Liveness is the watchdog's
    // job — its window counts *executed* rounds only — plus the engine's
    // deadlock detection.
    let cfg = RunConfig::new(case.n, Round::MAX).with_trace().with_stall_window(STALL_WINDOW);
    Some(match run(procs, plan, cfg) {
        Ok(report) => {
            let mut v = contract_violations(report.survivor_count(), &report.metrics);
            trace_violations(&report.trace, case.n, &mut v);
            v
        }
        Err(e) => vec![format!("liveness: {e}")],
    })
}

/// Runs `case` on the async plane (uniform delivery delays seeded by the
/// case's own seed, so shrink candidates replay deterministically).
fn async_violations<P, F>(build: &F, case: &ChaosCase) -> Option<Vec<String>>
where
    P: AsyncProtocol,
    P::Msg: 'static,
    F: Fn(u64, u64) -> Option<Vec<P>>,
{
    let plan = case.plan();
    if plan.validate(case.t).is_err() {
        return None;
    }
    let procs = plan.wrap_async(build(case.n as u64, case.t as u64)?);
    let cfg = AsyncConfig::new(case.n, case.seed)
        .with_delay(DelayDist::Uniform, 4)
        .with_trace()
        .with_stall_window(STALL_WINDOW);
    Some(match run_async(procs, plan, cfg) {
        Ok(report) => {
            let mut v = contract_violations(report.survivor_count(), &report.metrics);
            trace_violations(&report.trace, case.n, &mut v);
            v
        }
        Err(e) => vec![format!("liveness: {e}")],
    })
}

/// Dispatches a case to one cell of [`GRID`].
fn case_violations(protocol: &str, plane: Plane, case: &ChaosCase) -> Option<Vec<String>> {
    match (protocol, plane) {
        // Padded, so shrink candidates at a non-square `t` or a
        // non-dividing `n` stay runnable; at a valid shape it is the
        // strict system.
        ("A", Plane::Sync) => sync_violations(&|n, t| ProtocolA::processes_padded(n, t).ok(), case),
        ("B", Plane::Sync) => sync_violations(&|n, t| ProtocolB::processes(n, t).ok(), case),
        ("C", Plane::Sync) => sync_violations(&|n, t| ProtocolC::processes(n, t).ok(), case),
        ("D", Plane::Sync) => sync_violations(&|n, t| ProtocolD::processes(n, t).ok(), case),
        ("A", Plane::Async) => async_violations(&|n, t| AsyncProtocolA::processes(n, t).ok(), case),
        ("B", Plane::Async) => async_violations(&|n, t| AsyncProtocolB::processes(n, t).ok(), case),
        _ => None,
    }
}

/// Replays a repro file; the exit code says whether its failure
/// reproduces. An unreadable or malformed file is an `Err`.
fn replay(path: &str) -> Result<i32, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let repro = Repro::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok(match case_violations(&repro.protocol, repro.plane, &repro.case) {
        Some(v) if !v.is_empty() => {
            println!("{path}: failure reproduces on {} ({}):", repro.protocol, repro.plane);
            for violation in v {
                println!("  {violation}");
            }
            0
        }
        Some(_) => {
            println!("{path}: run is clean — the repro is stale");
            1
        }
        None => {
            println!("{path}: shape not runnable (bad t / invalid plan)");
            1
        }
    })
}

fn load_seeds(path: &str) -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().map_err(|_| format!("bad seed line in {path}: `{l}`")))
        .collect()
}

/// Reports a bad input on stderr and exits 2, as an unknown argument does.
fn usage_error(e: impl std::fmt::Display) -> ! {
    eprintln!("chaos: {e}");
    std::process::exit(2);
}

/// Arguments that stand alone.
const FLAGS: [&str; 1] = ["--smoke"];
/// Arguments followed by a value.
const OPTIONS: [&str; 4] = ["--seeds", "--count", "--replay", "--out-dir"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = cli::check_args(&args, &FLAGS, &OPTIONS) {
        usage_error(e);
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));

    if let Some(path) = opt("--replay") {
        std::process::exit(replay(path).unwrap_or_else(|e| usage_error(e)));
    }

    let smoke = flag("--smoke");
    let out_dir = opt("--out-dir").cloned().unwrap_or_else(|| "target/chaos".to_string());
    let seeds: Vec<u64> = match opt("--seeds") {
        Some(path) => load_seeds(path).unwrap_or_else(|e| usage_error(e)),
        None => {
            let count: u64 = opt("--count")
                .map(|c| c.parse().unwrap_or_else(|_| usage_error("--count takes a number")))
                .unwrap_or(if smoke { 8 } else { 24 });
            (0..count).collect()
        }
    };

    // t = 16 satisfies every constructor: perfect square (B and the async
    // pair), power of two (C), anything (D and the padded sync A).
    let cfg = ChaosConfig::new(16, 64);
    // The seed × grid campaign is embarrassingly parallel: every cell is
    // one deterministic run (plus, on failure, its deterministic shrink),
    // so it fans out through the weighted sweep scheduler. Faults are a
    // rough time-budget proxy (more faults = longer runs and, above all, a
    // longer shrink search); the async plane pays extra for its event
    // queue. Reporting stays in campaign order — the sweep returns results
    // in input order regardless of which worker ran what — and repro files
    // are written from this thread, so the output and any written repros
    // are byte-identical to a serial campaign. `DOALL_SWEEP_THREADS=1`
    // forces the inline path.
    let cells: Vec<(ChaosCase, &str, Plane)> = seeds
        .iter()
        .map(|&seed| ChaosCase::generate(seed, &cfg))
        .flat_map(|case| GRID.map(|(protocol, plane)| (case.clone(), protocol, plane)))
        .collect();
    let outcomes = sweep::map_cells_weighted(
        cells,
        |_, (case, _, plane)| {
            (case.faults.len() as u64 + 1) * if *plane == Plane::Async { 2 } else { 1 }
        },
        |_, (case, protocol, plane)| {
            let violations = case_violations(protocol, *plane, case);
            let shrunk = match &violations {
                Some(v) if !v.is_empty() => Some(shrink(case, |c| {
                    case_violations(protocol, *plane, c).is_some_and(|v| !v.is_empty())
                })),
                _ => None,
            };
            (case.clone(), *protocol, *plane, violations, shrunk)
        },
    );
    let mut failures = 0usize;
    for (case, protocol, plane, violations, shrunk) in &outcomes {
        let seed = case.seed;
        match violations {
            None => eprintln!("seed {seed} {plane}/{protocol}: not runnable (skipped)"),
            Some(v) if v.is_empty() => {
                eprintln!("seed {seed} {plane}/{protocol}: ok ({} fault(s))", case.faults.len());
            }
            Some(v) => {
                failures += 1;
                eprintln!("seed {seed} {plane}/{protocol}: FAIL");
                for violation in v {
                    eprintln!("    {violation}");
                }
                let min = shrunk.clone().expect("failing cell was shrunk in the sweep");
                let repro = Repro { protocol: protocol.to_string(), plane: *plane, case: min };
                let mut text = repro.emit();
                for violation in v {
                    text.push_str(&format!("# violation: {violation}\n"));
                }
                std::fs::create_dir_all(&out_dir).expect("create --out-dir");
                let path = format!("{out_dir}/repro-{plane}-{protocol}-seed{seed}.txt");
                std::fs::write(&path, text).expect("write repro file");
                eprintln!(
                    "    shrunk {} -> {} fault(s) (t={}, n={}); wrote {path}",
                    case.faults.len(),
                    repro.case.faults.len(),
                    repro.case.t,
                    repro.case.n,
                );
            }
        }
    }
    eprintln!(
        "chaos campaign: {} seed(s) x {} grid cells = {} runs, {failures} failure(s)",
        seeds.len(),
        GRID.len(),
        outcomes.len(),
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(args: &[&str]) -> Result<(), String> {
        cli::check_args(args, &FLAGS, &OPTIONS)
    }

    #[test]
    fn documented_flags_pass_and_stale_ones_are_rejected() {
        assert!(check(&[]).is_ok());
        assert!(check(&["--smoke", "--out-dir", "/tmp/chaos"]).is_ok());
        assert!(check(&["--seeds", "chaos-seeds.txt", "--count", "3"]).is_ok());
        assert!(check(&["--replay", "target/chaos/repro.txt"]).is_ok());
        let err = check(&["--smoke", "--shards", "4"]).unwrap_err();
        assert!(err.contains("`--shards`") && err.contains("--out-dir VALUE"), "{err}");
        assert!(check(&["--count"]).is_err(), "an option without its value");
    }
}
