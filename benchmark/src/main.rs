//! The repo's benchmark: seven workloads, four gated end-to-end metrics and
//! an outside-in layer trace for both execution planes, the service and the
//! chaos sweep. See `README.md` beside this crate and `BENCHMARK.json` at
//! the repository root.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --quick          # sanity, < 15 s
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --trace          # every workload, both runs
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sync_storm --seed 7 --seconds 8 --trace 0                     # one run, as the driver calls it
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A.json B.json
//! ```

#![forbid(unsafe_code)]

mod chaos;
mod check;
mod compare;
mod json;
mod layers;
mod ops;
mod pace;
mod run;
mod serve;
mod span;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use run::{out_dir, Options, RunReport};
use workloads::{Entry, WORKLOADS};

/// The seed `expected.json` was generated on.
pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;

/// End-to-end metrics of `BENCHMARK.json`: name, unit, better, bound. One
/// bound per metric has to hold for the noisiest workload on a host whose
/// clock and memory speed drift by minutes (README, "Run-to-run spread"):
/// the widest spread over ten runs was 12 % for the times and 9 % for RSS.
/// `--compare` applies the finer per-workload table in [`compare::bound`].
/// `failed_share` is reported through `attempted`/`failed` instead: a gated
/// metric may never read 0.
const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("pass_p50_ms", "ms", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
];

const USAGE: &str = "\
usage: doall-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
                       [--repeat K] [--out FILE]
       doall-benchmark --compare A.json B.json
       doall-benchmark --write-expected | --manifest

  --workload W   run one workload in this process (the driver's form); without it
                 every workload runs in a child process of its own
  --seed N       drives every random input (default 1, the seed expected.json pins)
  --seconds S    length of the timed section of a run (default 8)
  --trace [0|1]  1: the traced run (per-layer metrics, trace file); with no
                 --workload, a bare --trace runs both the untraced and the traced run
  --quick        one set-up and one timed pass per workload: a sanity check
  --repeat K     (all workloads) K runs per workload on seeds N, N+1, …
  --out FILE     (all workloads) where the result set is written
                 (default benchmark/out/results.json)
  --compare      apply the regression bounds to two result sets
  --write-expected  regenerate expected.json on the default seed
  --manifest     print BENCHMARK.json";

/// `--trace 0` (or nothing), `--trace 1`, or a bare `--trace`: both runs
/// in the all-workloads form, the traced one with `--workload`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Trace {
    Off,
    On,
    Both,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    quick: bool,
    repeat: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
    write_expected: bool,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: Trace::Off,
        quick: false,
        repeat: 1,
        out: None,
        compare: None,
        write_expected: false,
        manifest: false,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} takes a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                args.seed = value(&mut it, arg)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value(&mut it, arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match it.next_if(|s| matches!(s.as_str(), "0" | "1")) {
                    Some(value) if value == "0" => Trace::Off,
                    Some(_) => Trace::On,
                    None => Trace::Both,
                };
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value(&mut it, arg)?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&args.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--out" => args.out = Some(value(&mut it, arg)?),
            "--compare" => args.compare = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            "--write-expected" => args.write_expected = true,
            "--manifest" => args.manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn entry(name: &str) -> Result<&'static Entry, String> {
    WORKLOADS.iter().find(|e| e.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|e| e.name).collect();
        format!("unknown workload `{name}`; the workloads are: {}", names.join(", "))
    })
}

/// Lanes of the sharded workload and workers of the sweep: `min(nproc, 4)`.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// First line of a command's output, or "unknown" (the driver's checkout is
/// not a git repository, and a host may lack either tool).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn header(seed: u64) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let mut h = Value::obj();
    h.set("host_cores", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .set("cpu_model", model)
        .set("rustc", tool_line("rustc", &["-V"]))
        .set("git_sha", tool_line("git", &["rev-parse", "--short", "HEAD"]))
        .set("seed", seed)
        // Every engine runs one lane except `sync_giant_par` (and the twin
        // pass of `sync_giant_seq`); only `chaos_campaign` uses the sweep.
        .set("par_shards", threads().max(2))
        .set("sweep_workers", threads())
        .set("sample_every", span::SAMPLE_EVERY)
        .set("clock_cost_ns", span::calibrate_clock());
    h
}

fn print_report(report: &RunReport) {
    let kind = if report.options.trace { "traced" } else { "untraced" };
    println!("## {} ({kind}, seed {})", report.workload, report.options.seed);
    for (name, value, unit) in report.metrics.iter().chain(&report.extras) {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    for (variant, rows) in &report.shares {
        println!("share of the {variant} pass by layer (self time):");
        for (layer, ms, share) in rows {
            println!("  {layer:<12} {ms:>12.3} ms {:>6.1} %", share * 100.0);
        }
    }
    for note in &report.notes {
        println!("note: {note}");
    }
}

/// The driver's form: one workload, in this process.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let options = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace != Trace::Off,
        quick: args.quick,
        threads: threads(),
    };
    println!("# {}", header(args.seed));
    let report = run::run_workload(entry(name)?, options)?;
    print_report(&report);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| {
            let file = format!("run-{name}-t{}.json", u8::from(options.trace));
            std::fs::write(out_dir().join(file), report.to_json().pretty())
        })
        .map_err(|e| format!("cannot write under {}: {e}", out_dir().display()))?;
    println!("{}", report.result_line());
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload, each run in a child process of its own so that peak RSS
/// and CPU time are attributable; the children's records are gathered into
/// one result set.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let traces: &[bool] = match args.trace {
        Trace::Off => &[false],
        Trace::On => &[true],
        Trace::Both => &[false, true],
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for repeat in 0..args.repeat {
        for &trace in traces {
            for w in &WORKLOADS {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--trace", if trace { "1" } else { "0" }])
                    .args(["--seed", &(args.seed + repeat).to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(args.quick.then_some("--quick"))
                    .stdout(Stdio::piped());
                // The child's record must be this run's, not a leftover.
                let file = out_dir().join(format!("run-{}-t{}.json", w.name, u8::from(trace)));
                let _ = std::fs::remove_file(&file);
                let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", w.name))?;
                // Relay the child's output as it comes; the pipe closes when it exits.
                let stdout = child.stdout.take().expect("stdout was piped");
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if !line.starts_with('{') {
                        println!("{line}");
                    }
                }
                let status = child.wait().map_err(|e| format!("{}: {e}", w.name))?;
                ok &= status.success();
                match std::fs::read_to_string(&file)
                    .map_err(|e| e.to_string())
                    .and_then(|t| Value::parse(&t))
                {
                    Ok(record) => runs.push(record),
                    Err(e) => eprintln!("{}: no record ({status}): {e}", w.name),
                }
            }
        }
    }
    let mut set = Value::obj();
    set.set("header", header(args.seed)).set("claim", Value::Null).set("runs", runs);
    let out = args.out.clone().map_or_else(|| out_dir().join("results.json"), Into::into);
    std::fs::write(&out, set.pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("result set written to {}", out.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// One bare pass per workload on the default seed, grouped: `expected.json`.
fn write_expected() -> Result<ExitCode, String> {
    let mut workloads = Value::obj();
    for w in &WORKLOADS {
        let env = workloads::Env { seed: DEFAULT_SEED, threads: threads() };
        let mut ctx = ops::Ctx::new(ops::Variant::Bare, env.threads, 0);
        let outcomes = (w.generate)(env).pass(&mut ctx);
        let mut groups = Value::obj();
        for (label, counts) in check::group(&outcomes) {
            groups.set(label, counts.to_json());
        }
        workloads.set(w.expected, groups);
        eprintln!("{}: {} operations", w.name, outcomes.len());
    }
    let mut doc = Value::obj();
    doc.set("seed", DEFAULT_SEED).set("workloads", workloads);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    std::fs::write(&path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// `BENCHMARK.json`, generated from the same tables the program prints from.
fn manifest() -> Value {
    let metric = |name: &str, unit: &str, better: &str| {
        let mut m = Value::obj();
        m.set("name", name).set("unit", unit).set("better", better);
        m
    };
    let command =
        ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"];
    let mut doc = Value::obj();
    doc.set("command", command.map(Value::from).to_vec())
        .set("paths", vec![Value::from("benchmark")])
        .set("run_seconds", DEFAULT_SECONDS)
        .set(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut v = Value::obj();
                    v.set("name", w.name).set("why", w.why);
                    v
                })
                .collect::<Vec<_>>(),
        )
        .set(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|&(name, unit, better, bound)| {
                    let mut m = metric(name, unit, better);
                    m.set("bound", bound);
                    m
                })
                .collect::<Vec<_>>(),
        )
        .set(
            "per_layer",
            layers::PER_LAYER.iter().map(|&(n, u, b)| metric(n, u, b)).collect::<Vec<_>>(),
        );
    doc
}

fn main() -> ExitCode {
    // Shard and worker counts are passed explicitly everywhere; the library's
    // environment overrides must not reach a measured run.
    std::env::remove_var("DOALL_ENGINE_SHARDS");
    std::env::remove_var("DOALL_SWEEP_THREADS");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            compare::compare(a, b)
        } else if args.write_expected {
            write_expected()
        } else if args.manifest {
            print!("{}", manifest().pretty());
            Ok(ExitCode::SUCCESS)
        } else if let Some(name) = &args.workload {
            run_one(&args, name)
        } else {
            run_all(&args)
        }
    });
    match result {
        Ok(code) => code,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is what `--manifest` prints.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(committed, manifest());
    }

    #[test]
    fn a_traced_run_reports_exactly_the_per_layer_names() {
        let doc = manifest();
        let names: Vec<&str> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, layers::PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
        assert!(names.len() <= 128);
        for name in names {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    #[test]
    fn arguments_parse_in_both_trace_forms() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload sync_storm --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!((a.workload.as_deref(), a.seed, a.seconds), (Some("sync_storm"), 7, 2.0));
        assert_eq!(a.trace, Trace::On);
        assert_eq!(parse_args(&argv("--trace --quick")).unwrap().trace, Trace::Both);
        assert_eq!(parse_args(&argv("--trace 0")).unwrap().trace, Trace::Off);
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(entry("nope").is_err());
    }
}
