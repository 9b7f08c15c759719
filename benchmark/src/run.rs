//! Runs one workload in this process: set-up (input generation + a checked
//! warm-up pass, repeated), then timed passes for `--seconds`, then the
//! metrics. Untraced runs yield the end-to-end metrics; traced runs rotate
//! through the spans variant, the bare variant and the workload's twins and
//! yield the per-layer metrics and the trace file.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::check::{expected_groups, group, Counts, Reference, EXPECTED_JSON};
use crate::json::Value;
use crate::layers::{self, Raw};
use crate::ops::{now_ns, Ctx, Outcome, Variant};
use crate::pace::Pace;
use crate::span::{calibrate_clock, layer_self_ns, trace_json, Span};
use crate::stats::{median, quartiles};
use crate::workloads::{Entry, Env, Workload};
use crate::DEFAULT_SEED;

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up, one timed pass (one rotation when tracing): a sanity run.
    pub quick: bool,
    pub threads: usize,
}

/// Timed passes a full run never goes below, whatever `--seconds` says.
const MIN_PASSES: usize = 7;
const MIN_ROTATIONS: usize = 3;
/// Set-up is repeated so its median can be reported: at least three times,
/// more while the repeats stay within this budget.
const MAX_SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 3.0;

/// A named value with its unit, in printing order.
pub type Metric = (String, f64, &'static str);

/// Rows of a share-of-pass table: layer, self ms, share of the total.
pub type ShareRows = Vec<(String, f64, f64)>;

/// Everything one run reports.
#[derive(Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub options: Options,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// The end-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics, not gated: pass count and quartiles,
    /// cold set-up, failed share.
    pub extras: Vec<Metric>,
    /// The share-of-pass table of each traced variant.
    pub shares: Vec<(String, ShareRows)>,
    /// Every timed pass in order, raw ms (untraced runs), for the record file.
    pub pass_ms: Vec<f64>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the driver reads.
    pub fn result_line(&self) -> Value {
        let mut metrics = Value::obj();
        for (name, value, unit) in &self.metrics {
            let mut m = Value::obj();
            m.set("value", *value).set("unit", *unit);
            metrics.set(name, m);
        }
        let mut line = Value::obj();
        line.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        line
    }

    /// The full record written under `out/` for the all-workloads driver
    /// and `--compare`.
    pub fn to_json(&self) -> Value {
        let list = |ms: &[Metric]| {
            let mut v = Value::obj();
            for (name, value, _) in ms {
                v.set(name, *value);
            }
            v
        };
        let mut v = Value::obj();
        v.set("workload", self.workload)
            .set("seed", self.options.seed)
            .set("trace", self.options.trace)
            .set("seconds", self.options.seconds)
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", list(&self.metrics))
            .set("extras", list(&self.extras))
            .set("pass_ms", self.pass_ms.iter().map(|&ms| Value::from(ms)).collect::<Vec<_>>())
            .set("notes", self.notes.iter().map(|n| Value::from(n.as_str())).collect::<Vec<_>>());
        v
    }
}

/// User + system CPU seconds of this process, all threads, exited ones
/// included (`/proc/self/stat` fields 14 and 15, in clock ticks of 10 ms).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// What set-up leaves behind for the timed section.
struct Ready {
    workload: Box<dyn Workload>,
    reference: Reference,
    /// Count-derived per-layer inputs, from the last warm-up pass.
    counts: layers::CountInputs,
}

/// The counts a pass is held against: `expected.json` for groups whose
/// inputs do not depend on the seed (all groups on the default seed), the
/// warm-up pass itself for the rest.
fn reference_for(
    entry: &Entry,
    expected: &BTreeMap<String, Counts>,
    seed: u64,
    warmup: &[Outcome],
) -> Reference {
    let mut groups = BTreeMap::new();
    for (label, counts) in group(warmup) {
        let from_warmup = seed != DEFAULT_SEED && entry.seeded.contains(&label);
        let want = if from_warmup { Some(&counts) } else { expected.get(label) };
        // A group with no committed expectation is left out, so the check
        // reports it as "no reference counts".
        if let Some(want) = want {
            groups.insert(label.to_string(), want.clone());
        }
    }
    Reference { groups }
}

/// One set-up: generate the inputs, run and check a warm-up pass.
fn set_up(entry: &Entry, env: Env, expected: &BTreeMap<String, Counts>, gate: &mut Gate) -> Ready {
    let workload = (entry.generate)(env);
    let mut ctx = Ctx::new(Variant::Bare, env.threads, 0);
    let outcomes = workload.pass(&mut ctx);
    let reference = reference_for(entry, expected, env.seed, &outcomes);
    gate.check(&reference, &outcomes, true, "warm-up");
    Ready { workload, reference, counts: layers::CountInputs::of(&outcomes) }
}

/// Attempted / failed bookkeeping across every pass of a run.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    fn check(&mut self, reference: &Reference, outcomes: &[Outcome], complete: bool, what: &str) {
        let (failed, notes) = reference.check(outcomes, complete);
        self.attempted += outcomes.len() as u64;
        self.failed += failed;
        if self.notes.len() < 20 {
            self.notes.extend(notes.into_iter().map(|n| format!("{what}: {n}")));
        }
    }

    /// Traced reports must equal untraced ones, operation by operation.
    fn same(&mut self, spans: &[Outcome], bare: &[Outcome]) {
        let differs = |(a, b): (&Outcome, &Outcome)| {
            a.label != b.label
                || a.metrics != b.metrics
                || a.survivors != b.survivors
                || a.violations != b.violations
                || a.error != b.error
        };
        let bad = spans.iter().zip(bare).filter(|&pair| differs(pair)).count()
            + spans.len().abs_diff(bare.len());
        if bad > 0 {
            self.failed += bad as u64;
            self.notes.push(format!("{bad} traced operation(s) differ from their untraced twins"));
        }
    }
}

/// Runs `entry` under `options` and returns its report. `Err` is reserved
/// for a broken benchmark (unreadable `expected.json`), not a failed run.
pub fn run_workload(entry: &Entry, options: Options) -> Result<RunReport, String> {
    let env = Env { seed: options.seed, threads: options.threads };
    let expected = expected_groups(&Value::parse(EXPECTED_JSON)?, entry.expected)?;
    let mut gate = Gate::default();

    // Raw seconds and the same at reference speed (see `pace`).
    let (mut raw, mut setups): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut pace = Pace::start();
    let ready = loop {
        let start = Instant::now();
        let ready = set_up(entry, env, &expected, &mut gate);
        raw.push(start.elapsed().as_secs_f64());
        setups.push(raw[raw.len() - 1] * pace.factor());
        let spent: f64 = raw.iter().sum();
        let enough = raw.len() >= 3 && spent + raw[raw.len() - 1] > SETUP_BUDGET_S;
        if options.quick || raw.len() >= MAX_SETUPS || enough {
            break ready;
        }
    };
    let setup_extras: [Metric; 4] = [
        ("setup_s".into(), median(&setups), "s"),
        ("setup_raw_s".into(), median(&raw), "s"),
        ("setup_cold_raw_s".into(), raw[0], "s"),
        ("setup_count".into(), raw.len() as f64, "count"),
    ];

    let mut report = if options.trace {
        traced(entry, options, &ready, &mut gate)
    } else {
        untraced(entry, options, &ready, &mut gate, pace)
    };
    if options.trace {
        report.extras.extend(setup_extras);
    } else {
        let [setup, rest @ ..] = setup_extras;
        report.metrics.push(setup);
        report.extras.extend(rest);
    }
    let share = gate.failed as f64 / gate.attempted.max(1) as f64;
    report.extras.push(("failed_share".into(), share, "ratio"));
    report.attempted = gate.attempted;
    report.failed = gate.failed;
    report.notes = gate.notes;
    Ok(report)
}

fn blank(entry: &Entry, options: Options) -> RunReport {
    RunReport {
        workload: entry.name,
        options,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        metrics: Vec::new(),
        extras: Vec::new(),
        shares: Vec::new(),
        pass_ms: Vec::new(),
    }
}

/// The untraced timed section: bare passes back to back, each bracketed by
/// the reference kernel and checked off the pass clock.
fn untraced(
    entry: &Entry,
    options: Options,
    ready: &Ready,
    gate: &mut Gate,
    mut pace: Pace,
) -> RunReport {
    let min_passes = if options.quick { 1 } else { MIN_PASSES };
    let (mut raw_ms, mut pass_ms, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let (cpu_start, kernel_start, start) = (cpu_seconds(), pace.spent_s, Instant::now());
    while raw_ms.len() < min_passes
        || (!options.quick && start.elapsed().as_secs_f64() < options.seconds)
    {
        let mut ctx = Ctx::new(Variant::Bare, options.threads, 0);
        let clock = Instant::now();
        let outcomes = ready.workload.pass(&mut ctx);
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        let factor = pace.factor();
        raw_ms.push(ms);
        pass_ms.push(ms * factor);
        factors.push(factor);
        gate.check(&ready.reference, &outcomes, true, "pass");
    }
    // The whole timed section, every thread, net of the reference kernel,
    // the harness's own checks included, spread over the passes.
    let cpu_raw_s =
        (cpu_seconds() - cpu_start - (pace.spent_s - kernel_start)) / raw_ms.len() as f64;
    let (q1, p50, q3) = quartiles(&pass_ms);
    let mut report = blank(entry, options);
    report.metrics = vec![
        ("pass_p50_ms".into(), p50, "ms"),
        ("cpu_s".into(), cpu_raw_s * median(&factors), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ];
    report.extras = vec![
        ("pass_count".into(), raw_ms.len() as f64, "count"),
        ("pass_q1_ms".into(), q1, "ms"),
        ("pass_q3_ms".into(), q3, "ms"),
        ("pass_p50_raw_ms".into(), median(&raw_ms), "ms"),
        ("cpu_raw_s".into(), cpu_raw_s, "s"),
        ("host_speed".into(), median(&factors), "ratio"),
    ];
    report.pass_ms = raw_ms;
    report
}

/// The traced timed section: rotations of [spans, bare, twins…].
fn traced(entry: &Entry, options: Options, ready: &Ready, gate: &mut Gate) -> RunReport {
    let mut variants = vec![Variant::Spans, Variant::Bare];
    variants.extend((0..ready.workload.twins()).map(Variant::Twin));
    let min_rotations = if options.quick { 1 } else { MIN_ROTATIONS };

    let mut pass_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut raws: Vec<Raw> = Vec::new();
    let mut file_spans: Vec<Span> = Vec::new();
    // Per traced variant, the layer self times of each of its passes.
    let mut shares: BTreeMap<String, Vec<Vec<(String, u64)>>> = BTreeMap::new();
    let start = Instant::now();
    let mut rotation = 0u64;
    while (rotation as usize) < min_rotations
        || (!options.quick && start.elapsed().as_secs_f64() < options.seconds)
    {
        let mut raw = Raw::default();
        let mut spans_outcomes: Vec<Outcome> = Vec::new();
        for (k, &variant) in variants.iter().enumerate() {
            // A different sampling phase for every pass of the run.
            let salt = (rotation * variants.len() as u64 + k as u64).wrapping_mul(0x9E37);
            let mut ctx = Ctx::new(variant, options.threads, salt);
            calibrate_clock();
            let (pass_start, clock) = (now_ns(), Instant::now());
            let outcomes = ready.workload.pass(&mut ctx);
            let ms = clock.elapsed().as_secs_f64() * 1e3;
            let pass_end = now_ns();
            let name = layers::variant_name(variant);
            pass_ms.entry(name.clone()).or_default().push(ms);
            // A twin pass may cover a subset of the reference's groups.
            let complete = !matches!(variant, Variant::Twin(_));
            gate.check(&ready.reference, &outcomes, complete, &name);
            if ctx.traced {
                raw.absorb(&ctx);
                let spans = layers::build_spans(variant, pass_start, pass_end, &ctx);
                shares.entry(name).or_default().push(layer_self_ns(&spans));
                if rotation == 0 {
                    layers::append_spans(&mut file_spans, spans);
                }
            }
            match variant {
                Variant::Spans => spans_outcomes = outcomes,
                Variant::Bare => gate.same(&spans_outcomes, &outcomes),
                Variant::Twin(_) => {}
            }
        }
        raws.push(raw);
        rotation += 1;
    }

    let p50 = |name: &str| pass_ms.get(name).map_or(0.0, |v| median(v));
    let mut report = blank(entry, options);
    report.shares =
        shares.iter().map(|(name, passes)| (name.clone(), layers::share_table(passes))).collect();
    let spans_shares = report.shares.iter().find(|(name, _)| name == "spans");
    let view = layers::View { raws: &raws, reference: &ready.reference, pass_p50: &p50 };
    let common = layers::common(&view, &ready.counts, spans_shares.map_or(&[], |(_, rows)| rows));
    report.metrics = layers::derive(common, ready.workload.own_metrics(&view))
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit))
        .collect();
    report.extras = vec![("rotations".into(), rotation as f64, "count")];
    for (name, times) in &pass_ms {
        report.extras.push((format!("pass_p50_ms.{name}"), median(times), "ms"));
    }
    // The wrappers run inside `engine.run` / `asynch.run` but outside the
    // callee they time, so this much of the engine/asynch self time of the
    // spans pass is the tracing itself.
    report.extras.push(("trace_overhead_ms".into(), p50("spans") - p50("bare"), "ms"));
    if let Err(e) = write_trace(entry.name, &file_spans) {
        gate.notes.push(format!("trace file not written: {e}"));
    }
    report
}

/// `out/` beside the crate's manifest: inside the checkout wherever the
/// command is run from.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(workload: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(
        out_dir().join(format!("trace-{workload}.json")),
        trace_json(workload, spans).to_string(),
    )
}
