//! `--compare A.json B.json`: holds result set B against result set A under
//! the regression bound fixed for each (end-to-end metric, workload) pair,
//! and checks that the exact counts of the traced runs are identical. Two
//! sets of the same commit must come out all *within* — the benchmark's
//! own acceptance test — and a later change is judged by the same table.

use std::process::ExitCode;

use crate::json::Value;
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

/// By how much a metric may get worse before it counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Share of set A's median.
    pub share: f64,
    /// An absolute allowance that applies when it is the larger one.
    pub floor: f64,
}

/// The regression bound of every (end-to-end metric, workload) pair, for
/// sets of ten runs: the issue's figure where the spread measured on this
/// host allows it, otherwise the next step above the widest spread seen
/// over two ten-run sets (README, "Run-to-run spread"). All five metrics
/// are "lower is better".
pub fn bound(metric: &str, workload: &str) -> Bound {
    let share = match (metric, workload) {
        ("setup_s", _) => 0.20,
        // Wide: two threads on two cores (lanes, sweep workers) see every
        // other process on the host; tiny jobs see the allocator.
        ("pass_p50_ms", "sync_giant_par" | "serve_stream") => 0.15,
        ("pass_p50_ms", "sync_giant_seq" | "async_storm") => 0.10,
        ("pass_p50_ms", "chaos_campaign") => 0.08,
        ("pass_p50_ms", _) => 0.05,
        ("cpu_s", "sync_giant_par" | "serve_stream") => 0.15,
        ("cpu_s", "sync_giant_seq" | "async_storm" | "chaos_campaign") => 0.12,
        ("cpu_s", _) => 0.08,
        // Lane buffers race to their peak; queue depth follows the seed.
        ("peak_rss_mb", "sync_giant_par" | "async_storm") => 0.12,
        ("peak_rss_mb", _) => 0.05,
        // failed_share: any increase is a regression.
        _ => 0.0,
    };
    Bound { share, floor: if metric == "setup_s" { 0.05 } else { 0.0 } }
}

pub const METRICS: [&str; 5] = ["pass_p50_ms", "cpu_s", "peak_rss_mb", "setup_s", "failed_share"];

/// Counts a traced run prints that must repeat exactly on one seed.
const EXACT: [&str; 15] = [
    "engine.executed_rounds",
    "engine.messages",
    "engine.dead_letters",
    "engine.work",
    "asynch.batches",
    "asynch.messages",
    "faults.injected",
    "trace.events",
    "service.completed",
    "service.rejected",
    "chaos.cases",
    "chaos.shrink_runs",
    "chaos.violations",
    "bounds.work_ratio_max",
    "bounds.msg_ratio_max",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Outside,
    /// The run-to-run spread is wider than the bound, and B is not better
    /// than A on every run: the pair cannot be called unchanged.
    Unresolved,
}

/// Judges one pair from the values each set holds for it (`within_run` is
/// the within-run quartile spread, used when a set holds a single run).
pub fn judge(bound: Bound, a: &[f64], b: &[f64], within_run: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let allowed = (bound.share * med_a.abs()).max(bound.floor);
    let across = |v: &[f64]| if v.len() >= 2 { spread(v) } else { within_run };
    let noisy = bound.share > 0.0 && across(a).max(across(b)) > bound.share;
    let max_b = b.iter().copied().fold(f64::MIN, f64::max);
    let min_a = a.iter().copied().fold(f64::MAX, f64::min);
    if noisy && max_b > min_a {
        Verdict::Unresolved
    } else if med_b - med_a <= allowed {
        Verdict::Within
    } else {
        Verdict::Outside
    }
}

/// The values a set holds for `metric` on the untraced (or traced) runs of
/// `workload`, looked up in a run's `metrics` and then its `extras`.
fn values(set: &Value, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    let runs = set.get("runs").map_or(&[][..], Value::items);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace") == Some(&Value::Bool(trace)))
        .filter_map(|r| {
            let find = |part: &str| r.get(part).and_then(|m| m.get(metric)).and_then(Value::as_f64);
            find("metrics").or_else(|| find("extras"))
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    let mut outside = 0;
    for w in &WORKLOADS {
        for metric in METRICS {
            let (va, vb) = (values(&a, w.name, false, metric), values(&b, w.name, false, metric));
            if va.is_empty() || vb.is_empty() {
                println!("{:<16} {:<12} missing from a set", w.name, metric);
                outside += 1;
                continue;
            }
            // A single run's pass-time spread comes from its own quartiles.
            let within_run = if metric == "pass_p50_ms" {
                let q = |set: &Value, name: &str| median(&values(set, w.name, false, name));
                let of =
                    |set: &Value| (q(set, "pass_q3_ms") - q(set, "pass_q1_ms")) / q(set, metric);
                of(&a).max(of(&b))
            } else {
                0.0
            };
            let bound = bound(metric, w.name);
            let verdict = judge(bound, &va, &vb, within_run);
            outside += usize::from(verdict == Verdict::Outside);
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma != 0.0 { (mb - ma) / ma * 100.0 } else { 0.0 };
            println!(
                "{:<16} {:<12} {ma:>12.4} {mb:>12.4} {change:>+7.2}% {:>7.1}%  {}",
                w.name,
                metric,
                bound.share * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Outside => "OUTSIDE",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
    }
    // Exact counts compare only where both sets measured the same inputs.
    let seed = |set: &Value| set.get("header").and_then(|h| h.get("seed")).and_then(Value::as_f64);
    let mut drift = 0;
    if seed(&a) == seed(&b) {
        for w in &WORKLOADS {
            for name in EXACT {
                let (va, vb) = (values(&a, w.name, true, name), values(&b, w.name, true, name));
                if !va.is_empty() && !vb.is_empty() && va[0] != vb[0] {
                    println!("{:<16} {name}: exact count differs: {} vs {}", w.name, va[0], vb[0]);
                    drift += 1;
                }
            }
        }
        println!(
            "exact counts of the traced runs: {}",
            if drift == 0 { "identical" } else { "DIFFER" }
        );
    } else {
        println!("exact counts not compared: the sets ran on different seeds");
    }
    Ok(if outside + drift == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let five = Bound { share: 0.05, floor: 0.0 };
        assert_eq!(judge(five, &[100.0], &[104.0], 0.01), Verdict::Within);
        assert_eq!(judge(five, &[100.0], &[106.0], 0.01), Verdict::Outside);
        // A spread wider than the bound cannot resolve a 4 % change …
        assert_eq!(judge(five, &[100.0], &[104.0], 0.09), Verdict::Unresolved);
        // … unless every run of B reads better than every run of A.
        assert_eq!(judge(five, &[100.0, 120.0, 110.0], &[90.0, 95.0, 99.0], 0.0), Verdict::Within);
        assert_eq!(
            judge(five, &[100.0, 120.0, 110.0], &[90.0, 95.0, 101.0], 0.0),
            Verdict::Unresolved
        );
        // Improvements are always within.
        assert_eq!(judge(five, &[100.0], &[50.0], 0.0), Verdict::Within);
    }

    #[test]
    fn setup_has_an_absolute_floor_and_failures_have_no_slack() {
        let setup = bound("setup_s", "sync_storm");
        assert_eq!(judge(setup, &[0.10], &[0.14], 0.0), Verdict::Within);
        assert_eq!(judge(setup, &[0.10], &[0.16], 0.0), Verdict::Outside);
        assert_eq!(judge(setup, &[1.00], &[1.19], 0.0), Verdict::Within);
        let failed = bound("failed_share", "sync_storm");
        assert_eq!(judge(failed, &[0.0], &[0.0], 0.0), Verdict::Within);
        assert_eq!(judge(failed, &[0.0], &[0.001], 0.0), Verdict::Outside);
        assert_eq!(bound("pass_p50_ms", "chaos_campaign").share, 0.08);
        assert_eq!(bound("pass_p50_ms", "sync_sparse").share, 0.05);
        assert_eq!(bound("peak_rss_mb", "sync_giant_seq").share, 0.05);
    }
}
