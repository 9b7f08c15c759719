//! From traced passes to per-layer metrics: span construction, per-pass
//! sums, and the derivation of every name in [`PER_LAYER`].

use std::collections::BTreeMap;
use std::thread::ThreadId;

use crate::check::Reference;
use crate::ops::{Ctx, OpTrace, Outcome, Phase, Plane, Variant};
use crate::run::ShareRows;
use crate::span::{Span, Tally};
use crate::stats::{median, percentile_sorted};

/// Every per-layer metric a traced run prints: name, unit, better.
/// Layers are crates or modules of the traced program; `bench` is the
/// harness itself. Mirrored in `BENCHMARK.json` (a test holds them equal).
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    ("core.build_ms", "ms", "lower"),
    ("core.step_calls", "count", "lower"),
    ("core.step_busy_ms", "ms", "lower"),
    ("core.step_ns_per_call", "ns", "lower"),
    ("core.wakeup_calls", "count", "lower"),
    ("core.wakeup_busy_ms", "ms", "lower"),
    ("core.handler_calls", "count", "lower"),
    ("core.handler_busy_ms", "ms", "lower"),
    ("engine.new_ms", "ms", "lower"),
    ("engine.run_ms", "ms", "lower"),
    ("engine.report_ms", "ms", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.executed_rounds", "count", "lower"),
    ("engine.messages", "count", "lower"),
    ("engine.dead_letters", "count", "lower"),
    ("engine.work", "count", "lower"),
    ("engine.self_ns_per_round", "ns", "lower"),
    ("engine.self_ns_per_msg", "ns", "lower"),
    ("engine.soa_bytes", "bytes", "lower"),
    ("engine.flight_bytes", "bytes", "lower"),
    ("engine.snapshot_ms", "ms", "lower"),
    ("engine.resume_ms", "ms", "lower"),
    ("engine.shard_speedup", "ratio", "higher"),
    ("adversary.intercept_calls", "count", "lower"),
    ("adversary.busy_ms", "ms", "lower"),
    ("faults.plan_ms", "ms", "lower"),
    ("faults.injected", "count", "higher"),
    ("asynch.new_ms", "ms", "lower"),
    ("asynch.run_ms", "ms", "lower"),
    ("asynch.report_ms", "ms", "lower"),
    ("asynch.self_ms", "ms", "lower"),
    ("asynch.batches", "count", "lower"),
    ("asynch.messages", "count", "lower"),
    ("asynch.self_ns_per_msg.calendar", "ns", "lower"),
    ("asynch.self_ns_per_msg.heap", "ns", "lower"),
    ("asynch.engine_bytes", "bytes", "lower"),
    ("chaos.generate_ms", "ms", "lower"),
    ("chaos.oracle_ms", "ms", "lower"),
    ("chaos.shrink_ms", "ms", "lower"),
    ("chaos.shrink_runs", "count", "lower"),
    ("chaos.cases", "count", "higher"),
    ("chaos.unrunnable", "count", "lower"),
    ("chaos.violations", "count", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.cost_pct", "%", "lower"),
    ("sweep.workers", "count", "higher"),
    ("sweep.busy_ms", "ms", "lower"),
    ("sweep.efficiency", "ratio", "higher"),
    ("sweep.case_p50_us", "us", "lower"),
    ("sweep.case_p99_us", "us", "lower"),
    ("sweep.case_max_us", "us", "lower"),
    ("service.arrivals_ms", "ms", "lower"),
    ("service.submit_us_per_job", "us", "lower"),
    ("service.run_us_per_job", "us", "lower"),
    ("service.direct_us_per_job", "us", "lower"),
    ("service.overhead_us_per_job", "us", "lower"),
    ("service.overload_ms", "ms", "lower"),
    ("service.jobs", "count", "higher"),
    ("service.completed", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.deferred", "count", "lower"),
    ("service.max_queue_depth", "count", "lower"),
    ("service.sojourn_p50_rounds", "rounds", "lower"),
    ("service.sojourn_p99_rounds", "rounds", "lower"),
    ("service.utilization", "ratio", "higher"),
    ("workload.lower_ms", "ms", "lower"),
    ("bounds.work_ratio_max", "ratio", "lower"),
    ("bounds.msg_ratio_max", "ratio", "lower"),
    ("bench.self_pct", "%", "lower"),
    ("trace.layer_closure_pct", "%", "higher"),
    ("trace_overhead_pct", "%", "lower"),
];

pub fn variant_name(variant: Variant) -> String {
    match variant {
        Variant::Bare => "bare".into(),
        Variant::Spans => "spans".into(),
        Variant::Twin(k) => format!("twin{k}"),
    }
}

/// Per-layer inputs that are exact counts of the workload, not timings:
/// taken once, from the warm-up pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountInputs {
    engine_rounds: u64,
    engine_messages: u64,
    engine_dead_letters: u64,
    engine_work: u64,
    soa_bytes: u64,
    flight_bytes: u64,
    injected: u64,
    asynch_batches: u64,
    asynch_messages: u64,
    asynch_bytes: u64,
    trace_events: u64,
    violations: u64,
    work_ratio_max: f64,
    msg_ratio_max: f64,
}

/// Sums a field over the outcomes that ran on `plane`.
fn sum_on(outcomes: &[Outcome], plane: Plane, f: impl Fn(&Outcome) -> u64) -> u64 {
    outcomes.iter().filter(|o| o.plane == plane).map(f).sum()
}

impl CountInputs {
    pub fn of(outcomes: &[Outcome]) -> CountInputs {
        let max_on = |plane: Plane, f: fn(&Outcome) -> u64| {
            outcomes.iter().filter(|o| o.plane == plane).map(f).max().unwrap_or(0)
        };
        let injected = |o: &Outcome| {
            u64::from(o.metrics.crashes) + u64::from(o.metrics.recoveries) + o.metrics.omissions
        };
        CountInputs {
            engine_rounds: sum_on(outcomes, Plane::Sync, |o| o.executed),
            engine_messages: sum_on(outcomes, Plane::Sync, |o| o.metrics.messages),
            engine_dead_letters: sum_on(outcomes, Plane::Sync, |o| o.metrics.dead_letters),
            engine_work: sum_on(outcomes, Plane::Sync, |o| o.metrics.work_total),
            soa_bytes: max_on(Plane::Sync, |o| o.mem.soa_bytes),
            flight_bytes: max_on(Plane::Sync, |o| o.mem.flight_bytes),
            injected: outcomes.iter().map(injected).sum(),
            asynch_batches: sum_on(outcomes, Plane::Async, |o| o.executed),
            asynch_messages: sum_on(outcomes, Plane::Async, |o| o.metrics.messages),
            asynch_bytes: max_on(Plane::Async, |o| o.mem.engine_bytes()),
            trace_events: outcomes.iter().map(|o| o.trace_events).sum(),
            violations: outcomes.iter().map(|o| o.violations).sum(),
            work_ratio_max: outcomes.iter().map(|o| o.bound_ratios().0).fold(0.0, f64::max),
            msg_ratio_max: outcomes.iter().map(|o| o.bound_ratios().1).fold(0.0, f64::max),
        }
    }
}

/// The spans of one traced pass: the pass itself, its pass-level phases,
/// one span per operation with a child per phase, and under the phases in
/// which the engine calls back into protocol and adversary code one
/// aggregated child per callee. Operations that ran under a sweep hang off
/// a per-worker lane span, so concurrent operations never share a parent.
pub fn build_spans(variant: Variant, start_ns: u64, end_ns: u64, ctx: &Ctx) -> Vec<Span> {
    let mut spans = vec![Span {
        name: format!("bench.pass/{}", variant_name(variant)),
        start_ns,
        end_ns,
        parent: None,
        op: 0,
        calls: 1,
    }];
    let mut sweep = None;
    for &(phase, s, e) in &ctx.pass_phases {
        if phase == Phase::SweepMap {
            sweep = Some((spans.len(), s, e));
        }
        spans.push(Span {
            name: phase.name().into(),
            start_ns: s,
            end_ns: e,
            parent: Some(0),
            op: 0,
            calls: 1,
        });
    }
    let mut lanes: Vec<(ThreadId, usize)> = Vec::new();
    for (i, op) in ctx.traces.iter().enumerate() {
        let parent = match sweep {
            None => 0,
            Some((map, s, e)) => match lanes.iter().find(|(id, _)| *id == op.thread) {
                Some(&(_, lane)) => lane,
                None => {
                    lanes.push((op.thread, spans.len()));
                    let name = format!("sweep.worker/{}", lanes.len() - 1);
                    spans.push(Span {
                        name,
                        start_ns: s,
                        end_ns: e,
                        parent: Some(map),
                        op: 0,
                        calls: 1,
                    });
                    spans.len() - 1
                }
            },
        };
        push_op(&mut spans, parent, i as u64 + 1, op);
    }
    spans
}

fn push_op(spans: &mut Vec<Span>, parent: usize, id: u64, op: &OpTrace) {
    let me = spans.len();
    spans.push(Span {
        name: format!("bench.op/{}", op.label),
        start_ns: op.start_ns,
        end_ns: op.end_ns,
        parent: Some(parent),
        op: id,
        calls: 1,
    });
    let hosting: u64 =
        op.phases.iter().filter(|(p, ..)| p.hosts_callbacks()).map(|&(_, s, e)| e - s).sum();
    for &(phase, s, e) in &op.phases {
        let at = spans.len();
        let calls = if phase == Phase::ChaosShrink { op.calls } else { 1 };
        spans.push(Span {
            name: phase.name().into(),
            start_ns: s,
            end_ns: e,
            parent: Some(me),
            op: id,
            calls,
        });
        if !phase.hosts_callbacks() || hosting == 0 {
            continue;
        }
        // This phase's share of the callbacks (a checkpointed run has two
        // run phases), laid end to end from the phase's start. Busy time
        // summed over lanes covers 1/lanes of it on the wall clock.
        let share = (e - s) as f64 / hosting as f64;
        let mut cursor = s;
        let t = &op.tallies;
        for (name, tally) in [
            ("core.step", t.step),
            ("core.wakeup", t.wakeup),
            ("core.handler", t.handler),
            ("adversary.intercept", t.intercept),
            ("adversary.other", t.adversary_other),
        ] {
            if tally.calls == 0 {
                continue;
            }
            let covered = (tally.busy_ns() as f64 * share / op.lanes as f64) as u64;
            let calls = ((tally.calls as f64 * share).round() as u64).max(1);
            spans.push(Span {
                name: name.into(),
                start_ns: cursor,
                end_ns: cursor + covered,
                parent: Some(at),
                op: id,
                calls,
            });
            cursor += covered;
        }
    }
}

/// Appends `spans` to the trace-file list, rebasing parent indices.
pub fn append_spans(file: &mut Vec<Span>, spans: Vec<Span>) {
    let base = file.len();
    file.extend(spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
}

/// The sums of one rotation, keyed by span name (nanoseconds), by
/// `<name>.calls`, or by a few named counts.
#[derive(Debug, Default)]
pub struct Raw {
    sums: BTreeMap<&'static str, f64>,
}

impl Raw {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_insert(0.0) += value;
    }

    fn add_tally(&mut self, name: &'static str, calls: &'static str, tally: Tally) {
        self.add(calls, tally.calls as f64);
        self.add(name, tally.busy_ns() as f64);
    }

    /// Folds one traced pass in.
    pub fn absorb(&mut self, ctx: &Ctx) {
        for &(phase, s, e) in &ctx.pass_phases {
            self.add(phase.name(), (e - s) as f64);
        }
        for op in &ctx.traces {
            let mut run_ns = 0u64;
            for &(phase, s, e) in &op.phases {
                self.add(phase.name(), (e - s) as f64);
                if phase.hosts_callbacks() {
                    run_ns += e - s;
                }
            }
            let t = &op.tallies;
            self.add_tally("core.step", "core.step.calls", t.step);
            self.add_tally("core.wakeup", "core.wakeup.calls", t.wakeup);
            self.add_tally("core.handler", "core.handler.calls", t.handler);
            self.add_tally("adversary.intercept", "adversary.intercept.calls", t.intercept);
            self.add_tally("adversary.other", "adversary.other.calls", t.adversary_other);
            // Engine self time: the run minus what its callees cover.
            let covered = (t.core_ns() + t.adversary_ns()) / op.lanes;
            let own = run_ns.saturating_sub(covered) as f64;
            match op.calendar {
                None if run_ns > 0 => {
                    self.add("engine.self", own);
                    self.add("engine.traced_rounds", op.executed as f64);
                    self.add("engine.traced_messages", op.messages as f64);
                }
                Some(calendar) => {
                    let (own_key, messages_key) = if calendar {
                        ("asynch.self.calendar", "asynch.traced_messages.calendar")
                    } else {
                        ("asynch.self.heap", "asynch.traced_messages.heap")
                    };
                    self.add("asynch.self", own);
                    self.add(own_key, own);
                    self.add(messages_key, op.messages as f64);
                }
                None => {}
            }
        }
        if let Some(&(_, s, e)) = ctx.pass_phases.iter().find(|(p, ..)| *p == Phase::SweepMap) {
            let mut case_ns: Vec<u64> =
                ctx.traces.iter().map(|op| op.end_ns - op.start_ns).collect();
            case_ns.sort_unstable();
            let busy: u64 = case_ns.iter().sum();
            // Useful worker time over available worker time.
            let available = ctx.threads as f64 * (e - s).max(1) as f64;
            self.add("sweep.workers", ctx.threads as f64);
            self.add("sweep.busy", busy as f64);
            self.add("sweep.efficiency", busy as f64 / available);
            self.add("sweep.case_p50", percentile_sorted(&case_ns, 50.0) as f64);
            self.add("sweep.case_p99", percentile_sorted(&case_ns, 99.0) as f64);
            self.add("sweep.case_max", percentile_sorted(&case_ns, 100.0) as f64);
        }
    }
}

/// Median self time per layer over the spans-variant passes, with each
/// layer's share of the total, largest first.
pub fn share_table(passes: &[Vec<(String, u64)>]) -> ShareRows {
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (layer, ns) in pass {
            by_layer.entry(layer).or_default().push(*ns as f64);
        }
    }
    let mut rows: Vec<(String, f64)> =
        by_layer.into_iter().map(|(l, v)| (l.to_string(), median(&v) / 1e6)).collect();
    let total: f64 = rows.iter().map(|r| r.1).sum();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.into_iter().map(|(l, ms)| (l, ms, if total > 0.0 { ms / total } else { 0.0 })).collect()
}

/// What a run's traced passes and reference add up to, as the metric
/// derivations read it: medians over the rotations, exact counters of the
/// reference groups, median pass times per variant.
pub struct View<'a> {
    pub raws: &'a [Raw],
    pub reference: &'a Reference,
    pub pass_p50: &'a dyn Fn(&str) -> f64,
}

/// `num / den`, or 0 when the layer is not on the workload's path.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl View<'_> {
    /// Median over the rotations of one raw sum (ns for span names).
    pub fn med(&self, key: &str) -> f64 {
        let of = |r: &Raw| r.sums.get(key).copied().unwrap_or(0.0);
        median(&self.raws.iter().map(of).collect::<Vec<_>>())
    }

    pub fn ms(&self, key: &str) -> f64 {
        self.med(key) / 1e6
    }

    /// An exact counter of a reference group (0 if absent).
    pub fn extra(&self, group: &str, key: &str) -> f64 {
        let counts = self.reference.groups.get(group);
        counts.and_then(|c| c.extra.get(key)).copied().unwrap_or(0) as f64
    }

    /// Operations in a reference group.
    pub fn ops(&self, group: &str) -> f64 {
        self.reference.groups.get(group).map_or(0, |c| c.ops) as f64
    }

    /// Median pass time of one variant over another's.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        per((self.pass_p50)(num), (self.pass_p50)(den))
    }
}

/// Every per-layer metric, in [`PER_LAYER`] order: [`common`] plus `own` —
/// what only the workload itself can name (what its twin pass means, which
/// of its groups hold which counter). A metric that is another workload's
/// own reads 0.
pub fn derive(
    common: Vec<(&'static str, f64)>,
    own: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let find =
        |name: &str| common.iter().chain(&own).find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
    PER_LAYER.iter().map(|&(name, unit, _)| (name, find(name), unit)).collect()
}

/// The per-layer metrics every workload derives the same way.
pub fn common(
    view: &View<'_>,
    counts: &CountInputs,
    spans_shares: &[(String, f64, f64)],
) -> Vec<(&'static str, f64)> {
    let (med, ms) = (|key| view.med(key), |key| view.ms(key));
    // The harness's own share of the spans-variant pass: wrapping, dropping
    // and bookkeeping between the calls into the traced program.
    let bench_pct = spans_shares.iter().find(|r| r.0 == "bench").map_or(0.0, |r| r.2 * 100.0);
    let closure_pct = if spans_shares.is_empty() { 0.0 } else { 100.0 - bench_pct };

    vec![
        ("core.build_ms", ms("core.build")),
        ("core.step_calls", med("core.step.calls")),
        ("core.step_busy_ms", ms("core.step")),
        ("core.step_ns_per_call", per(med("core.step"), med("core.step.calls"))),
        ("core.wakeup_calls", med("core.wakeup.calls")),
        ("core.wakeup_busy_ms", ms("core.wakeup")),
        ("core.handler_calls", med("core.handler.calls")),
        ("core.handler_busy_ms", ms("core.handler")),
        ("engine.new_ms", ms("engine.new")),
        ("engine.run_ms", ms("engine.run")),
        ("engine.report_ms", ms("engine.report")),
        ("engine.self_ms", ms("engine.self")),
        ("engine.executed_rounds", counts.engine_rounds as f64),
        ("engine.messages", counts.engine_messages as f64),
        ("engine.dead_letters", counts.engine_dead_letters as f64),
        ("engine.work", counts.engine_work as f64),
        ("engine.self_ns_per_round", per(med("engine.self"), med("engine.traced_rounds"))),
        ("engine.self_ns_per_msg", per(med("engine.self"), med("engine.traced_messages"))),
        ("engine.soa_bytes", counts.soa_bytes as f64),
        ("engine.flight_bytes", counts.flight_bytes as f64),
        ("engine.snapshot_ms", ms("engine.snapshot")),
        ("engine.resume_ms", ms("engine.resume")),
        ("adversary.intercept_calls", med("adversary.intercept.calls")),
        ("adversary.busy_ms", ms("adversary.intercept") + ms("adversary.other")),
        ("faults.plan_ms", ms("faults.plan")),
        ("faults.injected", counts.injected as f64),
        ("asynch.new_ms", ms("asynch.new")),
        ("asynch.run_ms", ms("asynch.run")),
        ("asynch.report_ms", ms("asynch.report")),
        ("asynch.self_ms", ms("asynch.self")),
        ("asynch.batches", counts.asynch_batches as f64),
        ("asynch.messages", counts.asynch_messages as f64),
        (
            "asynch.self_ns_per_msg.calendar",
            per(med("asynch.self.calendar"), med("asynch.traced_messages.calendar")),
        ),
        (
            "asynch.self_ns_per_msg.heap",
            per(med("asynch.self.heap"), med("asynch.traced_messages.heap")),
        ),
        ("asynch.engine_bytes", counts.asynch_bytes as f64),
        ("chaos.generate_ms", ms("chaos.generate")),
        ("chaos.oracle_ms", ms("chaos.oracle")),
        ("chaos.shrink_ms", ms("chaos.shrink")),
        ("chaos.violations", counts.violations as f64),
        ("trace.events", counts.trace_events as f64),
        ("sweep.workers", med("sweep.workers")),
        ("sweep.busy_ms", ms("sweep.busy")),
        ("sweep.efficiency", med("sweep.efficiency")),
        ("sweep.case_p50_us", med("sweep.case_p50") / 1e3),
        ("sweep.case_p99_us", med("sweep.case_p99") / 1e3),
        ("sweep.case_max_us", med("sweep.case_max") / 1e3),
        ("service.arrivals_ms", ms("service.arrivals")),
        ("service.overload_ms", ms("service.overload")),
        ("workload.lower_ms", ms("workload.lower")),
        ("bounds.work_ratio_max", counts.work_ratio_max),
        ("bounds.msg_ratio_max", counts.msg_ratio_max),
        ("bench.self_pct", bench_pct),
        ("trace.layer_closure_pct", closure_pct),
        ("trace_overhead_pct", (view.ratio("spans", "bare") - 1.0) * 100.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_metric_is_derived_exactly_once() {
        let (reference, p50) = (Reference::default(), |_: &str| 0.0);
        let view = View { raws: &[], reference: &reference, pass_p50: &p50 };
        let mut derived: Vec<&str> =
            common(&view, &CountInputs::default(), &[]).iter().map(|m| m.0).collect();
        // A metric of a workload's own may be shared (both giant cells
        // report the shard speed-up) but never shadows a common one.
        let env = crate::workloads::Env { seed: 1, threads: 2 };
        let mut own: Vec<&str> = Vec::new();
        for w in &crate::workloads::WORKLOADS {
            own.extend((w.generate)(env).own_metrics(&view).iter().map(|m| m.0));
        }
        own.sort_unstable();
        own.dedup();
        derived.extend(own);
        let mut listed: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        derived.sort_unstable();
        listed.sort_unstable();
        assert_eq!(derived, listed);
        assert_eq!(derive(Vec::new(), Vec::new()).len(), PER_LAYER.len());
    }

    #[test]
    fn share_table_ranks_layers_and_sums_to_one() {
        let passes = vec![
            vec![("engine".to_string(), 60), ("core".to_string(), 30), ("bench".to_string(), 10)],
            vec![("engine".to_string(), 62), ("core".to_string(), 28), ("bench".to_string(), 10)],
        ];
        let rows = share_table(&passes);
        assert_eq!(rows[0].0, "engine");
        assert!((rows.iter().map(|r| r.2).sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
