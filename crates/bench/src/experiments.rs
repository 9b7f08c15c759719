//! The experiment suite: one function per quantitative claim of the paper
//! (see DESIGN.md §4 and EXPERIMENTS.md). Each experiment sweeps
//! parameters, drives the adversaries its claim is about, prints a
//! `measured vs bound` table and returns whether every bound held.
//!
//! Grids fan their cells across threads via [`crate::sweep`] (every cell
//! is an independent deterministic simulation), which is what makes the
//! large shapes — `t = 1024` for Protocols A, B, C, C′ and coordinator-D,
//! and `n = 10⁶` for Protocol B — affordable inside the default suite.
//! Protocol C's deadlines grow as `K(n+t−m)2^{n+t−1−m}` rounds; on the
//! 128-bit virtual-time clock the tower is exact up to `n + t ≈ 128`
//! (honest `t = 64` grids, ~10²⁵-round waits crossed in one sparse
//! fast-forward jump each), and the *deep idle* scenario carries C and
//! C′ to `t = 256` and `t = 1024` with exactly derivable counts (see
//! EXPERIMENTS.md §e3/§e4).

use doall_agreement::{BaSystem, Engine, FloodingBa};
use doall_bounds::deadlines_ab::{ddb, tt, AbParams};
use doall_bounds::theorems::{self, Bounds};
use doall_core::{
    AsyncProtocolA, AsyncProtocolB, AsyncReplicate, Lockstep, NaiveSpread, ProtocolA, ProtocolB,
    ProtocolC, ProtocolD, ReplicateAll,
};
use doall_service::{Admission, ArrivalModel, JobSpec, Pool, Session};
use doall_sim::asynch::{run_async, AsyncConfig, AsyncProtocol, DelayDist};
use doall_sim::chaos;
use doall_sim::invariants::{check_degraded_rate, check_recovery_silence};
use doall_sim::{run, Metrics, NoFailures, Pid, Protocol, Report, Round, RunConfig};
use doall_workload::Scenario;

use crate::sweep;
use crate::table::{vs, Table};

/// One experiment's outcome.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Experiment id (`e1` … `e12`).
    pub id: &'static str,
    /// The paper claim being reproduced.
    pub claim: &'static str,
    /// Rendered result table.
    pub rendered: String,
    /// Whether every measured value respected its bound.
    pub pass: bool,
}

fn run_protocol<P: Protocol>(procs: Vec<P>, scenario: &Scenario, n: u64) -> Metrics
where
    P::Msg: 'static,
{
    let report = run(procs, scenario.adversary::<P::Msg>(), RunConfig::new(n as usize, Round::MAX))
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.label()));
    assert!(report.metrics.all_work_done(), "incomplete work under {}", scenario.label());
    report.metrics
}

fn check(m: &Metrics, b: &Bounds, pass: &mut bool) {
    if !within(m, b) {
        *pass = false;
    }
}

fn within(m: &Metrics, b: &Bounds) -> bool {
    m.work_total <= b.work && m.messages <= b.messages && m.rounds <= b.rounds
}

/// The standard measured-vs-bound row shared by the A/B/C grids.
fn bound_row(n: u64, t: u64, scenario: &Scenario, m: &Metrics, b: &Bounds) -> [String; 6] {
    [
        n.to_string(),
        t.to_string(),
        scenario.label(),
        vs(m.work_total, b.work),
        vs(m.messages, b.messages),
        vs(m.rounds, b.rounds),
    ]
}

fn ab_scenarios(t: u64, seed: u64) -> Vec<Scenario> {
    vec![
        Scenario::FailureFree,
        Scenario::DeadOnArrival { k: t - 1 },
        Scenario::TakeoverCascade { victims: t - 1 },
        Scenario::CheckpointSplit { victims: t / 2, nth_send: 2, prefix: 1 },
        Scenario::Random { seed, p: 0.02, max_crashes: (t - 1) as u32 },
    ]
}

/// The A/B grid: the classic shapes under every adversary, plus the
/// large shapes the parallel sweep makes affordable (trigger-based
/// adversaries scan their rule lists per step, so the t = 1024 cells
/// stick to the schedule-driven scenarios).
fn ab_grid(big_n: bool) -> Vec<(u64, u64, Scenario)> {
    let mut cells = Vec::new();
    for (i, (n, t)) in [(16, 16), (32, 16), (128, 16), (64, 64), (256, 64)].into_iter().enumerate()
    {
        for scenario in ab_scenarios(t, sweep::cell_seed(7, i as u64)) {
            cells.push((n, t, scenario));
        }
    }
    cells.push((2_048, 1_024, Scenario::FailureFree));
    cells.push((2_048, 1_024, Scenario::DeadOnArrival { k: 1_023 }));
    if big_n {
        cells.push((1_000_000, 64, Scenario::DeadOnArrival { k: 63 }));
    }
    cells
}

/// E1 — Theorem 2.3: Protocol A within `3n` work, `9t√t` messages,
/// `nt + 3t²` rounds, across shapes and adversaries.
pub fn e1() -> Outcome {
    let mut table = Table::new(["n", "t", "scenario", "work/bound", "msgs/bound", "rounds/bound"]);
    let mut pass = true;
    let rows = sweep::map_cells(ab_grid(false), |_, (n, t, scenario)| {
        let m = run_protocol(ProtocolA::processes(*n, *t).unwrap(), scenario, *n);
        let b = theorems::protocol_a(*n, *t);
        (bound_row(*n, *t, scenario, &m, &b), within(&m, &b))
    });
    for (cols, ok) in rows {
        pass &= ok;
        table.row(cols);
    }
    Outcome {
        id: "e1",
        claim:
            "Theorem 2.3: Protocol A does <= 3n work, <= 9t*sqrt(t) messages, retires by nt + 3t^2",
        rendered: table.render(),
        pass,
    }
}

/// E2 — Theorem 2.8: Protocol B within `3n` work, `10t√t` messages,
/// `3n + 8t` rounds.
pub fn e2() -> Outcome {
    let mut table = Table::new(["n", "t", "scenario", "work/bound", "msgs/bound", "rounds/bound"]);
    let mut pass = true;
    let rows = sweep::map_cells(ab_grid(true), |_, (n, t, scenario)| {
        let m = run_protocol(ProtocolB::processes(*n, *t).unwrap(), scenario, *n);
        let b = theorems::protocol_b(*n, *t);
        (bound_row(*n, *t, scenario, &m, &b), within(&m, &b))
    });
    for (cols, ok) in rows {
        pass &= ok;
        table.row(cols);
    }
    // Peak multicast-pressure cell (PR 3): n = 2^20 ≈ 10^6 units on
    // t = 1024 processes with every group but the last dead on arrival.
    // The lone live group's active process fires one 31-recipient partial
    // checkpoint per subchunk (1024 of them), and its 31 live peers each
    // poll it once with a `go ahead` — so the exact expected traffic is
    // t(√t − 1) = 31744 ordinary messages plus 31 go_aheads (derivation in
    // EXPERIMENTS.md §e2).
    {
        let (n, t) = (1u64 << 20, 1_024u64);
        let scenario = Scenario::DeadOnArrival { k: 992 };
        let m = run_protocol(ProtocolB::processes(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_b(n, t);
        table.row(bound_row(n, t, &scenario, &m, &b));
        let ordinary = m.messages_by_class.get("ordinary").copied().unwrap_or(0);
        let go_aheads = m.messages_by_class.get("go_ahead").copied().unwrap_or(0);
        pass &= within(&m, &b)
            && ordinary == t * 31
            && go_aheads == 31
            && m.messages == ordinary + go_aheads;
    }
    Outcome {
        id: "e2",
        claim:
            "Theorem 2.8: Protocol B does <= 3n work, <= 10t*sqrt(t) messages, retires by 3n + 8t",
        rendered: table.render(),
        pass,
    }
}

/// E3 — Theorem 3.8: Protocol C within `n + 2t` real work and
/// `n + 8t log t` messages. Rounds are exponential by design; the wide
/// clock runs honest grids to `t = 64` (`n + t ≤ 128` keeps the tower
/// exact) and the deep-idle scenario carries C — with a coordinator-D
/// companion — to `t = 256` and `t = 1024` with exact counts.
pub fn e3() -> Outcome {
    let mut table = Table::new(["n", "t", "scenario", "work/bound", "msgs/bound", "rounds/bound"]);
    let mut pass = true;
    let mut cells = Vec::new();
    for (n, t) in [(8, 4), (16, 8), (16, 16), (24, 8), (32, 16)] {
        for scenario in [
            Scenario::FailureFree,
            Scenario::DeadOnArrival { k: t - 1 },
            Scenario::TakeoverCascade { victims: t - 1 },
            Scenario::Random { seed: 3, p: 0.02, max_crashes: (t - 1) as u32 },
        ] {
            cells.push((n, t, scenario));
        }
    }
    // The old 64-bit ceiling cells. Crash scenarios force a straggler to
    // wait out the *zero-view* deadline K(t−i)(n+t)2^{n+t−1}, which only
    // fits 64 bits for n + t ≲ 48; failure-free runs retire on the much
    // smaller informed deadlines and reached t = 32.
    cells.push((32, 32, Scenario::FailureFree));
    cells.push((48, 16, Scenario::FailureFree));
    // Honest t = 64 grids, newly reachable on the 128-bit clock: the
    // whole tower is exact while K·t·(n+t)·2^{n+t−1} fits 128 bits
    // (n + t ≲ 107 at t = 64; these shapes stay at n + t ≤ 96), so the
    // scenarios
    // that park a straggler on the ~10²⁵-round zero-view deadline run to
    // completion — each silent stretch is one sparse fast-forward jump.
    cells.push((8, 64, Scenario::FailureFree));
    cells.push((8, 64, Scenario::DeadOnArrival { k: 63 }));
    cells.push((8, 64, Scenario::TakeoverCascade { victims: 63 }));
    cells.push((16, 64, Scenario::DeadOnArrival { k: 63 }));
    cells.push((32, 64, Scenario::FailureFree));
    let rows = sweep::map_cells(cells, |_, (n, t, scenario)| {
        let m = run_protocol(ProtocolC::processes(*n, *t).unwrap(), scenario, *n);
        let b = theorems::protocol_c(*n, *t);
        (bound_row(*n, *t, scenario, &m, &b), within(&m, &b))
    });
    for (cols, ok) in rows {
        pass &= ok;
        table.row(cols);
    }
    // Deep-idle exact cells: every passive process vanishes at round 2¹⁰⁰
    // (representable only on the wide clock) long after p0 has finished
    // everything. The counts are exactly derivable (EXPERIMENTS.md §e3):
    // 2 log t fault-detection messages plus n reports, exactly n units of
    // work, zero dead letters, and the run ends at exactly round 2¹⁰⁰ —
    // the post-completion silence is one O(1) sparse jump over ~10³⁰
    // rounds.
    for (n, t) in [(256u64, 256u64), (1_024, 1_024)] {
        let log_t = u64::from(t.trailing_zeros());
        let scenario = Scenario::DeepIdle { k: t - 1, round: Round::new(1 << 100) };
        let m = run_protocol(ProtocolC::processes(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_c(n, t);
        table.row(bound_row(n, t, &scenario, &m, &b));
        pass &= within(&m, &b)
            && m.work_total == n
            && m.messages == n + 2 * log_t
            && m.rounds == Round::new(1 << 100)
            && m.dead_letters == 0;
    }
    // Coordinator-D companions at the same scale: the §4 closing-remark
    // variant is the only D flavour whose message complexity survives
    // t = 1024, and its failure-free counts are exact — n units, one
    // agreement phase of 2(t − 1) messages, n/t + 3 rounds.
    for (n, t) in [(1_024u64, 256u64), (4_096, 1_024)] {
        let scenario = Scenario::FailureFree;
        let m = run_protocol(ProtocolD::processes_with_coordinator(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_d_failure_free(n, t);
        pass &= m.work_total == n
            && m.messages == 2 * (t - 1)
            && m.rounds == n / t + 3
            && m.messages <= b.messages;
        table.row([
            n.to_string(),
            t.to_string(),
            "coordinator-D failure-free".into(),
            vs(m.work_total, b.work),
            vs(m.messages, b.messages),
            format!("{} (expect {})", m.rounds, n / t + 3),
        ]);
    }
    Outcome {
        id: "e3",
        claim:
            "Theorem 3.8: Protocol C does <= n + 2t real work and sends <= n + 8t*log(t) messages (honest t = 64; deep-idle + coordinator-D to t = 1024, exact counts)",
        rendered: table.render(),
        pass,
    }
}

/// E4 — Corollary 3.9: C′ sends `O(t log t)` messages — flat in `n`,
/// near-linear in `t` — while Protocol C's messages grow with `n`. The
/// deep-idle scenario extends the comparison to `t = 256` and `t = 1024`
/// with exact counts: C sends `n + 2 log t`, C′ exactly `t + 2 log t`.
pub fn e4() -> Outcome {
    let mut table = Table::new(["n", "t", "C msgs", "C' msgs", "C' bound (3t+8t log t)"]);
    let mut pass = true;
    let mut c_prime_by_n: Vec<(u64, u64)> = Vec::new();
    let shapes: Vec<(u64, u64)> =
        vec![(16, 4), (32, 4), (64, 4), (16, 8), (32, 8), (64, 8), (32, 16), (64, 32)];
    let rows = sweep::map_cells(shapes, |_, &(n, t)| {
        let c = run_protocol(ProtocolC::processes(n, t).unwrap(), &Scenario::FailureFree, n);
        let cp = run_protocol(ProtocolC::processes_prime(n, t).unwrap(), &Scenario::FailureFree, n);
        let b = theorems::protocol_c_prime(n, t);
        (n, t, c.messages, cp.messages, b.messages)
    });
    for (n, t, c_msgs, cp_msgs, bound) in rows {
        if cp_msgs > bound {
            pass = false;
        }
        if t == 4 {
            c_prime_by_n.push((n, cp_msgs));
        }
        table.row([
            n.to_string(),
            t.to_string(),
            c_msgs.to_string(),
            cp_msgs.to_string(),
            vs(cp_msgs, bound),
        ]);
    }
    // The shape claim: C' messages must not grow with n (t fixed).
    if let (Some(first), Some(last)) = (c_prime_by_n.first(), c_prime_by_n.last()) {
        if last.1 > first.1 + 8 {
            pass = false;
        }
    }
    // Wide-clock cells: under the deep-idle scenario the failure-free
    // message counts are exact at t = 256 and t = 1024 (EXPERIMENTS.md
    // §e4) — C pays one report per unit (n + 2 log t total), C′ one per
    // n/t-stride (t + 2 log t total, flat in n), far below the
    // 3t + 8t log t bound.
    for (n, t) in [(512u64, 256u64), (2_048, 1_024)] {
        let log_t = u64::from(t.trailing_zeros());
        let scenario = Scenario::DeepIdle { k: t - 1, round: Round::new(1 << 100) };
        let c = run_protocol(ProtocolC::processes(n, t).unwrap(), &scenario, n);
        let cp = run_protocol(ProtocolC::processes_prime(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_c_prime(n, t);
        pass &= c.messages == n + 2 * log_t
            && cp.messages == t + 2 * log_t
            && cp.messages <= b.messages;
        table.row([
            n.to_string(),
            t.to_string(),
            format!("{} (expect {})", c.messages, n + 2 * log_t),
            format!("{} (expect {})", cp.messages, t + 2 * log_t),
            vs(cp.messages, b.messages),
        ]);
    }
    Outcome {
        id: "e4",
        claim:
            "Corollary 3.9: C' (report every n/t units) sends O(t log t) messages, independent of n",
        rendered: table.render(),
        pass,
    }
}

/// E5 — Theorem 4.1(1): Protocol D with `f` spread-out failures stays
/// within `2n` work, `(4f+2)t²` messages, `(f+1)n/t + 4f + 2` rounds.
pub fn e5() -> Outcome {
    let mut table = Table::new(["n", "t", "f", "work/bound", "msgs/bound", "rounds/bound"]);
    let mut pass = true;
    let (n, t) = (128u64, 8u64);
    let rows = sweep::map_cells((0..=5u64).collect(), |_, &f| {
        // One crash per phase: victim j dies during work phase j+1.
        let mut sched = doall_sim::FaultPlan::default();
        let phase_len = n / t + 4;
        for j in 0..f {
            sched = sched.crash_at(
                doall_sim::Pid::new(j as usize),
                1 + j * phase_len,
                doall_sim::CrashSpec::silent(),
            );
        }
        let report =
            run(ProtocolD::processes(n, t).unwrap(), sched, RunConfig::new(n as usize, 1_000_000))
                .expect("protocol D run");
        assert!(report.metrics.all_work_done());
        report.metrics
    });
    for m in rows {
        let f_actual = u64::from(m.crashes);
        let b = theorems::protocol_d_normal(n, t, f_actual);
        check(&m, &b, &mut pass);
        table.row([
            n.to_string(),
            t.to_string(),
            f_actual.to_string(),
            vs(m.work_total, b.work),
            vs(m.messages, b.messages),
            vs(m.rounds, b.rounds),
        ]);
    }
    Outcome {
        id: "e5",
        claim: "Theorem 4.1(1): Protocol D with f failures (<= half per phase): 2n work, (4f+2)t^2 messages, (f+1)n/t+4f+2 rounds",
        rendered: table.render(),
        pass,
    }
}

/// E6 — Theorem 4.1(2): losing more than half the live processes in one
/// phase triggers the Protocol A fallback; the case-2 envelope holds.
pub fn e6() -> Outcome {
    let mut table =
        Table::new(["n", "t", "killed", "fellback", "work/bound", "msgs/bound", "rounds/bound"]);
    let mut pass = true;
    let shapes: Vec<(u64, u64, u64)> = vec![(64, 8, 6), (64, 8, 7), (128, 16, 12), (60, 6, 4)];
    let rows = sweep::map_cells(shapes, |_, &(n, t, kill)| {
        let scenario = Scenario::MassExtinction { from: t - kill, k: kill, round: 2 };
        let report = run(
            ProtocolD::processes(n, t).unwrap(),
            scenario.adversary(),
            RunConfig::new(n as usize, 10_000_000).with_trace(),
        )
        .expect("protocol D run");
        assert!(report.metrics.all_work_done());
        let fellback = report.trace.notes("fallback").count() > 0;
        (n, t, kill, fellback, report.metrics)
    });
    for (n, t, kill, fellback, m) in rows {
        let b = theorems::protocol_d_fallback(n, t, u64::from(m.crashes));
        check(&m, &b, &mut pass);
        if !fellback {
            pass = false; // losing > half must trigger the fallback
        }
        table.row([
            n.to_string(),
            t.to_string(),
            kill.to_string(),
            fellback.to_string(),
            vs(m.work_total, b.work),
            vs(m.messages, b.messages),
            vs(m.rounds, b.rounds),
        ]);
    }
    Outcome {
        id: "e6",
        claim: "Theorem 4.1(2): > half the live set lost in a phase => revert to Protocol A; 4n work, (4f+2)t^2 + 9t*sqrt(t)/(2*sqrt(2)) messages",
        rendered: table.render(),
        pass,
    }
}

/// E7 — §4 exact small-failure numbers: failure-free D takes exactly `n`
/// work, `n/t + 2` rounds, `< 2t²` messages; one failure stays within
/// `n + n/t` work, `5t²` messages, `n/t + ⌈n/(t(t−1))⌉ + 6` rounds.
pub fn e7() -> Outcome {
    let mut table = Table::new(["n", "t", "case", "work/bound", "msgs/bound", "rounds/bound"]);
    let mut pass = true;
    let shapes: Vec<(u64, u64)> = vec![(100, 10), (64, 8), (256, 16)];
    let rows = sweep::map_cells(shapes, |_, &(n, t)| {
        let ff = run_protocol(ProtocolD::processes(n, t).unwrap(), &Scenario::FailureFree, n);
        let one =
            run_protocol(ProtocolD::processes(n, t).unwrap(), &Scenario::DeadOnArrival { k: 1 }, n);
        (n, t, ff, one)
    });
    for (n, t, m_ff, m_one) in rows {
        let b = theorems::protocol_d_failure_free(n, t);
        check(&m_ff, &b, &mut pass);
        if m_ff.rounds != b.rounds || m_ff.work_total != n {
            pass = false; // the failure-free claim is exact
        }
        table.row([
            n.to_string(),
            t.to_string(),
            "failure-free".into(),
            vs(m_ff.work_total, b.work),
            vs(m_ff.messages, b.messages),
            vs(m_ff.rounds, b.rounds),
        ]);

        let b = theorems::protocol_d_one_failure(n, t);
        check(&m_one, &b, &mut pass);
        table.row([
            n.to_string(),
            t.to_string(),
            "one failure".into(),
            vs(m_one.work_total, b.work),
            vs(m_one.messages, b.messages),
            vs(m_one.rounds, b.rounds),
        ]);
    }
    Outcome {
        id: "e7",
        claim: "§4: failure-free D = exactly n work, n/t + 2 rounds, <= 2t^2 messages; one failure <= n + n/t work, 5t^2 messages, n/t + ceil(n/(t(t-1))) + 6 rounds",
        rendered: table.render(),
        pass,
    }
}

/// E8 — the §1/§6 comparison: effort across the whole suite. The claims:
/// baselines pay Θ(tn) effort; A, B, C, C′ and D stay work-optimal with
/// small message terms.
pub fn e8() -> Outcome {
    let mut table = Table::new(["scenario", "algorithm", "work", "messages", "rounds", "effort"]);
    let (n, t) = (32u64, 16u64);
    let mut pass = true;
    let algs = [
        "replicate-all",
        "lockstep",
        "naive-spread",
        "protocol-A",
        "protocol-B",
        "protocol-C",
        "protocol-C'",
        "protocol-D",
    ];
    let mut cells: Vec<(Scenario, &str)> = Vec::new();
    for scenario in [Scenario::FailureFree, Scenario::TakeoverCascade { victims: t - 1 }] {
        for alg in algs {
            cells.push((scenario.clone(), alg));
        }
    }
    let rows = sweep::map_cells(cells, |_, (scenario, alg)| {
        let m = match *alg {
            "replicate-all" => run_protocol(ReplicateAll::processes(n, t).unwrap(), scenario, n),
            "lockstep" => run_protocol(Lockstep::processes(n, t).unwrap(), scenario, n),
            "naive-spread" => run_protocol(NaiveSpread::processes(n, t).unwrap(), scenario, n),
            "protocol-A" => run_protocol(ProtocolA::processes(n, t).unwrap(), scenario, n),
            "protocol-B" => run_protocol(ProtocolB::processes(n, t).unwrap(), scenario, n),
            "protocol-C" => run_protocol(ProtocolC::processes(n, t).unwrap(), scenario, n),
            "protocol-C'" => run_protocol(ProtocolC::processes_prime(n, t).unwrap(), scenario, n),
            "protocol-D" => run_protocol(ProtocolD::processes(n, t).unwrap(), scenario, n),
            other => unreachable!("unknown algorithm {other}"),
        };
        (scenario.label(), *alg, m)
    });
    let mut efforts: Vec<(String, u64)> = Vec::new();
    for (label, name, m) in rows {
        efforts.push((format!("{label}/{name}"), m.effort()));
        table.row([
            label,
            name.to_string(),
            m.work_total.to_string(),
            m.messages.to_string(),
            m.rounds.to_string(),
            m.effort().to_string(),
        ]);
    }
    // Shape check: under failures, every work-optimal protocol beats both
    // trivial baselines on effort.
    let effort_of =
        |key: &str| efforts.iter().find(|(k, _)| k == key).map(|(_, e)| *e).expect("row present");
    let cascade = format!("takeover-cascade({})", t - 1);
    for alg in ["protocol-A", "protocol-B", "protocol-C", "protocol-C'", "protocol-D"] {
        if effort_of(&format!("{cascade}/{alg}")) >= effort_of(&format!("{cascade}/lockstep")) {
            pass = false;
        }
    }
    // Message-storm cell (PR 3): the strawman at t = 1024 — one unicast
    // report per unit except the three self-addressed ones (known ≡ 0 mod
    // t while p0 is active), plus the final (t − 1)-wide `Finished` span:
    // (n − 1 − 3) + (t − 1) = 5115 messages exactly (EXPERIMENTS.md §e8).
    {
        let (n, t) = (4_096u64, 1_024u64);
        let m = run_protocol(NaiveSpread::processes(n, t).unwrap(), &Scenario::FailureFree, n);
        let expected = (n - 1 - 3) + (t - 1);
        if m.messages != expected {
            pass = false;
        }
        table.row([
            "failure-free".into(),
            format!("naive-spread (t={t})"),
            m.work_total.to_string(),
            format!("{} (expect {expected})", m.messages),
            m.rounds.to_string(),
            m.effort().to_string(),
        ]);
    }
    Outcome {
        id: "e8",
        claim: "§1: trivial solutions cost Θ(tn) effort; the protocol suite is work-optimal with small message terms",
        rendered: table.render(),
        pass,
    }
}

/// E9 — §5: Byzantine agreement message complexity: via B `O(n + t√t)`,
/// via C `O(n + t log t)`, both far below flooding; agreement and validity
/// hold under crash schedules.
pub fn e9() -> Outcome {
    let mut table = Table::new(["n", "t", "engine", "messages/bound", "agreement", "validity"]);
    let mut pass = true;
    let shapes: Vec<(u64, u64, u64)> = vec![(64, 8, 7), (128, 8, 7), (256, 15, 15)];
    let results = sweep::map_cells(shapes, |_, &(n, t_b, t_c)| {
        let mut rows: Vec<[String; 6]> = Vec::new();
        let mut ok = true;
        for scenario in
            [Scenario::FailureFree, Scenario::Random { seed: 5, p: 0.01, max_crashes: 3 }]
        {
            let outcome = BaSystem::new(n, t_b, Engine::B)
                .unwrap()
                .general_value(9)
                .run(scenario.adversary())
                .expect("BA run");
            let bound = theorems::ba_via_b_messages(n, t_b);
            if outcome.metrics.messages > bound || !outcome.agreement() || !outcome.validity() {
                ok = false;
            }
            rows.push([
                n.to_string(),
                t_b.to_string(),
                format!("B ({})", scenario.label()),
                vs(outcome.metrics.messages, bound),
                outcome.agreement().to_string(),
                outcome.validity().to_string(),
            ]);
        }
        let outcome = BaSystem::new(n, t_c, Engine::C)
            .unwrap()
            .general_value(9)
            .run(NoFailures)
            .expect("BA run");
        let bound = theorems::ba_via_c_messages(n, t_c);
        if outcome.metrics.messages > bound || !outcome.agreement() {
            ok = false;
        }
        rows.push([
            n.to_string(),
            t_c.to_string(),
            "C (failure-free)".into(),
            vs(outcome.metrics.messages, bound),
            outcome.agreement().to_string(),
            outcome.validity().to_string(),
        ]);
        let (decisions, m) = FloodingBa::run_system(n, t_b, 9, NoFailures).expect("flooding");
        let agreed = decisions.iter().flatten().all(|v| *v == 9);
        rows.push([
            n.to_string(),
            t_b.to_string(),
            "flooding".into(),
            vs(m.messages, theorems::ba_flooding_messages(n, t_b)),
            agreed.to_string(),
            agreed.to_string(),
        ]);
        (rows, ok)
    });
    for (rows, ok) in results {
        pass &= ok;
        for row in rows {
            table.row(row);
        }
    }
    Outcome {
        id: "e9",
        claim: "§5: BA via B costs O(n + t*sqrt(t)) messages, via C O(n + t log t); both beat Θ(n²t) flooding",
        rendered: table.render(),
        pass,
    }
}

/// E10 — §3: the naive-spread strawman wastes `Θ(t²)` work under the
/// cascade scenario while Protocol C (same scenario) stays `O(n + t)` —
/// fault detection pays for itself.
pub fn e10() -> Outcome {
    let mut table = Table::new(["t", "n", "naive wasted work", "C wasted work", "C bound (n+2t)"]);
    let mut pass = true;
    let mut naive_waste = Vec::new();
    // n + t is capped at 32: the strawman's takeover deadlines are
    // exponential in n + t - 1 - m and overflow 64-bit rounds beyond that
    // (the algorithm would genuinely take ~10^21 rounds).
    for t in [4u64, 8, 16] {
        let n = t;
        let scenario = Scenario::Strawman { t };
        let naive = run_protocol(NaiveSpread::processes(n, t).unwrap(), &scenario, n);
        let c = run_protocol(ProtocolC::processes(n, t).unwrap(), &scenario, n);
        let b = theorems::protocol_c(n, t);
        if c.work_total > b.work {
            pass = false;
        }
        naive_waste.push(naive.wasted_work());
        table.row([
            t.to_string(),
            n.to_string(),
            naive.wasted_work().to_string(),
            c.wasted_work().to_string(),
            vs(c.work_total, b.work),
        ]);
    }
    // Quadratic growth for the strawman: doubling t should ~quadruple waste.
    if naive_waste[2] < 3 * naive_waste[1] || naive_waste[1] < 3 * naive_waste[0] {
        pass = false;
    }
    Outcome {
        id: "e10",
        claim: "§3: without fault detection the cascade costs Θ(t²) wasted work; Protocol C holds at O(n + t)",
        rendered: table.render(),
        pass,
    }
}

/// E11 — §2.3: Protocol A's takeover latency is `Θ(nt + t²)` in the worst
/// case while Protocol B's is `O(n + t)`; the gap must widen linearly in t.
pub fn e11() -> Outcome {
    let mut table = Table::new(["n", "t", "A rounds", "B rounds", "A/B ratio"]);
    let mut pass = true;
    let mut ratios = Vec::new();
    for t in [16u64, 64, 144] {
        let n = t;
        let scenario = Scenario::DeadOnArrival { k: t - 1 };
        let a = run_protocol(ProtocolA::processes(n, t).unwrap(), &scenario, n);
        let b = run_protocol(ProtocolB::processes(n, t).unwrap(), &scenario, n);
        let ratio = a.rounds.as_f64() / b.rounds.as_f64();
        ratios.push(ratio);
        if b.rounds > 3 * n + 8 * t {
            pass = false;
        }
        table.row([
            n.to_string(),
            t.to_string(),
            a.rounds.to_string(),
            b.rounds.to_string(),
            format!("{ratio:.1}x"),
        ]);
    }
    if !(ratios.windows(2).all(|w| w[1] > w[0])) {
        pass = false; // the gap must grow with t
    }
    Outcome {
        id: "e11",
        claim: "§2.3: worst-case takeover latency — Protocol A Θ(nt + t²) vs Protocol B O(n + t), gap growing with t",
        rendered: table.render(),
        pass,
    }
}

/// E12 — Lemma 2.5 deadline identities, exhaustively over small shapes.
pub fn e12() -> Outcome {
    let mut table = Table::new(["n", "t", "triples checked", "identity (a)", "identity (b)"]);
    let mut pass = true;
    for (n, t) in [(16u64, 16u64), (32, 16), (36, 36), (100, 25)] {
        let p = AbParams::new(n, t);
        let mut checked = 0u64;
        let mut ok_a = true;
        let mut ok_b = true;
        for k in 0..t {
            for j in k + 1..t {
                for l in j + 1..t {
                    checked += 1;
                    if tt(p, j, k) + tt(p, l, j) != tt(p, l, k) {
                        ok_a = false;
                    }
                    if p.group_of(j) < p.group_of(l) && tt(p, j, k) + ddb(p, l, j) != ddb(p, l, k) {
                        ok_b = false;
                    }
                }
            }
        }
        if !ok_a || !ok_b {
            pass = false;
        }
        table.row([
            n.to_string(),
            t.to_string(),
            checked.to_string(),
            ok_a.to_string(),
            ok_b.to_string(),
        ]);
    }
    Outcome {
        id: "e12",
        claim:
            "Lemma 2.5: TT(j,k) + TT(l,j) = TT(l,k); TT(j,k) + DDB(l,j) = DDB(l,k) when g(j) < g(l)",
        rendered: table.render(),
        pass,
    }
}

/// E13 — ablation beyond the paper's analysis: the §4 closing-remark
/// coordinator optimization cuts failure-free agreement traffic from
/// `≈ 2t²` to exactly `2(t − 1)` messages, and survives coordinator
/// crashes by reverting to the broadcast exchange.
pub fn e13() -> Outcome {
    let mut table =
        Table::new(["n", "t", "scenario", "broadcast-D msgs", "coordinator-D msgs", "saving"]);
    let mut pass = true;
    let mut cells: Vec<(u64, u64, Scenario, bool)> = Vec::new();
    for (n, t) in [(100u64, 10u64), (256, 16), (64, 32)] {
        for scenario in [
            Scenario::FailureFree,
            Scenario::DeadOnArrival { k: 1 },
            Scenario::MassExtinction { from: 0, k: 1, round: 2 }, // kills the coordinator
        ] {
            cells.push((n, t, scenario, true));
        }
    }
    // The large-shape cell: broadcast-D's t² view-carrying messages are
    // infeasible at t = 1024, which is exactly the coordinator variant's
    // selling point — run it alone and check the exact 2(t−1) claim.
    cells.push((2_048, 1_024, Scenario::FailureFree, false));
    let rows = sweep::map_cells(cells, |_, (n, t, scenario, with_broadcast)| {
        let b = with_broadcast
            .then(|| run_protocol(ProtocolD::processes(*n, *t).unwrap(), scenario, *n));
        let c = run_protocol(ProtocolD::processes_with_coordinator(*n, *t).unwrap(), scenario, *n);
        (*n, *t, scenario.clone(), b, c)
    });
    for (n, t, scenario, b, c) in rows {
        if matches!(scenario, Scenario::FailureFree) && c.messages != 2 * (t - 1) {
            pass = false; // the claim is exact
        }
        let (b_msgs, saving) = match &b {
            Some(b) => {
                if c.messages > b.messages.max(2 * (t - 1)) * 2 {
                    pass = false; // never catastrophically worse
                }
                let saving = if c.messages == 0 {
                    "inf".to_string()
                } else {
                    format!("{:.1}x", b.messages as f64 / c.messages as f64)
                };
                (b.messages.to_string(), saving)
            }
            None => ("- (t^2 infeasible)".into(), "-".into()),
        };
        table.row([
            n.to_string(),
            t.to_string(),
            scenario.label(),
            b_msgs,
            c.messages.to_string(),
            saving,
        ]);
    }
    Outcome {
        id: "e13",
        claim: "§4 closing remark (extension): coordinator-based agreement = exactly 2(t-1) failure-free messages, broadcast fallback on coordinator death",
        rendered: table.render(),
        pass,
    }
}

/// Runs one asynchronous-plane protocol cell and returns its metrics.
fn run_async_protocol<P: AsyncProtocol>(
    procs: Vec<P>,
    scenario: &Scenario,
    cfg: AsyncConfig,
) -> Metrics
where
    P::Msg: 'static,
{
    let report = run_async(procs, scenario.async_adversary::<P::Msg>(), cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.label()));
    assert!(report.metrics.all_work_done(), "incomplete work under {}", scenario.label());
    assert!(report.has_survivor(), "no survivor under {}", scenario.label());
    report.metrics
}

/// E14 — §2.1's asynchronous remark, promoted to a full plane: Protocol A,
/// the detector-driven Protocol B analogue (labeled extension, like e13),
/// and the replicate baseline, swept across delay distributions ×
/// adversaries. The work/message bounds of Theorem 2.3 carry over (for B
/// with **zero** `go ahead`s — the detector replaced the polling phase);
/// under a fixed delay the failure-free counts equal the synchronous ones
/// exactly; and the baselines still pay the Θ(tn) effort the protocols
/// avoid.
pub fn e14() -> Outcome {
    let mut table =
        Table::new(["n", "t", "protocol", "delay", "scenario", "work/bound", "msgs/bound"]);
    let mut pass = true;

    let dists: [(DelayDist, u64); 4] = [
        (DelayDist::Uniform, 4),
        (DelayDist::Fixed, 1),
        (DelayDist::Uniform, 32),
        (DelayDist::Bimodal, 16),
    ];
    let protocols = ["async-A", "async-B", "async-replicate"];
    let mut cells: Vec<(u64, u64, &str, DelayDist, u64, Scenario)> = Vec::new();
    for (si, (n, t)) in [(32u64, 16u64), (256, 64)].into_iter().enumerate() {
        for (dist, max_delay) in dists {
            for scenario in [
                Scenario::FailureFree,
                Scenario::DeadOnArrival { k: t - 1 },
                Scenario::Random {
                    seed: sweep::cell_seed(14, si as u64),
                    p: 0.002,
                    max_crashes: (t - 1) as u32,
                },
                Scenario::KillNthActivation { nth: 1 },
            ] {
                for proto in protocols {
                    cells.push((n, t, proto, dist, max_delay, scenario.clone()));
                }
            }
        }
    }
    // The broadcast-heavy big shapes (affordable thanks to the op arena):
    // failure-free A at t = 1024, and B with all but the last group dead.
    cells.push((2_048, 1_024, "async-A", DelayDist::Uniform, 4, Scenario::FailureFree));
    cells.push((
        2_048,
        1_024,
        "async-B",
        DelayDist::Uniform,
        4,
        Scenario::DeadOnArrival { k: 992 },
    ));

    let rows = sweep::map_cells(cells, |i, (n, t, proto, dist, max_delay, scenario)| {
        let cfg = AsyncConfig::new(*n as usize, sweep::cell_seed(41, i as u64))
            .with_delay(*dist, *max_delay);
        let m = match *proto {
            "async-A" => {
                run_async_protocol(AsyncProtocolA::processes(*n, *t).unwrap(), scenario, cfg)
            }
            "async-B" => {
                run_async_protocol(AsyncProtocolB::processes(*n, *t).unwrap(), scenario, cfg)
            }
            "async-replicate" => {
                run_async_protocol(AsyncReplicate::processes(*n, *t).unwrap(), scenario, cfg)
            }
            other => unreachable!("unknown protocol {other}"),
        };
        // Work/message envelopes per protocol: A and B inherit Theorem
        // 2.3's 3n / 9t√t (B sends no go_aheads, so its ordinary bound is
        // the whole story); replicate is bounded by t·n work and silence.
        let (work_bound, msg_bound) = match *proto {
            "async-replicate" => (n * t, 0),
            _ => {
                let b = theorems::protocol_a(*n, *t);
                (b.work, b.messages)
            }
        };
        let mut ok = m.work_total <= work_bound && m.messages <= msg_bound;
        if *proto == "async-B" && m.messages_by_class.contains_key("go_ahead") {
            ok = false;
        }
        let row = [
            n.to_string(),
            t.to_string(),
            proto.to_string(),
            dist.label(*max_delay),
            scenario.label(),
            vs(m.work_total, work_bound),
            vs(m.messages, msg_bound),
        ];
        (row, ok, m)
    });
    for (row, ok, _m) in rows {
        pass &= ok;
        table.row(row);
    }

    // The exact cell (derived in EXPERIMENTS.md §e14): under a fixed delay
    // the failure-free asynchronous A and B report exactly the synchronous
    // counts — 32 work and 132 messages at (n, t) = (32, 16).
    {
        let (n, t) = (32u64, 16u64);
        let sync_a = run_protocol(ProtocolA::processes(n, t).unwrap(), &Scenario::FailureFree, n);
        let cfg = || AsyncConfig::new(n as usize, 0).with_delay(DelayDist::Fixed, 1);
        let a = run_async_protocol(
            AsyncProtocolA::processes(n, t).unwrap(),
            &Scenario::FailureFree,
            cfg(),
        );
        let b = run_async_protocol(
            AsyncProtocolB::processes(n, t).unwrap(),
            &Scenario::FailureFree,
            cfg(),
        );
        pass &= a.work_total == n && a.messages == 132 && a.messages == sync_a.messages;
        pass &= b.work_total == n && b.messages == 132;
        table.row([
            n.to_string(),
            t.to_string(),
            "A/B async==sync".into(),
            "fixed(1)".into(),
            "failure-free".into(),
            format!("{} (expect {n})", a.work_total),
            format!("{} (expect 132)", a.messages),
        ]);
    }

    // The effort story carries over: the replicate baseline pays Θ(tn)
    // where the checkpointing protocols pay n + O(t√t).
    {
        let (n, t) = (256u64, 64u64);
        let cfg = || AsyncConfig::new(n as usize, 7).with_delay(DelayDist::Uniform, 4);
        let rep = run_async_protocol(
            AsyncReplicate::processes(n, t).unwrap(),
            &Scenario::FailureFree,
            cfg(),
        );
        let a = run_async_protocol(
            AsyncProtocolA::processes(n, t).unwrap(),
            &Scenario::FailureFree,
            cfg(),
        );
        if rep.effort() < 4 * a.effort() {
            pass = false; // tn = 16384 must dwarf n + O(t√t) ≈ 2900
        }
        table.row([
            n.to_string(),
            t.to_string(),
            "effort: replicate vs A".into(),
            "uniform(1..=4)".into(),
            "failure-free".into(),
            format!("{} vs {}", rep.effort(), a.effort()),
            format!("{:.1}x", rep.effort() as f64 / a.effort() as f64),
        ]);
    }

    Outcome {
        id: "e14",
        claim: "§2.1 async plane: A and B-analogue keep <= 3n work and <= 9t*sqrt(t) messages (B with zero go_aheads) across delay distributions x adversaries; fixed-delay failure-free counts equal the synchronous ones exactly",
        rendered: table.render(),
        pass,
    }
}

/// Runs one fault-catalog cell: wraps the processes with the scenario's
/// [`FaultPlan`] (slowdown windows are wrapper-enforced), drives the same
/// plan as the adversary, and returns the traced report.
fn run_fault_cell<P: Protocol>(procs: Vec<P>, scenario: &Scenario, n: u64) -> Report
where
    P::Msg: 'static,
{
    let plan = scenario.fault_plan(chaos::Plane::Sync);
    run(plan.wrap(procs), plan, RunConfig::new(n as usize, Round::MAX).with_trace())
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.label()))
}

/// The e15 fault catalog: two crash-recovery flavours (stale and wiped
/// restart), a quarter-speed degradation window, and one omission window
/// per direction.
fn fault_catalog_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::CrashRecovery { pid: 0, round: 3, downtime: 5, wipe: false },
        Scenario::CrashRecovery { pid: 0, round: 2, downtime: 8, wipe: true },
        Scenario::Slowdown { pid: 0, from: 2, factor: 4, rounds: 16 },
        Scenario::Omission { pid: 0, send: true, from: 1, rounds: 6 },
        Scenario::Omission { pid: 1, send: false, from: 2, rounds: 6 },
    ]
}

/// The exact (32, 16) reference counts for every e15 catalog cell —
/// `(work, msgs, rounds, omissions, recoveries)` — derived by running the
/// cells once and transcribing the metrics (EXPERIMENTS.md §e15). The
/// scenario index matches [`fault_catalog_scenarios`] order.
/// One pinned e15 cell: `(protocol, scenario index, (work, msgs, rounds,
/// omissions, recoveries))`.
type E15Pin = (&'static str, usize, (u64, u64, u64, u64, u64));

static E15_EXPECTED: &[E15Pin] = &[
    ("A", 0, (32, 132, 76, 0, 1)),
    ("A", 1, (34, 132, 81, 0, 1)),
    ("A", 2, (32, 132, 84, 0, 0)),
    ("A", 3, (32, 126, 72, 6, 0)),
    ("A", 4, (32, 132, 72, 2, 0)),
    ("B", 0, (62, 238, 77, 0, 1)),
    ("B", 1, (66, 238, 81, 0, 1)),
    ("B", 2, (64, 238, 84, 0, 0)),
    ("B", 3, (64, 232, 75, 6, 0)),
    ("B", 4, (64, 236, 75, 2, 0)),
];

/// E15 — beyond fail-stop: the named-fault catalog's crash-recovery,
/// slowdown, and omission models on Protocols A and B, swept up to
/// `t = 1024`. Every cell is invariant-checked (all `n` tasks performed,
/// no activity during a victim's downtime, a degraded process never acts
/// faster than its rated factor), and every `(32, 16)` cell is pinned to
/// exact transcribed counts — recovery, degradation, and omission are
/// deterministic, so any drift is a semantics change, not noise.
pub fn e15() -> Outcome {
    let mut table =
        Table::new(["n", "t", "protocol", "scenario", "work", "msgs", "om/rec", "checks"]);
    let mut pass = true;

    let mut cells: Vec<(u64, u64, &'static str, usize, Scenario)> = Vec::new();
    for (n, t) in [(32u64, 16u64), (256, 64), (2_048, 1_024)] {
        for (si, scenario) in fault_catalog_scenarios().into_iter().enumerate() {
            for proto in ["A", "B"] {
                cells.push((n, t, proto, si, scenario.clone()));
            }
        }
    }
    let rows = sweep::map_cells(cells, |_, (n, t, proto, si, scenario)| {
        let report = match *proto {
            "A" => run_fault_cell(ProtocolA::processes(*n, *t).unwrap(), scenario, *n),
            "B" => run_fault_cell(ProtocolB::processes(*n, *t).unwrap(), scenario, *n),
            other => unreachable!("unknown protocol {other}"),
        };
        let m = &report.metrics;
        let mut ok = true;
        let mut checks: Vec<&'static str> = Vec::new();
        if m.all_work_done() {
            checks.push("done");
        } else {
            ok = false;
            checks.push("INCOMPLETE");
        }
        if check_recovery_silence(&report.trace).is_empty() {
            checks.push("silent-downtime");
        } else {
            ok = false;
            checks.push("DOWNTIME-ACTIVITY");
        }
        if let Scenario::Slowdown { pid, from, factor, rounds } = scenario {
            let until = Round::new(u128::from(from + rounds));
            let rate = check_degraded_rate(
                &report.trace,
                Pid::new(*pid as usize),
                Round::new(u128::from(*from)),
                until,
                *factor,
            );
            if rate.is_empty() {
                checks.push("rate<=1/factor");
            } else {
                ok = false;
                checks.push("RATE-VIOLATION");
            }
        }
        if *n == 32 {
            let (_, _, exp) = E15_EXPECTED
                .iter()
                .find(|(p, s, _)| p == proto && s == si)
                .expect("every (32,16) cell is pinned");
            let got = (m.work_total, m.messages, m.rounds, m.omissions, m.recoveries);
            let want = (exp.0, exp.1, Round::from(exp.2), exp.3, exp.4 as u32);
            if got == want {
                checks.push("exact");
            } else {
                ok = false;
                checks.push("DRIFTED");
            }
        }
        let row = [
            n.to_string(),
            t.to_string(),
            proto.to_string(),
            scenario.label(),
            m.work_total.to_string(),
            m.messages.to_string(),
            format!("{}/{}", m.omissions, m.recoveries),
            checks.join(","),
        ];
        (row, ok)
    });
    for (row, ok) in rows {
        pass &= ok;
        table.row(row);
    }

    Outcome {
        id: "e15",
        claim: "fault catalog beyond fail-stop: crash-recovery (stale/wiped), slowdown, and omission on A and B up to t = 1024 complete all n tasks under invariant checks, with every (32,16) cell pinned to exact counts",
        rendered: table.render(),
        pass,
    }
}

/// E16 — robustness tooling (extension; DESIGN.md §2.11): the chaos
/// shrinker and the checkpoint layer, pinned end-to-end. Stage 1 scans
/// chaos seeds for the first generated fault plan under which a Protocol
/// B run records a crash, then greedily shrinks it against that
/// engine-backed oracle; the surviving seed, the minimal case's shape,
/// its single fault, and the minimal run's exact metrics are all pinned
/// (the generator, the shrinker, and the engine are deterministic, so
/// any drift is a semantics change). Stage 2 round-trips the minimal
/// case through the `doall-chaos-repro v1` codec. Stage 3 pauses a run
/// under the *original* (unshrunk) plan at round 8, snapshots, resumes,
/// and requires the resumed report bit-identical to the straight run.
pub fn e16() -> Outcome {
    let mut table = Table::new(["stage", "t", "n", "faults", "detail", "ok"]);
    let mut pass = true;
    let cfg = chaos::ChaosConfig::new(16, 64);

    let run_case = |case: &chaos::ChaosCase| -> Option<Metrics> {
        let plan = case.plan();
        plan.validate(case.t).ok()?;
        let procs = plan.wrap(ProtocolB::processes(case.n as u64, case.t as u64).ok()?);
        run(procs, plan, RunConfig::new(case.n, Round::MAX)).ok().map(|r| r.metrics)
    };
    let fails = |case: &chaos::ChaosCase| run_case(case).is_some_and(|m| m.crashes >= 1);

    // Stage 1: find + shrink. Seed 1 is pinned as the first plan that
    // crashes anybody (seed 0 is reserved for the empty plan elsewhere).
    let case = (1u64..).map(|s| chaos::ChaosCase::generate(s, &cfg)).find(fails).unwrap();
    let found_ok = case.seed == 1;
    table.row([
        "find".to_string(),
        case.t.to_string(),
        case.n.to_string(),
        case.faults.len().to_string(),
        format!("seed {}", case.seed),
        found_ok.to_string(),
    ]);
    pass &= found_ok;

    let min = chaos::shrink(&case, fails);
    let metrics = run_case(&min).expect("minimal case must be runnable");
    // Pinned minimal repro: `crash p8 @1` alone on the smallest legal
    // Protocol B shape (t must stay a perfect square dividing n, so the
    // halving passes stop at t = n = 16), and the survivors' takeover
    // still performs all 16 units with the standard 132 messages.
    let min_fault = format!("{:?}", min.faults);
    let min_ok = min.faults.len() == 1
        && min.t == 16
        && min.n == 16
        && min_fault == "[Fault { kind: Crash(Pid(8)), at: Round(1), until: None }]"
        && fails(&min)
        && (metrics.work_total, metrics.messages, metrics.crashes) == (16, 132, 1);
    table.row([
        "shrink".to_string(),
        min.t.to_string(),
        min.n.to_string(),
        min.faults.len().to_string(),
        format!(
            "work={} msgs={} crashes={}",
            metrics.work_total, metrics.messages, metrics.crashes
        ),
        min_ok.to_string(),
    ]);
    pass &= min_ok;

    // Stage 2: the repro codec round-trips the minimal case exactly.
    let repro =
        chaos::Repro { protocol: "B".to_string(), plane: chaos::Plane::Sync, case: min.clone() };
    let parsed = chaos::Repro::parse(&repro.emit()).expect("emitted repro must parse");
    let codec_ok = parsed.case == min && parsed.protocol == "B";
    table.row([
        "repro".to_string(),
        min.t.to_string(),
        min.n.to_string(),
        min.faults.len().to_string(),
        "emit -> parse".to_string(),
        codec_ok.to_string(),
    ]);
    pass &= codec_ok;

    // Stage 3: checkpoint differential under the unshrunk plan.
    let straight = {
        let plan = case.plan();
        let procs = plan.wrap(ProtocolB::processes(64, 16).unwrap());
        run(procs, plan, RunConfig::new(64, Round::MAX)).unwrap()
    };
    let resumed = {
        let plan = case.plan();
        let procs = plan.wrap(ProtocolB::processes(64, 16).unwrap());
        let mut engine =
            doall_sim::Engine::new(procs, plan, RunConfig::new(64, Round::MAX)).unwrap();
        if !engine.run_until(Some(Round::new(8))).unwrap() {
            engine = doall_sim::Engine::resume(engine.snapshot());
            engine.run_until(None).unwrap();
        }
        engine.into_report().0
    };
    let snap_ok = straight == resumed;
    table.row([
        "snapshot".to_string(),
        "16".to_string(),
        "64".to_string(),
        case.faults.len().to_string(),
        "pause@8 == straight".to_string(),
        snap_ok.to_string(),
    ]);
    pass &= snap_ok;

    Outcome {
        id: "e16",
        claim: "robustness tooling: the chaos shrinker reduces the first crashing plan to a pinned one-fault repro, the repro codec round-trips it, and snapshot/resume is bit-identical mid-fault-plan",
        rendered: table.render(),
        pass,
    }
}

/// E17 — the scale axis (DESIGN.md §2.12): the struct-of-arrays process
/// table and run-compressed protocol state carry the *same exact
/// closed-form counts* two orders of magnitude past the e3/e6 shapes —
/// `t = 2^16`–`2^17` processes and `n = 2^27`–`10^8` units — while
/// per-process engine state stays inside its 32-byte budget. Each giant
/// cell is paired with a small cell that validates the identical formula
/// on the honest grid first. Derivations: EXPERIMENTS.md §e17.
pub fn e17() -> Outcome {
    let mut table = Table::new([
        "cell",
        "n",
        "t",
        "work",
        "msgs (expect)",
        "rounds (expect)",
        "soa B/proc",
        "engine B/proc",
    ]);
    let mut pass = true;

    // Protocol B with every process except p0 dead at round 1: the lone
    // survivor works through the entire Figure-1 schedule alone, so the
    // counts are exact —
    //   messages = t(√t−1) + √t(√t−1)(2√t−1)   (partial + full checkpoints)
    //   rounds   = n + t + 2√t(√t−1)           (one op per round)
    // and every message is a dead letter *except* the final FullCpOwn
    // multicast (√t−1 messages): the survivor terminates right after
    // sending it, the run ends with it still in flight, and dead letters
    // are counted at delivery. The giant cell uses t = 2^16, not 2^17,
    // because B's t must be a perfect square (EXPERIMENTS.md).
    let b_msgs = |t: u64| {
        let s = t.isqrt();
        t * (s - 1) + s * (s - 1) * (2 * s - 1)
    };
    let b_rounds = |n: u64, t: u64| {
        let s = t.isqrt();
        n + t + 2 * s * (s - 1)
    };
    for (cell, n, t) in
        [("B lone-survivor", 64u64, 16u64), ("B lone-survivor (giant)", 1 << 27, 1 << 16)]
    {
        let scenario = Scenario::MassExtinction { from: 1, k: t - 1, round: 1 };
        let report = run(
            ProtocolB::processes(n, t).unwrap(),
            scenario.adversary(),
            RunConfig::new(n as usize, Round::MAX),
        )
        .unwrap();
        let m = &report.metrics;
        pass &= m.work_total == n
            && m.messages == b_msgs(t)
            && m.rounds == b_rounds(n, t)
            && m.dead_letters == m.messages - (t.isqrt() - 1)
            && u64::from(m.crashes) == t - 1
            && m.terminations == 1
            && report.mem.soa_bytes <= 32 * t;
        table.row([
            cell.to_string(),
            n.to_string(),
            t.to_string(),
            vs(m.work_total, n),
            format!("{} (expect {})", m.messages, b_msgs(t)),
            format!("{} (expect {})", m.rounds, b_rounds(n, t)),
            format!("{}", report.mem.soa_bytes.div_ceil(t)),
            format!("{}", report.mem.engine_bytes().div_ceil(t)),
        ]);
    }

    // Coordinator-D failure-free counts are exact at any scale: one
    // agreement phase of 2(t−1) messages, then ⌈n/t⌉ work rounds and the
    // 3-round agree/decide envelope. In the t = 2^17 cell all t processes
    // step every work round (134M protocol steps); the n = 10^8 cell is
    // the workload ceiling, with interval-compressed shares keeping every
    // process's state at a handful of runs. Peak engine memory — the SoA
    // columns plus the 2(t−1) agreement messages in flight — is linear in
    // t: the t = 2^17 cell peaks at 16 925 028 bytes (129 per process),
    // and the gate is 1.3 × that.
    const D_ENGINE_BYTES_PER_PROCESS: u64 = 167;
    for (cell, n, t) in [
        ("coordinator-D", 4_096u64, 1_024u64),
        ("coordinator-D (giant t)", 1 << 27, 1 << 17),
        ("coordinator-D (giant n)", 100_000_000, 1_024),
    ] {
        let report = run(
            ProtocolD::processes_with_coordinator(n, t).unwrap(),
            NoFailures,
            RunConfig::new(n as usize, Round::MAX),
        )
        .unwrap();
        let m = &report.metrics;
        let rounds = n.div_ceil(t) + 3;
        pass &= m.work_total == n
            && m.messages == 2 * (t - 1)
            && m.rounds == rounds
            && m.dead_letters == 0
            && m.crashes == 0
            && u64::from(m.terminations) == t
            && report.mem.soa_bytes <= 32 * t
            && report.mem.engine_bytes() <= D_ENGINE_BYTES_PER_PROCESS * t;
        table.row([
            cell.to_string(),
            n.to_string(),
            t.to_string(),
            vs(m.work_total, n),
            format!("{} (expect {})", m.messages, 2 * (t - 1)),
            format!("{} (expect {})", m.rounds, rounds),
            format!("{}", report.mem.soa_bytes.div_ceil(t)),
            format!("{}", report.mem.engine_bytes().div_ceil(t)),
        ]);
    }

    Outcome {
        id: "e17",
        claim: "scale axis: exact closed-form counts survive t = 2^16..2^17 and n = 2^27..10^8 (lone-survivor B, coordinator-D), with per-process engine state <= 32 bytes",
        rendered: table.render(),
        pass,
    }
}

/// E18 — the service plane (§1's job-stream setting): Poisson and bursty
/// streams of Do-All jobs multiplexed over one shared slot pool, on both
/// engine planes. Because every job runs to completion on its own engine,
/// per-job metrics are independent of *when* the job starts — so fleet
/// work and message totals are exact multiples of the single-job counts
/// (pinned below), while the time-axis aggregates (p50/p99, utilization)
/// come from the deterministic discrete-event schedule. Poisson instants
/// go through `ln`, so only order-safe inequalities are asserted on that
/// stream; every exact pin sits on a float-free quantity.
pub fn e18() -> Outcome {
    let mut table = Table::new([
        "stream",
        "plane",
        "jobs",
        "served",
        "p50/p99 rounds",
        "work vs bound",
        "detail",
    ]);
    let mut pass = true;

    // Stream 1: 500 Protocol B jobs, Poisson arrivals, 3 in 4 failure-free
    // and every fourth with half the processes dead on arrival. The pool
    // holds four concurrent 16-process jobs; the cap is ample, so every
    // job is served and Theorem 2.8's envelopes bound the whole fleet.
    {
        let (n, t) = (64u64, 16u64);
        let bound = theorems::protocol_b(n, t);
        let jobs = 500usize;
        let mut session = Session::new(Pool::new(64), Admission::new(jobs));
        let arrivals = ArrivalModel::Poisson { mean_gap: 3.0 };
        for (i, at) in arrivals.times(18, jobs).into_iter().enumerate() {
            let scenario = if i % 4 == 3 {
                Scenario::DeadOnArrival { k: t / 2 }
            } else {
                Scenario::FailureFree
            };
            let spec = JobSpec::new(ProtocolB::processes(n, t).unwrap(), n as usize)
                .scenario(scenario)
                .label(format!("b{i}"));
            session.submit(at, spec.into_job());
        }
        let fleet = session.run();
        let ok = fleet.metrics.completed == jobs
            && fleet.metrics.rejected == 0
            && fleet.metrics.p99_rounds <= bound.rounds
            && fleet.metrics.work_total <= jobs as u64 * bound.work
            && fleet.metrics.messages <= jobs as u64 * bound.messages;
        pass &= ok;
        table.row([
            arrivals.label(),
            "sync B".into(),
            jobs.to_string(),
            fleet.metrics.completed.to_string(),
            format!("{}/{}", fleet.metrics.p50_rounds, fleet.metrics.p99_rounds),
            format!("{} <= {}", fleet.metrics.work_total, jobs as u64 * bound.work),
            format!("util {:.2}", fleet.metrics.utilization),
        ]);
    }

    // Stream 2: 500 asynchronous Protocol B jobs, Poisson arrivals, fixed
    // delay 1 — each job reports e14's exact failure-free counts (32
    // work, 132 messages, one fixed final timestamp), so the fleet totals
    // are exact multiples: work = 500·32 = 16 000 and messages =
    // 500·132 = 66 000, with p50 = p99 = the single-job time.
    {
        let (n, t) = (32u64, 16u64);
        let jobs = 500usize;
        let single = JobSpec::new(AsyncProtocolB::processes(n, t).unwrap(), n as usize)
            .delay(DelayDist::Fixed, 1)
            .run_async()
            .unwrap();
        let single_time = single.metrics.rounds.get();
        let mut session = Session::new(Pool::new(64), Admission::new(jobs));
        let arrivals = ArrivalModel::Poisson { mean_gap: 5.0 };
        for (i, at) in arrivals.times(41, jobs).into_iter().enumerate() {
            let spec = JobSpec::new(AsyncProtocolB::processes(n, t).unwrap(), n as usize)
                .delay(DelayDist::Fixed, 1)
                .label(format!("ab{i}"));
            session.submit(at, spec.into_async_job());
        }
        let fleet = session.run();
        let ok = fleet.metrics.completed == jobs
            && fleet.metrics.work_total == jobs as u64 * n
            && fleet.metrics.messages == jobs as u64 * 132
            && fleet.metrics.p50_rounds == single_time
            && fleet.metrics.p99_rounds == single_time;
        pass &= ok;
        table.row([
            arrivals.label(),
            "async B".into(),
            jobs.to_string(),
            fleet.metrics.completed.to_string(),
            format!(
                "{}/{} (expect {single_time})",
                fleet.metrics.p50_rounds, fleet.metrics.p99_rounds
            ),
            format!("{} (expect {})", fleet.metrics.work_total, jobs as u64 * n),
            format!("{} msgs (expect {})", fleet.metrics.messages, jobs as u64 * 132),
        ]);
    }

    // Stream 3: a float-free bursty Protocol D stream with every count
    // exact (EXPERIMENTS.md §e18). 120 failure-free (64, 16) jobs, four
    // per burst, one burst every 10 rounds, on a 64-slot pool: each burst
    // starts immediately (4·16 = 64 slots), finishes in exactly
    // n/t + 2 = 6 rounds (e7's pin), and is long gone before the next.
    //   p50 = p99 = 6,  work = 120·64 = 7 680,  horizon = 29·10 + 6 = 296.
    {
        let (n, t) = (64u64, 16u64);
        let jobs = 120usize;
        let arrivals = ArrivalModel::Bursty { burst: 4, period: 10 };
        let mut session = Session::new(Pool::new(64), Admission::new(jobs));
        for (i, at) in arrivals.times(0, jobs).into_iter().enumerate() {
            let spec = JobSpec::new(ProtocolD::processes(n, t).unwrap(), n as usize)
                .label(format!("d{i}"));
            session.submit(at, spec.into_job());
        }
        let fleet = session.run();
        let ok = fleet.metrics.completed == jobs
            && fleet.metrics.p50_rounds == 6
            && fleet.metrics.p99_rounds == 6
            && fleet.metrics.work_total == jobs as u64 * n
            && fleet.metrics.horizon == 296
            && fleet.metrics.deferred == 0;
        pass &= ok;
        table.row([
            arrivals.label(),
            "sync D".into(),
            jobs.to_string(),
            fleet.metrics.completed.to_string(),
            format!("{}/{} (expect 6/6)", fleet.metrics.p50_rounds, fleet.metrics.p99_rounds),
            format!("{} (expect {})", fleet.metrics.work_total, jobs as u64 * n),
            format!("horizon {} (expect 296)", fleet.metrics.horizon),
        ]);
    }

    // Stream 4: a bursty asynchronous stream under random uniform delays —
    // Theorem 2.3's envelopes still cap every job, hence the fleet.
    {
        let (n, t) = (32u64, 16u64);
        let bound = theorems::protocol_a(n, t);
        let jobs = 64usize;
        let arrivals = ArrivalModel::Bursty { burst: 8, period: 50 };
        let mut session = Session::new(Pool::new(64), Admission::new(jobs));
        for (i, at) in arrivals.times(0, jobs).into_iter().enumerate() {
            let spec = JobSpec::new(AsyncProtocolA::processes(n, t).unwrap(), n as usize)
                .seed(sweep::cell_seed(18, i as u64))
                .delay(DelayDist::Uniform, 4)
                .label(format!("aa{i}"));
            session.submit(at, spec.into_async_job());
        }
        let fleet = session.run();
        let ok = fleet.metrics.completed == jobs
            && fleet.metrics.work_total <= jobs as u64 * bound.work
            && fleet.metrics.messages <= jobs as u64 * bound.messages;
        pass &= ok;
        table.row([
            arrivals.label(),
            "async A".into(),
            jobs.to_string(),
            fleet.metrics.completed.to_string(),
            format!("{}/{}", fleet.metrics.p50_rounds, fleet.metrics.p99_rounds),
            format!("{} <= {}", fleet.metrics.work_total, jobs as u64 * bound.work),
            format!("util {:.2}", fleet.metrics.utilization),
        ]);
    }

    // Stream 5: exact admission arithmetic. Five 16-wide bursts at t = 0
    // into a 16-slot pool with a queue cap of 2: one starts, two defer,
    // two bounce — and the admitted three serialize, so the sojourns are
    // exactly 6, 12, 18 (p50 = 12, p99 = 18).
    {
        let (n, t) = (64u64, 16u64);
        let jobs = 5usize;
        let mut session = Session::new(Pool::new(16), Admission::new(2));
        for i in 0..jobs {
            let spec = JobSpec::new(ProtocolD::processes(n, t).unwrap(), n as usize)
                .label(format!("q{i}"));
            session.submit(0, spec.into_job());
        }
        let fleet = session.run();
        let ok = fleet.metrics.completed == 3
            && fleet.metrics.rejected == 2
            && fleet.metrics.deferred == 2
            && fleet.metrics.max_queue_depth == 2
            && fleet.metrics.p50_sojourn == 12
            && fleet.metrics.p99_sojourn == 18;
        pass &= ok;
        table.row([
            "burst(5@0)".into(),
            "sync D".into(),
            jobs.to_string(),
            format!("{} (expect 3)", fleet.metrics.completed),
            format!(
                "sojourn {}/{} (expect 12/18)",
                fleet.metrics.p50_sojourn, fleet.metrics.p99_sojourn
            ),
            format!("rejected {} (expect 2)", fleet.metrics.rejected),
            format!("queue depth {} (expect 2)", fleet.metrics.max_queue_depth),
        ]);
    }

    Outcome {
        id: "e18",
        claim: "service plane (§1's stream setting): Poisson + bursty streams on both planes stay inside the per-job theorem envelopes; float-free cells pin exact fleet counts (D bursty: p50=p99=6, work=7680, horizon=296; async fixed-delay: 16000 work / 66000 messages; admission 3+2 split with sojourns 12/18)",
        rendered: table.render(),
        pass,
    }
}

/// Every experiment, in order. Runs them sequentially: the grids *inside*
/// each experiment already fan out across all sweep workers, and nesting
/// a second level of parallelism on top would multiply the thread count
/// past the core count instead of speeding anything up.
pub fn all() -> Vec<Outcome> {
    vec![
        e1(),
        e2(),
        e3(),
        e4(),
        e5(),
        e6(),
        e7(),
        e8(),
        e9(),
        e10(),
        e11(),
        e12(),
        e13(),
        e14(),
        e15(),
        e16(),
        e17(),
        e18(),
    ]
}

/// Runs one experiment by id.
pub fn by_id(id: &str) -> Option<Outcome> {
    match id {
        "e1" => Some(e1()),
        "e2" => Some(e2()),
        "e3" => Some(e3()),
        "e4" => Some(e4()),
        "e5" => Some(e5()),
        "e6" => Some(e6()),
        "e7" => Some(e7()),
        "e8" => Some(e8()),
        "e9" => Some(e9()),
        "e10" => Some(e10()),
        "e11" => Some(e11()),
        "e12" => Some(e12()),
        "e13" => Some(e13()),
        "e14" => Some(e14()),
        "e15" => Some(e15()),
        "e16" => Some(e16()),
        "e17" => Some(e17()),
        "e18" => Some(e18()),
        _ => None,
    }
}
