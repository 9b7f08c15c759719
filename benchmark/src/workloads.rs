//! The seven workloads. Each is a fixed, seed-determined list of
//! operations — a *pass* — driven in a closed loop on one thread: the next
//! operation starts when the previous one returns. Protocol construction,
//! engine construction, the run and the report are all inside the pass;
//! users pay them on every run.

use doall_bounds::theorems;
use doall_bounds::Bounds;
use doall_core::{
    AsyncProtocolA, AsyncProtocolB, Lockstep, NaiveSpread, ProtocolA, ProtocolB, ProtocolC,
    ProtocolD,
};
use doall_sim::asynch::{AsyncConfig, AsyncProtocol, DelayDist};
use doall_sim::{NoFailures, Protocol, Round, RunConfig};
use doall_workload::Scenario;

use crate::layers::View;
use crate::ops::{async_op, snapshot_op, sync_op, Ctx, Outcome, Variant};
use crate::{chaos, serve};

/// What a workload is generated from.
#[derive(Clone, Copy, Debug)]
pub struct Env {
    pub seed: u64,
    /// `min(nproc, 4)`: engine lanes of `sync_giant_par`, sweep workers of
    /// `chaos_campaign`. Every other thread count is 1.
    pub threads: usize,
}

/// A generated workload: its inputs are fixed, every pass is identical.
pub trait Workload {
    /// Runs one pass and returns what each operation produced.
    fn pass(&self, ctx: &mut Ctx) -> Vec<Outcome>;

    /// How many `Variant::Twin` passes a traced run rotates through.
    fn twins(&self) -> u8 {
        0
    }

    /// Per-layer metrics only this workload can derive: what its twin pass
    /// means, which of its groups hold which exact counter.
    fn own_metrics(&self, _view: &View<'_>) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// A workload's entry in the benchmark's table of contents.
pub struct Entry {
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The `expected.json` entry its counts are held against.
    pub expected: &'static str,
    /// Groups whose counts depend on `--seed`; on a non-default seed they
    /// are compared with the warm-up pass instead of `expected.json`.
    pub seeded: &'static [&'static str],
    pub generate: fn(Env) -> Box<dyn Workload>,
}

pub const WORKLOADS: [Entry; 7] = [
    Entry {
        name: "sync_storm",
        why: "dense synchronous rounds: cost is the message plane (inbox build, effect exchange, fate ruling), step does little",
        expected: "sync_storm",
        seeded: &["a_2048_1024_random"],
        generate: |env| Box::new(SyncStorm { seed: env.seed }),
    },
    Entry {
        name: "sync_sparse",
        why: "one active process among thousands parked or dead: cost is the due scan, wakeup cache and fast-forward; message plane idle",
        expected: "sync_sparse",
        seeded: &[],
        generate: |_| Box::new(SyncSparse),
    },
    Entry {
        name: "sync_giant_seq",
        why: "step-bound scale cell (coordinator-D, t=2^16, n=2^24) at shards=1: Protocol::step, SoA tables and the work ledger dominate; the RSS workload",
        expected: "sync_giant",
        seeded: &[],
        generate: |_| Box::new(SyncGiant { shards: 1, twin_shards: None }),
    },
    Entry {
        name: "sync_giant_par",
        why: "the identical run on min(nproc,4) lanes: the only workload where the lane pipeline, thread::scope sites and build_parallel execute",
        expected: "sync_giant",
        seeded: &[],
        generate: |env| Box::new(SyncGiant { shards: env.threads.max(2), twin_shards: Some(1) }),
    },
    Entry {
        name: "async_storm",
        why: "the event-driven plane under broadcast load on both queue implementations (calendar for max_delay<=64, heap above)",
        expected: "async_storm",
        seeded: &[
            "async_a_uniform4",
            "async_b_uniform4",
            "async_a_fixed1",
            "async_b_fixed1",
            "async_a_bimodal32",
            "async_b_bimodal32",
            "async_a_uniform256",
            "async_b_uniform256",
        ],
        generate: |env| Box::new(AsyncStorm { seed: env.seed }),
    },
    Entry {
        name: "serve_stream",
        why: "the service plane in the small-run regime, where per-job fixed cost (spec, boxing, Engine::new, report, records) rivals the run",
        expected: "serve_stream",
        seeded: &["steady.fleet"],
        generate: |env| Box::new(serve::ServeStream::generate(env)),
    },
    Entry {
        name: "chaos_campaign",
        why: "many tiny traced runs under random fault plans fanned over the work-stealing sweep: faults, Degraded wrappers, trace, invariants, shrink",
        expected: "chaos_campaign",
        seeded: &["grid_16_64", "grid_64_256", "shrink_b"],
        generate: |env| Box::new(chaos::ChaosCampaign::generate(env)),
    },
];

/// The sync-plane configuration every single-lane operation uses: no round
/// cap (liveness is the watchdog's and the deadlock detector's job) and the
/// shard count spelled out, never taken from the environment.
pub fn sync_cfg(n: u64, shards: usize) -> RunConfig {
    RunConfig::new(n as usize, Round::MAX).with_shards(shards)
}

/// A sync operation under a named [`Scenario`] at one lane; lowering the
/// scenario to an adversary is the `workload.lower` phase.
pub fn scenario_op<P>(
    ctx: &mut Ctx,
    label: &'static str,
    n: u64,
    bound: Bounds,
    scenario: &Scenario,
    build: impl FnOnce() -> Vec<P>,
) -> Outcome
where
    P: Protocol + Send,
    P::Msg: Send + Sync + 'static,
{
    sync_op(ctx, label, sync_cfg(n, 1), Some(bound), build, || scenario.adversary::<P::Msg>())
}

/// The async peer of [`scenario_op`].
pub fn async_scenario_op<P>(
    ctx: &mut Ctx,
    label: &'static str,
    cfg: AsyncConfig,
    bound: Bounds,
    scenario: &Scenario,
    build: impl FnOnce() -> Vec<P>,
) -> Outcome
where
    P: AsyncProtocol,
    P::Msg: 'static,
{
    async_op(ctx, label, cfg, Some(bound), build, || scenario.async_adversary::<P::Msg>())
}

const VALID: &str = "the shape is valid for this protocol";

struct SyncStorm {
    seed: u64,
}

impl Workload for SyncStorm {
    fn pass(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        let ff = Scenario::FailureFree;
        let doa = Scenario::DeadOnArrival { k: 992 };
        let random = Scenario::Random { seed: self.seed, p: 0.001, max_crashes: 1023 };
        vec![
            scenario_op(ctx, "lockstep_2048_512", 2048, theorems::lockstep(2048, 512), &ff, || {
                Lockstep::processes(2048, 512).expect(VALID)
            }),
            scenario_op(ctx, "a_2048_1024", 2048, theorems::protocol_a(2048, 1024), &ff, || {
                ProtocolA::processes(2048, 1024).expect(VALID)
            }),
            scenario_op(
                ctx,
                "b_4096_1024_doa992",
                4096,
                theorems::protocol_b(4096, 1024),
                &doa,
                || ProtocolB::processes(4096, 1024).expect(VALID),
            ),
            // Broadcast D: every message carries a view.
            scenario_op(
                ctx,
                "d_1024_256",
                1024,
                theorems::protocol_d_failure_free(1024, 256),
                &ff,
                || ProtocolD::processes(1024, 256).expect(VALID),
            ),
            scenario_op(
                ctx,
                "naive_4096_1024",
                4096,
                theorems::naive_spread(4096, 1024),
                &ff,
                || NaiveSpread::processes(4096, 1024).expect(VALID),
            ),
            // An adversary that announces an event every round, so the
            // engine falls back to dense stepping and intercepts everyone.
            scenario_op(
                ctx,
                "a_2048_1024_random",
                2048,
                theorems::protocol_a(2048, 1024),
                &random,
                || ProtocolA::processes(2048, 1024).expect(VALID),
            ),
            // The failure-free A cell again, checkpointed mid-run: same
            // label, so the group must count exactly twice the A cell.
            snapshot_op(
                ctx,
                "a_2048_1024",
                sync_cfg(2048, 1),
                Round::new(1000),
                || ProtocolA::processes(2048, 1024).expect(VALID),
                NoFailures,
            ),
        ]
    }
}

/// Cells sized on the first traced run so that engine self time is the
/// largest share (see the README): the two takeover cascades the issue
/// asked for at t = 2^12 and 2^10 spend 80 % of their time inside
/// `TriggerAdversary` (a rule scan per intercept), so they are kept small,
/// and a failure-free B cell — one active process, 1023 alive but parked —
/// carries the due-scan cost instead.
struct SyncSparse;

impl Workload for SyncSparse {
    fn pass(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        let mut out = Vec::with_capacity(108);
        // Thousands dead: a lone survivor works through 2^20 units.
        let (n, t) = (1u64 << 20, 1u64 << 14);
        let doa = Scenario::DeadOnArrival { k: t - 1 };
        out.push(scenario_op(ctx, "b_2p20_2p14_doa", n, theorems::protocol_b(n, t), &doa, || {
            ProtocolB::processes(n, t).expect(VALID)
        }));
        // Thousands parked: everyone alive, one process due per round.
        let (n, t) = (1u64 << 15, 1u64 << 10);
        let ff = Scenario::FailureFree;
        out.push(scenario_op(
            ctx,
            "b_2p15_2p10_parked",
            n,
            theorems::protocol_b(n, t),
            &ff,
            || ProtocolB::processes(n, t).expect(VALID),
        ));
        let (n, t) = (1u64 << 12, 1u64 << 10);
        let cascade = Scenario::TakeoverCascade { victims: t - 1 };
        out.push(scenario_op(
            ctx,
            "a_2p12_2p10_cascade",
            n,
            theorems::protocol_a(n, t),
            &cascade,
            || ProtocolA::processes(n, t).expect(VALID),
        ));
        let (n, t) = (1u64 << 15, 1u64 << 8);
        let cascade = Scenario::TakeoverCascade { victims: t - 1 };
        out.push(scenario_op(
            ctx,
            "b_2p15_2p8_cascade",
            n,
            theorems::protocol_b(n, t),
            &cascade,
            || ProtocolB::processes(n, t).expect(VALID),
        ));
        // The run ends at round 2^100: one fast-forward jump on the wide clock.
        let idle = Scenario::DeepIdle { k: 1023, round: Round::new(1 << 100) };
        for _ in 0..4 {
            out.push(scenario_op(
                ctx,
                "c_1024_1024_deep_idle",
                1024,
                theorems::protocol_c(1024, 1024),
                &idle,
                || ProtocolC::processes(1024, 1024).expect(VALID),
            ));
        }
        // A straggler parked on its exact ~5.6e25-round zero-view deadline.
        let doa = Scenario::DeadOnArrival { k: 63 };
        for _ in 0..100 {
            out.push(scenario_op(
                ctx,
                "c_8_64_doa63",
                8,
                theorems::protocol_c(8, 64),
                &doa,
                || ProtocolC::processes(8, 64).expect(VALID),
            ));
        }
        out
    }
}

/// The e17 coordinator-D shape scaled so eight passes fit a run: 259
/// rounds × 65,536 steps, messages = 2(t−1), rounds = ⌈n/t⌉+3, work = n.
struct SyncGiant {
    shards: usize,
    /// The shard count of the comparison pass traced runs interleave, from
    /// which `engine.shard_speedup` is taken inside one process (`None`:
    /// the lane count of the host).
    twin_shards: Option<usize>,
}

impl Workload for SyncGiant {
    fn pass(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        let (n, t) = (1u64 << 24, 1u64 << 16);
        let shards = match ctx.variant {
            Variant::Twin(_) => self.twin_shards.unwrap_or(ctx.threads.max(2)),
            _ => self.shards,
        };
        vec![sync_op(
            ctx,
            "d_coord_2p24_2p16",
            sync_cfg(n, shards),
            Some(theorems::protocol_d_failure_free(n, t)),
            || ProtocolD::processes_with_coordinator(n, t).expect(VALID),
            || NoFailures,
        )]
    }

    fn twins(&self) -> u8 {
        1
    }

    /// One lane's pass time over many lanes', measured inside one process:
    /// the twin pass is the other shard count.
    fn own_metrics(&self, view: &View<'_>) -> Vec<(&'static str, f64)> {
        let speedup = match self.twin_shards {
            Some(_) => view.ratio("twin0", "bare"),
            None => view.ratio("bare", "twin0"),
        };
        vec![("engine.shard_speedup", speedup)]
    }
}

struct AsyncStorm {
    seed: u64,
}

impl Workload for AsyncStorm {
    fn pass(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        let ff = Scenario::FailureFree;
        // (distribution, max delay, n, t, labels). The heap pair runs at
        // roughly half the system size (t must stay a perfect square
        // dividing n): at full size it was 70 % of the pass.
        let cells = [
            (DelayDist::Uniform, 4, 2048u64, 1024u64, "async_a_uniform4", "async_b_uniform4"),
            (DelayDist::Fixed, 1, 2048, 1024, "async_a_fixed1", "async_b_fixed1"),
            (DelayDist::Bimodal, 32, 2048, 1024, "async_a_bimodal32", "async_b_bimodal32"),
            (DelayDist::Uniform, 256, 1152, 576, "async_a_uniform256", "async_b_uniform256"),
        ];
        let mut out = Vec::with_capacity(2 * cells.len());
        for (i, (dist, max_delay, n, t, label_a, label_b)) in cells.into_iter().enumerate() {
            let cfg = |k: u64| {
                let seed = doall_bench::sweep::cell_seed(self.seed, 2 * i as u64 + k);
                AsyncConfig::new(n as usize, seed).with_delay(dist, max_delay)
            };
            out.push(async_scenario_op(
                ctx,
                label_a,
                cfg(0),
                theorems::protocol_a(n, t),
                &ff,
                || AsyncProtocolA::processes(n, t).expect(VALID),
            ));
            // Only the last group of √t processes is alive.
            let doa = Scenario::DeadOnArrival { k: t - doall_bounds::isqrt(t) };
            out.push(async_scenario_op(
                ctx,
                label_b,
                cfg(1),
                theorems::protocol_b(n, t),
                &doa,
                || AsyncProtocolB::processes(n, t).expect(VALID),
            ));
        }
        out
    }
}
