//! `serve_stream`: the service plane in the small-run regime. A pass is two
//! [`Session`]s on a 64-slot pool — a steady Poisson stream that is fully
//! admitted, and a bursty overload whose rejections are expected verdicts.
//!
//! A traced run adds two twin passes over the steady stream's specs: the
//! same jobs run directly through `JobSpec::run`/`run_async` (so
//! `service.overhead_us_per_job` is session minus direct), and the same
//! jobs replayed call by call with wrappers in place (the only way to see
//! per-run fixed cost — `Engine::new`, the report — from outside a thunk).

use doall_bounds::theorems;
use doall_core::{AsyncProtocolB, ProtocolB, ProtocolD};
use doall_service::{
    Admission, ArrivalModel, FleetReport, JobReport, JobSpec, Pool, Session, Verdict,
};
use doall_sim::asynch::{AsyncConfig, DelayDist};
use doall_workload::Scenario;

use crate::layers::{per, View};
use crate::ops::{Ctx, Outcome, Phase, Plane, Variant};
use crate::workloads::{async_scenario_op, scenario_op, Env, Workload};

const STEADY_JOBS: usize = 3000;
const OVERLOAD_JOBS: usize = 1000;
const POOL_SLOTS: usize = 64;
const VALID: &str = "the shape is valid for this protocol";

pub struct ServeStream {
    seed: u64,
}

/// The five job shapes the steady stream cycles through.
#[derive(Clone, Copy)]
enum Shape {
    B,
    BHalfDead,
    D,
    AsyncB,
}

const CYCLE: [Shape; 5] = [Shape::B, Shape::B, Shape::BHalfDead, Shape::D, Shape::AsyncB];

impl Shape {
    fn scenario(self) -> Scenario {
        match self {
            Shape::BHalfDead => Scenario::DeadOnArrival { k: 8 },
            _ => Scenario::FailureFree,
        }
    }
}

/// A ready spec of either plane, every one with its shard count spelled out.
enum Spec {
    B(JobSpec<ProtocolB>),
    D(JobSpec<ProtocolD>),
    AsyncB(JobSpec<AsyncProtocolB>),
}

fn spec(shape: Shape) -> Spec {
    match shape {
        Shape::B | Shape::BHalfDead => Spec::B(
            JobSpec::new(ProtocolB::processes(64, 16).expect(VALID), 64)
                .scenario(shape.scenario())
                .shards(1),
        ),
        Shape::D => Spec::D(JobSpec::new(ProtocolD::processes(64, 16).expect(VALID), 64).shards(1)),
        Shape::AsyncB => Spec::AsyncB(
            JobSpec::new(AsyncProtocolB::processes(32, 16).expect(VALID), 32)
                .delay(DelayDist::Fixed, 1),
        ),
    }
}

fn bound(shape: Shape) -> doall_bounds::Bounds {
    match shape {
        Shape::B | Shape::BHalfDead => theorems::protocol_b(64, 16),
        Shape::D => theorems::protocol_d_failure_free(64, 16),
        Shape::AsyncB => theorems::protocol_b(32, 16),
    }
}

impl ServeStream {
    pub fn generate(env: Env) -> ServeStream {
        ServeStream { seed: env.seed }
    }

    /// Runs one session: arrival instants, spec construction + submission,
    /// then the discrete-event schedule with every admitted job's run — each
    /// stage booked to the phase `stages` names for it.
    fn session(
        ctx: &mut Ctx,
        stages: [Phase; 3],
        arrivals: ArrivalModel,
        seed: u64,
        jobs: usize,
        queue_cap: usize,
        shape_of: impl Fn(usize) -> Shape,
    ) -> FleetReport {
        let times = ctx.pass_phase(stages[0], |_| arrivals.times(seed, jobs));
        let session = ctx.pass_phase(stages[1], |_| {
            let mut session = Session::new(Pool::new(POOL_SLOTS), Admission::new(queue_cap));
            for (i, at) in times.into_iter().enumerate() {
                session.submit(
                    at,
                    match spec(shape_of(i)) {
                        Spec::B(s) => s.into_job(),
                        Spec::D(s) => s.into_job(),
                        Spec::AsyncB(s) => s.into_async_job(),
                    },
                );
            }
            session
        });
        ctx.pass_phase(stages[2], |_| session.run())
    }

    /// One outcome per submitted job plus a `<label>.fleet` row holding the
    /// session's verdict counters and simulated (exact) service metrics.
    fn outcomes(
        label: &'static str,
        fleet_label: &'static str,
        fleet: FleetReport,
        shape_of: impl Fn(usize) -> Shape,
        out: &mut Vec<Outcome>,
    ) {
        let m = &fleet.metrics;
        let mut row = Outcome::empty(fleet_label, Plane::NoEngine);
        row.extra = vec![
            ("jobs", m.jobs as u64),
            ("completed", m.completed as u64),
            ("rejected", m.rejected as u64),
            ("failed", m.failed as u64),
            ("deferred", m.deferred as u64),
            ("max_queue_depth", m.max_queue_depth as u64),
            ("horizon", m.horizon as u64),
            ("sojourn_p50", m.p50_sojourn as u64),
            ("sojourn_p99", m.p99_sojourn as u64),
            ("utilization_ppm", (m.utilization * 1e6).round() as u64),
        ];
        out.push(row);
        // Records come back in arrival order, which for both streams is
        // submission order (instants are non-decreasing in the job index).
        for (i, rec) in fleet.records.into_iter().enumerate() {
            out.push(match (rec.verdict, rec.report) {
                (Verdict::Completed, Some(JobReport::Sync(r))) => {
                    Outcome::of_sync(label, r).bounded(Some(bound(shape_of(i))))
                }
                (Verdict::Completed, Some(JobReport::Async(r))) => {
                    Outcome::of_async(label, r).bounded(Some(bound(shape_of(i))))
                }
                (Verdict::Rejected(_), _) => Outcome::empty(label, Plane::NoEngine),
                (verdict, _) => {
                    let why = rec.error.map_or(format!("{verdict:?}"), |e| e.to_string());
                    Outcome::failed(label, Plane::NoEngine, why)
                }
            });
        }
    }

    fn served(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        let mut out = Vec::with_capacity(STEADY_JOBS + OVERLOAD_JOBS + 2);
        let steady = |i: usize| CYCLE[i % CYCLE.len()];
        let poisson = ArrivalModel::Poisson { mean_gap: 3.0 };
        let stages = [Phase::ServiceArrivals, Phase::ServiceSubmit, Phase::ServiceRun];
        let fleet =
            Self::session(ctx, stages, poisson, self.seed, STEADY_JOBS, STEADY_JOBS, steady);
        Self::outcomes("steady", "steady.fleet", fleet, steady, &mut out);
        let overload = |_: usize| Shape::D;
        let bursty = ArrivalModel::Bursty { burst: 16, period: 100 };
        // Per-job rates are taken over the steady stream alone (its job mix
        // is the one the direct twin replays); the overload is one lump.
        let stages = [Phase::ServiceOverload; 3];
        let fleet = Self::session(ctx, stages, bursty, self.seed, OVERLOAD_JOBS, 8, overload);
        Self::outcomes("overload", "overload.fleet", fleet, overload, &mut out);
        out
    }

    /// The steady stream's specs, built up front as `submit` does, then run
    /// one after another with no session in between.
    fn direct(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        // Nothing is wrapped here; the flag only switches the phase clock on.
        ctx.traced = true;
        let specs: Vec<(Shape, Spec)> =
            (0..STEADY_JOBS).map(|i| CYCLE[i % CYCLE.len()]).map(|s| (s, spec(s))).collect();
        ctx.pass_phase(Phase::ServiceDirect, |_| {
            specs
                .into_iter()
                .map(|(shape, spec)| {
                    let outcome = match spec {
                        Spec::B(s) => s
                            .run()
                            .map(|r| Outcome::of_sync("steady", r))
                            .map_err(|e| e.to_string()),
                        Spec::D(s) => s
                            .run()
                            .map(|r| Outcome::of_sync("steady", r))
                            .map_err(|e| e.to_string()),
                        Spec::AsyncB(s) => s
                            .run_async()
                            .map(|r| Outcome::of_async("steady", r))
                            .map_err(|e| e.to_string()),
                    };
                    match outcome {
                        Ok(o) => o.bounded(Some(bound(shape))),
                        Err(e) => Outcome::failed("steady", Plane::NoEngine, e),
                    }
                })
                .collect()
        })
    }

    /// The steady stream's jobs replayed through the benchmark's own
    /// call-by-call runner — the calls `JobSpec::run` makes, with wrappers.
    fn layered(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        ctx.traced = true;
        (0..STEADY_JOBS)
            .map(|i| {
                let shape = CYCLE[i % CYCLE.len()];
                let (scenario, bound) = (shape.scenario(), bound(shape));
                match shape {
                    Shape::B | Shape::BHalfDead => {
                        scenario_op(ctx, "steady", 64, bound, &scenario, || {
                            ProtocolB::processes(64, 16).expect(VALID)
                        })
                    }
                    Shape::D => scenario_op(ctx, "steady", 64, bound, &scenario, || {
                        ProtocolD::processes(64, 16).expect(VALID)
                    }),
                    Shape::AsyncB => {
                        let cfg = AsyncConfig::new(32, 0).with_delay(DelayDist::Fixed, 1);
                        async_scenario_op(ctx, "steady", cfg, bound, &scenario, || {
                            AsyncProtocolB::processes(32, 16).expect(VALID)
                        })
                    }
                }
            })
            .collect()
    }
}

impl Workload for ServeStream {
    fn pass(&self, ctx: &mut Ctx) -> Vec<Outcome> {
        match ctx.variant {
            Variant::Twin(0) => self.direct(ctx),
            Variant::Twin(_) => self.layered(ctx),
            Variant::Bare | Variant::Spans => self.served(ctx),
        }
    }

    fn twins(&self) -> u8 {
        2
    }

    /// Per-job rates over the steady stream (the mix the direct twin
    /// replays) and the fleet verdicts of both sessions.
    fn own_metrics(&self, view: &View<'_>) -> Vec<(&'static str, f64)> {
        let per_job = |phase: &str| per(view.med(phase) / 1e3, STEADY_JOBS as f64);
        let (run, direct) = (per_job("service.run"), per_job("service.direct"));
        let steady = |key: &str| view.extra("steady.fleet", key);
        let overload = |key: &str| view.extra("overload.fleet", key);
        vec![
            ("service.submit_us_per_job", per_job("service.submit")),
            ("service.run_us_per_job", run),
            ("service.direct_us_per_job", direct),
            ("service.overhead_us_per_job", run - direct),
            ("service.jobs", steady("jobs") + overload("jobs")),
            ("service.completed", steady("completed") + overload("completed")),
            ("service.rejected", steady("rejected") + overload("rejected")),
            ("service.deferred", steady("deferred") + overload("deferred")),
            ("service.max_queue_depth", steady("max_queue_depth").max(overload("max_queue_depth"))),
            ("service.sojourn_p50_rounds", steady("sojourn_p50")),
            ("service.sojourn_p99_rounds", steady("sojourn_p99")),
            ("service.utilization", steady("utilization_ppm") / 1e6),
        ]
    }
}
