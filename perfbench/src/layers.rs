//! Layer probes for the traced run: direct calls into each layer's public
//! functions, timed as spans. They do not depend on the workload, so
//! every traced run reports them; the workload-specific per-layer
//! metrics come from the workload's own traced passes.

use std::hint::black_box;
use std::time::Instant;

use pom_analysis::RunSummaryProbe;
use pom_core::{InitialCondition, Pom, PomEnsemble, StepObserver};
use pom_kernels::par::ChunkPool;
use pom_ode::{Dopri5, FixedStepSolver, FnSystem, NoObserver, OdeSystem, Rk4, Workspace};
use pom_serve::{ServeConfig, Server, StopMode};
use pom_sweep::{run_point, write_row_line, Campaign, CampaignSpec, Scenario};

use crate::trace::Tracer;
use crate::{http, simulate, specs, stats, Outcome, Run, SERVE_THREADS, SIM_RHS_THREADS};

/// RHS evaluation costs the workloads need for `pom-core.rhs_share`.
pub struct EvalCosts {
    pub n24_us: f64,
    pub n4096_us: f64,
    pub n32_r8_us: f64,
    pub n65536_t2_us: f64,
}

/// Median over `reps` spans of the per-call time of `f` (called `inner`
/// times per span), in microseconds.
fn per_call_us(
    tracer: &Tracer,
    parent: usize,
    name: &str,
    reps: usize,
    inner: usize,
    mut f: impl FnMut(),
) -> f64 {
    f(); // warm caches and lazily built state
    let mut per_call = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        let end = Instant::now();
        tracer.record(name, Some(parent), "", t0, end);
        per_call.push((end - t0).as_secs_f64() * 1e6 / inner as f64);
    }
    stats::median(&per_call).expect("reps > 0")
}

fn model_of(spec: &CampaignSpec, index: usize, seed: u64, inject: bool) -> Result<Pom, String> {
    match spec.scenario_at(index).map_err(|e| e.to_string())? {
        Scenario::Model(m) => m.build(seed, inject).map_err(|e| e.to_string()),
        Scenario::MpiSim(_) => Err("expected a model scenario".into()),
    }
}

fn eval_probe(
    tracer: &Tracer,
    parent: usize,
    name: &str,
    sys: &dyn OdeSystem,
    y: &[f64],
    inner: usize,
) -> f64 {
    let mut dydt = vec![0.0; sys.dim()];
    per_call_us(tracer, parent, name, 15, inner, || {
        sys.eval(black_box(0.5), black_box(y), &mut dydt);
        black_box(&dydt);
    })
}

/// Per-step cost of a solver driving a system whose derivative is zero:
/// the step loop's own work (stage combination, error norm, observer
/// dispatch) without any model cost.
fn step_self_us(tracer: &Tracer, parent: usize, name: &str, dim: usize, rk4: bool) -> f64 {
    let sys = FnSystem::new(dim, |_t: f64, _y: &[f64], d: &mut [f64]| d.fill(0.0));
    let y0 = vec![0.25; dim];
    let mut ws = Workspace::new();
    let mut steps = 1;
    let mut integrate = || {
        let n = if rk4 {
            FixedStepSolver::new(Rk4, 0.05)
                .expect("positive step")
                .integrate_observed(&sys, 0.0, &y0, 50.0, &mut ws, &mut NoObserver)
                .expect("no-op integration")
                .n_steps
        } else {
            // h_max pins the step count: a zero derivative has zero error.
            let t_end = if dim > 10_000 { 10.0 } else { 100.0 };
            Dopri5::new()
                .h_max(0.1)
                .integrate_observed(&sys, 0.0, &y0, t_end, &mut ws, &mut NoObserver)
                .expect("no-op integration")
                .0
                .n_steps
        };
        steps = n;
    };
    let per_integration = per_call_us(tracer, parent, name, 9, 1, &mut integrate);
    per_integration / steps as f64
}

/// Run every layer probe and push its metric.
pub fn probe_all(run: &Run, tracer: &Tracer, out: &mut Outcome) -> Result<EvalCosts, String> {
    let root = tracer.open("bench.layer_probes", None, "");
    let seed = run.seed;

    // pom-sweep: spec parsing and row encoding.
    let texts = [
        specs::load(specs::SIGMA_SWEEP, seed)?,
        specs::load(specs::ENSEMBLE_CI, seed)?,
        specs::load(specs::IDLE_WAVE_4096, seed)?,
    ];
    let parse_us = per_call_us(tracer, root, "pom-sweep.Campaign::from_str", 30, 5, || {
        for t in &texts {
            black_box(Campaign::from_str(t).expect("spec parses"));
        }
    });
    out.metric("pom-sweep.spec_parse_us", parse_us, "us");
    let sigma = Campaign::from_str(&texts[0])
        .map_err(|e| e.to_string())?
        .spec;
    let ensemble = Campaign::from_str(&texts[1])
        .map_err(|e| e.to_string())?
        .spec;
    let idle = Campaign::from_str(&texts[2])
        .map_err(|e| e.to_string())?
        .spec;
    let row = run_point(&sigma, 0);
    let mut buf = Vec::with_capacity(4096);
    let encode_us = per_call_us(tracer, root, "pom-sweep.write_row_line", 30, 200, || {
        buf.clear();
        write_row_line(&mut buf, &row).expect("write to memory");
        black_box(&buf);
    });
    out.metric("pom-sweep.row_encode_us", encode_us, "us");

    // pom-core: model build and RHS evaluation.
    let build_ms = per_call_us(tracer, root, "pom-core.PomBuilder::build", 9, 1, || {
        black_box(simulate::build_model(SIM_RHS_THREADS).expect("model builds"));
    }) / 1e3;
    out.metric("pom-core.build_ms", build_ms, "ms");

    let big_t1 = simulate::build_model(1)?;
    let big_t2 = simulate::build_model(SIM_RHS_THREADS)?;
    let y_big = InitialCondition::RandomSpread {
        amplitude: 1.0,
        seed,
    }
    .phases(simulate::N);
    let t1 = eval_probe(tracer, root, "pom-core.eval.n65536_t1", &big_t1, &y_big, 5);
    let t2 = eval_probe(tracer, root, "pom-core.eval.n65536_t2", &big_t2, &y_big, 5);
    out.metric("pom-core.rhs_eval_us.n65536_t1", t1, "us");
    out.metric("pom-core.rhs_eval_us.n65536_t2", t2, "us");

    let small = model_of(&sigma, 0, sigma.point_seed(0), false)?;
    let y_small = InitialCondition::RandomSpread {
        amplitude: 0.2,
        seed,
    }
    .phases(small.n());
    let n24 = eval_probe(tracer, root, "pom-core.eval.n24", &small, &y_small, 2000);
    out.metric("pom-core.rhs_eval_us.n24", n24, "us");

    let mid = model_of(&idle, 0, idle.point_seed(0), true)?;
    let y_mid = InitialCondition::Synchronized.phases(mid.n());
    let n4096 = eval_probe(tracer, root, "pom-core.eval.n4096", &mid, &y_mid, 50);
    out.metric("pom-core.rhs_eval_us.n4096", n4096, "us");

    let members = (0..ensemble.replicas)
        .map(|r| model_of(&ensemble, 0, ensemble.replica_seed(0, r), true))
        .collect::<Result<Vec<_>, _>>()?;
    let ens = PomEnsemble::new(members);
    let y_ens = InitialCondition::RandomSpread {
        amplitude: 0.8,
        seed,
    }
    .phases(ens.n() * ens.replicas());
    let n32_r8 = eval_probe(tracer, root, "pom-core.eval.n32_r8", &ens, &y_ens, 500);
    out.metric("pom-core.ensemble_eval_us.n32_r8", n32_r8, "us");

    // pom-ode: the step loop on a no-op system.
    out.metric(
        "pom-ode.step_self_us.dopri5_n24",
        step_self_us(
            tracer,
            root,
            "pom-ode.Dopri5::integrate_observed.n24",
            24,
            false,
        ),
        "us",
    );
    out.metric(
        "pom-ode.step_self_us.rk4_n32_r8",
        step_self_us(
            tracer,
            root,
            "pom-ode.FixedStepSolver::integrate_observed.n256",
            256,
            true,
        ),
        "us",
    );
    out.metric(
        "pom-ode.step_self_us.dopri5_n65536",
        step_self_us(
            tracer,
            root,
            "pom-ode.Dopri5::integrate_observed.n65536",
            simulate::N,
            false,
        ),
        "us",
    );

    // pom-kernels: an empty fork-join on the benchmark's thread count.
    let pool = ChunkPool::new(SIM_RHS_THREADS);
    let fork_join = per_call_us(tracer, root, "pom-kernels.ChunkPool::run", 30, 200, || {
        pool.run(SIM_RHS_THREADS, &|_slot, range| {
            black_box(range);
        });
    });
    drop(pool);
    out.metric("pom-kernels.fork_join_us", fork_join, "us");
    out.metric("pom-kernels.par_speedup", t1 / t2, "ratio");

    // pom-analysis: one streaming-probe callback at N = 65536.
    let mut probe = RunSummaryProbe::new();
    probe.begin(0.0, &y_big);
    let mut t = 0.0;
    let observe = per_call_us(
        tracer,
        root,
        "pom-analysis.RunSummaryProbe::observe_step",
        15,
        5,
        || {
            t += 0.1;
            probe.observe_step(t, black_box(&y_big));
        },
    );
    out.metric("pom-analysis.observe_us", observe, "us");

    // pom-serve and pom-obs: an idle daemon.
    let mut starts = Vec::new();
    for k in 0..9 {
        let spool = run.tmp.join(format!("probe-spool-{k}"));
        // Made before the clock starts, as in the serve set-up.
        std::fs::create_dir_all(&spool).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let server = Server::start(probe_config(&spool)).map_err(|e| e.to_string())?;
        let end = Instant::now();
        tracer.record("pom-serve.Server::start", Some(root), "", t0, end);
        starts.push((end - t0).as_secs_f64() * 1e3);
        server.stop(StopMode::Drain);
        let _ = std::fs::remove_dir_all(&spool);
    }
    out.metric(
        "pom-serve.start_ms",
        stats::median(&starts).expect("9 starts"),
        "ms",
    );

    let spool = run.tmp.join("probe-spool");
    let server = Server::start(probe_config(&spool)).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let round_trip = |name: &str, path: &str| -> Result<f64, String> {
        let mut times = Vec::new();
        for _ in 0..30 {
            let t0 = Instant::now();
            let resp = http::request(addr, "GET", path, "").map_err(|e| e.to_string())?;
            let end = Instant::now();
            if resp.status != 200 {
                return Err(format!("GET {path} answered {}", resp.status));
            }
            tracer.record(name, Some(root), "", t0, end);
            times.push((end - t0).as_secs_f64());
        }
        Ok(stats::median(&times).expect("30 requests"))
    };
    let healthz = round_trip("pom-serve.GET /healthz", "/healthz")?;
    let scrape = round_trip("pom-obs.GET /metrics", "/metrics")?;
    server.stop(StopMode::Drain);
    let _ = std::fs::remove_dir_all(&spool);
    out.metric("pom-serve.healthz_us", healthz * 1e6, "us");
    out.metric("pom-obs.scrape_ms", scrape * 1e3, "ms");

    tracer.close(root);
    Ok(EvalCosts {
        n24_us: n24,
        n4096_us: n4096,
        n32_r8_us: n32_r8,
        n65536_t2_us: t2,
    })
}

pub fn probe_config(spool: &std::path::Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        spool: spool.to_path_buf(),
        threads: SERVE_THREADS,
        ..ServeConfig::default()
    }
}
