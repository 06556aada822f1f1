//! `simulate_65536`: the library path of
//! `pom simulate n=65536 potential=desync sigma=3 kernel=sincos
//! rhs-threads=2 observe=1 init=spread t_end=20` — one streaming Dopri5
//! integration with `ObserveEvery(RunSummaryProbe, 1)` per pass.
//!
//! The kernel layer (sin/cos pass, coupling walk, finalize) and the
//! `ChunkPool` fork-joins do almost all the work; the sweep and serve
//! layers do none.

use std::time::Instant;

use pom_analysis::RunSummaryProbe;
use pom_core::{
    InitialCondition, Normalization, ObserveEvery, Pom, PomBuilder, Potential, RhsKernel,
    SimOptions, SimWorkspace, StepObserver,
};
use pom_topology::Topology;

use crate::counters::{self, Counters};
use crate::trace::Tracer;
use crate::{alloc, layers, samples_json, stats, Outcome, Run, HEAP_PASSES, SIM_RHS_THREADS};

pub const N: usize = 65536;
const T_END: f64 = 20.0;

/// The model of `pom simulate` with the workload's arguments.
pub fn build_model(rhs_threads: usize) -> Result<Pom, String> {
    PomBuilder::new(N)
        .topology(Topology::ring(N, &[-1, 1]))
        .potential(Potential::desync(3.0))
        .compute_time(0.9)
        .comm_time(0.1)
        .kernel(RhsKernel::from_name("sincos").expect("known kernel"))
        .rhs_threads(rhs_threads)
        .normalization(Normalization::ByDegree)
        .build()
        .map_err(|e| e.to_string())
}

fn init(seed: u64) -> InitialCondition {
    InitialCondition::RandomSpread {
        amplitude: 1.0,
        seed,
    }
}

/// Wraps the user's observer: notes when the first accepted step reaches
/// it and, in the traced run, records a span around each callback.
struct Watch<'a, O> {
    inner: O,
    first_step: Option<Instant>,
    trace: Option<(&'a Tracer, usize)>,
}

impl<O: StepObserver> StepObserver for Watch<'_, O> {
    fn begin(&mut self, t0: f64, y0: &[f64]) {
        self.inner.begin(t0, y0);
    }
    fn observe_step(&mut self, t: f64, y: &[f64]) {
        let start = Instant::now();
        self.first_step.get_or_insert(start);
        self.inner.observe_step(t, y);
        if let Some((tracer, parent)) = self.trace {
            tracer.record(
                "pom-analysis.RunSummaryProbe::observe_step",
                Some(parent),
                "",
                start,
                Instant::now(),
            );
        }
    }
    fn finish(&mut self, t_end: f64, y_end: &[f64]) {
        self.inner.finish(t_end, y_end);
    }
    fn wants_samples(&self) -> bool {
        self.inner.wants_samples()
    }
}

struct Pass {
    wall_s: f64,
    first_ms: f64,
    steps: usize,
    final_state: Vec<f64>,
}

fn pass(
    model: &Pom,
    seed: u64,
    ws: &mut SimWorkspace,
    trace: Option<(&Tracer, usize)>,
) -> Result<Pass, String> {
    let span = trace.map(|(t, parent)| {
        (
            t,
            t.open("pom-core.Pom::simulate_observed_ws", Some(parent), ""),
        )
    });
    let mut obs = Watch {
        inner: ObserveEvery::new(RunSummaryProbe::new(), 1),
        first_step: None,
        trace: span,
    };
    let t0 = Instant::now();
    let summary = model
        .simulate_observed_ws(init(seed), &SimOptions::new(T_END), &mut obs, ws)
        .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some((t, id)) = span {
        t.close(id);
    }
    let first = obs.first_step.ok_or("integration took no step")?;
    Ok(Pass {
        wall_s,
        first_ms: (first - t0).as_secs_f64() * 1e3,
        steps: summary.n_steps(),
        final_state: summary.final_state().to_vec(),
    })
}

/// One user's set-up: build the model (with its 2-thread pool) and the
/// workspace.
fn setup_s() -> Result<f64, String> {
    let t0 = Instant::now();
    let model = build_model(SIM_RHS_THREADS)?;
    let ws = SimWorkspace::new();
    let s = t0.elapsed().as_secs_f64();
    drop((model, ws));
    Ok(s)
}

/// Thread-count invariance: a pass must equal the `rhs_threads = 1`
/// reference bit for bit.
fn check(out: &mut Outcome, p: &Pass, reference: &Pass) {
    let same = p.steps == reference.steps
        && p.final_state.len() == reference.final_state.len()
        && p.final_state
            .iter()
            .zip(&reference.final_state)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    out.check((!same).then(|| {
        format!(
            "final state differs from the rhs_threads=1 reference ({} vs {} steps)",
            p.steps, reference.steps
        )
    }));
}

/// The model under test, its workspace and the pass it must reproduce.
struct Subject {
    seed: u64,
    model: Pom,
    ws: SimWorkspace,
    reference: Pass,
}

impl Subject {
    fn pass(&mut self, trace: Option<(&Tracer, usize)>) -> Result<Pass, String> {
        pass(&self.model, self.seed, &mut self.ws, trace)
    }

    /// Run one pass and check it against the reference.
    fn checked_pass(
        &mut self,
        out: &mut Outcome,
        trace: Option<(&Tracer, usize)>,
    ) -> Result<Pass, String> {
        let p = self.pass(trace)?;
        check(out, &p, &self.reference);
        Ok(p)
    }
}

/// Timed passes until `seconds` are spent; set-up repetitions are
/// interleaved so a slow streak of the host hits both alike. Traced,
/// each pass gets a root span and its counter deltas.
fn timed_passes(
    subject: &mut Subject,
    seconds: f64,
    out: &mut Outcome,
    setups: &mut Vec<f64>,
    mut trace: Option<(&Tracer, &mut Vec<Counters>)>,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.len() < 6 || t0.elapsed().as_secs_f64() < seconds {
        let p = match trace.as_mut() {
            None => subject.checked_pass(out, None)?,
            Some((tracer, deltas)) => {
                let before = Counters::read();
                let root = tracer.open("bench.pass", None, "");
                let p = subject.checked_pass(out, Some((tracer, root)))?;
                tracer.close(root);
                deltas.push(Counters::read().since(&before));
                p
            }
        };
        passes.push(p);
        // The first set-up after a pass is cold; four keep the median on
        // the warm ones.
        for _ in 0..4 {
            setups.push(setup_s()?);
        }
    }
    Ok(passes)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: vec![
            ("rhs_threads", SIM_RHS_THREADS),
            ("reference_rhs_threads", 1),
        ],
        ..Outcome::default()
    };
    pom_obs::set_enabled(false);

    // The reference, outside the timed passes.
    let reference = pass(&build_model(1)?, run.seed, &mut SimWorkspace::new(), None)?;
    let mut subject = Subject {
        seed: run.seed,
        model: build_model(SIM_RHS_THREADS)?,
        ws: SimWorkspace::new(),
        reference,
    };
    subject.checked_pass(&mut out, None)?; // warm-up
    let mut setups = Vec::new();

    if !run.trace {
        out.obs_enabled = false;
        let passes = timed_passes(&mut subject, run.seconds, &mut out, &mut setups, None)?;
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let firsts: Vec<f64> = passes.iter().map(|p| p.first_ms).collect();
        let (heap_passes, heap) = alloc::peak_during(|| {
            (0..HEAP_PASSES)
                .map(|_| subject.pass(None))
                .collect::<Result<Vec<_>, _>>()
        });
        for p in heap_passes? {
            check(&mut out, &p, &subject.reference);
        }

        let wall = stats::fast_quarter_mean(&walls).expect("passes ran");
        out.metric("setup_s", stats::median(&setups).expect("set-ups ran"), "s");
        out.metric("wall_s", wall, "s");
        let first = stats::fast_quarter_mean(&firsts).expect("passes ran");
        out.metric("first_result_ms", first, "ms");
        // Every pass takes the same steps: the seed fixes the input.
        let steps = subject.reference.steps as f64;
        out.metric("throughput_per_s", steps / wall, "1/s");
        out.metric("peak_heap_mb", heap as f64 / (1024.0 * 1024.0), "MB");
        out.detail("pass_wall_s", samples_json(&walls));
        out.detail("first_step_ms", samples_json(&firsts));
        out.detail("setup_s", samples_json(&setups));
        out.detail("steps_per_pass", steps.to_string());
        return Ok(out);
    }

    // Traced run: half the time untraced (obs off, no spans), half traced.
    let half = run.seconds / 2.0;
    let plain = timed_passes(&mut subject, half, &mut out, &mut setups, None)?;
    pom_obs::set_enabled(true);
    out.obs_enabled = true;
    let tracer = Tracer::new();
    let mut deltas = Vec::new();
    let traced = timed_passes(
        &mut subject,
        half,
        &mut out,
        &mut setups,
        Some((&tracer, &mut deltas)),
    )?;
    let total = Counters::sum(&deltas);
    counters::report(&mut out, &total, traced.len());

    let costs = layers::probe_all(run, &tracer, &mut out)?;
    let plain_wall = stats::fast_quarter_mean(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>())
        .expect("passes");
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let traced_wall = stats::fast_quarter_mean(&traced_walls).expect("passes");
    let evals = total.rhs_evals as f64 / traced.len() as f64;
    out.metric(
        "pom-core.rhs_share",
        evals * costs.n65536_t2_us / 1e6 / traced_wall,
        "ratio",
    );
    out.metric("bench.trace_overhead_s", traced_wall - plain_wall, "s");
    not_sweep_or_serve(&mut out);
    out.detail("traced_pass_wall_s", samples_json(&traced_walls));
    out.spans = tracer.spans();
    Ok(out)
}

/// The sweep and serve per-layer metrics: this workload runs no campaign
/// and submits no job.
fn not_sweep_or_serve(out: &mut Outcome) {
    let why = "simulate_65536 runs no campaign";
    for name in [
        "pom-sweep.campaign_s.sigma_sweep",
        "pom-sweep.campaign_s.ensemble_ci",
        "pom-sweep.campaign_s.idle_wave_4096",
        "pom-sweep.point_busy_s",
    ] {
        out.absent(name, "s", why);
    }
    out.absent("pom-sweep.worker_idle_frac", "ratio", why);
    crate::serve::absent_serve_traffic(out, "simulate_65536 submits no job");
}
