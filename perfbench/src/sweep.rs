//! `sweep_specs`: `pom sweep threads=2 out=<file>.jsonl` over three
//! specs, one pass being the three campaigns back to back:
//! `examples/specs/sigma_sweep.toml` (18 points, N = 24, Dopri5),
//! `examples/specs/ensemble_ci.toml` (5 points × 8 lockstep replicas,
//! RK4, noise) and the benchmark's `idle_wave_4096.toml` (2 points).
//!
//! Many small points: the sweep executor, the reorder buffer, row
//! encoding, the step loop's overhead, the ensemble layer and the
//! recorded wave-observable path do most of the work.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use pom_core::SimWorkspace;
use pom_sweep::{
    run_point_ws, write_row_line, Campaign, CampaignSpec, CampaignSummary, PointRow, ResultSink,
};

use crate::counters::{self, Counters};
use crate::trace::Tracer;
use crate::{alloc, layers, samples_json, specs, stats, Outcome, Run, HEAP_PASSES, SWEEP_THREADS};

/// The campaigns of one pass: short name (used in metric names) and
/// spec path. The ensemble runs first: its point cost does not depend on the seed
/// (fixed-step RK4), so the pass's first row does not either.
const CAMPAIGNS: [(&str, &str); 3] = [
    ("ensemble_ci", specs::ENSEMBLE_CI),
    ("idle_wave_4096", specs::IDLE_WAVE_4096),
    ("sigma_sweep", specs::SIGMA_SWEEP),
];

struct Job {
    name: &'static str,
    campaign: Campaign,
    out: PathBuf,
    /// The `threads = 1` output, line by line.
    reference: Vec<String>,
}

/// Forwards to the file sink; notes when the first row of the pass
/// reaches it and, traced, records a span around each row write.
struct Watch<'a> {
    inner: &'a mut dyn ResultSink,
    first_row: &'a mut Option<Instant>,
    trace: Option<(&'a Tracer, usize)>,
}

impl ResultSink for Watch<'_> {
    fn begin(&mut self, spec: &CampaignSpec) -> io::Result<()> {
        self.inner.begin(spec)
    }
    fn row(&mut self, row: &PointRow) -> io::Result<()> {
        let start = Instant::now();
        self.first_row.get_or_insert(start);
        let r = self.inner.row(row);
        if let Some((tracer, parent)) = self.trace {
            let job = format!("point {}", row.index);
            tracer.record(
                "pom-sweep.JsonlSink::row",
                Some(parent),
                &job,
                start,
                Instant::now(),
            );
        }
        r
    }
    fn end(&mut self, summary: &CampaignSummary) -> io::Result<()> {
        self.inner.end(summary)
    }
}

/// One user's set-up: read and parse the three specs, open the sinks.
fn setup(run: &Run) -> Result<(f64, Vec<(Campaign, PathBuf)>), String> {
    let t0 = Instant::now();
    let mut opened = Vec::new();
    for (name, path) in CAMPAIGNS {
        let text = specs::load(path, run.seed)?;
        let campaign = Campaign::from_str(&text).map_err(|e| e.to_string())?;
        let out = run.tmp.join(format!("{name}.jsonl"));
        let sink = campaign
            .jsonl_file_sink(&out, SWEEP_THREADS, false)
            .map_err(|e| e.to_string())?;
        drop(sink);
        opened.push((campaign, out));
    }
    Ok((t0.elapsed().as_secs_f64(), opened))
}

struct Pass {
    wall_s: f64,
    first_ms: f64,
    campaign_s: Vec<f64>,
}

/// Run the three campaigns once; `trace` adds spans and per-campaign
/// counter deltas.
fn pass(jobs: &[Job], trace: Option<(&Tracer, &mut Vec<Counters>)>) -> Result<Pass, String> {
    let mut first_row = None;
    let mut campaign_s = Vec::new();
    let mut trace = trace;
    let root = trace.as_ref().map(|(t, _)| t.open("bench.pass", None, ""));
    let t0 = Instant::now();
    for job in jobs {
        let c0 = Instant::now();
        let before = Counters::read();
        let (mut file, opts) = job
            .campaign
            .jsonl_file_sink(&job.out, SWEEP_THREADS, false)
            .map_err(|e| e.to_string())?;
        let span = trace.as_ref().zip(root).map(|((t, _), root)| {
            (
                *t,
                t.open(
                    &format!("pom-sweep.Campaign::run.{}", job.name),
                    Some(root),
                    job.name,
                ),
            )
        });
        let mut sink = Watch {
            inner: &mut file,
            first_row: &mut first_row,
            trace: span,
        };
        job.campaign
            .run(&opts, &mut sink)
            .map_err(|e| e.to_string())?;
        if let Some((t, id)) = span {
            t.close(id);
        }
        if let Some((_, deltas)) = trace.as_mut() {
            deltas.push(Counters::read().since(&before));
        }
        campaign_s.push(c0.elapsed().as_secs_f64());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let (Some((t, _)), Some(root)) = (trace.as_ref(), root) {
        t.close(root);
    }
    let first = first_row.ok_or("the pass produced no row")?;
    Ok(Pass {
        wall_s,
        first_ms: (first - t0).as_secs_f64() * 1e3,
        campaign_s,
    })
}

/// Compare each campaign's output file with its `threads = 1` reference,
/// row by row (outside the timed pass).
fn check(out: &mut Outcome, jobs: &[Job]) -> Result<(), String> {
    for job in jobs {
        let text = std::fs::read_to_string(&job.out).map_err(|e| e.to_string())?;
        let lines: Vec<&str> = text.lines().collect();
        if lines.first() != job.reference.first().map(String::as_str).as_ref() {
            out.check(Some(format!(
                "{}: header differs from the reference",
                job.name
            )));
        }
        for (i, want) in job.reference.iter().enumerate().skip(1) {
            let got = lines.get(i).copied();
            let err = if got != Some(want.as_str()) {
                Some(format!(
                    "{}: row {} differs from the threads=1 reference",
                    job.name,
                    i - 1
                ))
            } else if want.contains("\"error\":") {
                Some(format!("{}: row {} reports an error", job.name, i - 1))
            } else {
                None
            };
            out.check(err);
        }
        if lines.len() != job.reference.len() {
            out.check(Some(format!(
                "{}: {} lines, reference has {}",
                job.name,
                lines.len(),
                job.reference.len()
            )));
        }
    }
    Ok(())
}

fn timed_passes(
    run: &Run,
    seconds: f64,
    jobs: &[Job],
    out: &mut Outcome,
    setups: &mut Vec<f64>,
    mut trace: Option<(&Tracer, &mut Vec<Counters>)>,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.len() < 6 || t0.elapsed().as_secs_f64() < seconds {
        let p = match trace.as_mut() {
            None => pass(jobs, None)?,
            Some((t, d)) => pass(jobs, Some((*t, &mut **d)))?,
        };
        check(out, jobs)?;
        passes.push(p);
        for _ in 0..3 {
            setups.push(setup(run)?.0);
        }
    }
    Ok(passes)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: vec![
            ("sweep_threads", SWEEP_THREADS),
            ("rhs_threads", 1),
            ("reference_sweep_threads", 1),
        ],
        ..Outcome::default()
    };
    pom_obs::set_enabled(false);

    let (_, opened) = setup(run)?;
    let mut jobs = Vec::new();
    for ((campaign, path), (name, _)) in opened.into_iter().zip(CAMPAIGNS) {
        // The reference, outside the timed passes.
        let reference = campaign
            .run_jsonl_string(1)
            .map_err(|e| e.to_string())?
            .lines()
            .map(str::to_string)
            .collect();
        jobs.push(Job {
            name,
            campaign,
            out: path,
            reference,
        });
    }
    let rows_per_pass: usize = jobs.iter().map(|j| j.campaign.total_points()).sum();
    pass(&jobs, None)?; // warm-up
    check(&mut out, &jobs)?;
    let mut setups = Vec::new();

    if !run.trace {
        out.obs_enabled = false;
        let passes = timed_passes(run, run.seconds, &jobs, &mut out, &mut setups, None)?;
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let firsts: Vec<f64> = passes.iter().map(|p| p.first_ms).collect();
        let (heap_passes, heap) = alloc::peak_during(|| {
            (0..HEAP_PASSES)
                .map(|_| pass(&jobs, None))
                .collect::<Result<Vec<_>, _>>()
        });
        heap_passes?;
        check(&mut out, &jobs)?;

        let wall = stats::fast_quarter_mean(&walls).expect("passes");
        out.metric("setup_s", stats::median(&setups).expect("setups"), "s");
        out.metric("wall_s", wall, "s");
        out.metric(
            "first_result_ms",
            stats::fast_quarter_mean(&firsts).expect("passes"),
            "ms",
        );
        out.metric("throughput_per_s", rows_per_pass as f64 / wall, "1/s");
        out.metric("peak_heap_mb", heap as f64 / (1024.0 * 1024.0), "MB");
        out.detail("pass_wall_s", samples_json(&walls));
        out.detail("first_row_ms", samples_json(&firsts));
        out.detail("setup_s", samples_json(&setups));
        out.detail("points_per_pass", rows_per_pass.to_string());
        return Ok(out);
    }

    // Traced run: half the time untraced (obs off, no spans), half traced.
    let half = run.seconds / 2.0;
    let plain = timed_passes(run, half, &jobs, &mut out, &mut setups, None)?;
    pom_obs::set_enabled(true);
    out.obs_enabled = true;
    let tracer = Tracer::new();
    let mut deltas = Vec::new();
    let traced = timed_passes(
        run,
        half,
        &jobs,
        &mut out,
        &mut setups,
        Some((&tracer, &mut deltas)),
    )?;
    let total = Counters::sum(&deltas);
    let busy_s = total.point_busy_us as f64 / 1e6 / traced.len() as f64;
    counters::report(&mut out, &total, traced.len());

    // Re-drive every point through `run_point_ws` and `write_row_line`
    // with a span each; the row must equal the campaign's own.
    let redrive = tracer.open("bench.redrive", None, "");
    let mut ws = SimWorkspace::new();
    let mut buf = Vec::new();
    for job in &jobs {
        for i in 0..job.campaign.total_points() {
            let id = format!("{} point {i}", job.name);
            let (row, _) = tracer.time("pom-sweep.run_point_ws", Some(redrive), &id, || {
                run_point_ws(&job.campaign.spec, i, &mut ws)
            });
            buf.clear();
            tracer
                .time("pom-sweep.write_row_line", Some(redrive), &id, || {
                    write_row_line(&mut buf, &row)
                })
                .0
                .map_err(|e| e.to_string())?;
            let line = String::from_utf8_lossy(&buf);
            let same = job.reference.get(i + 1).map(String::as_str) == Some(line.trim_end());
            out.check((!same).then(|| format!("{id}: re-driven row differs")));
        }
    }
    tracer.close(redrive);

    let costs = layers::probe_all(run, &tracer, &mut out)?;
    let per_campaign = |k: usize| -> Vec<f64> { traced.iter().map(|p| p.campaign_s[k]).collect() };
    for (k, (name, _)) in CAMPAIGNS.iter().enumerate() {
        let t = stats::fast_quarter_mean(&per_campaign(k)).expect("passes");
        out.metric(&format!("pom-sweep.campaign_s.{name}"), t, "s");
    }
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let traced_wall = stats::fast_quarter_mean(&traced_walls).expect("passes");
    let plain_wall = stats::fast_quarter_mean(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>())
        .expect("passes");
    let mean_wall = traced_walls.iter().sum::<f64>() / traced_walls.len() as f64;
    out.metric("pom-sweep.point_busy_s", busy_s, "s");
    out.metric(
        "pom-sweep.worker_idle_frac",
        1.0 - busy_s / (SWEEP_THREADS as f64 * mean_wall),
        "ratio",
    );
    // RHS time per pass: each campaign's evaluations at its model's cost.
    let passes = traced.len() as f64;
    let evals = |k: usize| -> f64 {
        deltas
            .iter()
            .skip(k)
            .step_by(CAMPAIGNS.len())
            .map(|d| d.rhs_evals as f64)
            .sum::<f64>()
            / passes
    };
    let eval_us = |name: &str| match name {
        "ensemble_ci" => costs.n32_r8_us,
        "idle_wave_4096" => costs.n4096_us,
        _ => costs.n24_us,
    };
    let rhs_s: f64 = CAMPAIGNS
        .iter()
        .enumerate()
        .map(|(k, (name, _))| evals(k) * eval_us(name) / 1e6)
        .sum();
    out.metric("pom-core.rhs_share", rhs_s / busy_s, "ratio");
    out.metric("bench.trace_overhead_s", traced_wall - plain_wall, "s");
    crate::serve::absent_serve_traffic(&mut out, "sweep_specs submits no job to the daemon");
    out.detail("traced_pass_wall_s", samples_json(&traced_walls));
    out.spans = tracer.spans();
    Ok(out)
}
