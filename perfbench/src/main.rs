//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_specs --seed 1 --seconds 15 --trace 0
//! ```
//!
//! from the repository root. The last line of standard output is one JSON
//! object `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The full report (host block, thread counts, sample counts,
//! percentiles, spans) goes to `.perfbench/` and a summary to standard
//! error. See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod counters;
mod http;
mod layers;
mod serve;
mod simulate;
mod specs;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::Span;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every thread count the benchmark sets. None is 0 ("all cores"), and
/// none exceeds the two CPUs the benchmark is sized for.
pub const SWEEP_THREADS: usize = 2;
pub const SIM_RHS_THREADS: usize = 2;
pub const SERVE_THREADS: usize = 2;
pub const SERVE_CLIENTS: usize = 2;

/// `peak_heap_mb` is the peak over this many untimed passes: the peak of
/// one pass depends on how the worker threads' allocations happen to
/// overlap, and a few passes bring that closer to its worst case.
pub const HEAP_PASSES: usize = 3;

/// What one run was asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub tmp: PathBuf,
}

/// A workload's result: the operations it checked and the metrics it
/// measured, plus report details.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics this workload's own work does not exercise:
    /// reported as 0, with the reason.
    pub not_exercised: Vec<(String, String)>,
    pub threads: Vec<(&'static str, usize)>,
    pub obs_enabled: bool,
    /// Extra report fields: key → JSON value.
    pub details: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A per-layer metric the workload does not exercise.
    pub fn absent(&mut self, name: &str, unit: &'static str, reason: &str) {
        self.metric(name, 0.0, unit);
        self.not_exercised
            .push((name.to_string(), reason.to_string()));
    }

    /// Count one checked operation; `err` describes a failure.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }

    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    pom_sweep::value::write_json_str(s, &mut out);
    out
}

/// The metrics as the members of a JSON object. A non-finite value (which
/// the metric-set gate already failed) is written as 0 to keep the line
/// valid JSON.
fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(n), json_str(u))
        })
        .collect();
    members.join(",")
}

/// Samples as a JSON array with their count, for the report.
pub fn samples_json(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("{{\"n\":{},\"values\":[{}]}}", xs.len(), body.join(","))
}

const WORKLOADS: [&str; 3] = ["sweep_specs", "simulate_65536", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// The `(name, unit)` list of `section` in `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let root = pom_sweep::parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = root
        .get(section)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|v| v.as_str());
            let unit = m.get("unit").and_then(|v| v.as_str());
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json `{section}` entry lacks name/unit")),
            }
        })
        .collect()
}

/// The metric-set gate: a run reports exactly the metrics declared for
/// its mode, with the declared units; end-to-end values are finite and
/// positive; a per-layer metric the workload does not exercise is 0.
fn check_metric_set(out: &Outcome, trace: bool) -> Result<(), String> {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let declared = declared_metrics(section)?;
    let mut problems = Vec::new();
    for (name, unit) in &declared {
        match out.metrics.iter().find(|(n, _, _)| n == name) {
            None => problems.push(format!("`{name}` not measured")),
            Some((_, v, u)) => {
                if u != unit {
                    problems.push(format!("`{name}` in {u}, declared {unit}"));
                }
                if !v.is_finite() || (!trace && *v <= 0.0) {
                    problems.push(format!("`{name}` = {v}"));
                }
            }
        }
    }
    for (name, _, _) in &out.metrics {
        if !declared.iter().any(|(n, _)| n == name) {
            problems.push(format!("`{name}` is not a declared {section} metric"));
        }
    }
    for (name, _) in &out.not_exercised {
        if let Some((_, v, _)) = out.metrics.iter().find(|(n, _, _)| n == name) {
            if *v != 0.0 {
                problems.push(format!(
                    "`{name}` = {v} but the workload does not exercise it"
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// `rustc -V`, as the toolchain on `PATH` reports it.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` without leaving it;
/// `"unknown"` when the checkout is not a git repository.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// The host block every report carries.
fn host_json(out: &Outcome) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let simd =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    let threads: Vec<String> = out
        .threads
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!(
        "{{\"available_parallelism\":{cpus},\"avx2_fma\":{simd},\"rustc\":{},\"git_rev\":{},\
         \"pom_obs_enabled\":{},\"threads\":{{{}}}}}",
        json_str(&rustc_version()),
        json_str(&git_rev()),
        out.obs_enabled,
        threads.join(",")
    )
}

fn report_json(
    args: &Args,
    host: &str,
    out: &Outcome,
    correct: bool,
    gate: &Result<(), String>,
) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"correct\":{correct},\"attempted\":{},\"failed\":{},",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host,
        out.attempted,
        out.failed
    );
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    let _ = write!(s, "\"failures\":[{}],", failures.join(","));
    let gate = match gate {
        Ok(()) => "null".to_string(),
        Err(e) => json_str(e),
    };
    let _ = write!(s, "\"metric_set_error\":{gate},");
    let metrics = metrics_json(&out.metrics);
    let _ = write!(s, "\"metrics\":{{{metrics}}},");
    let absent: Vec<String> = out
        .not_exercised
        .iter()
        .map(|(n, why)| format!("{}:{}", json_str(n), json_str(why)))
        .collect();
    let _ = write!(s, "\"not_exercised\":{{{}}}", absent.join(","));
    for (k, v) in &out.details {
        let _ = write!(s, ",{}:{v}", json_str(k));
    }
    if args.trace {
        let layers: Vec<String> = trace::self_time_by_layer(&out.spans)
            .iter()
            .map(|(l, t)| format!("{}:{t}", json_str(l)))
            .collect();
        let _ = write!(
            s,
            ",\"self_s_by_layer\":{{{}}},\"spans\":{}",
            layers.join(","),
            trace::spans_json(&out.spans)
        );
    }
    s.push('}');
    s
}

fn run(args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp: tmp.to_path_buf(),
    };
    match args.workload.as_str() {
        "sweep_specs" => sweep::run(&run),
        "simulate_65536" => simulate::run(&run),
        "serve_mixed" => serve::run(&run),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let result = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let gate = check_metric_set(&out, args.trace);
    let correct = out.failed == 0 && gate.is_ok();
    let host = host_json(&out);
    let report = report_json(&args, &host, &out, correct, &gate);
    let report_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("perfbench: cannot write {}: {e}", report_path.display());
    }

    eprintln!("perfbench: report in {}", report_path.display());
    eprintln!("perfbench: host {host}");
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    if let Err(e) = &gate {
        eprintln!("perfbench: metric set: {e}");
    }
    for (n, v, u) in &out.metrics {
        eprintln!("perfbench:   {n:<40} {v:>14.6} {u}");
    }

    let metrics = metrics_json(&out.metrics);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted, out.failed, metrics
    );
    ExitCode::SUCCESS
}
