//! The pom-obs counters the traced run reads, as per-pass deltas.

use pom_obs::registry;
use pom_sweep::POINT_DURATION_METRIC;

/// A snapshot of the counters the layers already keep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub rhs_evals: u64,
    pub steps: u64,
    pub steps_rejected: u64,
    pub observer_callbacks: u64,
    pub pool_jobs: u64,
    pub pool_busy_us: u64,
    pub points: u64,
    /// Summed `run_point_ws` time, from the sweep layer's point histogram.
    pub point_busy_us: u64,
    pub rows_written: u64,
    pub jobs_rejected: u64,
    pub jobs_failed: u64,
}

fn counter(name: &str) -> u64 {
    registry().counter_value(name, &[]).unwrap_or(0)
}

impl Counters {
    pub fn read() -> Self {
        Self {
            rhs_evals: counter("pom_ode_rhs_evals_total"),
            steps: counter("pom_ode_steps_total"),
            steps_rejected: counter("pom_ode_steps_rejected_total"),
            observer_callbacks: counter("pom_ode_observer_callbacks_total"),
            pool_jobs: counter("pom_kernels_pool_jobs_total"),
            pool_busy_us: counter("pom_kernels_pool_busy_us_total"),
            points: counter("pom_sweep_points_total"),
            point_busy_us: registry().histogram(POINT_DURATION_METRIC, "").sum(),
            rows_written: counter("pom_serve_rows_written_total"),
            jobs_rejected: counter("pom_serve_jobs_rejected_total"),
            jobs_failed: counter("pom_serve_jobs_failed_total"),
        }
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            rhs_evals: self.rhs_evals - earlier.rhs_evals,
            steps: self.steps - earlier.steps,
            steps_rejected: self.steps_rejected - earlier.steps_rejected,
            observer_callbacks: self.observer_callbacks - earlier.observer_callbacks,
            pool_jobs: self.pool_jobs - earlier.pool_jobs,
            pool_busy_us: self.pool_busy_us - earlier.pool_busy_us,
            points: self.points - earlier.points,
            point_busy_us: self.point_busy_us - earlier.point_busy_us,
            rows_written: self.rows_written - earlier.rows_written,
            jobs_rejected: self.jobs_rejected - earlier.jobs_rejected,
            jobs_failed: self.jobs_failed - earlier.jobs_failed,
        }
    }

    /// Field-wise sum of per-pass deltas.
    pub fn sum(deltas: &[Counters]) -> Counters {
        deltas.iter().fold(Counters::default(), |a, d| Counters {
            rhs_evals: a.rhs_evals + d.rhs_evals,
            steps: a.steps + d.steps,
            steps_rejected: a.steps_rejected + d.steps_rejected,
            observer_callbacks: a.observer_callbacks + d.observer_callbacks,
            pool_jobs: a.pool_jobs + d.pool_jobs,
            pool_busy_us: a.pool_busy_us + d.pool_busy_us,
            points: a.points + d.points,
            point_busy_us: a.point_busy_us + d.point_busy_us,
            rows_written: a.rows_written + d.rows_written,
            jobs_rejected: a.jobs_rejected + d.jobs_rejected,
            jobs_failed: a.jobs_failed + d.jobs_failed,
        })
    }
}

/// Push the counter metrics every traced run reports, from `total` counts
/// over `passes` passes: per pass, except the serve failure counts, which
/// are totals. A layer the workload does not touch counts 0. The pool's
/// imbalance p50 needs at least 20 fork-join jobs in the run, or it is
/// recorded as not exercised.
pub fn report(out: &mut crate::Outcome, total: &Counters, passes: usize) {
    let per = |n: u64| n as f64 / passes as f64;
    let (steps, rejected) = (per(total.steps), per(total.steps_rejected));
    out.metric("pom-ode.rhs_evals", per(total.rhs_evals), "count");
    out.metric("pom-ode.steps", steps, "count");
    out.metric("pom-ode.steps_rejected", rejected, "count");
    out.metric(
        "pom-ode.observer_callbacks",
        per(total.observer_callbacks),
        "count",
    );
    if steps + rejected > 0.0 {
        out.metric("pom-ode.accept_ratio", steps / (steps + rejected), "ratio");
    } else {
        out.absent("pom-ode.accept_ratio", "ratio", "no integration steps");
    }
    out.metric("pom-sweep.points", per(total.points), "count");
    out.metric("pom-serve.rows_written", per(total.rows_written), "count");
    out.metric(
        "pom-serve.jobs_rejected",
        total.jobs_rejected as f64,
        "count",
    );
    out.metric("pom-serve.jobs_failed", total.jobs_failed as f64, "count");
    out.metric("pom-kernels.pool_jobs", per(total.pool_jobs), "count");
    out.metric(
        "pom-kernels.pool_busy_s",
        per(total.pool_busy_us) / 1e6,
        "s",
    );
    let imbalance = registry().histogram("pom_kernels_pool_imbalance_us", "");
    let p50 = crate::stats::histogram_percentile(&imbalance, 50.0);
    match p50.value {
        Some(v) => out.metric("pom-kernels.pool_imbalance_us_p50", v, "us"),
        None => out.absent(
            "pom-kernels.pool_imbalance_us_p50",
            "us",
            "fewer than 20 fork-join jobs: every model of this workload runs with rhs_threads = 1",
        ),
    }
    out.detail("pom-kernels.pool_imbalance_us_p50", p50.to_json());
}
