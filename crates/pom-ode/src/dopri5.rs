//! Dormand–Prince explicit Runge–Kutta 5(4) with adaptive step control.
//!
//! This is the same integrator family as MATLAB's `ode45`, which the paper
//! uses to solve the oscillator model (§3.2: "a robust explicit Runge-Kutta
//! (4,5) method (Dormand-Prince)"). The implementation follows Hairer,
//! Nørsett & Wanner, *Solving Ordinary Differential Equations I* (DOPRI5):
//!
//! * the RK5(4)7M coefficient set with the FSAL ("first same as last")
//!   property — 6 fresh RHS evaluations per accepted step,
//! * embedded 4th-order error estimate with mixed absolute/relative
//!   weighting,
//! * PI (proportional–integral) step-size controller with the standard
//!   safety/clamp constants,
//! * automatic initial step-size selection (Hairer's `hinit`),
//! * fourth-order dense output collected into a [`DenseSolution`].
//!
//! A step attempt — six fresh stages plus the error norm — is one call of
//! `attempt_rows` over a block of rows. Serially that block is every row.
//! For a system with a row team ([`OdeSystem::row_team`]) each attempt
//! is one team job: every member combines, prepares
//! ([`OdeSystem::prepare_rows`]) and evaluates
//! ([`OdeSystem::eval_rows`]) its own rows, meeting the
//! others at two barriers per stage, and writes its `(e/sc)²` terms into
//! the dead stage buffer. The leader sums those terms in ascending index
//! order, so the error norm, the step sequence and the solution are
//! bitwise identical for every team size. The team is installed
//! ([`pom_kernels::par::ChunkPool::install`]) for the whole
//! integration, so observers can use it too.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pom_kernels::par::{DisjointSliceMut, TeamMember};

use crate::dense::{DenseSegment, DenseSolution};
use crate::error::OdeError;
use crate::observe::{ObservedSummary, StepObserver};
use crate::workspace::Workspace;
use crate::{OdeSystem, RowTeam};

// --- Butcher tableau (RK5(4)7M, Dormand & Prince 1980) ---

const C2: f64 = 1.0 / 5.0;
const C3: f64 = 3.0 / 10.0;
const C4: f64 = 4.0 / 5.0;
const C5: f64 = 8.0 / 9.0;

const A21: f64 = 1.0 / 5.0;
const A31: f64 = 3.0 / 40.0;
const A32: f64 = 9.0 / 40.0;
const A41: f64 = 44.0 / 45.0;
const A42: f64 = -56.0 / 15.0;
const A43: f64 = 32.0 / 9.0;
const A51: f64 = 19372.0 / 6561.0;
const A52: f64 = -25360.0 / 2187.0;
const A53: f64 = 64448.0 / 6561.0;
const A54: f64 = -212.0 / 729.0;
const A61: f64 = 9017.0 / 3168.0;
const A62: f64 = -355.0 / 33.0;
const A63: f64 = 46732.0 / 5247.0;
const A64: f64 = 49.0 / 176.0;
const A65: f64 = -5103.0 / 18656.0;
// Row 7 doubles as the 5th-order weights b_i (FSAL).
const A71: f64 = 35.0 / 384.0;
const A73: f64 = 500.0 / 1113.0;
const A74: f64 = 125.0 / 192.0;
const A75: f64 = -2187.0 / 6784.0;
const A76: f64 = 11.0 / 84.0;

// Error coefficients e_i = b_i − b̂_i (5th minus embedded 4th order).
const E1: f64 = 71.0 / 57600.0;
const E3: f64 = -71.0 / 16695.0;
const E4: f64 = 71.0 / 1920.0;
const E5: f64 = -17253.0 / 339200.0;
const E6: f64 = 22.0 / 525.0;
const E7: f64 = -1.0 / 40.0;

// Dense-output coefficients (Hairer's D array).
const D1: f64 = -12715105075.0 / 11282082432.0;
const D3: f64 = 87487479700.0 / 32700410799.0;
const D4: f64 = -10690763975.0 / 1880347072.0;
const D5: f64 = 701980252875.0 / 199316789632.0;
const D6: f64 = -1453857185.0 / 822651844.0;
const D7: f64 = 69997945.0 / 29380423.0;

// PI controller constants (Hairer's defaults for DOPRI5).
const BETA: f64 = 0.04;
const EXPO1: f64 = 0.2 - BETA * 0.75;
const SAFETY: f64 = 0.9;
/// Maximum step-decrease factor: h may shrink by at most 1/FAC1_INV.
const FAC1_INV: f64 = 5.0;
/// Maximum step-increase factor.
const FAC2: f64 = 10.0;

/// Counters describing the work an integration performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of RHS evaluations.
    pub n_eval: usize,
    /// Number of accepted steps.
    pub n_accepted: usize,
    /// Number of rejected steps.
    pub n_rejected: usize,
}

/// Adaptive Dormand–Prince 5(4) integrator (builder-style configuration).
///
/// ```
/// use pom_ode::{FnSystem, dopri5::Dopri5};
/// let sys = FnSystem::new(2, |_t, y, d| { d[0] = y[1]; d[1] = -y[0]; });
/// let sol = Dopri5::new().rtol(1e-8).atol(1e-8)
///     .integrate(&sys, 0.0, &[1.0, 0.0], std::f64::consts::TAU)
///     .unwrap();
/// // One full period of the harmonic oscillator returns to the start.
/// assert!((sol.y_end()[0] - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Dopri5 {
    rtol: f64,
    atol: f64,
    h0: Option<f64>,
    h_max: Option<f64>,
    max_steps: usize,
}

impl Default for Dopri5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Dopri5 {
    /// Integrator with default tolerances `rtol = atol = 1e-6`.
    pub fn new() -> Self {
        Self {
            rtol: 1e-6,
            atol: 1e-6,
            h0: None,
            h_max: None,
            max_steps: 1_000_000,
        }
    }

    /// Relative tolerance (per component).
    pub fn rtol(mut self, rtol: f64) -> Self {
        self.rtol = rtol;
        self
    }

    /// Absolute tolerance (per component).
    pub fn atol(mut self, atol: f64) -> Self {
        self.atol = atol;
        self
    }

    /// Fix the initial step size instead of estimating it.
    pub fn h0(mut self, h0: f64) -> Self {
        self.h0 = Some(h0);
        self
    }

    /// Upper bound on the step size (default: the whole span).
    pub fn h_max(mut self, h_max: f64) -> Self {
        self.h_max = Some(h_max);
        self
    }

    /// Step budget before the solver gives up (default 10⁶).
    pub fn max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    fn validate(&self) -> Result<(), OdeError> {
        for (name, v) in [("rtol", self.rtol), ("atol", self.atol)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(OdeError::InvalidParameter { name, value: v });
            }
        }
        if let Some(h0) = self.h0 {
            if !(h0.is_finite() && h0 > 0.0) {
                return Err(OdeError::InvalidParameter {
                    name: "h0",
                    value: h0,
                });
            }
        }
        if let Some(hm) = self.h_max {
            if !(hm.is_finite() && hm > 0.0) {
                return Err(OdeError::InvalidParameter {
                    name: "h_max",
                    value: hm,
                });
            }
        }
        Ok(())
    }

    /// Integrate `sys` from `(t0, y0)` to `t_end`, returning the dense
    /// solution (sampleable anywhere in the span) and work counters.
    ///
    /// Thin wrapper over [`Dopri5::integrate_with`] that allocates a fresh
    /// [`Workspace`] per call.
    pub fn integrate_with_stats(
        &self,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<(DenseSolution, SolverStats), OdeError> {
        self.integrate_with(sys, t0, y0, t_end, &mut Workspace::new())
    }

    /// Integrate with caller-provided scratch memory and a monomorphized
    /// right-hand side — the fast path.
    ///
    /// The step loop itself is allocation-free; the only per-step
    /// allocation left is the dense-output segment pushed for each
    /// *accepted* step, which is the product of the integration (one flat
    /// coefficient vector per segment). Results are bitwise identical to
    /// [`Dopri5::integrate_with_stats`] regardless of workspace reuse.
    pub fn integrate_with<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        ws: &mut Workspace,
    ) -> Result<(DenseSolution, SolverStats), OdeError> {
        self.validate()?;
        let n = sys.dim();
        if y0.len() != n {
            return Err(OdeError::DimensionMismatch {
                expected: n,
                got: y0.len(),
            });
        }
        // Deliberate negation: also rejects NaN endpoints.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(t_end > t0) {
            return Err(OdeError::EmptySpan { t0, t_end });
        }

        let span = t_end - t0;
        let h_max = self.h_max.unwrap_or(span).min(span);
        let mut stats = SolverStats::default();

        let (stage, drive) = ws.split();
        let [mut k1, k2, k3, k4, k5, k6, mut k7, y_stage, mut y_new] = stage.slices::<9>(n);
        let [mut y, probe_y, probe_f] = drive.slices::<3>(n);

        let mut t = t0;
        y.copy_from_slice(y0);

        sys.eval(t, y, k1);
        stats.n_eval += 1;
        check_finite(t, k1)?;

        let mut h = match self.h0 {
            Some(h0) => h0.min(h_max),
            None => {
                let h = self.hinit(sys, t, y, k1, h_max, probe_y, probe_f, &mut stats)?;
                check_finite(t, k1)?;
                h
            }
        };

        let mut segments: Vec<DenseSegment> = Vec::new();
        let mut fac_old: f64 = 1e-4;
        let mut last_rejected = false;

        with_row_team(sys, |team| {
            loop {
                if t >= t_end {
                    break;
                }
                if stats.n_accepted + stats.n_rejected >= self.max_steps {
                    return Err(OdeError::TooManySteps {
                        t_reached: t,
                        max_steps: self.max_steps,
                    });
                }
                // Don't overshoot; also avoid a microscopic final step by
                // stretching slightly when within 1% of the end.
                if t + 1.01 * h >= t_end {
                    h = t_end - t;
                }
                if h <= f64::EPSILON * t.abs().max(1.0) {
                    return Err(OdeError::StepSizeUnderflow { t, h });
                }

                // --- the 6 fresh stages and the error norm ---
                let k = [
                    &mut *k1, &mut *k2, &mut *k3, &mut *k4, &mut *k5, &mut *k6, &mut *k7,
                ];
                let err = self.attempt(sys, team, t, h, y, k, y_stage, y_new)?;
                stats.n_eval += 6;

                // --- PI controller ---
                let fac11 = err.powf(EXPO1);
                let fac = (fac11 / fac_old.powf(BETA) / SAFETY).clamp(1.0 / FAC2, FAC1_INV);
                let h_new = h / fac;

                if err <= 1.0 {
                    // Accept: build the dense-output segment for [t, t+h] —
                    // one flat 5×n coefficient vector, the segment's storage.
                    fac_old = err.max(1e-4);
                    let mut rcont = vec![0.0; 5 * n];
                    for i in 0..n {
                        let ydiff = y_new[i] - y[i];
                        let bspl = h * k1[i] - ydiff;
                        rcont[i] = y[i];
                        rcont[n + i] = ydiff;
                        rcont[2 * n + i] = bspl;
                        rcont[3 * n + i] = ydiff - h * k7[i] - bspl;
                        rcont[4 * n + i] = h
                            * (D1 * k1[i]
                                + D3 * k3[i]
                                + D4 * k4[i]
                                + D5 * k5[i]
                                + D6 * k6[i]
                                + D7 * k7[i]);
                    }
                    segments.push(DenseSegment::from_flat(t, h, n, rcont));

                    t += h;
                    std::mem::swap(&mut y, &mut y_new);
                    std::mem::swap(&mut k1, &mut k7); // FSAL: swap the slice handles
                    stats.n_accepted += 1;

                    h = if last_rejected { h_new.min(h) } else { h_new }.min(h_max);
                    last_rejected = false;
                } else {
                    stats.n_rejected += 1;
                    last_rejected = true;
                    h /= (fac11 / SAFETY).min(FAC1_INV);
                }
            }
            Ok(())
        })?;

        let sol = DenseSolution::new(n, t0, t_end, y0.to_vec(), y.to_vec(), segments);
        crate::obs::flush_integration(
            stats.n_accepted as u64,
            stats.n_rejected as u64,
            stats.n_eval as u64,
            0,
        );
        Ok((sol, stats))
    }

    /// Integrate without building a dense solution, streaming every
    /// *accepted* step to `obs` — the O(N)-memory fast path.
    ///
    /// [`Dopri5::integrate_with`] allocates one 5×n dense-output segment
    /// per accepted step (that is the product of the integration); for
    /// long-horizon observable extraction those segments are the memory
    /// bound. This driver runs the identical step-control arithmetic
    /// (same stages, same error norm, same PI controller — the accepted
    /// step sequence and the final state are bitwise identical to the
    /// recording path, asserted by the property suite) but keeps nothing
    /// per step. Rejected step attempts are invisible to the observer.
    pub fn integrate_observed<S: OdeSystem + ?Sized, O: StepObserver>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        ws: &mut Workspace,
        obs: &mut O,
    ) -> Result<(ObservedSummary, SolverStats), OdeError> {
        self.validate()?;
        let n = sys.dim();
        if y0.len() != n {
            return Err(OdeError::DimensionMismatch {
                expected: n,
                got: y0.len(),
            });
        }
        // Deliberate negation: also rejects NaN endpoints.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(t_end > t0) {
            return Err(OdeError::EmptySpan { t0, t_end });
        }

        let span = t_end - t0;
        let h_max = self.h_max.unwrap_or(span).min(span);
        let mut stats = SolverStats::default();

        let (stage, drive) = ws.split();
        let [mut k1, k2, k3, k4, k5, k6, mut k7, y_stage, mut y_new] = stage.slices::<9>(n);
        let [mut y, probe_y, probe_f] = drive.slices::<3>(n);

        let mut t = t0;
        y.copy_from_slice(y0);

        sys.eval(t, y, k1);
        stats.n_eval += 1;
        check_finite(t, k1)?;

        let mut h = match self.h0 {
            Some(h0) => h0.min(h_max),
            None => {
                let h = self.hinit(sys, t, y, k1, h_max, probe_y, probe_f, &mut stats)?;
                check_finite(t, k1)?;
                h
            }
        };

        let mut fac_old: f64 = 1e-4;
        let mut last_rejected = false;

        with_row_team(sys, |team| {
            obs.begin(t0, y);
            loop {
                if t >= t_end {
                    break;
                }
                if stats.n_accepted + stats.n_rejected >= self.max_steps {
                    return Err(OdeError::TooManySteps {
                        t_reached: t,
                        max_steps: self.max_steps,
                    });
                }
                if t + 1.01 * h >= t_end {
                    h = t_end - t;
                }
                if h <= f64::EPSILON * t.abs().max(1.0) {
                    return Err(OdeError::StepSizeUnderflow { t, h });
                }

                // --- the 6 fresh stages and the error norm ---
                let k = [
                    &mut *k1, &mut *k2, &mut *k3, &mut *k4, &mut *k5, &mut *k6, &mut *k7,
                ];
                let err = self.attempt(sys, team, t, h, y, k, y_stage, y_new)?;
                stats.n_eval += 6;

                // --- PI controller ---
                let fac11 = err.powf(EXPO1);
                let fac = (fac11 / fac_old.powf(BETA) / SAFETY).clamp(1.0 / FAC2, FAC1_INV);
                let h_new = h / fac;

                if err <= 1.0 {
                    // Accept: no dense segment — the observer is the output.
                    fac_old = err.max(1e-4);
                    t += h;
                    std::mem::swap(&mut y, &mut y_new);
                    std::mem::swap(&mut k1, &mut k7); // FSAL: swap the slice handles
                    stats.n_accepted += 1;
                    obs.observe_step(t, y);

                    h = if last_rejected { h_new.min(h) } else { h_new }.min(h_max);
                    last_rejected = false;
                } else {
                    stats.n_rejected += 1;
                    last_rejected = true;
                    h /= (fac11 / SAFETY).min(FAC1_INV);
                }
            }
            obs.finish(t, y);
            Ok(())
        })?;

        // begin + every accepted step + finish observer callbacks.
        crate::obs::flush_integration(
            stats.n_accepted as u64,
            stats.n_rejected as u64,
            stats.n_eval as u64,
            stats.n_accepted as u64 + 2,
        );
        Ok((
            ObservedSummary {
                t_end: t,
                n_steps: stats.n_accepted,
                n_eval: stats.n_eval,
                y_end: y.to_vec(),
            },
            stats,
        ))
    }

    /// Integrate, discarding the statistics.
    pub fn integrate(
        &self,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<DenseSolution, OdeError> {
        self.integrate_with_stats(sys, t0, y0, t_end)
            .map(|(s, _)| s)
    }

    /// One step attempt from `(t, y)` with step `h`: the six fresh stages
    /// into `k[1..7]` and `y_new`, and the weighted RMS error norm. With a
    /// row team the attempt is one team job; otherwise it runs inline over
    /// every row. Both drivers step through here.
    #[allow(clippy::too_many_arguments)]
    fn attempt<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        team: Option<RowTeam<'_>>,
        t: f64,
        h: f64,
        y: &[f64],
        k: [&mut [f64]; 7],
        y_stage: &mut [f64],
        y_new: &mut [f64],
    ) -> Result<f64, OdeError> {
        let n = y.len();
        let tol = (self.atol, self.rtol);
        let b = StepBufs {
            y,
            k: k.map(DisjointSliceMut::new),
            y_stage: DisjointSliceMut::new(y_stage),
            y_new: DisjointSliceMut::new(y_new),
        };
        let (lead_sum, lead_end) = match team {
            // SAFETY: a single member owning every row.
            None => (
                unsafe { attempt_rows(&Whole(sys), &b, 0..n, (t, h), tol, false) },
                n,
            ),
            Some(RowTeam { team, sys }) => {
                // The leader (slot 0, this thread) owns the first block:
                // it sums its own terms while the others store theirs.
                // Only this thread touches the two cells, so `Relaxed`.
                let lead_sum = AtomicU64::new(0);
                let lead_end = AtomicUsize::new(0);
                team.run_team(n, &|member| {
                    let rows = member.range();
                    let ev = Split { sys, member };
                    let leader = member.slot() == 0;
                    // SAFETY: members own the disjoint blocks of
                    // `run_team`, and `Split` puts barriers between the
                    // phases of every stage.
                    let sum = unsafe { attempt_rows(&ev, &b, rows.clone(), (t, h), tol, !leader) };
                    if leader {
                        lead_sum.store(sum.to_bits(), Ordering::Relaxed);
                        lead_end.store(rows.end, Ordering::Relaxed);
                    }
                });
                (f64::from_bits(lead_sum.into_inner()), lead_end.into_inner())
            }
        };
        // SAFETY: the job has joined; nothing else borrows the buffers.
        let (rest, k7) = unsafe { (b.y_stage.range(lead_end..n), b.k[6].range(0..n)) };
        let mut err_sq = lead_sum;
        for &term in rest {
            err_sq += term;
        }
        // A non-finite k7 makes its term, hence the sum, non-finite, so a
        // finite sum needs no scan.
        if !err_sq.is_finite() {
            check_finite(t, k7)?;
        }
        Ok((err_sq / n as f64).sqrt())
    }

    /// Hairer's automatic initial-step heuristic: pick h so that an Euler
    /// step stays small relative to the solution scale, refined by a
    /// second-derivative estimate. `probe_y`/`probe_f` are scratch for the
    /// Euler probe.
    #[allow(clippy::too_many_arguments)]
    fn hinit<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        f0: &[f64],
        h_max: f64,
        probe_y: &mut [f64],
        probe_f: &mut [f64],
        stats: &mut SolverStats,
    ) -> Result<f64, OdeError> {
        let n = y0.len();
        let mut dnf = 0.0;
        let mut dny = 0.0;
        for i in 0..n {
            let sk = self.atol + self.rtol * y0[i].abs();
            dnf += (f0[i] / sk) * (f0[i] / sk);
            dny += (y0[i] / sk) * (y0[i] / sk);
        }
        let mut h = if dnf <= 1e-10 || dny <= 1e-10 {
            1e-6
        } else {
            (dny / dnf).sqrt() * 0.01
        };
        h = h.min(h_max);

        // Explicit Euler probe for a second-derivative estimate.
        for i in 0..n {
            probe_y[i] = y0[i] + h * f0[i];
        }
        sys.eval(t0 + h, probe_y, probe_f);
        stats.n_eval += 1;
        check_finite(t0 + h, probe_f)?;

        let mut der2 = 0.0;
        for i in 0..n {
            let sk = self.atol + self.rtol * y0[i].abs();
            let d = (probe_f[i] - f0[i]) / sk;
            der2 += d * d;
        }
        let der2 = der2.sqrt() / h;

        let der12 = der2.max(dnf.sqrt());
        let h1 = if der12 <= 1e-15 {
            (1e-6f64).max(h.abs() * 1e-3)
        } else {
            (0.01 / der12).powf(0.2)
        };
        Ok(h1.min(100.0 * h).min(h_max))
    }
}

/// Run `f` with the system's row team, when it has one of two or more
/// threads, installed on this thread for the whole integration.
fn with_row_team<S: OdeSystem + ?Sized, R>(sys: &S, f: impl FnOnce(Option<RowTeam<'_>>) -> R) -> R {
    match sys.row_team().filter(|rt| rt.team.threads() > 1) {
        Some(rt) => rt.team.install(|| f(Some(rt))),
        None => f(None),
    }
}

/// The n-vectors of one step attempt, shareable across a row team. Each
/// member writes only its own rows and reads another member's rows only
/// after a barrier.
struct StepBufs<'a> {
    y: &'a [f64],
    k: [DisjointSliceMut<'a, f64>; 7],
    y_stage: DisjointSliceMut<'a, f64>,
    y_new: DisjointSliceMut<'a, f64>,
}

/// How a step attempt evaluates one stage's derivative for its rows.
trait StageEval {
    /// Write `f(t, y)[rows]` into `k[rows]`, where `y` is the whole stage
    /// state. `last` marks the attempt's final stage, after which no
    /// member rewrites a buffer another member reads.
    ///
    /// # Safety
    /// This member's writes of `y[rows]` for the stage are complete, and
    /// the calling convention of [`attempt_rows`] holds.
    unsafe fn eval(
        &self,
        t: f64,
        y: &DisjointSliceMut<'_, f64>,
        k: &DisjointSliceMut<'_, f64>,
        rows: Range<usize>,
        last: bool,
    );
}

/// The inline path: one member owning every row, plain [`OdeSystem::eval`].
struct Whole<'s, S: ?Sized>(&'s S);

impl<S: OdeSystem + ?Sized> StageEval for Whole<'_, S> {
    #[inline(always)]
    unsafe fn eval(
        &self,
        t: f64,
        y: &DisjointSliceMut<'_, f64>,
        k: &DisjointSliceMut<'_, f64>,
        rows: Range<usize>,
        _last: bool,
    ) {
        self.0.eval(t, y.range(rows.clone()), k.range_mut(rows));
    }
}

/// The team path: prepare own rows, barrier, evaluate own rows, barrier
/// (the trailing barrier keeps the next stage's writes of `y` and of the
/// prepared row state away from rows other members still read).
struct Split<'a, 'm> {
    sys: &'a (dyn OdeSystem + Sync),
    member: &'a TeamMember<'m>,
}

impl StageEval for Split<'_, '_> {
    #[inline(always)]
    unsafe fn eval(
        &self,
        t: f64,
        y: &DisjointSliceMut<'_, f64>,
        k: &DisjointSliceMut<'_, f64>,
        rows: Range<usize>,
        last: bool,
    ) {
        self.sys
            .prepare_rows(t, y.range(rows.clone()), rows.clone());
        self.member.barrier();
        self.sys
            .eval_rows(t, y.range(0..y.len()), rows.clone(), k.range_mut(rows));
        if !last {
            self.member.barrier();
        }
    }
}

/// One Dormand–Prince step attempt over `rows`: the six fresh stages into
/// `k[1..7][rows]` and `y_new[rows]`, then the error terms `(e/sc)²`.
/// Returns their sum in ascending row order; with `keep_terms` each term
/// is also stored in `y_stage[rows]` (dead after the last stage) for the
/// leader's ordered sum over all rows.
///
/// # Safety
/// Concurrent calls cover disjoint `rows` of the same buffers and
/// synchronize every stage through `ev`, so no member reads rows another
/// member is writing.
#[inline(always)]
unsafe fn attempt_rows<E: StageEval>(
    ev: &E,
    b: &StepBufs<'_>,
    rows: Range<usize>,
    (t, h): (f64, f64),
    (atol, rtol): (f64, f64),
    keep_terms: bool,
) -> f64 {
    let y = &b.y[rows.clone()];
    let [k1, k2, k3, k4, k5, k6, k7] = &b.k;
    let k1 = k1.range(rows.clone());
    let (ys, r) = (&b.y_stage, || rows.clone());
    let k2 = stage(ev, ys, k2, r(), t + C2 * h, false, |i| {
        y[i] + h * A21 * k1[i]
    });
    let k3 = stage(ev, ys, k3, r(), t + C3 * h, false, |i| {
        y[i] + h * (A31 * k1[i] + A32 * k2[i])
    });
    let k4 = stage(ev, ys, k4, r(), t + C4 * h, false, |i| {
        y[i] + h * (A41 * k1[i] + A42 * k2[i] + A43 * k3[i])
    });
    let k5 = stage(ev, ys, k5, r(), t + C5 * h, false, |i| {
        y[i] + h * (A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i])
    });
    let k6 = stage(ev, ys, k6, r(), t + h, false, |i| {
        y[i] + h * (A61 * k1[i] + A62 * k2[i] + A63 * k3[i] + A64 * k4[i] + A65 * k5[i])
    });
    let k7 = stage(ev, &b.y_new, k7, r(), t + h, true, |i| {
        y[i] + h * (A71 * k1[i] + A73 * k3[i] + A74 * k4[i] + A75 * k5[i] + A76 * k6[i])
    });
    let yn = b.y_new.range(r());

    // --- error terms ---
    let term = |i: usize| {
        let e = h * (E1 * k1[i] + E3 * k3[i] + E4 * k4[i] + E5 * k5[i] + E6 * k6[i] + E7 * k7[i]);
        let sc = atol + rtol * y[i].abs().max(yn[i].abs());
        (e / sc) * (e / sc)
    };
    let mut err_sq = 0.0;
    if keep_terms {
        let out = b.y_stage.range_mut(rows);
        for (i, slot) in out.iter_mut().enumerate() {
            let x = term(i);
            *slot = x;
            err_sq += x;
        }
    } else {
        for i in 0..y.len() {
            err_sq += term(i);
        }
    }
    err_sq
}

/// One stage over this member's rows: `out[rows] = combine(i)` (`i`
/// counts from the block start), then `k[rows] = f(t, out)[rows]`;
/// returns `k[rows]`.
///
/// # Safety
/// As for [`attempt_rows`].
#[inline(always)]
unsafe fn stage<'k, E: StageEval>(
    ev: &E,
    out: &DisjointSliceMut<'_, f64>,
    k: &'k DisjointSliceMut<'_, f64>,
    rows: Range<usize>,
    t: f64,
    last: bool,
    combine: impl Fn(usize) -> f64,
) -> &'k [f64] {
    for (i, v) in out.range_mut(rows.clone()).iter_mut().enumerate() {
        *v = combine(i);
    }
    ev.eval(t, out, k, rows.clone(), last);
    k.range(rows)
}

fn check_finite(t: f64, v: &[f64]) -> Result<(), OdeError> {
    if let Some(bad) = v.iter().position(|x| !x.is_finite()) {
        return Err(OdeError::NonFiniteDerivative { t, component: bad });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnSystem, NoObserver};
    use pom_kernels::par::ChunkPool;
    use std::f64::consts::TAU;

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y, d| d[0] = -y[0])
    }

    fn harmonic() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
        })
    }

    #[test]
    fn exponential_decay_high_accuracy() {
        let (sol, stats) = Dopri5::new()
            .rtol(1e-10)
            .atol(1e-12)
            .integrate_with_stats(&decay(), 0.0, &[1.0], 10.0)
            .unwrap();
        let exact = (-10.0f64).exp();
        assert!((sol.y_end()[0] - exact).abs() < 1e-9);
        assert!(stats.n_accepted > 0);
        // FSAL accounting: ~6 evals per attempted step (+ hinit probe + k1).
        let attempts = stats.n_accepted + stats.n_rejected;
        assert!(stats.n_eval <= 6 * attempts + 2);
    }

    #[test]
    fn harmonic_period_accuracy() {
        let sol = Dopri5::new()
            .rtol(1e-9)
            .atol(1e-9)
            .integrate(&harmonic(), 0.0, &[1.0, 0.0], 10.0 * TAU)
            .unwrap();
        assert!((sol.y_end()[0] - 1.0).abs() < 1e-6);
        assert!(sol.y_end()[1].abs() < 1e-6);
    }

    #[test]
    fn dense_output_matches_analytic_solution_everywhere() {
        let sol = Dopri5::new()
            .rtol(1e-9)
            .atol(1e-9)
            .integrate(&decay(), 0.0, &[1.0], 4.0)
            .unwrap();
        // Probe at many off-grid times.
        for k in 0..=400 {
            let t = 4.0 * k as f64 / 400.0;
            let y = sol.sample_component(t, 0);
            assert!(
                (y - (-t).exp()).abs() < 1e-7,
                "dense output wrong at t={t}: {y} vs {}",
                (-t).exp()
            );
        }
    }

    #[test]
    fn dense_output_continuous_across_segments() {
        let sol = Dopri5::new()
            .rtol(1e-6)
            .atol(1e-6)
            .integrate(&harmonic(), 0.0, &[0.0, 1.0], 20.0)
            .unwrap();
        for w in sol.segments().windows(2) {
            let t_knot = w[0].t1();
            let a = w[0].eval(t_knot);
            let b = w[1].eval(t_knot);
            for i in 0..2 {
                assert!((a[i] - b[i]).abs() < 1e-9, "jump at knot t={t_knot}");
            }
        }
    }

    #[test]
    fn tighter_tolerance_means_more_steps_and_less_error() {
        let loose = Dopri5::new().rtol(1e-4).atol(1e-4);
        let tight = Dopri5::new().rtol(1e-10).atol(1e-10);
        let (s_loose, st_loose) = loose
            .integrate_with_stats(&harmonic(), 0.0, &[1.0, 0.0], 10.0 * TAU)
            .unwrap();
        let (s_tight, st_tight) = tight
            .integrate_with_stats(&harmonic(), 0.0, &[1.0, 0.0], 10.0 * TAU)
            .unwrap();
        assert!(st_tight.n_accepted > st_loose.n_accepted);
        let e_loose = (s_loose.y_end()[0] - 1.0).abs();
        let e_tight = (s_tight.y_end()[0] - 1.0).abs();
        assert!(e_tight < e_loose);
    }

    #[test]
    fn moderately_stiff_problem_is_handled() {
        // λ = −200: explicit methods need small steps but must succeed.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -200.0 * y[0]);
        let sol = Dopri5::new()
            .rtol(1e-7)
            .atol(1e-9)
            .integrate(&sys, 0.0, &[1.0], 1.0)
            .unwrap();
        assert!(sol.y_end()[0].abs() < 1e-8);
    }

    #[test]
    fn forced_oscillator_nonautonomous() {
        // ẏ = cos t, y(0) = 0 ⇒ y = sin t.
        let sys = FnSystem::new(1, |t, _y, d| d[0] = t.cos());
        let sol = Dopri5::new()
            .rtol(1e-10)
            .atol(1e-10)
            .integrate(&sys, 0.0, &[0.0], 7.0)
            .unwrap();
        for k in 0..=70 {
            let t = 7.0 * k as f64 / 70.0;
            assert!((sol.sample_component(t, 0) - t.sin()).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_invalid_configuration() {
        assert!(Dopri5::new()
            .rtol(0.0)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .is_err());
        assert!(Dopri5::new()
            .atol(-1.0)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .is_err());
        assert!(Dopri5::new()
            .h0(f64::NAN)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .is_err());
        assert!(Dopri5::new()
            .integrate(&decay(), 0.0, &[1.0, 2.0], 1.0)
            .is_err());
        assert!(Dopri5::new().integrate(&decay(), 1.0, &[1.0], 0.5).is_err());
    }

    #[test]
    fn step_budget_enforced() {
        let res = Dopri5::new()
            .max_steps(3)
            .integrate(&harmonic(), 0.0, &[1.0, 0.0], 1000.0);
        assert!(matches!(res, Err(OdeError::TooManySteps { .. })));
    }

    #[test]
    fn blowup_is_detected() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = y[0] * y[0]);
        // Pole at t = 1 for y0 = 1.
        let res = Dopri5::new().integrate(&sys, 0.0, &[1.0], 2.0);
        assert!(res.is_err());
    }

    #[test]
    fn explicit_h0_and_hmax_are_respected() {
        let (sol, _) = Dopri5::new()
            .h0(1e-3)
            .h_max(0.05)
            .integrate_with_stats(&harmonic(), 0.0, &[1.0, 0.0], 1.0)
            .unwrap();
        for seg in sol.segments() {
            assert!(seg.h() <= 0.05 * (1.0 + 1e-12));
        }
    }

    /// A row-split system outside the oscillator model: a ring of decays
    /// `ẏᵢ = −yᵢ + ¼·(2·y_{i+1})`, where `2·yᵢ` is the per-row state
    /// `prepare_rows` stores and `eval_rows` reads across block edges.
    struct RowRing {
        team: ChunkPool,
        prepared: Vec<AtomicU64>,
        /// Make a worker's `eval_rows` panic from this time on.
        fail_from: Option<f64>,
    }

    impl RowRing {
        fn new(n: usize, threads: usize, fail_from: Option<f64>) -> Self {
            Self {
                team: ChunkPool::new(threads),
                prepared: (0..n).map(|_| AtomicU64::new(0)).collect(),
                fail_from,
            }
        }
    }

    impl OdeSystem for RowRing {
        fn dim(&self) -> usize {
            self.prepared.len()
        }
        fn eval(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            let n = y.len();
            for i in 0..n {
                d[i] = -y[i] + 0.25 * (2.0 * y[(i + 1) % n]);
            }
        }
        fn row_team(&self) -> Option<RowTeam<'_>> {
            Some(RowTeam {
                team: &self.team,
                sys: self,
            })
        }
        unsafe fn prepare_rows(&self, _t: f64, y_rows: &[f64], rows: Range<usize>) {
            for (&y, i) in y_rows.iter().zip(rows) {
                self.prepared[i].store((2.0 * y).to_bits(), Ordering::Relaxed);
            }
        }
        unsafe fn eval_rows(&self, t: f64, y: &[f64], rows: Range<usize>, d: &mut [f64]) {
            if self.fail_from.is_some_and(|t_fail| t >= t_fail) && rows.start > 0 {
                panic!("row failure at t = {t}");
            }
            let n = y.len();
            for (d, i) in d.iter_mut().zip(rows) {
                let next = f64::from_bits(self.prepared[(i + 1) % n].load(Ordering::Relaxed));
                *d = -y[i] + 0.25 * next;
            }
        }
    }

    fn ring_y0(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect()
    }

    #[test]
    fn row_team_is_bitwise_identical_to_serial_eval() {
        let n = 37;
        let serial = FnSystem::new(n, |t, y, d| RowRing::new(n, 1, None).eval(t, y, d));
        let solver = Dopri5::new().rtol(1e-9).atol(1e-9);
        let y0 = ring_y0(n);
        let mut ws = Workspace::new();
        let (want_obs, want_obs_stats) = solver
            .integrate_observed(&serial, 0.0, &y0, 3.0, &mut ws, &mut NoObserver)
            .unwrap();
        let (want_sol, want_stats) = solver
            .integrate_with(&serial, 0.0, &y0, 3.0, &mut ws)
            .unwrap();
        for threads in 1..=4 {
            let sys = RowRing::new(n, threads, None);
            let (got_obs, got_obs_stats) = solver
                .integrate_observed(&sys, 0.0, &y0, 3.0, &mut ws, &mut NoObserver)
                .unwrap();
            assert_eq!(got_obs_stats, want_obs_stats, "threads {threads}");
            assert!(
                got_obs
                    .y_end
                    .iter()
                    .zip(&want_obs.y_end)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads {threads}: observed final state"
            );
            let (got_sol, got_stats) = solver.integrate_with(&sys, 0.0, &y0, 3.0, &mut ws).unwrap();
            assert_eq!(got_stats, want_stats, "threads {threads}");
            for k in 0..=30 {
                let t = 0.1 * k as f64;
                let (a, b) = (got_sol.sample(t), want_sol.sample(t));
                assert!(
                    a.iter().zip(&b).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "threads {threads}: dense output at t = {t}"
                );
            }
        }
    }

    #[test]
    fn panic_in_a_step_job_propagates_and_the_team_survives() {
        let n = 37;
        let solver = Dopri5::new().rtol(1e-9).atol(1e-9);
        let y0 = ring_y0(n);
        let failing = RowRing::new(n, 3, Some(1.0));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solver.integrate_observed(
                &failing,
                0.0,
                &y0,
                3.0,
                &mut Workspace::new(),
                &mut NoObserver,
            )
        }));
        let payload = res.expect_err("the worker panic reaches the caller");
        assert!(payload
            .downcast_ref::<String>()
            .unwrap()
            .starts_with("row failure"));
        // The same team runs the next integration to completion.
        let healthy = RowRing {
            fail_from: None,
            ..failing
        };
        let (got, _) = solver
            .integrate_observed(
                &healthy,
                0.0,
                &y0,
                3.0,
                &mut Workspace::new(),
                &mut NoObserver,
            )
            .unwrap();
        let (want, _) = solver
            .integrate_observed(
                &RowRing::new(n, 1, None),
                0.0,
                &y0,
                3.0,
                &mut Workspace::new(),
                &mut NoObserver,
            )
            .unwrap();
        assert_eq!(bits(&got.y_end), bits(&want.y_end));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn segments_cover_span_exactly() {
        let sol = Dopri5::new().integrate(&decay(), 0.5, &[1.0], 3.5).unwrap();
        assert_eq!(sol.segments().first().unwrap().t0(), 0.5);
        let t1 = sol.segments().last().unwrap().t1();
        assert!((t1 - 3.5).abs() < 1e-9);
    }
}
