//! Explicit ODE and delay-DE solvers for the Physical Oscillator Model.
//!
//! The paper (§3.2) integrates the coupled oscillator system, Eq. (2), with
//! MATLAB's `ode45`, i.e. the Dormand–Prince explicit Runge–Kutta 5(4) pair.
//! This crate reimplements that integrator from scratch — together with the
//! simpler fixed-step methods used for cross-validation — and adds the delay
//! differential equation (DDE) machinery needed for the paper's *interaction
//! noise* term `τ_ij(t)`, which makes the right-hand side depend on past
//! states `θ_j(t − τ_ij(t))`.
//!
//! ## Contents
//!
//! * [`OdeSystem`] / [`FnSystem`] — right-hand-side abstraction.
//! * [`fixed`] — fixed-step steppers: explicit [`fixed::Euler`],
//!   [`fixed::Heun`], classical [`fixed::Rk4`], and the driver
//!   [`fixed::FixedStepSolver`].
//! * [`dopri5`] — adaptive Dormand–Prince 5(4) with PI step-size control,
//!   FSAL optimization and 5-coefficient dense output
//!   ([`dopri5::Dopri5`]).
//! * [`bs23`] — adaptive Bogacki–Shampine 3(2) (MATLAB's `ode23`), the
//!   cheap low-order alternative for loose-tolerance runs.
//! * [`dense`] — dense-output segments and the piecewise
//!   [`dense::DenseSolution`] they form.
//! * [`dde`] — delay systems ([`dde::DdeSystem`]), cubic-Hermite history
//!   buffers and the fixed-step DDE integrator [`dde::DdeRk4`].
//! * [`trajectory`] — flat-storage sampled trajectories shared by all
//!   solvers.
//! * [`events`] — post-hoc root finding on dense solutions (e.g. "when does
//!   the order parameter cross 0.99?").
//! * [`ensemble`] — lockstep multi-replica batching: the interleaved
//!   `[n × R]` layout ([`EnsembleLayout`]), the gather/scatter reference
//!   system ([`EnsembleSystem`]) and the per-replica observer fan-out
//!   ([`EnsembleObserver`]).
//! * [`observe`] — streaming step observers ([`StepObserver`]) and the
//!   `integrate_observed` entry points' shared types: online observables
//!   over long-horizon runs with **no** per-step trajectory storage.
//! * [`workspace`] — reusable scratch memory ([`Workspace`]) for the
//!   allocation-free `integrate_with`/`integrate_observed` fast paths.
//!
//! ## Performance model
//!
//! Every solver has two entry points. The classic one (`integrate`,
//! `integrate_with_stats`) accepts `&dyn OdeSystem` and allocates a fresh
//! workspace per call — convenient for one-off runs. The `_with` variants
//! are generic over the system (monomorphized right-hand side, no virtual
//! dispatch) and borrow a caller-held [`Workspace`], so the step loop is
//! allocation-free. Both paths produce bitwise identical results
//! (asserted by the property-test suite).
//!
//! A system that can evaluate its right-hand side by row blocks
//! ([`OdeSystem::row_team`], [`OdeSystem::prepare_rows`],
//! [`OdeSystem::eval_rows`]) lets [`Dopri5`] run each step attempt as one
//! job on the system's thread team: every member combines, prepares and
//! evaluates its own rows, with two barriers per stage. Results are
//! bitwise identical to the serial path for every team size.
//!
//! ## Example
//!
//! ```
//! use pom_ode::{FnSystem, dopri5::Dopri5};
//!
//! // ẏ = −y, y(0) = 1  ⇒  y(t) = e^{−t}
//! let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
//! let sol = Dopri5::new().rtol(1e-9).atol(1e-9)
//!     .integrate(&sys, 0.0, &[1.0], 5.0)
//!     .unwrap();
//! let y5 = sol.sample(5.0)[0];
//! assert!((y5 - (-5.0f64).exp()).abs() < 1e-7);
//! ```

pub mod bs23;
pub mod dde;
pub mod dense;
pub mod dopri5;
pub mod ensemble;
pub mod error;
pub mod events;
pub mod fixed;
pub(crate) mod obs;
pub mod observe;
pub mod trajectory;
pub mod workspace;

pub use bs23::{Bs23, Bs23Stats};
pub use dde::{DdeRk4, DdeSystem, PhaseHistory};
pub use dense::{DenseSegment, DenseSolution};
pub use dopri5::{Dopri5, SolverStats};
pub use ensemble::{EnsembleLayout, EnsembleObserver, EnsembleSystem};
pub use error::OdeError;
pub use fixed::{Euler, FixedStepSolver, Heun, Rk4, Stepper};
pub use observe::{NoObserver, ObserveEvery, ObservedSummary, StepObserver};
pub use trajectory::Trajectory;
pub use workspace::{ScratchPool, Workspace};

use std::ops::Range;

use pom_kernels::par::ChunkPool;

/// Right-hand side of a first-order ODE system `ẏ = f(t, y)`.
///
/// Implementations must be deterministic for a given `(t, y)`: adaptive
/// solvers re-evaluate rejected steps and dense output assumes the RHS seen
/// during the step is reproducible. (Stochastic forcing in the oscillator
/// model is implemented as *frozen* noise: a deterministic function of `t`
/// drawn once up-front — see `pom-noise`.)
pub trait OdeSystem {
    /// Dimension `n` of the state vector.
    fn dim(&self) -> usize;

    /// Evaluate the derivative: write `f(t, y)` into `dydt`.
    ///
    /// `y` and `dydt` both have length [`OdeSystem::dim`].
    ///
    /// `dydt` is **not** zeroed on entry — solvers hand out reused scratch
    /// buffers ([`Workspace`]) that hold stale values from earlier stages.
    /// Implementations must assign every component (`d[i] = …`, never
    /// `d[i] += …` on unwritten slots) and must not read `dydt`.
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]);

    /// The thread team this system's rows are split across, if any.
    ///
    /// When this returns a team of more than one thread, adaptive solvers
    /// run each step attempt as one [`ChunkPool::run_team`] job over
    /// `0..dim` and evaluate the right-hand side through
    /// [`OdeSystem::prepare_rows`] and [`OdeSystem::eval_rows`] of
    /// [`RowTeam::sys`]; a system returning a team must implement both.
    /// The default (`None`) keeps every solver on plain
    /// [`OdeSystem::eval`].
    fn row_team(&self) -> Option<RowTeam<'_>> {
        None
    }

    /// Phase 1 of a row-split evaluation: compute whatever per-row state
    /// `rows` of `y` contribute to other rows' derivatives (for the
    /// oscillator model, `sin`/`cos` of the phases), into storage the
    /// system owns. `y_rows` is `y[rows]`.
    ///
    /// # Safety
    /// Call only from inside a [`ChunkPool::run_team`] job on
    /// [`OdeSystem::row_team`] (the team runs one job at a time, which
    /// gives the job exclusive use of the system's row storage), with
    /// the `rows` of concurrent calls pairwise disjoint, and separate
    /// every `prepare_rows` of an evaluation from every `eval_rows` of
    /// it — and from the next evaluation's `prepare_rows` — by a
    /// [`pom_kernels::par::TeamMember::barrier`].
    unsafe fn prepare_rows(&self, _t: f64, _y_rows: &[f64], _rows: Range<usize>) {}

    /// Phase 2 of a row-split evaluation: write `f(t, y)[rows]` into
    /// `dydt_rows` (length `rows.len()`). May read all of `y` and the
    /// state every member's [`OdeSystem::prepare_rows`] stored for the
    /// same `(t, y)`. The per-row arithmetic must equal
    /// [`OdeSystem::eval`]'s, so results do not depend on the split.
    ///
    /// # Safety
    /// As for [`OdeSystem::prepare_rows`]; additionally every row of
    /// `0..dim` must have been prepared for this `(t, y)`.
    unsafe fn eval_rows(&self, _t: f64, _y: &[f64], _rows: Range<usize>, _dydt_rows: &mut [f64]) {
        unimplemented!("a system with a row team must implement eval_rows")
    }
}

/// A system's row team ([`OdeSystem::row_team`]): the threads, and the
/// system as shared with them (the members call its row hooks
/// concurrently, hence `Sync`).
#[derive(Clone, Copy)]
pub struct RowTeam<'a> {
    /// The team; slot 0 is the thread driving the integration.
    pub team: &'a ChunkPool,
    /// The system whose `prepare_rows`/`eval_rows` the members call.
    pub sys: &'a (dyn OdeSystem + Sync),
}

/// Adapter turning a closure `f(t, y, dydt)` into an [`OdeSystem`].
pub struct FnSystem<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(f64, &[f64], &mut [f64])> FnSystem<F> {
    /// Wrap closure `f` as an ODE system of dimension `dim`.
    pub fn new(dim: usize, f: F) -> Self {
        Self { dim, f }
    }
}

impl<F: Fn(f64, &[f64], &mut [f64])> OdeSystem for FnSystem<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        debug_assert_eq!(y.len(), self.dim);
        debug_assert_eq!(dydt.len(), self.dim);
        (self.f)(t, y, dydt)
    }
}

impl<S: OdeSystem + ?Sized> OdeSystem for &S {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (**self).eval(t, y, dydt)
    }
    fn row_team(&self) -> Option<RowTeam<'_>> {
        (**self).row_team()
    }
    unsafe fn prepare_rows(&self, t: f64, y_rows: &[f64], rows: Range<usize>) {
        (**self).prepare_rows(t, y_rows, rows)
    }
    unsafe fn eval_rows(&self, t: f64, y: &[f64], rows: Range<usize>, dydt_rows: &mut [f64]) {
        (**self).eval_rows(t, y, rows, dydt_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_system_evaluates_closure() {
        let sys = FnSystem::new(2, |t, y, dydt| {
            dydt[0] = y[1];
            dydt[1] = -y[0] + t;
        });
        assert_eq!(sys.dim(), 2);
        let mut out = [0.0; 2];
        sys.eval(2.0, &[3.0, 4.0], &mut out);
        assert_eq!(out, [4.0, -1.0]);
    }

    #[test]
    fn system_usable_through_reference() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = 2.0 * y[0]);
        let r = &sys;
        let mut out = [0.0];
        r.eval(0.0, &[1.5], &mut out);
        assert_eq!(out[0], 3.0);
        assert_eq!(r.dim(), 1);
    }
}
