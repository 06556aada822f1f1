//! Right-hand-side kernel selection and the sin/cos-split fast path.
//!
//! Evaluating Eq. (2) costs one transcendental per neighbor per stage in
//! the reference implementation — the dominant cost of every large-`N`
//! run. For the periodic potentials (`KuramotoSin`, and the sine branch of
//! `Desync`) the addition theorem
//!
//! ```text
//! sin(k·(θⱼ − θᵢ)) = sin(kθⱼ)·cos(kθᵢ) − cos(kθⱼ)·sin(kθᵢ)
//! ```
//!
//! turns `deg(i)` sine evaluations per oscillator into **one** sin/cos pair
//! per oscillator (computed in a vectorizable array pass) plus two
//! multiply–adds per neighbor. This module provides:
//!
//! * [`RhsKernel`] — the public selector between the bitwise-reference
//!   [`RhsKernel::Exact`] path and the [`RhsKernel::SinCosSplit`] fast
//!   path;
//! * a branch-free polynomial `sin`/`cos` array pass (Chebyshev fits on
//!   `|r| ≤ π/2` after modulo-π reduction, ≤ 1e-13 absolute error,
//!   runtime-dispatched to an AVX2+FMA version where the CPU has one);
//! * the split-kernel row loops over either a [`pom_topology::RingStencil`]
//!   (index-free, wrap rows peeled off the contiguous bulk) or a flat
//!   [`pom_topology::CsrView`].
//!
//! ## Accuracy policy
//!
//! `Exact` evaluates every pair interaction through `libm` (`f64::sin`,
//! `f64::tanh`, …) in ascending-neighbor order: results are bitwise
//! reproducible across runs, workspace reuse, thread counts *and*
//! machines, and identical to the pre-kernel-layer implementation. It is
//! the default and what reproduction tests pin against.
//!
//! `SinCosSplit` changes the arithmetic (split trig identity, polynomial
//! kernels, fixed-by-offset accumulation order, FMA contraction where the
//! CPU offers it). It stays within `~1e-12` of `Exact` per evaluation
//! (property-tested) and is *deterministic on a given machine* — bitwise
//! identical across reruns and across `rhs_threads` values — but not
//! bitwise portable across CPUs. Potentials without a sine structure
//! (`Tanh`) fall back to the exact per-pair math under this kernel and
//! still benefit from flat-CSR iteration and chunked parallelism.

use std::cell::UnsafeCell;

use pom_topology::{CsrView, RingStencil};

/// Selects how the oscillator coupling sum is evaluated.
///
/// See the [module documentation](self) for the accuracy policy. The
/// kernel never changes *what* is computed — only how; campaign results
/// produced with `Exact` are the bitwise reference, `SinCosSplit` trades
/// `~1e-12` reproducibility for large-`N` throughput.
///
/// ```
/// use pom_core::{InitialCondition, PomBuilder, Potential, RhsKernel, SimOptions};
/// use pom_topology::Topology;
///
/// let build = |kernel: RhsKernel| {
///     PomBuilder::new(32)
///         .topology(Topology::ring(32, &[-1, 1]))
///         .potential(Potential::KuramotoSin)
///         .coupling(2.0)
///         .kernel(kernel)
///         .build()
///         .unwrap()
/// };
/// let init = InitialCondition::RandomSpread { amplitude: 0.8, seed: 9 };
/// let opts = SimOptions::new(5.0).samples(10);
/// let exact = build(RhsKernel::Exact).simulate_with(init.clone(), &opts).unwrap();
/// let split = build(RhsKernel::SinCosSplit).simulate_with(init, &opts).unwrap();
/// let (a, b) = (exact.trajectory().last().unwrap(), split.trajectory().last().unwrap());
/// for i in 0..32 {
///     assert!((a[i] - b[i]).abs() < 1e-9); // well within the 1e-12/eval policy
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RhsKernel {
    /// Reference path: `libm` transcendentals, ascending-neighbor
    /// accumulation, bitwise identical to the pre-kernel-layer code.
    #[default]
    Exact,
    /// Fast path: per-evaluation `sin`/`cos` arrays + the angle-addition
    /// expansion for sine-structured potentials; `~1e-12` from `Exact`.
    SinCosSplit,
}

impl RhsKernel {
    /// Parse a spec/CLI name (`"exact"` or `"sincos"`/`"split"`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "exact" => Some(RhsKernel::Exact),
            "sincos" | "sin-cos" | "split" => Some(RhsKernel::SinCosSplit),
            _ => None,
        }
    }

    /// Canonical name for output tables.
    pub fn name(&self) -> &'static str {
        match self {
            RhsKernel::Exact => "exact",
            RhsKernel::SinCosSplit => "sincos",
        }
    }
}

/// Reusable `sin`/`cos` arrays for the split kernel, one pair of slots per
/// oscillator. Lives behind a `Mutex` in the model because the ODE-solver
/// contract evaluates the RHS through `&self`.
#[derive(Debug, Default)]
pub(crate) struct SplitScratch {
    buf: Vec<f64>,
}

impl SplitScratch {
    /// Borrow the `sin` and `cos` halves, grown to length `n` each.
    pub(crate) fn halves(&mut self, n: usize) -> (&mut [f64], &mut [f64]) {
        if self.buf.len() < 2 * n {
            self.buf.resize(2 * n, 0.0);
        }
        let (s, c) = self.buf.split_at_mut(n);
        (s, &mut c[..n])
    }
}

/// `sin`/`cos` arrays shared by a row team within one step job: each
/// member fills its own rows in `prepare_rows`, and after a barrier every
/// member reads any row in `eval_rows`. There is no lock — the row-hook
/// contract of `pom_ode::OdeSystem` (one team job at a time, disjoint
/// rows, barriers between the phases) keeps the accesses apart.
pub(crate) struct TeamSplitScratch {
    s: Box<[UnsafeCell<f64>]>,
    c: Box<[UnsafeCell<f64>]>,
}

// SAFETY: shared access is governed by the row-hook contract above.
unsafe impl Sync for TeamSplitScratch {}

impl TeamSplitScratch {
    /// Arrays for `n` oscillators.
    pub(crate) fn new(n: usize) -> Self {
        let zeros = || (0..n).map(|_| UnsafeCell::new(0.0)).collect();
        Self {
            s: zeros(),
            c: zeros(),
        }
    }

    /// The `sin` and `cos` entries of `rows`, mutably.
    ///
    /// # Safety
    /// No other live borrow of these arrays (on any thread) overlaps
    /// `rows`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn rows_mut(&self, rows: std::ops::Range<usize>) -> (&mut [f64], &mut [f64]) {
        let part = |a: &[UnsafeCell<f64>]| {
            let a = &a[rows.clone()];
            std::slice::from_raw_parts_mut(UnsafeCell::raw_get(a.as_ptr()), a.len())
        };
        (part(&self.s), part(&self.c))
    }

    /// Both arrays in full, shared.
    ///
    /// # Safety
    /// No live borrow from [`TeamSplitScratch::rows_mut`] exists.
    pub(crate) unsafe fn all(&self) -> (&[f64], &[f64]) {
        let whole = |a: &[UnsafeCell<f64>]| {
            std::slice::from_raw_parts(UnsafeCell::raw_get(a.as_ptr()) as *const f64, a.len())
        };
        (whole(&self.s), whole(&self.c))
    }
}

// ---------------------------------------------------------------------------
// Polynomial sin/cos array pass
// ---------------------------------------------------------------------------

/// Above this magnitude the two-part modulo-π reduction loses accuracy;
/// such elements (phases beyond ~10⁵ revolutions — far outside any
/// simulated span) fall back to `libm` individually.
const ARG_LIMIT: f64 = 1e6;

const INV_PI: f64 = std::f64::consts::FRAC_1_PI;
/// Shift that rounds to nearest when added to and subtracted from a
/// double whose magnitude is below 2⁵¹ (1.5·2⁵²).
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// π split into a 53-bit head and its residual, for cancellation-free
/// `r = x − n·π` at moderate `n`. The head is deliberately spelled at
/// full double precision: this *is* `f64::consts::PI` (the lint cannot
/// tell a reduction constant from a lazy approximation), and the residual
/// carries the next 53 bits.
#[allow(clippy::approx_constant, clippy::excessive_precision)]
const PI_HI: f64 = 3.141_592_653_589_793_116;
#[allow(clippy::excessive_precision)]
const PI_LO: f64 = 1.224_646_799_147_353_2e-16;

/// Chebyshev fit of `sin(r)/r` in `z = r²` on `|r| ≤ π/2` (max abs error
/// of the reconstructed `sin`: 7.8e-14).
const SIN_Z: [f64; 7] = [
    0.999_999_999_999_949_4,
    -0.166_666_666_664_665_92,
    8.333_333_320_354_143e-3,
    -1.984_126_668_206_754_2e-4,
    2.755_695_281_427_974e-6,
    -2.503_026_436_708_62e-8,
    1.541_116_643_315_831_3e-10,
];
/// Chebyshev fit of `cos(r)` in `z = r²` on `|r| ≤ π/2` (max abs error
/// 2.5e-15).
const COS_Z: [f64; 8] = [
    0.999_999_999_999_997_6,
    -0.499_999_999_999_894_86,
    4.166_666_666_581_229e-2,
    -1.388_888_886_157_152_2e-3,
    2.480_158_295_670_555e-5,
    -2.755_694_171_701_834e-7,
    2.085_852_533_762_896e-9,
    -1.101_052_193_545_011_3e-11,
];

/// One polynomial sin/cos evaluation (branch-free; caller handles the
/// large-argument fallback).
#[inline(always)]
fn sincos_poly(x: f64) -> (f64, f64) {
    // n = round(x/π) via the magic-shift trick (round-to-nearest-even).
    let n = (x * INV_PI + MAGIC) - MAGIC;
    let r = x - n * PI_HI - n * PI_LO;
    // (−1)^n without integer conversion: parity = n − 2·round(n/2) ∈ {0, ±1}.
    let parity = n - 2.0 * ((0.5 * n + MAGIC) - MAGIC);
    let sign = 1.0 - 2.0 * parity * parity;
    let z = r * r;
    let mut p = SIN_Z[6];
    p = p * z + SIN_Z[5];
    p = p * z + SIN_Z[4];
    p = p * z + SIN_Z[3];
    p = p * z + SIN_Z[2];
    p = p * z + SIN_Z[1];
    p = p * z + SIN_Z[0];
    let mut q = COS_Z[7];
    q = q * z + COS_Z[6];
    q = q * z + COS_Z[5];
    q = q * z + COS_Z[4];
    q = q * z + COS_Z[3];
    q = q * z + COS_Z[2];
    q = q * z + COS_Z[1];
    q = q * z + COS_Z[0];
    ((sign * r) * p, sign * q)
}

/// Fill `s[j] = sin(k·x[j])`, `c[j] = cos(k·x[j])`.
///
/// Elements are independent, so any chunking of a larger array into calls
/// of this function produces identical values — the parallel executor may
/// split the pass freely without affecting results.
#[inline(always)]
fn sincos_pass_body(k: f64, xs: &[f64], s: &mut [f64], c: &mut [f64]) {
    // Main pass: branch- and call-free so the loop vectorizes. The
    // fallback scan below must stay OUT of this loop — a conditional
    // `libm` call in the body would force scalar code on every element.
    let n = xs.len();
    for j in 0..n {
        let x = k * xs[j];
        let (sj, cj) = sincos_poly(x);
        s[j] = sj;
        c[j] = cj;
    }
    // Rare fix-up: per-element decision, so results are independent of
    // how a larger array was chunked (deterministic across thread
    // counts). The branch is never taken for simulated phase spans.
    for j in 0..n {
        let x = k * xs[j];
        if x.abs() > ARG_LIMIT {
            let (sj, cj) = x.sin_cos();
            s[j] = sj;
            c[j] = cj;
        }
    }
}

/// A monomorphized pair interaction for the split kernel's inner loops.
pub(crate) trait PairTerm: Copy + Sync {
    /// Value of `V(θⱼ − θᵢ)` from the phase difference `x = θⱼ − θᵢ` and
    /// the precomputed `sin`/`cos` of `k·θⱼ` and `k·θᵢ`.
    fn eval(&self, x: f64, sj: f64, cj: f64, si: f64, ci: f64) -> f64;
}

/// Plain Kuramoto coupling `sin(θⱼ − θᵢ)` (`k = 1`).
#[derive(Clone, Copy)]
pub(crate) struct SinPair;

impl PairTerm for SinPair {
    #[inline(always)]
    fn eval(&self, _x: f64, sj: f64, cj: f64, si: f64, ci: f64) -> f64 {
        sj * ci - cj * si
    }
}

/// Desync potential: `−sin(k·x)` inside the horizon (`k = 3π/2σ`),
/// saturated `sgn(x)` beyond — branch-free select so the loop vectorizes.
#[derive(Clone, Copy)]
pub(crate) struct DesyncPair {
    pub sigma: f64,
}

impl PairTerm for DesyncPair {
    #[inline(always)]
    fn eval(&self, x: f64, sj: f64, cj: f64, si: f64, ci: f64) -> f64 {
        let split = -(sj * ci - cj * si);
        if x.abs() < self.sigma {
            split
        } else {
            1.0f64.copysign(x)
        }
    }
}

/// Accumulate the raw coupling sums of `rows` (a contiguous row range)
/// into `out` (`out[i - rows.start]`), iterating an index-free ring
/// stencil: for each offset the neighbor is `i + o` with a single peeled
/// wrap segment — no index array, no gather.
#[inline(always)]
fn split_rows_stencil_body<P: PairTerm>(
    p: P,
    stencil: &RingStencil,
    theta: &[f64],
    s: &[f64],
    c: &[f64],
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let n = stencil.n();
    let lo = rows.start;
    let out = &mut out[..rows.len()];
    out.fill(0.0);
    for &o in stencil.offsets() {
        let o = o as usize;
        // Rows i with i + o < n read neighbor i + o; the rest wrap. Both
        // segments are contiguous streams (neighbor = i + const), which
        // is the point of the stencil path: no index array, no gather.
        let wrap = n - o;
        let split_at = rows.end.min(wrap).max(lo);
        let (bulk, wrapped) = out.split_at_mut(split_at - lo);
        for (v, i) in bulk.iter_mut().zip(lo..) {
            let j = i + o;
            *v += p.eval(theta[j] - theta[i], s[j], c[j], s[i], c[i]);
        }
        for (v, i) in wrapped.iter_mut().zip(split_at..) {
            let j = i + o - n;
            *v += p.eval(theta[j] - theta[i], s[j], c[j], s[i], c[i]);
        }
    }
}

/// Accumulate the raw coupling sums of `rows` into `out`, walking the flat
/// CSR arrays (arbitrary topologies).
#[inline(always)]
fn split_rows_csr_body<P: PairTerm>(
    p: P,
    csr: CsrView<'_>,
    theta: &[f64],
    s: &[f64],
    c: &[f64],
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    for (slot, i) in rows.enumerate() {
        let (ti, si, ci) = (theta[i], s[i], c[i]);
        let mut acc = 0.0;
        for &j in csr.row(i) {
            let j = j as usize;
            acc += p.eval(theta[j] - ti, s[j], c[j], si, ci);
        }
        out[slot] = acc;
    }
}

/// Ensemble twin of [`split_rows_stencil_body`]: `r` replicas interleaved
/// (component `(i, rep)` at `i·r + rep`). Interleaving keeps the stencil
/// walk a constant-offset stream — element `e = i·r + rep` reads its
/// neighbor at `e + o·r` (or `e + o·r − n·r` past the wrap), so the body
/// is literally the single-replica body with every index scaled by `r`:
/// offset-outer, two contiguous segments per offset, no index array, no
/// gather, and the same vectorization.
///
/// Bitwise contract: per component `(i, rep)` the terms are added in
/// `stencil.offsets()` order onto a zeroed accumulator — exactly the
/// per-element sequence of the single-replica body. Memory-roundtripping
/// the `f64` accumulator between offsets is exact, so batched sums equal
/// the single-replica sums bitwise.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn split_rows_stencil_ensemble_body<P: PairTerm>(
    p: P,
    stencil: &RingStencil,
    r: usize,
    theta: &[f64],
    s: &[f64],
    c: &[f64],
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let n = stencil.n();
    let lo = rows.start;
    let out = &mut out[..rows.len() * r];
    out.fill(0.0);
    for &o in stencil.offsets() {
        let o = o as usize;
        // Rows i with i + o < n read neighbor i + o; the rest wrap. The
        // wrap boundary sits at row granularity, so in element space both
        // segments stay contiguous streams (neighbor = e + o·r − {0, n·r}).
        let wrap = n - o;
        let split_at = rows.end.min(wrap).max(lo);
        let (bulk, wrapped) = out.split_at_mut((split_at - lo) * r);
        for (v, e) in bulk.iter_mut().zip(lo * r..) {
            let j = e + o * r;
            *v += p.eval(theta[j] - theta[e], s[j], c[j], s[e], c[e]);
        }
        for (v, e) in wrapped.iter_mut().zip(split_at * r..) {
            let j = e + o * r - n * r;
            *v += p.eval(theta[j] - theta[e], s[j], c[j], s[e], c[e]);
        }
    }
}

/// Ensemble twin of [`split_rows_csr_body`]: row-outer / neighbor-middle /
/// replica-inner, so the CSR row scan (pointer chase, index decode) is
/// paid once per row instead of once per row per replica. Per component
/// `(i, rep)` the accumulation is ascending-neighbor onto a zeroed
/// accumulator — the single-replica order, hence bitwise identical sums.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn split_rows_csr_ensemble_body<P: PairTerm>(
    p: P,
    csr: CsrView<'_>,
    r: usize,
    theta: &[f64],
    s: &[f64],
    c: &[f64],
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let out = &mut out[..rows.len() * r];
    out.fill(0.0);
    for (slot, i) in rows.enumerate() {
        let out_row = &mut out[slot * r..(slot + 1) * r];
        let ti = &theta[i * r..(i + 1) * r];
        let si = &s[i * r..(i + 1) * r];
        let ci = &c[i * r..(i + 1) * r];
        for &j in csr.row(i) {
            let j = j as usize;
            let tj = &theta[j * r..(j + 1) * r];
            let sj = &s[j * r..(j + 1) * r];
            let cj = &c[j * r..(j + 1) * r];
            for rep in 0..r {
                out_row[rep] += p.eval(tj[rep] - ti[rep], sj[rep], cj[rep], si[rep], ci[rep]);
            }
        }
    }
}

/// Ensemble twin of [`finalize_rows_body`]: each oscillator row's scale
/// applies to its `r` contiguous replica slots. Same per-element
/// arithmetic (`omega + scale · v`), hence bitwise identical.
#[inline(always)]
fn finalize_rows_ensemble_body(omega: f64, scale: &[f64], r: usize, out: &mut [f64]) {
    for (row, &sc) in scale.iter().enumerate() {
        for d in &mut out[row * r..(row + 1) * r] {
            *d = omega + sc * *d;
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch
// ---------------------------------------------------------------------------
//
// The bodies above are plain scalar Rust; compiled for the x86-64 baseline
// they vectorize to SSE2 without FMA. Recompiling the same bodies with
// `#[target_feature(enable = "avx2,fma")]` lets LLVM emit 4-wide FMA code,
// roughly halving the split kernel's cost — worth a runtime dispatch,
// since the selection is a process-wide constant it cannot change results
// between threads or calls. (FMA contraction does change the low bits
// versus the non-FMA build; that machine dependence is part of the
// `SinCosSplit` accuracy policy and never applies to `Exact`.)

/// Finalize a chunk of raw coupling sums in place:
/// `out[slot] = omega + scale[slot] · out[slot]` (the noise-free fast
/// path; per-oscillator intrinsic noise takes the caller's scalar loop).
#[inline(always)]
fn finalize_rows_body(omega: f64, scale: &[f64], out: &mut [f64]) {
    for (d, &sc) in out.iter_mut().zip(scale) {
        *d = omega + sc * *d;
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn have_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Defines a `pub(crate)` front door for a scalar `*_body` kernel that
/// re-dispatches to an AVX2+FMA recompilation of the same body when the
/// CPU has the features. One definition per kernel — the dispatch policy
/// (feature set, detection, fallback) lives here once.
macro_rules! simd_dispatched {
    (
        $(#[$doc:meta])*
        fn $name:ident $(<$gen:ident: $bound:ident>)? ($($arg:ident: $ty:ty),* $(,)?) = $body:ident
    ) => {
        $(#[$doc])*
        // Ensemble kernels thread `r` through the shared signature shape.
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name$(<$gen: $bound>)?($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx2$(<$gen: $bound>)?($($arg: $ty),*) {
                    $body($($arg),*)
                }
                if have_avx2_fma() {
                    // SAFETY: the required CPU features were detected at
                    // runtime.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

simd_dispatched! {
    /// `sin`/`cos` array pass with runtime SIMD dispatch.
    fn sincos_pass(k: f64, xs: &[f64], s: &mut [f64], c: &mut [f64]) = sincos_pass_body
}

simd_dispatched! {
    /// Stencil row loop with runtime SIMD dispatch.
    fn split_rows_stencil<P: PairTerm>(
        p: P,
        stencil: &RingStencil,
        theta: &[f64],
        s: &[f64],
        c: &[f64],
        rows: std::ops::Range<usize>,
        out: &mut [f64],
    ) = split_rows_stencil_body
}

simd_dispatched! {
    /// CSR row loop with runtime SIMD dispatch.
    fn split_rows_csr<P: PairTerm>(
        p: P,
        csr: CsrView<'_>,
        theta: &[f64],
        s: &[f64],
        c: &[f64],
        rows: std::ops::Range<usize>,
        out: &mut [f64],
    ) = split_rows_csr_body
}

simd_dispatched! {
    /// Row finalization with runtime SIMD dispatch.
    fn finalize_rows(omega: f64, scale: &[f64], out: &mut [f64]) = finalize_rows_body
}

simd_dispatched! {
    /// Ensemble stencil row loop with runtime SIMD dispatch.
    fn split_rows_stencil_ensemble<P: PairTerm>(
        p: P,
        stencil: &RingStencil,
        r: usize,
        theta: &[f64],
        s: &[f64],
        c: &[f64],
        rows: std::ops::Range<usize>,
        out: &mut [f64],
    ) = split_rows_stencil_ensemble_body
}

simd_dispatched! {
    /// Ensemble CSR row loop with runtime SIMD dispatch.
    fn split_rows_csr_ensemble<P: PairTerm>(
        p: P,
        csr: CsrView<'_>,
        r: usize,
        theta: &[f64],
        s: &[f64],
        c: &[f64],
        rows: std::ops::Range<usize>,
        out: &mut [f64],
    ) = split_rows_csr_ensemble_body
}

simd_dispatched! {
    /// Ensemble row finalization with runtime SIMD dispatch.
    fn finalize_rows_ensemble(omega: f64, scale: &[f64], r: usize, out: &mut [f64]) = finalize_rows_ensemble_body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sincos_pass_matches_libm_within_policy() {
        // Dense sweep over several revolutions plus the desync wavenumber.
        let xs: Vec<f64> = (0..20_001).map(|i| -50.0 + i as f64 * 0.005).collect();
        let mut s = vec![0.0; xs.len()];
        let mut c = vec![0.0; xs.len()];
        for k in [1.0, 1.5 * std::f64::consts::PI / 3.0, 7.3] {
            sincos_pass(k, &xs, &mut s, &mut c);
            let mut max_err = 0.0f64;
            for (j, &x) in xs.iter().enumerate() {
                let (es, ec) = (k * x).sin_cos();
                max_err = max_err.max((s[j] - es).abs()).max((c[j] - ec).abs());
            }
            assert!(max_err < 1e-12, "k = {k}: max err {max_err:e}");
        }
    }

    #[test]
    fn sincos_pass_large_arguments_fall_back_to_libm() {
        let xs = [1e7, -3.2e8, 5.5e9, 2.0, f64::NAN];
        let mut s = [0.0; 5];
        let mut c = [0.0; 5];
        sincos_pass(1.0, &xs, &mut s, &mut c);
        // Beyond ARG_LIMIT: bitwise libm values.
        for j in 0..3 {
            assert_eq!(s[j], xs[j].sin(), "elem {j}");
            assert_eq!(c[j], xs[j].cos(), "elem {j}");
        }
        // Small argument in the same batch stays on the polynomial path.
        assert!((s[3] - xs[3].sin()).abs() < 1e-13);
        assert!((c[3] - xs[3].cos()).abs() < 1e-13);
        assert!(s[4].is_nan() && c[4].is_nan());
    }

    #[test]
    fn sincos_pass_chunk_invariant() {
        let xs: Vec<f64> = (0..777).map(|i| (i as f64 * 0.713).sin() * 40.0).collect();
        let k = 2.31;
        let mut s1 = vec![0.0; 777];
        let mut c1 = vec![0.0; 777];
        sincos_pass(k, &xs, &mut s1, &mut c1);
        // Same pass, split into uneven chunks.
        let mut s2 = vec![0.0; 777];
        let mut c2 = vec![0.0; 777];
        for (lo, hi) in [(0usize, 130usize), (130, 131), (131, 700), (700, 777)] {
            sincos_pass(k, &xs[lo..hi], &mut s2[lo..hi], &mut c2[lo..hi]);
        }
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [RhsKernel::Exact, RhsKernel::SinCosSplit] {
            assert_eq!(RhsKernel::from_name(k.name()), Some(k));
        }
        assert_eq!(RhsKernel::from_name("split"), Some(RhsKernel::SinCosSplit));
        assert_eq!(RhsKernel::from_name("quux"), None);
        assert_eq!(RhsKernel::default(), RhsKernel::Exact);
    }

    #[test]
    fn desync_pair_matches_potential() {
        let sigma = 2.5;
        let k = 1.5 * std::f64::consts::PI / sigma;
        let p = DesyncPair { sigma };
        let pot = crate::potential::Potential::desync(sigma);
        for (ti, tj) in [(0.1, 0.7), (-3.0, 2.0), (5.0, 5.0), (0.0, -9.0)] {
            let (si, ci) = (k * ti).sin_cos();
            let (sj, cj) = (k * tj).sin_cos();
            let via_pair = p.eval(tj - ti, sj, cj, si, ci);
            let direct = pot.value(tj - ti);
            assert!(
                (via_pair - direct).abs() < 1e-12,
                "({ti}, {tj}): {via_pair} vs {direct}"
            );
        }
    }

    #[test]
    fn split_scratch_grows_and_splits() {
        let mut sc = SplitScratch::default();
        let (s, c) = sc.halves(10);
        assert_eq!(s.len(), 10);
        assert_eq!(c.len(), 10);
        s[9] = 1.0;
        c[0] = 2.0;
        let (s, c) = sc.halves(4);
        assert_eq!(s.len(), 4);
        assert_eq!(c.len(), 4);
    }
}
