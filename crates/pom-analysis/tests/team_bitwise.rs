//! Bitwise contract of the whole-step row-block team: a Dormand–Prince
//! integration of the oscillator model gives the same bits at every
//! `rhs_threads` — the observed driver's final state and step counts, the
//! recording driver's dense output, and every field of the streaming
//! `RunSummaryProbe` the team-backed integration feeds.
//!
//! Inputs cover the stencil walk (ring offsets {±1} and {±1, ±2}), the
//! CSR walk (a random symmetric topology), the exact and sin/cos-split
//! kernels, process-local noise (a one-off delay injection, which takes
//! the per-row intrinsic branch), the `Tanh` potential (which the split
//! kernel evaluates exactly), and sizes on both sides of the team
//! threshold plus an odd size whose blocks split unevenly.

use pom_analysis::RunSummaryProbe;
use pom_core::{
    InitialCondition, Normalization, Pom, PomBuilder, Potential, RhsKernel, MIN_PAR_ROWS,
};
use pom_noise::{DelayEvent, OneOffDelays};
use pom_ode::{Dopri5, SolverStats, Workspace};
use pom_topology::Topology;

const T_END: f64 = 1.0;

#[derive(Clone, Copy, Debug)]
enum Topo {
    RingNearest,
    RingSecond,
    RandomCsr,
    /// Nearest-neighbor ring with delays injected on two ranks, in the
    /// first and the last member's block.
    RingInjected,
    RingTanh,
}

/// A ring plus `n` pseudo-random chords, symmetric, fixed seed: rows of
/// unequal degree whose neighbors fall in other members' blocks.
fn random_csr(n: usize) -> Topology {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % n
    };
    let mut edges = Vec::with_capacity(4 * n);
    for i in 0..n {
        let j = (i + 1) % n;
        let (a, b) = (next(), next());
        edges.extend([(i, j), (j, i), (a, b), (b, a)]);
    }
    Topology::from_edges(n, &edges)
}

fn model(topo: Topo, kernel: RhsKernel, n: usize, rhs_threads: usize) -> Pom {
    // Random chords join phases far apart; the smooth Kuramoto potential
    // keeps that run from stepping through desync's saturation kinks, and
    // a ring's κ keeps the long chords from making the system stiff.
    let (topology, potential) = match topo {
        Topo::RingNearest => (Topology::ring(n, &[-1, 1]), Potential::desync(3.0)),
        Topo::RingSecond => (Topology::ring(n, &[-2, -1, 1, 2]), Potential::desync(3.0)),
        Topo::RandomCsr => (random_csr(n), Potential::KuramotoSin),
        Topo::RingInjected => (Topology::ring(n, &[-1, 1]), Potential::desync(3.0)),
        Topo::RingTanh => (Topology::ring(n, &[-1, 1]), Potential::Tanh),
    };
    let mut builder = PomBuilder::new(n);
    if let Topo::RingInjected = topo {
        let delay = |rank, t_start| DelayEvent {
            rank,
            t_start,
            duration: 0.3,
            extra: 0.5,
        };
        builder = builder.local_noise(OneOffDelays::new(vec![delay(5, 0.2), delay(n - 3, 0.4)]));
    }
    builder
        .topology(topology)
        .potential(potential)
        .kappa(2.0)
        .compute_time(0.9)
        .comm_time(0.1)
        .kernel(kernel)
        .rhs_threads(rhs_threads)
        .normalization(Normalization::ByDegree)
        .build()
        .unwrap()
}

fn solver() -> Dopri5 {
    Dopri5::new().rtol(1e-8).atol(1e-10)
}

fn y0(n: usize) -> Vec<f64> {
    InitialCondition::RandomSpread {
        amplitude: 1.0,
        seed: 7,
    }
    .phases(n)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything one configuration produces, in comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    observed_state: Vec<u64>,
    observed_stats: SolverStats,
    /// `Debug` of the probe: every field, printed round-trip exact.
    probe: String,
    dense_samples: Vec<u64>,
    recorded_stats: SolverStats,
}

fn run(m: &Pom) -> Outcome {
    let n = m.n();
    let y0 = y0(n);
    let mut ws = Workspace::new();
    let mut probe = RunSummaryProbe::new();
    let (summary, observed_stats) = solver()
        .integrate_observed(m, 0.0, &y0, T_END, &mut ws, &mut probe)
        .unwrap();
    let (sol, recorded_stats) = solver()
        .integrate_with(m, 0.0, &y0, T_END, &mut ws)
        .unwrap();
    let mut dense_samples = Vec::new();
    for k in 0..=16 {
        dense_samples.extend(bits(&sol.sample(T_END * k as f64 / 16.0)));
    }
    Outcome {
        observed_state: bits(&summary.y_end),
        observed_stats,
        probe: format!("{probe:?}"),
        dense_samples,
        recorded_stats,
    }
}

fn assert_thread_invariant(topo: Topo, kernel: RhsKernel, n: usize) {
    let reference = run(&model(topo, kernel, n, 1));
    assert!(reference.observed_stats.n_accepted > 3, "the run must step");
    for threads in [2, 3, 4] {
        let got = run(&model(topo, kernel, n, threads));
        assert!(
            got == reference,
            "{topo:?} {kernel:?} n = {n}: rhs_threads = {threads} differs from 1"
        );
    }
}

fn sizes() -> [usize; 3] {
    // Just below the team threshold, at it, and an odd size ≥ 3× it.
    [MIN_PAR_ROWS - 1, MIN_PAR_ROWS, 3 * MIN_PAR_ROWS + 1]
}

#[test]
fn ring_nearest_neighbors_are_thread_invariant() {
    for kernel in [RhsKernel::Exact, RhsKernel::SinCosSplit] {
        for n in sizes() {
            assert_thread_invariant(Topo::RingNearest, kernel, n);
        }
    }
}

#[test]
fn ring_second_neighbors_are_thread_invariant() {
    for kernel in [RhsKernel::Exact, RhsKernel::SinCosSplit] {
        for n in sizes() {
            assert_thread_invariant(Topo::RingSecond, kernel, n);
        }
    }
}

#[test]
fn injected_delays_are_thread_invariant() {
    for kernel in [RhsKernel::Exact, RhsKernel::SinCosSplit] {
        for n in sizes() {
            assert_thread_invariant(Topo::RingInjected, kernel, n);
        }
    }
}

#[test]
fn tanh_is_thread_invariant() {
    for kernel in [RhsKernel::Exact, RhsKernel::SinCosSplit] {
        for n in sizes() {
            assert_thread_invariant(Topo::RingTanh, kernel, n);
        }
    }
}

#[test]
fn random_csr_is_thread_invariant() {
    for kernel in [RhsKernel::Exact, RhsKernel::SinCosSplit] {
        for n in sizes() {
            assert_thread_invariant(Topo::RandomCsr, kernel, n);
        }
    }
}

/// Two models, each with its own team, integrating at once on different
/// threads: the teams must not interfere (separate barriers, separate
/// scratch, separate installed scopes).
#[test]
fn concurrent_teams_stay_correct() {
    let n = 3 * MIN_PAR_ROWS + 1;
    let configs = [
        (Topo::RingNearest, RhsKernel::SinCosSplit),
        (Topo::RandomCsr, RhsKernel::Exact),
    ];
    let references: Vec<Outcome> = configs
        .iter()
        .map(|&(topo, kernel)| run(&model(topo, kernel, n, 1)))
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .iter()
            .map(|&(topo, kernel)| s.spawn(move || run(&model(topo, kernel, n, 2))))
            .collect();
        for (h, (reference, cfg)) in handles.into_iter().zip(references.iter().zip(&configs)) {
            assert!(
                &h.join().unwrap() == reference,
                "{cfg:?} differs under concurrency"
            );
        }
    });
}
