//! Criterion bench: CSR sparse vs dense topology coupling sum (the
//! sparse-storage ablation) and potential evaluation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pom_core::Potential;
use pom_topology::Topology;
use std::hint::black_box;

/// Coupling sum through the CSR topology.
fn coupling_csr(topo: &Topology, pot: Potential, theta: &[f64], out: &mut [f64]) {
    for i in 0..topo.n() {
        let mut acc = 0.0;
        for &j in topo.neighbors(i) {
            acc += pot.value(theta[j as usize] - theta[i]);
        }
        out[i] = acc;
    }
}

/// Coupling sum through a dense 0/1 matrix (the naive Eq. 2 reading).
fn coupling_dense(dense: &[Vec<f64>], pot: Potential, theta: &[f64], out: &mut [f64]) {
    let n = theta.len();
    for i in 0..n {
        let mut acc = 0.0;
        for j in 0..n {
            if dense[i][j] != 0.0 {
                acc += pot.value(theta[j] - theta[i]);
            }
        }
        out[i] = acc;
    }
}

fn bench_coupling(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupling_sum");
    for n in [64usize, 256, 1024] {
        let topo = Topology::ring(n, &[-2, -1, 1]);
        let dense = topo.to_dense();
        let theta: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut out = vec![0.0; n];
        let pot = Potential::desync(3.0);

        group.bench_with_input(BenchmarkId::new("csr", n), &n, |b, _| {
            b.iter(|| {
                coupling_csr(&topo, pot, black_box(&theta), &mut out);
                black_box(out[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| {
                coupling_dense(&dense, pot, black_box(&theta), &mut out);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_potentials(c: &mut Criterion) {
    let mut group = c.benchmark_group("potential_eval");
    let xs: Vec<f64> = (0..4096).map(|k| (k as f64 - 2048.0) * 0.01).collect();
    for (name, pot) in [
        ("tanh", Potential::Tanh),
        ("desync", Potential::desync(3.0)),
        ("kuramoto_sin", Potential::KuramotoSin),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for &x in &xs {
                    acc += pot.value(black_box(x));
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_coupling, bench_potentials);
criterion_main!(benches);
