//! Observables of the oscillator system.
//!
//! These are the quantities the paper visualizes (§3.2): the circular
//! phase diagram uses raw phases; the "standard view" shows
//! `θ_i − ωt` *normalized to the slowest ("lagger") process as the
//! baseline*; synchrony is quantified by the Kuramoto order parameter and
//! by the phase spread.

use pom_kernels::par::{ChunkPool, DisjointSliceMut};

use crate::model::MIN_PAR_ROWS;

/// Kuramoto order parameter `r ∈ [0, 1]` and mean phase `ψ`:
/// `r·e^{iψ} = (1/N)·Σ_j e^{iθ_j}`.
///
/// `r = 1` means perfect synchrony; `r ≈ 0` a uniformly spread
/// (fully desynchronized) phase distribution.
///
/// Inside a [`ChunkPool::install`] scope (a team-backed integration
/// installs its model's team for its observers) the per-oscillator
/// `cos`/`sin` fill runs on the team, into the team's scratch; the sums
/// stay in ascending order on the calling thread, so the result is
/// bitwise identical to the serial loop.
///
/// # Panics
/// Panics on an empty slice.
pub fn order_parameter(phases: &[f64]) -> (f64, f64) {
    assert!(!phases.is_empty(), "order parameter of an empty system");
    let n = phases.len() as f64;
    let (mut re, mut im) = ChunkPool::with_installed(|team| match team {
        Some(team) if team.threads() > 1 && phases.len() >= MIN_PAR_ROWS => {
            team_cos_sin_sums(team, phases)
        }
        _ => {
            let (mut re, mut im) = (0.0, 0.0);
            for &p in phases {
                re += p.cos();
                im += p.sin();
            }
            (re, im)
        }
    });
    re /= n;
    im /= n;
    ((re * re + im * im).sqrt(), im.atan2(re))
}

/// `(Σ cos θ_j, Σ sin θ_j)` with the libm fill split over `team` and the
/// sums taken in ascending order on the caller.
fn team_cos_sin_sums(team: &ChunkPool, phases: &[f64]) -> (f64, f64) {
    let n = phases.len();
    team.with_scratch(2 * n, |buf| {
        let (cos, sin) = buf.split_at_mut(n);
        {
            let (cos, sin) = (
                DisjointSliceMut::new(&mut *cos),
                DisjointSliceMut::new(&mut *sin),
            );
            team.run(n, &|_slot, rows| {
                // SAFETY: `ChunkPool::run` hands each slot a disjoint range.
                let (c, s) = unsafe { (cos.range_mut(rows.clone()), sin.range_mut(rows.clone())) };
                for ((c, s), &p) in c.iter_mut().zip(s).zip(&phases[rows]) {
                    *c = p.cos();
                    *s = p.sin();
                }
            });
        }
        let (mut re, mut im) = (0.0, 0.0);
        for (&c, &s) in cos.iter().zip(&*sin) {
            re += c;
            im += s;
        }
        (re, im)
    })
}

/// Phase spread `max_i θ_i − min_i θ_i` (radians).
///
/// Unlike the order parameter this is *not* 2π-periodic: it grows without
/// bound for a desynchronized wavefront, which is exactly what makes it
/// the right yardstick for the bottlenecked case (§5.2.2: "a corresponding
/// decrease in oscillator phase spread").
pub fn phase_spread(phases: &[f64]) -> f64 {
    assert!(!phases.is_empty());
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &p in phases {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    hi - lo
}

/// The paper's standard view (§3.2): `θ_i − ωt`, shifted so the slowest
/// ("lagger") process sits at zero.
pub fn lagger_normalized(phases: &[f64], omega: f64, t: f64) -> Vec<f64> {
    assert!(!phases.is_empty());
    let drift = omega * t;
    let min = phases
        .iter()
        .map(|&p| p - drift)
        .fold(f64::INFINITY, f64::min);
    phases.iter().map(|&p| p - drift - min).collect()
}

/// Differences between adjacent ranks, `θ_{i+1} − θ_i` (length `N − 1`):
/// the wavefront slope diagnostic. A synchronized system has all ≈ 0; a
/// fully developed computational wavefront has all ≈ ±2σ/3 (§5.2.2).
pub fn adjacent_differences(phases: &[f64]) -> Vec<f64> {
    phases.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Winding number of a ring of phases: the net number of full turns
/// accumulated walking once around the ring with each step wrapped to
/// (−π, π]. Communicating processes can never wind (a computation cannot
/// start before its message arrived), so a nonzero winding number is a
/// *phase slip* — the failure mode of the periodic Kuramoto potential the
/// paper calls out in §2.2.2.
pub fn winding_number(phases: &[f64]) -> i64 {
    if phases.len() < 2 {
        return 0;
    }
    let tau = std::f64::consts::TAU;
    let wrap = |x: f64| x - tau * (x / tau).round();
    let mut acc = 0.0;
    for w in phases.windows(2) {
        acc += wrap(w[1] - w[0]);
    }
    acc += wrap(phases[0] - phases[phases.len() - 1]);
    (acc / tau).round() as i64
}

/// Mean of the absolute adjacent differences (a scalar "desync amplitude").
pub fn mean_abs_adjacent_difference(phases: &[f64]) -> f64 {
    let d = adjacent_differences(phases);
    if d.is_empty() {
        return 0.0;
    }
    d.iter().map(|x| x.abs()).sum::<f64>() / d.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    #[test]
    fn order_parameter_synchronized() {
        let (r, psi) = order_parameter(&[0.7; 12]);
        assert!((r - 1.0).abs() < 1e-12);
        assert!((psi - 0.7).abs() < 1e-12);
    }

    #[test]
    fn order_parameter_uniform_spread_is_zero() {
        let n = 16;
        let phases: Vec<f64> = (0..n).map(|k| TAU * k as f64 / n as f64).collect();
        let (r, _) = order_parameter(&phases);
        assert!(r < 1e-12, "r = {r}");
    }

    #[test]
    fn order_parameter_two_opposite() {
        let (r, _) = order_parameter(&[0.0, PI]);
        assert!(r < 1e-12);
    }

    #[test]
    fn order_parameter_is_2pi_invariant() {
        let a = order_parameter(&[0.1, 0.5, 1.0]).0;
        let b = order_parameter(&[0.1 + TAU, 0.5, 1.0 - TAU]).0;
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn phase_spread_basics() {
        assert_eq!(phase_spread(&[1.0, 3.5, 2.0]), 2.5);
        assert_eq!(phase_spread(&[4.2]), 0.0);
        // NOT periodic: a full-turn offset counts.
        assert!((phase_spread(&[0.0, TAU]) - TAU).abs() < 1e-12);
    }

    #[test]
    fn lagger_normalization_zeroes_the_slowest() {
        let omega = TAU;
        let t = 2.0;
        // Oscillator 1 lags by 0.4 behind the free-running phase ωt.
        let phases = vec![omega * t, omega * t - 0.4, omega * t + 0.3];
        let norm = lagger_normalized(&phases, omega, t);
        assert!((norm[1] - 0.0).abs() < 1e-12);
        assert!((norm[0] - 0.4).abs() < 1e-12);
        assert!((norm[2] - 0.7).abs() < 1e-12);
        assert!(norm.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn adjacent_differences_shape() {
        let d = adjacent_differences(&[0.0, 1.0, 3.0, 2.5]);
        assert_eq!(d, vec![1.0, 2.0, -0.5]);
        assert!(adjacent_differences(&[5.0]).is_empty());
    }

    #[test]
    fn mean_abs_adjacent_difference_wavefront() {
        // A perfect wavefront with slope 2 has mean |Δ| = 2.
        let phases: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        assert!((mean_abs_adjacent_difference(&phases) - 2.0).abs() < 1e-12);
        // Synchronized: 0.
        assert_eq!(mean_abs_adjacent_difference(&[1.0; 8]), 0.0);
        // Single oscillator: defined as 0.
        assert_eq!(mean_abs_adjacent_difference(&[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn order_parameter_rejects_empty() {
        order_parameter(&[]);
    }

    #[test]
    fn winding_number_detects_slips() {
        // No slip: small fluctuations around a constant.
        assert_eq!(winding_number(&[0.0, 0.1, -0.2, 0.05]), 0);
        // One full forward turn distributed over the ring.
        let n = 8;
        let up: Vec<f64> = (0..n).map(|i| TAU * i as f64 / n as f64).collect();
        assert_eq!(winding_number(&up), 1);
        // Two turns backwards.
        let down: Vec<f64> = (0..n).map(|i| -2.0 * TAU * i as f64 / n as f64).collect();
        assert_eq!(winding_number(&down), -2);
        // A slipped Kuramoto state: one oscillator a full 2π ahead does
        // NOT wind (it is a local defect, +2π and −2π cancel)…
        let mut slipped = vec![0.0; 6];
        slipped[3] = TAU;
        assert_eq!(winding_number(&slipped), 0);
        // Degenerate sizes.
        assert_eq!(winding_number(&[]), 0);
        assert_eq!(winding_number(&[1.0]), 0);
    }
}
