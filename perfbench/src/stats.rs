//! Order statistics for timing samples.
//!
//! Every percentile the benchmark reports goes through [`percentile`],
//! which refuses to produce a number unless at least
//! [`MIN_BEYOND`] samples lie beyond it: a p90 of 40 samples rests on
//! four values and moves with every run, so it is recorded as missing
//! instead.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Ascending copy of `xs` (NaN-free input assumed; NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile of ascending `sorted` at `q` in [0, 1]
/// (the "type 7" definition: position `q·(n−1)`). `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of unsorted `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(&sorted(xs), 0.5)
}

/// Mean of the fastest quarter of `xs` (at least three samples, or all
/// of them when fewer); `None` when empty. The benchmark's in-run
/// estimator of one pass: on a shared host, slow passes come in streaks
/// that last seconds, so the slow end of a run carries the host's state
/// rather than the program's cost, while the fast quarter still averages
/// over several passes.
pub fn fast_quarter_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let k = (s.len() / 4).max(3).min(s.len());
    Some(s[..k].iter().sum::<f64>() / k as f64)
}

/// A percentile with its sample count; `value` is `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile rank in (0, 100).
    pub p: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples beyond the percentile's rank: ⌊n·(100 − p)/100⌋.
    pub beyond: usize,
    /// The value, or `None` when `beyond < MIN_BEYOND`.
    pub value: Option<f64>,
}

impl Percentile {
    /// The `p`-th percentile of `samples` values; `value` computes it and
    /// is called only when at least [`MIN_BEYOND`] samples lie beyond it.
    fn checked(p: f64, samples: usize, value: impl FnOnce() -> Option<f64>) -> Self {
        let beyond = (samples as f64 * (100.0 - p) / 100.0).floor() as usize;
        let value = if beyond >= MIN_BEYOND { value() } else { None };
        Self {
            p,
            samples,
            beyond,
            value,
        }
    }
}

/// The `p`-th percentile of unsorted `xs`, valid only with at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Percentile {
    Percentile::checked(p, xs.len(), || quantile(&sorted(xs), p / 100.0))
}

/// The `p`-th percentile of a pom-obs histogram (bucketed, so the value
/// is the histogram's own interpolation), under the same validity rule.
pub fn histogram_percentile(h: &pom_obs::Histogram, p: f64) -> Percentile {
    Percentile::checked(p, h.count() as usize, || h.quantile(p / 100.0))
}

impl Percentile {
    /// JSON object `{"p":…,"samples":…,"beyond":…,"value":…|null}`.
    pub fn to_json(self) -> String {
        let value = match self.value {
            Some(v) => format!("{v}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"p\":{},\"samples\":{},\"beyond\":{},\"value\":{value}}}",
            self.p, self.samples, self.beyond
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&s, 0.0), Some(10.0));
        assert_eq!(quantile(&s, 1.0), Some(50.0));
        assert_eq!(quantile(&s, 0.25), Some(20.0));
        assert_eq!(quantile(&s, 0.1), Some(14.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn fast_quarter_mean_keeps_the_fastest_quarter() {
        let xs: Vec<f64> = (1..=16).rev().map(f64::from).collect();
        assert_eq!(fast_quarter_mean(&xs), Some(2.5));
        // Never fewer than three samples, never more than there are.
        assert_eq!(fast_quarter_mean(&[9.0, 1.0, 2.0, 3.0, 8.0]), Some(2.0));
        assert_eq!(fast_quarter_mean(&[4.0, 2.0]), Some(3.0));
        assert_eq!(fast_quarter_mean(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0);
        assert_eq!((p90.samples, p90.beyond), (99, 9));
        assert_eq!(p90.value, None);

        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!((p90.value.unwrap() - 90.1).abs() < 1e-9);

        let p50 = percentile(&xs[..20], 50.0);
        assert_eq!(p50.beyond, 10);
        assert_eq!(p50.value, Some(10.5));
        assert_eq!(percentile(&xs[..19], 50.0).value, None);
    }

    #[test]
    fn missing_percentile_renders_as_null() {
        let p = percentile(&[1.0, 2.0], 90.0);
        assert_eq!(
            p.to_json(),
            "{\"p\":90,\"samples\":2,\"beyond\":0,\"value\":null}"
        );
    }
}
