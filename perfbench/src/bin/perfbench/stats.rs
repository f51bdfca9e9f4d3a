//! Order statistics over timing samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p99 over 300 samples rests on three values and moves with
//! every stray context switch, so it is refused rather than printed.

use std::time::Instant;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if !(q > 0.0 && q < 1.0) || samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle pair for even counts), or
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Run `f`, returning its result and the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_secs_f64())
}

/// Least-squares slope of `ys` against `xs`, or `None` for fewer than two
/// distinct `xs`.
pub fn slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return None;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in xs[..n].iter().zip(&ys[..n]) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    (sxx > 0.0).then(|| sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1..=1000 is 990, with exactly ten samples above it.
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        // One sample fewer leaves only nine beyond the p99 rank.
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let p = percentile(&samples, 0.99);
        samples.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&samples, 0.99));
        assert_eq!(p, Some(1979.0));
    }

    #[test]
    fn percentile_rejects_degenerate_quantiles() {
        let samples = vec![1.0; 100];
        assert_eq!(percentile(&samples, 0.0), None);
        assert_eq!(percentile(&samples, 1.0), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_slope() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(slope(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]), Some(2.0));
        assert_eq!(slope(&[1.0, 1.0], &[1.0, 3.0]), None);
    }
}
