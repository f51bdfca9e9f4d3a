//! Test-only exact oracle: the sort-and-scan split search.
//!
//! Training uses one engine, the histogram search over a
//! [`BinnedMatrix`]. This module keeps the search it replaced as the
//! reference the parity tests below compare it against; its tree-level
//! counterpart is `RegressionTree::fit_exact`, which calls [`best_split`] at
//! every node. The guarantees checked here:
//!
//! * on losslessly binned features (≤ 255 distinct values) with 0/1
//!   targets every partial sum is an exact integer, so the histogram split
//!   equals the exact split **bitwise** — same gain, threshold and left
//!   count — and whole trees grown from the same RNG stream are identical;
//! * on quantized features the histogram split *is* the exact split of the
//!   quantized column, and its gain never exceeds the exact gain on the raw
//!   column (its boundaries are a subset of the raw boundaries).

use crate::binned::{BinnedMatrix, Split};

/// Find the best split of a feature given `(value, target)` pairs.
///
/// `pairs` is sorted in place by value. Returns `None` when no split
/// satisfies `min_samples_leaf` on both sides or no split has positive gain
/// (e.g. the feature is constant).
///
/// NaN input yields `None` rather than a panic: a sort has no place for a
/// missing value, so a feature containing NaN is simply unsplittable here.
/// The histogram search handles missing values instead, via the reserved
/// NaN bin in [`BinnedMatrix`] (missing rows are routed to whichever side
/// scans better).
pub(crate) fn best_split(pairs: &mut [(f64, f64)], min_samples_leaf: usize) -> Option<Split> {
    let n = pairs.len();
    if n < 2 * min_samples_leaf {
        return None;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    // total_cmp sorts negative NaNs first and positive NaNs last.
    if pairs[0].0.is_nan() || pairs[n - 1].0.is_nan() {
        return None;
    }

    let total_sum: f64 = pairs.iter().map(|p| p.1).sum();
    // gain(k) = S_L²/n_L + S_R²/n_R - S²/n  (the Σy² terms cancel).
    let base = total_sum * total_sum / n as f64;

    let mut best: Option<Split> = None;
    let mut left_sum = 0.0;
    for k in 1..n {
        left_sum += pairs[k - 1].1;
        // Can't split between equal values.
        if pairs[k - 1].0 == pairs[k].0 {
            continue;
        }
        if k < min_samples_leaf || n - k < min_samples_leaf {
            continue;
        }
        let right_sum = total_sum - left_sum;
        let gain = left_sum * left_sum / k as f64 + right_sum * right_sum / (n - k) as f64 - base;
        if gain > best.map_or(1e-12, |b| b.gain) {
            // Threshold = the left boundary value, with `<=` semantics.
            // (A midpoint can round back onto a boundary when adjacent
            // values are nearly equal, silently moving the tie group.)
            let threshold = pairs[k - 1].0;
            best = Some(Split {
                threshold,
                gain,
                n_left: k,
                nan_left: true,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MaxFeatures, TreeConfig};
    use crate::tree::RegressionTree;
    use rng::prop::Gen;
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use smart_stats::FeatureMatrix;

    #[test]
    fn perfect_separation() {
        let mut pairs = vec![(1.0, 0.0), (2.0, 0.0), (10.0, 1.0), (11.0, 1.0)];
        let s = best_split(&mut pairs, 1).unwrap();
        assert_eq!(s.threshold, 2.0);
        assert_eq!(s.n_left, 2);
        // Total SSE of [0,0,1,1] around mean 0.5 is 1.0; a perfect split
        // removes all of it.
        assert!((s.gain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_feature_has_no_split() {
        let mut pairs = vec![(5.0, 0.0), (5.0, 1.0), (5.0, 0.0)];
        assert!(best_split(&mut pairs, 1).is_none());
    }

    #[test]
    fn constant_target_has_no_split() {
        let mut pairs = vec![(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)];
        assert!(best_split(&mut pairs, 1).is_none());
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut pairs = vec![(1.0, 0.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)];
        let s = best_split(&mut pairs, 2);
        if let Some(s) = s {
            assert!(s.n_left >= 2 && pairs.len() - s.n_left >= 2);
        }
        let mut pairs = vec![(1.0, 0.0), (2.0, 1.0)];
        assert!(best_split(&mut pairs, 2).is_none());
    }

    #[test]
    fn threshold_is_left_boundary() {
        let mut pairs = vec![(0.0, 0.0), (4.0, 1.0)];
        let s = best_split(&mut pairs, 1).unwrap();
        assert_eq!(s.threshold, 0.0);
    }

    #[test]
    fn picks_strongest_boundary() {
        // Feature: target flips at value 5 (one error) vs at value 2 (clean).
        let mut pairs = vec![
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 1.0),
            (4.0, 1.0),
            (5.0, 1.0),
            (6.0, 1.0),
        ];
        let s = best_split(&mut pairs, 1).unwrap();
        assert_eq!(s.threshold, 2.0, "threshold {}", s.threshold);
    }

    #[test]
    fn nan_feature_value_returns_none_instead_of_panicking() {
        // Regression: this used to panic via partial_cmp().expect() mid-fit.
        let mut pairs = vec![(1.0, 0.0), (f64::NAN, 1.0), (3.0, 1.0), (4.0, 1.0)];
        assert!(best_split(&mut pairs, 1).is_none());
        let mut pairs = vec![(-f64::NAN, 0.0), (1.0, 1.0), (2.0, 0.0)];
        assert!(best_split(&mut pairs, 1).is_none());
    }

    #[test]
    fn nan_target_returns_none() {
        let mut pairs = vec![(1.0, 0.0), (2.0, f64::NAN), (3.0, 1.0), (4.0, 1.0)];
        assert!(best_split(&mut pairs, 1).is_none());
    }

    fn gen_split_pairs(g: &mut rng::prop::Gen) -> Vec<(f64, f64)> {
        let n = g.usize_in(2, 59);
        (0..n)
            .map(|_| (g.f64_in(-100.0, 100.0), g.f64_in(0.0, 1.0)))
            .collect()
    }

    #[test]
    fn prop_gain_is_nonnegative_and_bounded() {
        rng::prop_check!(|g| {
            let mut pairs = gen_split_pairs(g);
            if let Some(s) = best_split(&mut pairs, 1) {
                assert!(s.gain > 0.0);
                // Gain can't exceed the total SSE.
                let n = pairs.len() as f64;
                let mean: f64 = pairs.iter().map(|p| p.1).sum::<f64>() / n;
                let sse: f64 = pairs.iter().map(|p| (p.1 - mean).powi(2)).sum();
                assert!(s.gain <= sse + 1e-9);
                assert!(s.n_left >= 1 && s.n_left < pairs.len());
            }
        });
    }

    #[test]
    fn prop_split_separates_values() {
        rng::prop_check!(|g| {
            let mut pairs = gen_split_pairs(g);
            if let Some(s) = best_split(&mut pairs, 1) {
                // After the in-place sort, rows 0..n_left are <= threshold.
                for (i, &(v, _)) in pairs.iter().enumerate() {
                    if i < s.n_left {
                        assert!(v <= s.threshold);
                    } else {
                        assert!(v > s.threshold);
                    }
                }
            }
        });
    }

    fn single_column(values: &[f64]) -> FeatureMatrix {
        FeatureMatrix::from_columns(vec!["f0".into()], vec![values.to_vec()]).unwrap()
    }

    /// Exact best split of one column.
    fn exact_split(values: &[f64], targets: &[f64], msl: usize) -> Option<Split> {
        let mut pairs: Vec<(f64, f64)> = values
            .iter()
            .copied()
            .zip(targets.iter().copied())
            .collect();
        best_split(&mut pairs, msl)
    }

    /// A column with at most `max_distinct` distinct values.
    fn low_cardinality_column(g: &mut Gen, n: usize, max_distinct: usize) -> Vec<f64> {
        let d = g.usize_in(2, max_distinct);
        let pool: Vec<f64> = (0..d).map(|_| g.f64_in(-50.0, 50.0)).collect();
        (0..n).map(|_| pool[g.usize_in(0, d - 1)]).collect()
    }

    fn binary_targets(g: &mut Gen, n: usize) -> Vec<f64> {
        (0..n).map(|_| g.usize_in(0, 1) as f64).collect()
    }

    #[test]
    fn prop_exactly_binned_split_is_bitwise_identical() {
        rng::prop_check!(|g| {
            let n = g.usize_in(4, 80);
            let values = low_cardinality_column(g, n, 12);
            let targets = binary_targets(g, n);
            let msl = g.usize_in(1, 3);

            let binned = BinnedMatrix::from_matrix(&single_column(&values)).unwrap();
            assert!(binned.is_exact(0));
            let rows: Vec<usize> = (0..n).collect();
            let hist = binned.best_split(0, &rows, &targets, msl);
            let exact = exact_split(&values, &targets, msl);
            // 0/1 targets: gains are exact integers-over-integers on both
            // sides, so the whole Split must match bit for bit.
            assert_eq!(hist, exact);
        });
    }

    #[test]
    fn prop_exactly_binned_split_matches_with_continuous_targets() {
        rng::prop_check!(|g| {
            let n = g.usize_in(4, 60);
            let values = low_cardinality_column(g, n, 10);
            let targets: Vec<f64> = (0..n).map(|_| g.f64_in(0.0, 1.0)).collect();

            let binned = BinnedMatrix::from_matrix(&single_column(&values)).unwrap();
            let rows: Vec<usize> = (0..n).collect();
            let hist = binned.best_split(0, &rows, &targets, 1);
            let exact = exact_split(&values, &targets, 1);
            match (hist, exact) {
                (Some(h), Some(e)) => {
                    // Continuous targets accumulate in different orders, so
                    // gains agree only to rounding — but the chosen boundary
                    // must be the same.
                    assert_eq!(h.threshold, e.threshold);
                    assert_eq!(h.n_left, e.n_left);
                    assert!((h.gain - e.gain).abs() <= 1e-9 * e.gain.abs().max(1.0));
                }
                (h, e) => assert_eq!(h.map(|s| s.n_left), e.map(|s| s.n_left)),
            }
        });
    }

    #[test]
    fn prop_quantized_split_equals_exact_on_quantized_column() {
        rng::prop_check!(|g| {
            let n = g.usize_in(30, 120);
            let max_bins = g.usize_in(2, 16);
            let values: Vec<f64> = (0..n).map(|_| g.f64_in(-100.0, 100.0)).collect();
            let targets = binary_targets(g, n);
            let msl = g.usize_in(1, 3);

            let binned = BinnedMatrix::with_max_bins(&single_column(&values), max_bins).unwrap();
            let rows: Vec<usize> = (0..n).collect();
            let hist = binned.best_split(0, &rows, &targets, msl);

            // The strong property: the histogram search over raw values IS
            // the exact search over the quantized column (values snapped to
            // their bin upper). With 0/1 targets the match is bitwise.
            let quantized = binned.quantized_matrix();
            let exact_on_quantized = exact_split(quantized.column(0), &targets, msl);
            assert_eq!(hist, exact_on_quantized);

            if let Some(h) = hist {
                // min_samples_leaf is never violated by quantization.
                assert!(h.n_left >= msl && n - h.n_left >= msl);
                // Histogram boundaries are a subset of the raw boundaries,
                // so quantization can only lose gain, never invent it.
                if let Some(e) = exact_split(&values, &targets, msl) {
                    assert!(
                        h.gain <= e.gain + 1e-9,
                        "hist {} > exact {}",
                        h.gain,
                        e.gain
                    );
                }
            }
        });
    }

    #[test]
    fn prop_trees_are_identical_on_exactly_binned_data() {
        rng::prop_check!(|g| {
            let n = g.usize_in(20, 100);
            let columns: Vec<Vec<f64>> = (0..3).map(|_| low_cardinality_column(g, n, 9)).collect();
            let names = vec!["a".into(), "b".into(), "c".into()];
            let data = FeatureMatrix::from_columns(names, columns).unwrap();
            let targets = binary_targets(g, n);
            let rows: Vec<usize> = (0..n).collect();
            let binned = BinnedMatrix::from_matrix(&data).unwrap();
            let seed = g.usize_in(0, u32::MAX as usize) as u64;

            for max_features in [MaxFeatures::All, MaxFeatures::Sqrt] {
                let config = TreeConfig {
                    max_depth: 5,
                    max_features,
                    ..TreeConfig::default()
                };
                let mut rng_a = StdRng::seed_from_u64(seed);
                let exact =
                    RegressionTree::fit_exact(&data, &targets, &rows, &config, &mut rng_a).unwrap();
                let mut rng_b = StdRng::seed_from_u64(seed);
                let hist =
                    RegressionTree::fit_binned(&binned, &targets, &rows, &config, &mut rng_b)
                        .unwrap();
                // Same RNG stream + bit-identical split decisions ⇒ the same
                // tree, node for node — and both builders must have consumed
                // the same number of RNG draws to stay in lockstep.
                assert_eq!(exact, hist, "max_features = {max_features:?}");
                assert_eq!(exact.predict(&data).unwrap(), hist.predict(&data).unwrap());
            }
        });
    }

    #[test]
    fn quantized_tree_predicts_raw_rows_like_quantized_rows() {
        // Thresholds of a histogram-trained tree are bin uppers, so a raw
        // value and its quantized image route identically through every
        // node.
        let mut g = Gen::new(0xB17);
        let n = 300;
        let columns: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..n).map(|_| g.f64_in(-10.0, 10.0)).collect())
            .collect();
        let data = FeatureMatrix::from_columns(vec!["x".into(), "y".into()], columns).unwrap();
        let targets = binary_targets(&mut g, n);
        let rows: Vec<usize> = (0..n).collect();
        let binned = BinnedMatrix::with_max_bins(&data, 32).unwrap();
        assert!(!binned.is_exact(0) && !binned.is_exact(1));

        let config = TreeConfig {
            max_depth: 6,
            ..TreeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let tree = RegressionTree::fit_binned(&binned, &targets, &rows, &config, &mut rng).unwrap();
        assert_eq!(
            tree.predict(&data).unwrap(),
            tree.predict(&binned.quantized_matrix()).unwrap()
        );
    }
}
