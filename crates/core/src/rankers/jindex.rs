//! J-index ranker: the Youden-index-based approach of Lu et al. \[16\].

use crate::error::WefrError;
use crate::ranker::{observed_only, validate_input, FeatureRanker, RankInput};
use crate::ranking::FeatureRanking;
use smart_stats::threshold::j_index;

/// J-index of one column with missing (NaN) cells dropped pairwise. A
/// column whose observed labels collapse to a single class scores 0.0 — no
/// threshold on it can separate anything.
fn j_index_observed(column: &[f64], labels: &[bool]) -> Result<f64, WefrError> {
    match observed_only(column, labels) {
        None => j_index(column, labels).map_err(WefrError::from),
        Some((xs, ys)) => {
            if ys.iter().all(|&l| l) || ys.iter().all(|&l| !l) {
                return Ok(0.0);
            }
            j_index(&xs, &ys).map_err(WefrError::from)
        }
    }
}

/// Ranks features by their J-index: the best achievable Youden J
/// (`sensitivity + specificity − 1`) over all single-feature thresholds, in
/// either orientation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JIndexRanker;

impl JIndexRanker {
    /// Construct the ranker.
    pub fn new() -> Self {
        JIndexRanker
    }
}

impl FeatureRanker for JIndexRanker {
    fn name(&self) -> &'static str {
        "j-index"
    }

    fn rank_prepared(&self, input: &RankInput<'_>) -> Result<FeatureRanking, WefrError> {
        let RankInput { data, labels, .. } = *input;
        validate_input(data, labels)?;
        let scores = (0..data.n_features())
            .map(|c| j_index_observed(data.column(c), labels))
            .collect::<Result<Vec<f64>, _>>()?;
        FeatureRanking::from_scores(data.feature_names().to_vec(), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_stats::FeatureMatrix;

    #[test]
    fn prefers_threshold_separable_feature() {
        // col 0 separates perfectly at a threshold but is non-monotone in
        // value (correlations would score it lower); col 1 is noise.
        let labels = vec![false, false, false, true, true, true];
        let separable = vec![5.0, 6.0, 7.0, 20.0, 21.0, 22.0];
        let noise = vec![1.0, 9.0, 4.0, 3.0, 8.0, 2.0];
        let m = FeatureMatrix::from_columns(
            vec!["separable".into(), "noise".into()],
            vec![separable, noise],
        )
        .unwrap();
        let r = JIndexRanker::new().rank(&m, &labels).unwrap();
        assert_eq!(r.top_names(1), vec!["separable"]);
        assert!((r.score_of("separable").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_features_score_equally() {
        let labels = vec![false, false, true, true];
        let up = vec![1.0, 2.0, 9.0, 10.0];
        let down: Vec<f64> = up.iter().map(|v| -v).collect();
        let m =
            FeatureMatrix::from_columns(vec!["up".into(), "down".into()], vec![up, down]).unwrap();
        let r = JIndexRanker::new().rank(&m, &labels).unwrap();
        assert!((r.score_of("up").unwrap() - r.score_of("down").unwrap()).abs() < 1e-12);
    }

    #[test]
    fn rejects_single_class() {
        let m = FeatureMatrix::from_columns(vec!["x".into()], vec![vec![1.0, 2.0]]).unwrap();
        assert!(JIndexRanker::new().rank(&m, &[true, true]).is_err());
    }

    #[test]
    fn missing_cells_are_dropped_pairwise() {
        // Knocking out one negative row leaves a still-perfect separator;
        // a column observed only on one class scores zero.
        let labels = vec![false, false, false, true, true, true];
        let separable = vec![5.0, f64::NAN, 7.0, 20.0, 21.0, 22.0];
        let one_class_only = vec![f64::NAN, f64::NAN, f64::NAN, 1.0, 2.0, 3.0];
        let m = FeatureMatrix::from_columns_with_missing(
            vec!["separable".into(), "one_class".into()],
            vec![separable, one_class_only],
        )
        .unwrap();
        let r = JIndexRanker::new().rank(&m, &labels).unwrap();
        assert!((r.score_of("separable").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(r.score_of("one_class").unwrap(), 0.0);
    }
}
