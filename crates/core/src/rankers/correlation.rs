//! Correlation-based rankers: Pearson (linear) and Spearman (monotonic).

use crate::error::WefrError;
use crate::ranker::{observed_only, validate_input, FeatureRanker, RankInput};
use crate::ranking::FeatureRanking;
use smart_stats::correlation::{pearson, spearman};

/// Score one column, dropping missing (NaN) cells pairwise first. Columns
/// with fewer than two observed rows score 0.0.
fn score_observed(
    column: &[f64],
    y: &[f64],
    stat: impl Fn(&[f64], &[f64]) -> Result<f64, smart_stats::StatsError>,
) -> Result<f64, WefrError> {
    let scored = match observed_only(column, y) {
        None => stat(column, y),
        Some((xs, ys)) if xs.len() >= 2 => stat(&xs, &ys),
        Some(_) => return Ok(0.0),
    };
    scored.map(f64::abs).map_err(WefrError::from)
}

/// Ranks features by the absolute Pearson correlation between the feature
/// and the 0/1 failure label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PearsonRanker;

impl PearsonRanker {
    /// Construct the ranker.
    pub fn new() -> Self {
        PearsonRanker
    }
}

impl FeatureRanker for PearsonRanker {
    fn name(&self) -> &'static str {
        "pearson"
    }

    fn rank_prepared(&self, input: &RankInput<'_>) -> Result<FeatureRanking, WefrError> {
        let RankInput { data, labels, .. } = *input;
        validate_input(data, labels)?;
        let y: Vec<f64> = labels.iter().map(|&l| f64::from(u8::from(l))).collect();
        let scores = (0..data.n_features())
            .map(|c| score_observed(data.column(c), &y, pearson))
            .collect::<Result<Vec<f64>, _>>()?;
        FeatureRanking::from_scores(data.feature_names().to_vec(), scores)
    }
}

/// Ranks features by the absolute Spearman rank correlation between the
/// feature and the 0/1 failure label (the approach of Alter et al. \[1\]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpearmanRanker;

impl SpearmanRanker {
    /// Construct the ranker.
    pub fn new() -> Self {
        SpearmanRanker
    }
}

impl FeatureRanker for SpearmanRanker {
    fn name(&self) -> &'static str {
        "spearman"
    }

    fn rank_prepared(&self, input: &RankInput<'_>) -> Result<FeatureRanking, WefrError> {
        let RankInput { data, labels, .. } = *input;
        validate_input(data, labels)?;
        let y: Vec<f64> = labels.iter().map(|&l| f64::from(u8::from(l))).collect();
        let scores = (0..data.n_features())
            .map(|c| score_observed(data.column(c), &y, spearman))
            .collect::<Result<Vec<f64>, _>>()?;
        FeatureRanking::from_scores(data.feature_names().to_vec(), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_stats::FeatureMatrix;

    /// col 0: linearly correlated; col 1: monotone nonlinear; col 2: noise.
    fn data() -> (FeatureMatrix, Vec<bool>) {
        let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let linear: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let nonlinear: Vec<f64> = (0..40).map(|i| (i as f64 / 4.0).exp()).collect();
        let noise: Vec<f64> = (0..40).map(|i| ((i * 7919) % 13) as f64).collect();
        (
            FeatureMatrix::from_columns(
                vec!["linear".into(), "nonlinear".into(), "noise".into()],
                vec![linear, nonlinear, noise],
            )
            .unwrap(),
            labels,
        )
    }

    #[test]
    fn pearson_prefers_linear_feature() {
        let (m, l) = data();
        let r = PearsonRanker::new().rank(&m, &l).unwrap();
        assert_eq!(r.top_names(1), vec!["linear"]);
        assert_eq!(r.bottom_names(1), vec!["noise"]);
    }

    #[test]
    fn spearman_treats_monotone_features_equally() {
        let (m, l) = data();
        let r = SpearmanRanker::new().rank(&m, &l).unwrap();
        // Both monotone features have identical rank correlation.
        let s_lin = r.score_of("linear").unwrap();
        let s_non = r.score_of("nonlinear").unwrap();
        assert!((s_lin - s_non).abs() < 1e-12);
        assert!(r.score_of("noise").unwrap() < s_lin);
    }

    #[test]
    fn pearson_penalizes_nonlinearity_more_than_spearman() {
        let (m, l) = data();
        let p = PearsonRanker::new().rank(&m, &l).unwrap();
        let s = SpearmanRanker::new().rank(&m, &l).unwrap();
        let gap_p = p.score_of("linear").unwrap() - p.score_of("nonlinear").unwrap();
        let gap_s = s.score_of("linear").unwrap() - s.score_of("nonlinear").unwrap();
        assert!(gap_p > gap_s + 0.05, "gap_p = {gap_p}, gap_s = {gap_s}");
    }

    #[test]
    fn rankers_reject_single_class() {
        let (m, _) = data();
        let one_class = vec![true; 40];
        assert!(PearsonRanker::new().rank(&m, &one_class).is_err());
        assert!(SpearmanRanker::new().rank(&m, &one_class).is_err());
    }

    #[test]
    fn missing_cells_are_dropped_pairwise() {
        // The linear column with a few cells knocked out must still rank
        // first — its observed rows carry the same signal — and the score
        // must equal the correlation over the observed subset exactly.
        let (m, labels) = data();
        let mut linear = m.column(0).to_vec();
        linear[3] = f64::NAN;
        linear[27] = f64::NAN;
        let holey = FeatureMatrix::from_columns_with_missing(
            m.feature_names().to_vec(),
            vec![linear.clone(), m.column(1).to_vec(), m.column(2).to_vec()],
        )
        .unwrap();
        for ranker in [
            &PearsonRanker::new() as &dyn FeatureRanker,
            &SpearmanRanker::new(),
        ] {
            let r = ranker.rank(&holey, &labels).unwrap();
            assert_eq!(r.top_names(1), vec!["linear"], "{}", ranker.name());
            assert!(
                r.scores().iter().all(|s| s.is_finite()),
                "{}",
                ranker.name()
            );
        }
        let observed: (Vec<f64>, Vec<f64>) = linear
            .iter()
            .zip(&labels)
            .filter(|(v, _)| !v.is_nan())
            .map(|(&v, &l)| (v, f64::from(u8::from(l))))
            .unzip();
        let expected = pearson(&observed.0, &observed.1).unwrap().abs();
        let r = PearsonRanker::new().rank(&holey, &labels).unwrap();
        assert!((r.score_of("linear").unwrap() - expected).abs() < 1e-15);
    }

    #[test]
    fn all_missing_column_scores_zero() {
        let (m, labels) = data();
        let holey = FeatureMatrix::from_columns_with_missing(
            m.feature_names().to_vec(),
            vec![
                vec![f64::NAN; 40],
                m.column(1).to_vec(),
                m.column(2).to_vec(),
            ],
        )
        .unwrap();
        for ranker in [
            &PearsonRanker::new() as &dyn FeatureRanker,
            &SpearmanRanker::new(),
        ] {
            let r = ranker.rank(&holey, &labels).unwrap();
            assert_eq!(r.score_of("linear").unwrap(), 0.0, "{}", ranker.name());
        }
    }
}
