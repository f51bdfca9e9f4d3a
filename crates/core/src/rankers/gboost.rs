//! Gradient-boosting importance ranker (the XGBoost stand-in of §II-C).

use crate::error::WefrError;
use crate::ranker::{validate_input, FeatureRanker, RankInput};
use crate::ranking::FeatureRanking;
use smart_trees::{BoostingConfig, GradientBoosting};

/// Which boosting importance to rank by. The paper describes XGBoost
/// importance as combining "the number of splits … and the average gain";
/// the default blends both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoostImportance {
    /// Total split gain per feature.
    Gain,
    /// Number of splits per feature.
    SplitCount,
    /// Mean of the normalized gain and split-count importances (default).
    Blend,
}

/// Ranks features by gradient-boosting feature importance.
#[derive(Debug, Clone)]
pub struct GradientBoostingRanker {
    /// Boosting hyperparameters.
    pub config: BoostingConfig,
    /// Importance flavour.
    pub importance: BoostImportance,
}

impl GradientBoostingRanker {
    /// Default ranker (100 rounds, blended importance) with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        GradientBoostingRanker {
            config: BoostingConfig {
                seed,
                ..BoostingConfig::default()
            },
            importance: BoostImportance::Blend,
        }
    }
}

impl FeatureRanker for GradientBoostingRanker {
    fn name(&self) -> &'static str {
        "gradient-boosting"
    }

    fn uses_binned(&self) -> bool {
        true
    }

    fn rank_prepared(&self, input: &RankInput<'_>) -> Result<FeatureRanking, WefrError> {
        let RankInput {
            data,
            labels,
            binned,
        } = *input;
        validate_input(data, labels)?;
        let model = GradientBoosting::fit_prepared(data, binned, labels, &self.config)?;
        let scores = match self.importance {
            BoostImportance::Gain => model.gain_importances(),
            BoostImportance::SplitCount => model.split_count_importances(),
            BoostImportance::Blend => {
                let gain = model.gain_importances();
                let count = model.split_count_importances();
                gain.iter()
                    .zip(&count)
                    .map(|(g, c)| (g + c) / 2.0)
                    .collect()
            }
        };
        FeatureRanking::from_scores(data.feature_names().to_vec(), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::rngs::StdRng;
    use rng::{RngExt, SeedableRng};
    use smart_stats::FeatureMatrix;

    fn data() -> (FeatureMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 300;
        let labels: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.35).collect();
        let signal: Vec<f64> = labels
            .iter()
            .map(|&l| if l { 1.5 } else { 0.0 } + rng.random::<f64>())
            .collect();
        let noise: Vec<f64> = (0..n).map(|_| rng.random()).collect();
        (
            FeatureMatrix::from_columns(vec!["signal".into(), "noise".into()], vec![signal, noise])
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn all_importance_flavours_find_signal() {
        let (m, l) = data();
        for importance in [
            BoostImportance::Gain,
            BoostImportance::SplitCount,
            BoostImportance::Blend,
        ] {
            let ranker = GradientBoostingRanker {
                importance,
                ..GradientBoostingRanker::with_seed(2)
            };
            let r = ranker.rank(&m, &l).unwrap();
            assert_eq!(r.top_names(1), vec!["signal"], "{importance:?}");
        }
    }

    #[test]
    fn ranker_is_deterministic() {
        let (m, l) = data();
        let a = GradientBoostingRanker::with_seed(4).rank(&m, &l).unwrap();
        let b = GradientBoostingRanker::with_seed(4).rank(&m, &l).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_empty_matrix() {
        let m = FeatureMatrix::from_columns(vec![], vec![]).unwrap();
        assert!(GradientBoostingRanker::with_seed(0).rank(&m, &[]).is_err());
    }
}
