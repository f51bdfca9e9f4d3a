//! Random-Forest importance ranker (the approach of Narayanan et al. \[21\]).

use crate::error::WefrError;
use crate::ranker::{validate_input, FeatureRanker, RankInput};
use crate::ranking::FeatureRanking;
use smart_trees::{ForestConfig, RandomForest};

/// Which Random-Forest importance to rank by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestImportance {
    /// Breiman OOB permutation importance — the paper's description of the
    /// Random-Forest selector ("reduction of classification accuracy after
    /// adding noises to a learning feature"). Default.
    Permutation,
    /// Mean decrease in impurity (faster, the ablation alternative).
    Impurity,
}

/// Ranks features by Random-Forest feature importance.
#[derive(Debug, Clone)]
pub struct ForestRanker {
    /// Forest hyperparameters.
    pub config: ForestConfig,
    /// Importance flavour.
    pub importance: ForestImportance,
}

impl ForestRanker {
    /// Default ranker (100 trees, permutation importance) with the given
    /// seed.
    pub fn with_seed(seed: u64) -> Self {
        ForestRanker {
            config: ForestConfig {
                seed,
                ..ForestConfig::default()
            },
            importance: ForestImportance::Permutation,
        }
    }

    /// Same, but using impurity importance (the ablation variant).
    pub fn with_impurity(seed: u64) -> Self {
        ForestRanker {
            importance: ForestImportance::Impurity,
            ..ForestRanker::with_seed(seed)
        }
    }
}

impl FeatureRanker for ForestRanker {
    fn name(&self) -> &'static str {
        "random-forest"
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
        let forest = RandomForest::fit_prepared(data, binned, labels, &self.config)?;
        let scores = match self.importance {
            ForestImportance::Permutation => forest.permutation_importances(data, labels)?,
            ForestImportance::Impurity => forest.impurity_importances(),
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
        let mut rng = StdRng::seed_from_u64(3);
        let n = 300;
        let labels: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.4).collect();
        let signal: Vec<f64> = labels
            .iter()
            .map(|&l| if l { 2.0 } else { 0.0 } + rng.random::<f64>())
            .collect();
        let noise: Vec<f64> = (0..n).map(|_| rng.random()).collect();
        (
            FeatureMatrix::from_columns(vec!["signal".into(), "noise".into()], vec![signal, noise])
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn permutation_ranker_finds_signal() {
        let (m, l) = data();
        let r = ForestRanker::with_seed(1).rank(&m, &l).unwrap();
        assert_eq!(r.top_names(1), vec!["signal"]);
    }

    #[test]
    fn impurity_ranker_finds_signal() {
        let (m, l) = data();
        let r = ForestRanker::with_impurity(1).rank(&m, &l).unwrap();
        assert_eq!(r.top_names(1), vec!["signal"]);
    }

    #[test]
    fn ranker_is_deterministic() {
        let (m, l) = data();
        let a = ForestRanker::with_seed(5).rank(&m, &l).unwrap();
        let b = ForestRanker::with_seed(5).rank(&m, &l).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_single_class() {
        let (m, _) = data();
        let one = vec![false; m.n_rows()];
        assert!(ForestRanker::with_seed(1).rank(&m, &one).is_err());
    }
}
