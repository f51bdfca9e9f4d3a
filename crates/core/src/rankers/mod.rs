//! The five preliminary feature-selection approaches of §II-C.

pub mod correlation;
pub mod forest;
pub mod gboost;
pub mod jindex;

pub use correlation::{PearsonRanker, SpearmanRanker};
pub use forest::ForestRanker;
pub use gboost::GradientBoostingRanker;
pub use jindex::JIndexRanker;

use crate::ranker::FeatureRanker;

/// The paper's default ensemble: Pearson, Spearman, J-index, Random Forest,
/// and gradient boosting (XGBoost stand-in), with deterministic seeds.
pub fn default_rankers(seed: u64) -> Vec<Box<dyn FeatureRanker>> {
    vec![
        Box::new(PearsonRanker::new()),
        Box::new(SpearmanRanker::new()),
        Box::new(JIndexRanker::new()),
        Box::new(ForestRanker::with_seed(seed)),
        Box::new(GradientBoostingRanker::with_seed(seed.wrapping_add(1))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_set_has_five_named_rankers() {
        let rankers = default_rankers(0);
        assert_eq!(rankers.len(), 5);
        let names: Vec<&str> = rankers.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec![
                "pearson",
                "spearman",
                "j-index",
                "random-forest",
                "gradient-boosting"
            ]
        );
    }
}
