#![forbid(unsafe_code)]
//! **WEFR** — Wear-out-updating Ensemble Feature Ranking.
//!
//! A from-scratch Rust reproduction of the feature-selection method of
//! *"General Feature Selection for Failure Prediction in Large-scale SSD
//! Deployment"* (Xu et al., DSN 2021). WEFR selects SMART attributes as
//! learning features for SSD failure prediction in an automated and robust
//! manner:
//!
//! 1. **Preliminary ranking** ([`rankers`], [`parallel`]) — five
//!    feature-selection approaches (Pearson, Spearman, J-index,
//!    Random-Forest importance, gradient-boosting importance) rank all
//!    features, in parallel.
//! 2. **Robust ensembling** ([`ensemble`]) — rankings whose mean
//!    Kendall-tau distance to the others is a >1.96σ outlier are discarded;
//!    the rest aggregate by mean rank.
//! 3. **Automated count** (via [`smart_complexity`]) — the ranking is cut
//!    where the complexity-plus-size score `e = α·F + (1−α)·ξ` stops
//!    improving.
//! 4. **Wear-out updating** ([`wearout`], [`update`]) — when the survival
//!    rate over `MWI_N` has a significant Bayesian change point, samples
//!    split into low/high-wear groups and steps 1–3 rerun per group;
//!    a weekly [`update::UpdateMonitor`] keeps selections fresh.
//!
//! The entry point is [`Wefr::select`]; see its example.

pub mod ensemble;
pub mod error;
pub mod parallel;
pub mod ranker;
pub mod rankers;
pub mod ranking;
pub mod update;
pub mod wearout;
pub mod wefr;

pub use ensemble::{ensemble_rankings, EnsembleRanking, RankerOutcome, PAPER_OUTLIER_SIGMA};
pub use error::WefrError;
pub use ranker::{FeatureRanker, RankInput};
pub use rankers::{
    default_rankers, ForestRanker, GradientBoostingRanker, JIndexRanker, PearsonRanker,
    SpearmanRanker,
};
pub use ranking::FeatureRanking;
pub use update::{UpdateDecision, UpdateMonitor};
pub use wefr::{GroupSelection, SelectionInput, WearoutSelection, Wefr, WefrConfig, WefrSelection};
