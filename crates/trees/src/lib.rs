#![forbid(unsafe_code)]
//! From-scratch tree learners for the WEFR reproduction.
//!
//! Rust's ML ecosystem has no mature equivalents of scikit-learn's
//! `RandomForestClassifier` or XGBoost, so this crate hand-rolls the three
//! tree learners the paper depends on:
//!
//! * [`RegressionTree`] — a CART tree under the variance-reduction
//!   criterion (identical split ordering to Gini on 0/1 targets), grown
//!   from per-bin histograms of a [`BinnedMatrix`], with per-node feature
//!   subsampling and re-labelable leaves.
//! * [`RandomForest`] — bagged trees with out-of-bag scoring, impurity
//!   (MDI) importances, and Breiman OOB *permutation* importances (the
//!   importance the paper's Random Forest selector uses).
//! * [`GradientBoosting`] — logistic-loss boosting with Newton leaf values
//!   and XGBoost-style gain / split-count importances.
//!
//! # Example
//!
//! ```
//! use smart_stats::FeatureMatrix;
//! use smart_trees::{ForestConfig, RandomForest};
//!
//! # fn main() -> Result<(), smart_trees::TreesError> {
//! let data = FeatureMatrix::from_columns(
//!     vec!["errors".into()],
//!     vec![vec![0.0, 1.0, 8.0, 9.0]],
//! ).expect("valid matrix");
//! let labels = [false, false, true, true];
//! let config = ForestConfig { n_trees: 10, ..ForestConfig::default() };
//! let forest = RandomForest::fit(&data, &labels, &config)?;
//! let proba = forest.predict_proba(&data)?;
//! assert!(proba[3] > proba[0]);
//! # Ok(())
//! # }
//! ```

pub mod binned;
pub mod config;
pub mod error;
pub mod forest;
pub mod gbt;
#[cfg(test)]
mod split;
pub mod tree;

pub use binned::{BinnedMatrix, DEFAULT_MAX_BINS};
pub use config::{MaxFeatures, TreeConfig};
pub use error::TreesError;
pub use forest::{ForestConfig, RandomForest};
pub use gbt::{BoostingConfig, GradientBoosting};
pub use tree::RegressionTree;
