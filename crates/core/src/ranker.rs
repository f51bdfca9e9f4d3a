//! The `FeatureRanker` trait: one preliminary feature-selection approach.

use crate::error::WefrError;
use crate::ranking::FeatureRanking;
use smart_stats::FeatureMatrix;
use smart_trees::BinnedMatrix;

/// One group's ranker input, prepared once before the ranker fan-out so
/// that shared work (binning for the histogram tree engines) happens once
/// per group rather than once per ranker.
#[derive(Debug, Clone, Copy)]
pub struct RankInput<'a> {
    /// Base learning features, one row per sample.
    pub data: &'a FeatureMatrix,
    /// Failure labels, one per sample.
    pub labels: &'a [bool],
    /// `BinnedMatrix::from_matrix(data)`, present when some ranker
    /// [uses it](FeatureRanker::uses_binned).
    pub binned: Option<&'a BinnedMatrix>,
}

/// Bin `data` when `wanted` — the one binning a [`RankInput`] carries.
///
/// # Errors
///
/// Propagates binning errors.
pub(crate) fn bin_if(
    wanted: bool,
    data: &FeatureMatrix,
) -> Result<Option<BinnedMatrix>, WefrError> {
    Ok(if wanted {
        Some(BinnedMatrix::from_matrix(data)?)
    } else {
        None
    })
}

/// A preliminary feature-selection approach: scores every learning feature
/// against the failure label and produces a [`FeatureRanking`].
///
/// Implementations must be `Send + Sync` — WEFR runs its rankers in
/// parallel (§V, Exp#4 of the paper).
pub trait FeatureRanker: Send + Sync {
    /// Human-readable name (used in reports and outlier diagnostics).
    fn name(&self) -> &'static str;

    /// Rank all features of `input.data` against `input.labels`, reading
    /// `input.binned` if [`uses_binned`](Self::uses_binned).
    ///
    /// # Errors
    ///
    /// Implementations surface their underlying numeric errors; WEFR maps
    /// them to [`WefrError::RankerFailed`] with the ranker's name attached.
    fn rank_prepared(&self, input: &RankInput<'_>) -> Result<FeatureRanking, WefrError>;

    /// Whether [`rank_prepared`](Self::rank_prepared) reads
    /// [`RankInput::binned`]. The tree rankers do; the rest do not (the
    /// default).
    fn uses_binned(&self) -> bool {
        false
    }

    /// Rank all features of `data` against `labels`, preparing the input
    /// for this ranker alone.
    ///
    /// # Errors
    ///
    /// As [`rank_prepared`](Self::rank_prepared), plus binning errors.
    fn rank(&self, data: &FeatureMatrix, labels: &[bool]) -> Result<FeatureRanking, WefrError> {
        let binned = bin_if(self.uses_binned(), data)?;
        self.rank_prepared(&RankInput {
            data,
            labels,
            binned: binned.as_ref(),
        })
    }
}

/// Pairwise deletion for missing data: one column's `(value, paired)` rows
/// with the NaN cells dropped.
///
/// Returns `None` when the column is fully observed, so clean columns take
/// the untouched (and bit-identical) fast path. Statistical rankers score a
/// column with missing cells on its observed rows only; if too few remain
/// (or the surviving labels collapse to one class) the column scores 0.0 —
/// the same convention `pearson` uses for constant series.
pub(crate) fn observed_only<T: Copy>(column: &[f64], paired: &[T]) -> Option<(Vec<f64>, Vec<T>)> {
    if !column.iter().any(|v| v.is_nan()) {
        return None;
    }
    Some(
        column
            .iter()
            .zip(paired)
            .filter(|(v, _)| !v.is_nan())
            .map(|(&v, &p)| (v, p))
            .unzip(),
    )
}

/// Validate the common preconditions shared by every ranker.
pub(crate) fn validate_input(data: &FeatureMatrix, labels: &[bool]) -> Result<(), WefrError> {
    if data.n_features() == 0 || data.n_rows() == 0 {
        return Err(WefrError::InvalidInput {
            message: "feature matrix is empty".to_string(),
        });
    }
    if labels.len() != data.n_rows() {
        return Err(WefrError::InvalidInput {
            message: format!(
                "matrix has {} rows but {} labels were given",
                data.n_rows(),
                labels.len()
            ),
        });
    }
    if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
        return Err(WefrError::InvalidInput {
            message: "labels contain a single class".to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> FeatureMatrix {
        FeatureMatrix::from_columns(vec!["x".into()], vec![vec![1.0, 2.0, 3.0]]).unwrap()
    }

    #[test]
    fn validate_accepts_two_class() {
        assert!(validate_input(&matrix(), &[true, false, true]).is_ok());
    }

    #[test]
    fn validate_rejects_single_class() {
        assert!(validate_input(&matrix(), &[true, true, true]).is_err());
        assert!(validate_input(&matrix(), &[false, false, false]).is_err());
    }

    #[test]
    fn validate_rejects_mismatch() {
        assert!(validate_input(&matrix(), &[true]).is_err());
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &dyn FeatureRanker) {}
    }
}
