//! Random Forest classifier: bagged CART trees with per-node feature
//! subsampling, out-of-bag scoring, and both impurity-based and permutation
//! feature importances.
//!
//! The paper uses Random Forest both as its prediction model (100 trees,
//! depth 13) and as one of the five preliminary feature-selection approaches
//! (via feature importance, §II-C).

use crate::binned::{binned_for, BinnedMatrix};
use crate::config::{MaxFeatures, TreeConfig};
use crate::error::TreesError;
use crate::tree::RegressionTree;
use rng::rngs::StdRng;
use rng::{RngExt, SeedableRng};
use smart_stats::sampling::bootstrap_indices;
use smart_stats::FeatureMatrix;

/// Random Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees (paper: 100).
    pub n_trees: usize,
    /// Per-tree configuration. Defaults to depth 13 with √F features per
    /// node.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
    /// Number of worker threads for training and importance computation
    /// (`None` = available parallelism).
    pub n_threads: Option<usize>,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                ..TreeConfig::default()
            },
            seed: 0,
            n_threads: None,
        }
    }
}

/// A trained Random Forest classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    /// Each tree's out-of-bag row ids, ascending, into the training matrix.
    oob_rows: Vec<Vec<usize>>,
    /// Training row count: out-of-bag evaluation needs the same rows.
    n_rows: usize,
    n_features: usize,
    config: ForestConfig,
}

impl RandomForest {
    /// Train a forest on `data` against boolean `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::EmptyTraining`] for an empty matrix,
    /// [`TreesError::LengthMismatch`] when labels don't cover the matrix,
    /// and [`TreesError::InvalidParameter`] for degenerate configuration.
    pub fn fit(
        data: &FeatureMatrix,
        labels: &[bool],
        config: &ForestConfig,
    ) -> Result<Self, TreesError> {
        RandomForest::fit_prepared(data, None, labels, config)
    }

    /// [`RandomForest::fit`] on a matrix the caller has already binned:
    /// `binned` must be `BinnedMatrix::from_matrix(data)` (built here when
    /// `None`).
    ///
    /// Each tree trains on its bootstrap's distinct rows, each with its
    /// integer multiplicity. The labels are 0/1, so every partial sum is an
    /// exact integer and the trees are bit-identical to training on the
    /// bootstrap's duplicated rows.
    ///
    /// # Errors
    ///
    /// As [`RandomForest::fit`], plus shape mismatches between `binned`
    /// and `data`.
    pub fn fit_prepared(
        data: &FeatureMatrix,
        binned: Option<&BinnedMatrix>,
        labels: &[bool],
        config: &ForestConfig,
    ) -> Result<Self, TreesError> {
        config.tree.validate()?;
        if config.n_trees == 0 {
            return Err(TreesError::InvalidParameter {
                message: "n_trees must be at least 1".to_string(),
            });
        }
        let n = data.n_rows();
        if n == 0 {
            return Err(TreesError::EmptyTraining);
        }
        if labels.len() != n {
            return Err(TreesError::LengthMismatch {
                features: n,
                targets: labels.len(),
            });
        }
        let targets: Vec<f64> = labels.iter().map(|&l| f64::from(u8::from(l))).collect();

        // Bin once (or reuse the caller's binning), share read-only across
        // every tree and worker.
        let binned = binned_for(data, binned)?;

        let n_threads = effective_threads(config.n_threads, config.n_trees);
        let results: Vec<Result<(RegressionTree, Vec<usize>), TreesError>> =
            run_indexed_parallel(config.n_trees, n_threads, |tree_idx| {
                let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, tree_idx as u64));
                let bootstrap = bootstrap_indices(&mut rng, n)?;
                let mut counts = vec![0u32; n];
                for &r in &bootstrap {
                    counts[r] += 1;
                }
                let oob: Vec<usize> = (0..n).filter(|&r| counts[r] == 0).collect();
                let in_bag: Vec<usize> = (0..n).filter(|&r| counts[r] > 0).collect();
                let tree = RegressionTree::fit_weighted(
                    &binned,
                    &targets,
                    &in_bag,
                    &counts,
                    &config.tree,
                    &mut rng,
                )?;
                Ok((tree, oob))
            });

        let (trees, oob_rows) = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        Ok(RandomForest {
            trees,
            oob_rows,
            n_rows: n,
            n_features: data.n_features(),
            config: *config,
        })
    }

    /// Predicted failure probability for every row (mean over trees).
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::SchemaMismatch`] when the feature count differs
    /// from training.
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>, TreesError> {
        if data.n_features() != self.n_features {
            return Err(TreesError::SchemaMismatch {
                trained: self.n_features,
                given: data.n_features(),
            });
        }
        let mut sums = vec![0.0; data.n_rows()];
        for tree in &self.trees {
            for (row, sum) in sums.iter_mut().enumerate() {
                *sum += tree.predict_row(data, row);
            }
        }
        let n = self.trees.len() as f64;
        Ok(sums.into_iter().map(|s| s / n).collect())
    }

    /// Out-of-bag probability per training row (`None` for rows that were
    /// in-bag for every tree). `data` must be the training matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::SchemaMismatch`] when the feature count differs
    /// from training and [`TreesError::LengthMismatch`] when the row count
    /// does.
    pub fn oob_proba(&self, data: &FeatureMatrix) -> Result<Vec<Option<f64>>, TreesError> {
        self.check_training_shape(data)?;
        let mut sums = vec![0.0; data.n_rows()];
        let mut counts = vec![0u32; data.n_rows()];
        for (tree, oob) in self.trees.iter().zip(&self.oob_rows) {
            for &row in oob {
                sums[row] += tree.predict_row(data, row);
                counts[row] += 1;
            }
        }
        Ok(sums
            .into_iter()
            .zip(counts)
            .map(|(s, c)| (c > 0).then(|| s / c as f64))
            .collect())
    }

    /// Out-of-bag accuracy at a 0.5 threshold on the training matrix.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::oob_proba`]'s shape errors; returns
    /// [`TreesError::LengthMismatch`] when `labels` don't cover `data`.
    pub fn oob_score(&self, data: &FeatureMatrix, labels: &[bool]) -> Result<f64, TreesError> {
        if labels.len() != data.n_rows() {
            return Err(TreesError::LengthMismatch {
                features: data.n_rows(),
                targets: labels.len(),
            });
        }
        let proba = self.oob_proba(data)?;
        let mut correct = 0usize;
        let mut total = 0usize;
        for (p, &label) in proba.iter().zip(labels) {
            if let Some(p) = p {
                total += 1;
                if (*p >= 0.5) == label {
                    correct += 1;
                }
            }
        }
        Ok(if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        })
    }

    /// Mean decrease in impurity (gain) per feature, normalized to sum to 1
    /// (all-zero when the forest made no splits).
    pub fn impurity_importances(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (t, g) in totals.iter_mut().zip(tree.gain_importances()) {
                *t += g;
            }
        }
        normalize(&mut totals);
        totals
    }

    /// Breiman OOB permutation importance: for each tree and feature,
    /// the decrease in OOB accuracy when that feature's values are permuted
    /// within the tree's OOB set, averaged over trees and normalized to sum
    /// to 1 (negative raw scores are clamped to zero first).
    ///
    /// This is the "degree of reduction of classification accuracy after
    /// adding noises to a learning feature" the paper describes (§II-C).
    /// `data` must be the training matrix: the OOB row ids index it.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::SchemaMismatch`] when the feature count differs
    /// from training, and [`TreesError::LengthMismatch`] when the row count
    /// differs from training or `labels` don't cover `data`.
    pub fn permutation_importances(
        &self,
        data: &FeatureMatrix,
        labels: &[bool],
    ) -> Result<Vec<f64>, TreesError> {
        self.check_training_shape(data)?;
        if labels.len() != data.n_rows() {
            return Err(TreesError::LengthMismatch {
                features: data.n_rows(),
                targets: labels.len(),
            });
        }

        let n_threads = effective_threads(self.config.n_threads, self.trees.len());
        let per_tree: Vec<Vec<f64>> = run_indexed_parallel(self.trees.len(), n_threads, |t| {
            self.tree_permutation_importance(t, data, labels)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

        let mut totals = vec![0.0; self.n_features];
        for tree_scores in &per_tree {
            for (t, s) in totals.iter_mut().zip(tree_scores) {
                *t += s.max(0.0);
            }
        }
        normalize(&mut totals);
        Ok(totals)
    }

    /// Permutation importance of every feature for one tree's OOB set.
    ///
    /// Each feature's OOB values are copied and shuffled, and the OOB rows
    /// whose path reads that feature are routed again, reading it from the
    /// copy. Raw values route like their bins: a tree's thresholds are bin
    /// uppers, so a value and its bin upper fall on the same side of every
    /// threshold, and shuffling raw values is shuffling bin ids.
    fn tree_permutation_importance(
        &self,
        tree_idx: usize,
        data: &FeatureMatrix,
        labels: &[bool],
    ) -> Result<Vec<f64>, TreesError> {
        // Cap OOB evaluation size to bound cost on large training sets.
        const MAX_OOB: usize = 512;
        let tree = &self.trees[tree_idx];
        let oob = &self.oob_rows[tree_idx];
        let mut rng = StdRng::seed_from_u64(mix_seed(self.config.seed ^ 0xA5A5, tree_idx as u64));
        let rows: Vec<usize> = if oob.len() > MAX_OOB {
            smart_stats::sampling::sample_without_replacement(&mut rng, oob.len(), MAX_OOB)?
                .into_iter()
                .map(|i| oob[i])
                .collect()
        } else {
            oob.clone()
        };
        if rows.is_empty() {
            return Ok(vec![0.0; self.n_features]);
        }

        // The OOB block, row-major, so one row's traversal reads one short
        // contiguous slice instead of one cache line per column.
        let n_features = self.n_features;
        let block: Vec<f64> = rows
            .iter()
            .flat_map(|&r| (0..n_features).map(move |f| data.value(r, f)))
            .collect();
        let samples = || block.chunks_exact(n_features).zip(&rows).enumerate();
        let correct = |leaf: usize, row: usize| (tree.leaf_value(leaf) >= 0.5) == labels[row];

        // Baseline pass: each row's correctness and the features its path
        // reads. Permuting a feature off a row's path cannot move the row.
        let mut on_path = vec![false; block.len()];
        let mut baseline_ok = Vec::with_capacity(rows.len());
        for (i, (sample, &r)) in samples() {
            let seen = &mut on_path[i * n_features..(i + 1) * n_features];
            let leaf = tree.leaf_of(|f| {
                seen[f] = true;
                sample[f]
            });
            baseline_ok.push(correct(leaf, r));
        }
        let baseline_correct = baseline_ok.iter().filter(|&&ok| ok).count();
        let baseline = baseline_correct as f64 / rows.len() as f64;

        let mut permuted = Vec::with_capacity(rows.len());
        Ok((0..n_features)
            .map(|feature| {
                permuted.clear();
                permuted.extend(block.iter().skip(feature).step_by(n_features));
                // The draws happen for every feature, so each feature sees
                // the same RNG stream however many rows it re-routes.
                shuffle(&mut permuted, &mut rng);
                let mut n_correct = baseline_correct;
                for (i, (sample, &r)) in samples() {
                    if on_path[i * n_features + feature] {
                        let leaf =
                            tree.leaf_of(|f| if f == feature { permuted[i] } else { sample[f] });
                        n_correct =
                            n_correct + usize::from(correct(leaf, r)) - usize::from(baseline_ok[i]);
                    }
                }
                baseline - n_correct as f64 / rows.len() as f64
            })
            .collect())
    }

    /// Reject an out-of-bag evaluation matrix that is not shaped like the
    /// training matrix.
    fn check_training_shape(&self, data: &FeatureMatrix) -> Result<(), TreesError> {
        if data.n_features() != self.n_features {
            return Err(TreesError::SchemaMismatch {
                trained: self.n_features,
                given: data.n_features(),
            });
        }
        if data.n_rows() != self.n_rows {
            return Err(TreesError::LengthMismatch {
                features: data.n_rows(),
                targets: self.n_rows,
            });
        }
        Ok(())
    }

    /// The trained trees.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Number of features the forest was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

fn shuffle(xs: &mut [f64], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

fn normalize(xs: &mut [f64]) {
    let total: f64 = xs.iter().sum();
    if total > 0.0 {
        for x in xs.iter_mut() {
            *x /= total;
        }
    }
}

pub(crate) fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

pub(crate) fn effective_threads(requested: Option<usize>, work_items: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(4, usize::from);
    requested.unwrap_or(available).clamp(1, work_items.max(1))
}

/// Run `f(0..n)` across `n_threads` OS threads, preserving index order in
/// the result.
pub(crate) fn run_indexed_parallel<T, F>(n: usize, n_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(n_threads);
    std::thread::scope(|scope| {
        for (start, slice) in (0..n).step_by(chunk).zip(results.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (offset, slot) in slice.iter_mut().enumerate() {
                    *slot = Some(f(start + offset));
                }
            });
        }
    });
    results
        .into_iter()
        // lint:allow(panic-free) the scoped threads above cover 0..n exactly
        // (step_by(chunk) zipped with chunks_mut(chunk)), so every slot is
        // Some by the time the scope joins
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod oracle {
    //! Bit-identity oracle for the tree learners' fast paths.
    //!
    //! Three reference paths are kept here, test-only, in their earlier form:
    //!
    //! - the forest fit on duplicate-row bootstraps (every bootstrap draw is a
    //!   row of its own, no multiplicities);
    //! - permutation importance that quantizes the whole matrix, then rebuilds
    //!   and re-validates a full `FeatureMatrix` for every (tree, feature)
    //!   pair;
    //! - the two-pass boosting score update: `apply` for the Newton step, then
    //!   `predict_row` for the scores.
    //!
    //! Seeded property cases check that [`RandomForest::fit`],
    //! [`RandomForest::permutation_importances`] and [`GradientBoosting::fit`]
    //! reproduce them bit for bit, at 1 and 4 threads.

    use super::*;
    use crate::gbt::{BoostingConfig, GradientBoosting};
    use rng::prop::Gen;
    use smart_stats::sampling::{out_of_bag_indices, sample_without_replacement};

    /// The forest fit with each tree trained on its bootstrap's duplicated rows.
    fn reference_fit(data: &FeatureMatrix, labels: &[bool], config: &ForestConfig) -> RandomForest {
        let n = data.n_rows();
        let targets: Vec<f64> = labels.iter().map(|&l| f64::from(u8::from(l))).collect();
        let binned = BinnedMatrix::from_matrix(data).unwrap();
        let n_threads = effective_threads(config.n_threads, config.n_trees);
        let (trees, oob_rows) = run_indexed_parallel(config.n_trees, n_threads, |tree_idx| {
            let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, tree_idx as u64));
            let bootstrap = bootstrap_indices(&mut rng, n).unwrap();
            let oob = out_of_bag_indices(&bootstrap, n);
            let tree =
                RegressionTree::fit_binned(&binned, &targets, &bootstrap, &config.tree, &mut rng)
                    .unwrap();
            (tree, oob)
        })
        .into_iter()
        .unzip();
        RandomForest {
            trees,
            oob_rows,
            n_rows: n,
            n_features: data.n_features(),
            config: *config,
        }
    }

    /// Permutation importance over the quantized matrix, one rebuilt matrix
    /// per (tree, feature).
    fn reference_permutation_importances(
        forest: &RandomForest,
        data: &FeatureMatrix,
        labels: &[bool],
    ) -> Vec<f64> {
        let quantized = BinnedMatrix::from_matrix(data).unwrap().quantized_matrix();
        let mut totals = vec![0.0; forest.n_features];
        for tree_idx in 0..forest.trees.len() {
            let scores = reference_tree_permutation(forest, tree_idx, &quantized, labels);
            for (t, s) in totals.iter_mut().zip(&scores) {
                *t += s.max(0.0);
            }
        }
        normalize(&mut totals);
        totals
    }

    fn reference_tree_permutation(
        forest: &RandomForest,
        tree_idx: usize,
        data: &FeatureMatrix,
        labels: &[bool],
    ) -> Vec<f64> {
        const MAX_OOB: usize = 512;
        let tree = &forest.trees[tree_idx];
        let oob = &forest.oob_rows[tree_idx];
        let mut rng = StdRng::seed_from_u64(mix_seed(forest.config.seed ^ 0xA5A5, tree_idx as u64));
        let rows: Vec<usize> = if oob.len() > MAX_OOB {
            sample_without_replacement(&mut rng, oob.len(), MAX_OOB)
                .unwrap()
                .into_iter()
                .map(|i| oob[i])
                .collect()
        } else {
            oob.clone()
        };
        if rows.is_empty() {
            return vec![0.0; forest.n_features];
        }
        let accuracy = |m: &FeatureMatrix, labels: &[bool]| {
            let correct = (0..m.n_rows())
                .filter(|&r| (tree.predict_row(m, r) >= 0.5) == labels[r])
                .count();
            correct as f64 / m.n_rows().max(1) as f64
        };
        let sub = data.select_rows(&rows).unwrap();
        let sub_labels: Vec<bool> = rows.iter().map(|&r| labels[r]).collect();
        let baseline = accuracy(&sub, &sub_labels);
        (0..forest.n_features)
            .map(|feature| {
                let mut permuted = sub.column(feature).to_vec();
                shuffle(&mut permuted, &mut rng);
                let mut columns: Vec<Vec<f64>> = (0..sub.n_features())
                    .map(|c| sub.column(c).to_vec())
                    .collect();
                columns[feature] = permuted;
                let shuffled =
                    FeatureMatrix::from_columns_with_missing(sub.feature_names().to_vec(), columns)
                        .unwrap();
                baseline - accuracy(&shuffled, &sub_labels)
            })
            .collect()
    }

    /// Boosting with the two-pass score update; returns the stages and the
    /// training-set probabilities.
    fn reference_boosting(
        data: &FeatureMatrix,
        labels: &[bool],
        config: &BoostingConfig,
    ) -> (Vec<RegressionTree>, Vec<f64>) {
        let n = data.n_rows();
        let y: Vec<f64> = labels.iter().map(|&l| f64::from(u8::from(l))).collect();
        let prior = (y.iter().sum::<f64>() / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (prior / (1.0 - prior)).ln();
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        let binned = BinnedMatrix::from_matrix(data).unwrap();
        let mut scores = vec![base_score; n];
        let mut stages = Vec::new();
        for round in 0..config.n_rounds {
            let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, round as u64));
            let probs: Vec<f64> = scores.iter().map(|&s| sigmoid(s)).collect();
            let residuals: Vec<f64> = y.iter().zip(&probs).map(|(y, p)| y - p).collect();
            let rows: Vec<usize> = if config.subsample < 1.0 {
                let k = ((n as f64 * config.subsample).round() as usize).clamp(1, n);
                sample_without_replacement(&mut rng, n, k).unwrap()
            } else {
                (0..n).collect()
            };
            let mut tree =
                RegressionTree::fit_binned(&binned, &residuals, &rows, &config.tree, &mut rng)
                    .unwrap();
            let mut grad_sum = vec![0.0; tree.n_nodes()];
            let mut hess_sum = vec![0.0; tree.n_nodes()];
            for &r in &rows {
                let leaf = tree.apply(data, r);
                grad_sum[leaf] += residuals[r];
                hess_sum[leaf] += probs[r] * (1.0 - probs[r]);
            }
            for leaf in 0..tree.n_nodes() {
                if hess_sum[leaf] > 0.0 {
                    tree.set_leaf_value(leaf, grad_sum[leaf] / (hess_sum[leaf] + 1e-9));
                }
            }
            for (row, score) in scores.iter_mut().enumerate() {
                *score += config.learning_rate * tree.predict_row(data, row);
            }
            stages.push(tree);
        }
        let mut proba = vec![base_score; n];
        for stage in &stages {
            for (row, p) in proba.iter_mut().enumerate() {
                *p += config.learning_rate * stage.predict_row(data, row);
            }
        }
        (stages, proba.into_iter().map(sigmoid).collect())
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn tree_config(g: &mut Gen) -> TreeConfig {
        let max_features = match g.usize_in(0, 3) {
            0 => MaxFeatures::Sqrt,
            1 => MaxFeatures::All,
            2 => MaxFeatures::Log2,
            _ => MaxFeatures::Count(2),
        };
        TreeConfig {
            max_depth: g.usize_in(1, 8),
            min_samples_split: g.usize_in(2, 6),
            min_samples_leaf: g.usize_in(1, 3),
            max_features,
        }
    }

    /// Fit both the fast and the reference paths of all three learners on
    /// `data` at 1 and 4 threads; every output must agree bit for bit.
    fn assert_bit_identical(g: &mut Gen, data: &FeatureMatrix, labels: &[bool]) {
        let forest_tree = tree_config(g);
        let boost_tree = tree_config(g);
        let n_trees = g.usize_in(1, 6);
        let n_rounds = g.usize_in(1, 5);
        let subsample = if g.bool() { 1.0 } else { g.f64_in(0.3, 1.0) };
        let learning_rate = g.f64_in(0.05, 1.0);
        let seed = g.u64_in(0, u64::MAX);
        for n_threads in [1, 4] {
            let config = ForestConfig {
                n_trees,
                tree: forest_tree,
                seed,
                n_threads: Some(n_threads),
            };
            let fast = RandomForest::fit(data, labels, &config).unwrap();
            let reference = reference_fit(data, labels, &config);
            assert_eq!(fast, reference, "forest at {n_threads} threads");
            assert_eq!(
                bits(&fast.permutation_importances(data, labels).unwrap()),
                bits(&reference_permutation_importances(&reference, data, labels)),
                "permutation importances at {n_threads} threads"
            );
        }
        let config = BoostingConfig {
            n_rounds,
            learning_rate,
            tree: boost_tree,
            subsample,
            seed,
        };
        let fast = GradientBoosting::fit(data, labels, &config).unwrap();
        let (stages, proba) = reference_boosting(data, labels, &config);
        assert_eq!(fast.stages(), &stages[..], "boosting stages");
        assert_eq!(
            bits(&fast.predict_proba(data).unwrap()),
            bits(&proba),
            "boosting probabilities"
        );
    }

    /// `n` rows: an exact-path column (few distinct values), a continuous
    /// column (quantized once `n` exceeds 255 distinct values), a column with
    /// NaN cells, and labels that depend on the first two columns plus noise.
    fn mixed_matrix(g: &mut Gen, n: usize) -> (FeatureMatrix, Vec<bool>) {
        let levels = g.usize_in(2, 8);
        let exact: Vec<f64> = (0..n).map(|_| g.usize_in(0, levels - 1) as f64).collect();
        let continuous: Vec<f64> = (0..n).map(|_| g.f64_in(-10.0, 10.0)).collect();
        let nan_share = g.f64_in(0.05, 0.5);
        let holed: Vec<f64> = (0..n)
            .map(|_| {
                if g.bool_with(nan_share) {
                    f64::NAN
                } else {
                    g.f64_in(0.0, 1.0)
                }
            })
            .collect();
        let labels: Vec<bool> = (0..n)
            .map(|r| (exact[r] * 2.0 + continuous[r] > levels as f64) != g.bool_with(0.1))
            .collect();
        let data = FeatureMatrix::from_columns_with_missing(
            vec!["exact".into(), "continuous".into(), "holed".into()],
            vec![exact, continuous, holed],
        )
        .unwrap();
        (data, labels)
    }

    #[test]
    fn prop_fast_paths_match_reference_paths_bit_for_bit() {
        rng::prop_check!(|g| {
            let n = match g.usize_in(0, 2) {
                0 => g.usize_in(1, 6),
                1 => g.usize_in(7, 120),
                _ => g.usize_in(260, 360),
            };
            let (data, labels) = mixed_matrix(g, n);
            assert_bit_identical(g, &data, &labels);
        });
    }

    #[test]
    fn oracle_covers_quantized_columns() {
        let mut g = Gen::new(3);
        let (data, labels) = mixed_matrix(&mut g, 300);
        let binned = BinnedMatrix::from_matrix(&data).unwrap();
        assert!(binned.is_exact(0) && !binned.is_exact(1) && binned.has_missing(2));
        assert_bit_identical(&mut g, &data, &labels);
    }

    #[test]
    fn oracle_covers_an_empty_oob_set() {
        let mut g = Gen::new(5);
        let (data, labels) = mixed_matrix(&mut g, 1);
        let forest = RandomForest::fit(&data, &labels, &ForestConfig::default()).unwrap();
        assert!(forest.oob_rows.iter().all(Vec::is_empty));
        assert_bit_identical(&mut g, &data, &labels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::RngExt;

    /// Synthetic task: y = (x0 > 0.5), x1 correlated, x2 noise.
    fn make_data(n: usize, seed: u64) -> (FeatureMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.random();
            let x1 = x0 * 0.7 + rng.random::<f64>() * 0.3;
            let x2: f64 = rng.random();
            labels.push(x0 > 0.5);
            rows.push(vec![x0, x1, x2]);
        }
        (
            FeatureMatrix::from_rows(vec!["signal".into(), "proxy".into(), "noise".into()], &rows)
                .unwrap(),
            labels,
        )
    }

    fn small_config() -> ForestConfig {
        ForestConfig {
            n_trees: 30,
            seed: 1,
            ..ForestConfig::default()
        }
    }

    #[test]
    fn learns_simple_threshold_task() {
        let (data, labels) = make_data(400, 2);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let proba = forest.predict_proba(&data).unwrap();
        let correct = proba
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == l)
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.97);
    }

    #[test]
    fn training_is_deterministic() {
        let (data, labels) = make_data(200, 3);
        let a = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let b = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        assert_eq!(a, b);
    }

    /// The same task with a slice of the signal column knocked out to NaN:
    /// the forest must train, predict, and score permutation importances
    /// end to end on missing data — deterministically.
    fn make_data_with_missing(n: usize, seed: u64) -> (FeatureMatrix, Vec<bool>) {
        let (data, labels) = make_data(n, seed);
        let mut columns: Vec<Vec<f64>> = (0..data.n_features())
            .map(|c| data.column(c).to_vec())
            .collect();
        for (r, v) in columns[0].iter_mut().enumerate() {
            if r % 5 == 0 {
                *v = f64::NAN;
            }
        }
        (
            FeatureMatrix::from_columns_with_missing(data.feature_names().to_vec(), columns)
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn histogram_forest_handles_missing_values_end_to_end() {
        let (data, labels) = make_data_with_missing(400, 2);
        let config = small_config();
        let forest = RandomForest::fit(&data, &labels, &config).unwrap();
        let again = RandomForest::fit(&data, &labels, &config).unwrap();
        assert_eq!(forest, again, "missing-data training is deterministic");
        let proba = forest.predict_proba(&data).unwrap();
        assert!(proba.iter().all(|p| p.is_finite()));
        // 80% of the signal column survives; accuracy should stay high.
        let correct = proba
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == l)
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.9);
        let imp = forest.permutation_importances(&data, &labels).unwrap();
        assert!(imp.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (data, labels) = make_data(200, 3);
        let mut c1 = small_config();
        c1.n_threads = Some(1);
        let mut c4 = small_config();
        c4.n_threads = Some(4);
        let a = RandomForest::fit(&data, &labels, &c1).unwrap();
        let b = RandomForest::fit(&data, &labels, &c4).unwrap();
        assert_eq!(a.trees(), b.trees());
    }

    #[test]
    fn exact_and_histogram_grow_identical_trees_on_exactly_binned_data() {
        // 200 rows → every feature has ≤ 255 distinct values and bins
        // losslessly; targets are 0/1 so every partial sum is an exact
        // integer. Each forest tree must then equal the test-only exact
        // builder's tree on the same bootstrap's duplicated rows, grown
        // from the same RNG stream.
        let (data, labels) = make_data(200, 17);
        let config = small_config();
        let forest = RandomForest::fit(&data, &labels, &config).unwrap();
        let targets: Vec<f64> = labels.iter().map(|&l| f64::from(u8::from(l))).collect();
        for (tree_idx, tree) in forest.trees().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, tree_idx as u64));
            let bootstrap = bootstrap_indices(&mut rng, data.n_rows()).unwrap();
            let exact =
                RegressionTree::fit_exact(&data, &targets, &bootstrap, &config.tree, &mut rng)
                    .unwrap();
            assert_eq!(&exact, tree, "tree {tree_idx}");
        }
    }

    #[test]
    fn histogram_strategy_learns_quantized_data() {
        // 400 rows of continuous features force the quantile binning path.
        let (data, labels) = make_data(400, 19);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let score = forest.oob_score(&data, &labels).unwrap();
        assert!(score > 0.9, "oob = {score}");
        let perm = forest.permutation_importances(&data, &labels).unwrap();
        assert!(perm[0] > perm[2], "perm = {perm:?}");
    }

    #[test]
    fn oob_score_is_high_on_learnable_task() {
        let (data, labels) = make_data(400, 5);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let score = forest.oob_score(&data, &labels).unwrap();
        assert!(score > 0.9, "oob = {score}");
    }

    #[test]
    fn importances_rank_signal_over_noise() {
        let (data, labels) = make_data(400, 7);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let mdi = forest.impurity_importances();
        assert!(mdi[0] > mdi[2], "mdi = {mdi:?}");
        let perm = forest.permutation_importances(&data, &labels).unwrap();
        assert!(perm[0] > perm[2], "perm = {perm:?}");
        assert!(
            perm[0] > perm[1],
            "signal must beat its noisy proxy: {perm:?}"
        );
        // Normalized.
        assert!((mdi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((perm.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_and_mismatched_input() {
        let (data, labels) = make_data(50, 9);
        assert!(matches!(
            RandomForest::fit(&data, &labels[..10], &small_config()),
            Err(TreesError::LengthMismatch { .. })
        ));
        let mut c = small_config();
        c.n_trees = 0;
        assert!(RandomForest::fit(&data, &labels, &c).is_err());
    }

    #[test]
    fn oob_evaluation_rejects_a_matrix_of_another_row_count() {
        // The OOB row ids index the training matrix: fewer rows used to
        // panic out of bounds, more rows silently mis-scored.
        let (data, labels) = make_data(120, 23);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        for rows in [60, 240] {
            let (other, other_labels) = make_data(rows, 29);
            assert!(matches!(
                forest.oob_proba(&other),
                Err(TreesError::LengthMismatch { .. })
            ));
            assert!(matches!(
                forest.oob_score(&other, &other_labels),
                Err(TreesError::LengthMismatch { .. })
            ));
            assert!(matches!(
                forest.permutation_importances(&other, &other_labels),
                Err(TreesError::LengthMismatch { .. })
            ));
        }
        assert!(forest.oob_score(&data, &labels).is_ok());
    }

    #[test]
    fn prepared_binning_must_match_the_matrix() {
        let (data, labels) = make_data(80, 31);
        let (other, _) = make_data(40, 31);
        let binned = BinnedMatrix::from_matrix(&other).unwrap();
        assert!(matches!(
            RandomForest::fit_prepared(&data, Some(&binned), &labels, &small_config()),
            Err(TreesError::LengthMismatch { .. })
        ));
        let own = BinnedMatrix::from_matrix(&data).unwrap();
        assert_eq!(
            RandomForest::fit_prepared(&data, Some(&own), &labels, &small_config()).unwrap(),
            RandomForest::fit(&data, &labels, &small_config()).unwrap()
        );
    }

    #[test]
    fn predict_rejects_schema_mismatch() {
        let (data, labels) = make_data(50, 11);
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let narrow = FeatureMatrix::from_columns(vec!["x".into()], vec![vec![1.0]]).unwrap();
        assert!(matches!(
            forest.predict_proba(&narrow),
            Err(TreesError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn single_class_training_predicts_that_class() {
        let (data, _) = make_data(60, 13);
        let labels = vec![false; 60];
        let forest = RandomForest::fit(&data, &labels, &small_config()).unwrap();
        let proba = forest.predict_proba(&data).unwrap();
        assert!(proba.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn run_indexed_parallel_preserves_order() {
        let out = run_indexed_parallel(17, 4, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        let out = run_indexed_parallel(3, 1, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
        let out: Vec<usize> = run_indexed_parallel(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn mix_seed_spreads_indices() {
        let a = mix_seed(1, 0);
        let b = mix_seed(1, 1);
        assert_ne!(a, b);
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }
}
