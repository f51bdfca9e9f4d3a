//! CART regression tree with per-node feature subsampling.
//!
//! One tree type serves all three learners in this crate: trained on 0/1
//! targets its leaf means are class probabilities (classification /
//! Random Forest); trained on gradients it is a boosting stage whose leaf
//! values the booster re-labels with Newton steps.

use crate::binned::{scan_boundaries, BinnedMatrix, HistScratch, Split};
use crate::config::TreeConfig;
use crate::error::TreesError;
use rng::Rng;
use smart_stats::sampling::sample_without_replacement;
use smart_stats::FeatureMatrix;
use std::borrow::Cow;

/// A node of the tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
        n_samples: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        /// Where rows with a missing (NaN) feature value are routed — the
        /// gain-better side chosen by the histogram boundary scan.
        nan_left: bool,
    },
}

/// A trained CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
    gain_by_feature: Vec<f64>,
    splits_by_feature: Vec<u32>,
}

impl RegressionTree {
    /// Fit a tree on the rows `rows` of the binned matrix `binned` against
    /// `targets` (indexed by row id, so `targets.len() == binned.n_rows()`).
    ///
    /// Split thresholds are bin-upper values, so the trained tree predicts
    /// on ordinary [`FeatureMatrix`] inputs: a raw value and its bin upper
    /// fall on the same side of every threshold. When the candidate set
    /// covers every feature
    /// ([`MaxFeatures::All`](crate::MaxFeatures::All), as gradient boosting
    /// uses), child histograms are derived from the parent's by the
    /// subtraction trick: only the smaller child is re-accumulated, the
    /// sibling is `parent − smaller`.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::EmptyTraining`] when `rows` is empty,
    /// [`TreesError::LengthMismatch`] when targets don't cover the matrix,
    /// and [`TreesError::InvalidParameter`] from config validation.
    pub fn fit_binned<R: Rng + ?Sized>(
        binned: &BinnedMatrix,
        targets: &[f64],
        rows: &[usize],
        config: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, TreesError> {
        RegressionTree::fit_in(
            &mut BinnedCtx::new(binned, targets, None, config),
            rows,
            rng,
        )
    }

    /// [`Self::fit_binned`] on distinct rows that carry integer
    /// multiplicities: row `r` of `rows` stands for `weights[r]` copies of
    /// itself (`weights` is indexed by row id, like `targets`).
    ///
    /// Histogram sums and counts, node means, the `min_samples_*` rules,
    /// leaf `n_samples` and the sibling-subtraction side all use the
    /// weighted count. With 0/1 targets every partial sum is an exact
    /// integer, so the tree is bit-identical to fitting on `rows` with each
    /// row repeated `weights[r]` times — a bootstrap sample without its
    /// duplicates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RegressionTree::fit_binned`], plus
    /// [`TreesError::LengthMismatch`] when `weights` doesn't cover the
    /// matrix.
    pub(crate) fn fit_weighted<R: Rng + ?Sized>(
        binned: &BinnedMatrix,
        targets: &[f64],
        rows: &[usize],
        weights: &[u32],
        config: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, TreesError> {
        if weights.len() != binned.n_rows() {
            return Err(TreesError::LengthMismatch {
                features: binned.n_rows(),
                targets: weights.len(),
            });
        }
        let mut ctx = BinnedCtx::new(binned, targets, Some(weights), config);
        RegressionTree::fit_in(&mut ctx, rows, rng)
    }

    /// Validate and grow one histogram tree from a prepared build context.
    fn fit_in<R: Rng + ?Sized>(
        ctx: &mut BinnedCtx<'_>,
        rows: &[usize],
        rng: &mut R,
    ) -> Result<Self, TreesError> {
        ctx.config.validate()?;
        if rows.is_empty() {
            return Err(TreesError::EmptyTraining);
        }
        let n_rows = ctx.binned.n_rows();
        if ctx.targets.len() != n_rows {
            return Err(TreesError::LengthMismatch {
                features: n_rows,
                targets: ctx.targets.len(),
            });
        }
        let n_features = ctx.binned.n_features();
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features,
            gain_by_feature: vec![0.0; n_features],
            splits_by_feature: vec![0; n_features],
        };
        ctx.part_buf.reserve(rows.len());
        let mut rows = rows.to_vec();
        tree.build_binned(ctx, &mut rows, 0, None, rng)?;
        telemetry::counter_add("trees.histograms_built", ctx.hists_built);
        Ok(tree)
    }

    /// Recursively build the subtree for `rows` from per-bin histograms;
    /// returns the node index.
    ///
    /// Mirrors the test-only sort-and-scan builder `fit_exact` decision for
    /// decision (leaf conditions, candidate sampling, tie-breaking), so on
    /// data where every feature bins exactly and target sums carry no
    /// rounding (e.g. 0/1 labels) the two grow bit-identical trees from the
    /// same RNG.
    fn build_binned<R: Rng + ?Sized>(
        &mut self,
        ctx: &mut BinnedCtx<'_>,
        rows: &mut [usize],
        depth: usize,
        inherited: Option<NodeHists>,
        rng: &mut R,
    ) -> Result<usize, TreesError> {
        // `n` is the node's weighted sample count; `rows` holds its
        // distinct rows (the same thing when the build is unweighted).
        let (n, sum) = ctx.count_and_sum(rows);
        let mean = sum / n as f64;
        let constant = rows.iter().all(|&r| (ctx.targets[r] - mean).abs() < 1e-12);

        if depth >= ctx.config.max_depth || n < ctx.config.min_samples_split || constant {
            return Ok(self.push_leaf(mean, n));
        }

        let f_total = ctx.binned.n_features();
        let k = ctx.config.max_features.resolve(f_total);
        let candidates = sample_without_replacement(rng, f_total, k)?;
        // With the full feature set in play (gradient boosting's default)
        // node histograms are reusable across levels; under subsampling the
        // candidate set changes per node, so accumulate fresh per feature.
        let full_set = k == f_total;

        let mut best: Option<(usize, Split, usize)> = None;
        let mut consider = |feature: usize, found: Option<(Split, usize)>| {
            if let Some((split, bin)) = found {
                if best.as_ref().is_none_or(|(_, b, _)| split.gain > b.gain) {
                    best = Some((feature, split, bin));
                }
            }
        };

        let mut node_hists: Option<NodeHists> = None;
        if full_set {
            let hists = inherited.unwrap_or_else(|| ctx.build_all_hists(rows));
            for &feature in &candidates {
                let h = &hists.per_feature[feature];
                consider(
                    feature,
                    scan_boundaries(
                        &h.0,
                        &h.1,
                        ctx.binned.bin_uppers(feature),
                        n,
                        ctx.config.min_samples_leaf,
                    ),
                );
            }
            node_hists = Some(hists);
        } else {
            for &feature in &candidates {
                ctx.hists_built += 1;
                let hist =
                    ctx.scratch
                        .accumulate(ctx.binned, feature, rows, &ctx.sums, ctx.weights);
                consider(
                    feature,
                    scan_boundaries(
                        hist.sum,
                        hist.cnt,
                        ctx.binned.bin_uppers(feature),
                        n,
                        ctx.config.min_samples_leaf,
                    ),
                );
            }
        }

        let Some((feature, split, bin)) = best else {
            return Ok(self.push_leaf(mean, n));
        };

        self.gain_by_feature[feature] += split.gain;
        self.splits_by_feature[feature] += 1;

        // Stable in-place partition around the boundary bin: left rows keep
        // their order at the front, right rows are staged in the shared
        // scratch and copied back — O(n), no sort, no per-node allocation.
        let codes = ctx.binned.codes(feature);
        let bin_code = bin as u8;
        // The reserved NaN code is greater than every boundary bin, so it
        // only goes left when the scan routed missing rows left.
        let nan_code = ctx.binned.nan_code(feature);
        let mut n_left = 0usize;
        let mut left_count = 0usize;
        ctx.part_buf.clear();
        for i in 0..rows.len() {
            let r = rows[i];
            if codes[r] <= bin_code || (split.nan_left && codes[r] == nan_code) {
                rows[n_left] = r;
                n_left += 1;
                left_count += ctx.weight(r);
            } else {
                ctx.part_buf.push(r);
            }
        }
        rows[n_left..].copy_from_slice(&ctx.part_buf);
        debug_assert_eq!(left_count, split.n_left);
        let right_count = n - left_count;

        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf {
            value: mean,
            n_samples: n,
        });
        let (left_rows, right_rows) = rows.split_at_mut(n_left);

        // Subtraction trick: re-accumulate only the smaller child's
        // histograms; the sibling's are parent − smaller, bin by bin.
        let (left_inherit, right_inherit) = match node_hists {
            Some(parent) if ctx.child_may_split(depth, left_count, right_count) => {
                let small_is_left = left_count <= right_count;
                #[cfg(test)]
                ctx.small_children.push(if small_is_left {
                    left_count
                } else {
                    right_count
                });
                if small_is_left {
                    let small = ctx.build_all_hists(left_rows);
                    let large = parent.subtract(&small);
                    (Some(small), Some(large))
                } else {
                    let small = ctx.build_all_hists(right_rows);
                    let large = parent.subtract(&small);
                    (Some(large), Some(small))
                }
            }
            _ => (None, None),
        };

        let left = self.build_binned(ctx, left_rows, depth + 1, left_inherit, rng)?;
        let right = self.build_binned(ctx, right_rows, depth + 1, right_inherit, rng)?;
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold: split.threshold,
            left,
            right,
            nan_left: split.nan_left,
        };
        Ok(node_idx)
    }

    fn push_leaf(&mut self, value: f64, n_samples: usize) -> usize {
        self.nodes.push(Node::Leaf { value, n_samples });
        self.nodes.len() - 1
    }

    /// Index of the leaf that row `row` of `data` falls into.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different feature count than the training
    /// matrix or `row` is out of bounds.
    pub fn apply(&self, data: &FeatureMatrix, row: usize) -> usize {
        assert_eq!(
            data.n_features(),
            self.n_features,
            "feature count mismatch at prediction"
        );
        self.leaf_of(|feature| data.value(row, feature))
    }

    /// Index of the leaf a sample falls into, reading feature `f` of the
    /// sample as `value_of(f)` — the one traversal behind prediction,
    /// boosting's leaf pass and permutation importance.
    pub(crate) fn leaf_of(&self, mut value_of: impl FnMut(usize) -> f64) -> usize {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { .. } => return idx,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    nan_left,
                } => {
                    let v = value_of(*feature);
                    idx = if v.is_nan() {
                        // Missing measurement: follow the routing the
                        // boundary scan decided at training time.
                        if *nan_left {
                            *left
                        } else {
                            *right
                        }
                    } else if v <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Value of leaf `leaf_idx` (as returned by [`Self::apply`]).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_idx` is not a leaf.
    pub(crate) fn leaf_value(&self, leaf_idx: usize) -> f64 {
        match &self.nodes[leaf_idx] {
            Node::Leaf { value, .. } => *value,
            // lint:allow(panic-free) documented # Panics contract: callers
            // pass indices straight from apply(), which yields only leaves
            Node::Split { .. } => panic!("node {leaf_idx} is not a leaf"),
        }
    }

    /// Predicted value for row `row` of `data`.
    pub fn predict_row(&self, data: &FeatureMatrix, row: usize) -> f64 {
        self.leaf_value(self.apply(data, row))
    }

    /// Predicted values for every row of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::SchemaMismatch`] if the feature count differs
    /// from training.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<f64>, TreesError> {
        if data.n_features() != self.n_features {
            return Err(TreesError::SchemaMismatch {
                trained: self.n_features,
                given: data.n_features(),
            });
        }
        Ok((0..data.n_rows())
            .map(|r| self.predict_row(data, r))
            .collect())
    }

    /// Overwrite the value of leaf `leaf_idx` (the boosting Newton step).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_idx` is not a leaf.
    pub fn set_leaf_value(&mut self, leaf_idx: usize, value: f64) {
        match &mut self.nodes[leaf_idx] {
            Node::Leaf { value: v, .. } => *v = value,
            // lint:allow(panic-free) documented # Panics contract: callers
            // pass indices straight from apply(), which yields only leaves
            Node::Split { .. } => panic!("node {leaf_idx} is not a leaf"),
        }
    }

    /// Total variance-reduction gain contributed by each feature.
    pub fn gain_importances(&self) -> &[f64] {
        &self.gain_by_feature
    }

    /// Number of splits on each feature.
    pub fn split_counts(&self) -> &[u32] {
        &self.splits_by_feature
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth of the tree (root = 0; a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }
}

/// The exact tree builder: the reference the histogram builder is tested
/// against (see the `split` oracle module). It sorts every candidate
/// feature's `(value, target)` pairs at every node with
/// [`best_split`](crate::split::best_split), so a feature with missing cells
/// is never split.
#[cfg(test)]
impl RegressionTree {
    /// Fit a tree on the rows `rows` of the raw `data` by sorting each
    /// candidate feature's values at every node. The inputs are taken as
    /// valid: shape and configuration checks belong to [`Self::fit_binned`].
    pub(crate) fn fit_exact<R: Rng + ?Sized>(
        data: &FeatureMatrix,
        targets: &[f64],
        rows: &[usize],
        config: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, TreesError> {
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: data.n_features(),
            gain_by_feature: vec![0.0; data.n_features()],
            splits_by_feature: vec![0; data.n_features()],
        };
        tree.build_exact(data, targets, &mut rows.to_vec(), 0, config, rng)?;
        Ok(tree)
    }

    /// Recursively build the subtree for `rows`; returns the node index.
    fn build_exact<R: Rng + ?Sized>(
        &mut self,
        data: &FeatureMatrix,
        targets: &[f64],
        rows: &mut [usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut R,
    ) -> Result<usize, TreesError> {
        let n = rows.len();
        let mean = rows.iter().map(|&r| targets[r]).sum::<f64>() / n as f64;
        let constant = rows.iter().all(|&r| (targets[r] - mean).abs() < 1e-12);

        if depth >= config.max_depth || n < config.min_samples_split || constant {
            return Ok(self.push_leaf(mean, n));
        }

        // Per-node feature subsampling (the Random Forest ingredient).
        let k = config.max_features.resolve(data.n_features());
        let candidates = sample_without_replacement(rng, data.n_features(), k)?;

        let mut best: Option<(usize, Split)> = None;
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &feature in &candidates {
            let col = data.column(feature);
            pairs.clear();
            pairs.extend(rows.iter().map(|&r| (col[r], targets[r])));
            if let Some(split) = crate::split::best_split(&mut pairs, config.min_samples_leaf) {
                if best.as_ref().is_none_or(|(_, b)| split.gain > b.gain) {
                    best = Some((feature, split));
                }
            }
        }

        let Some((feature, split)) = best else {
            return Ok(self.push_leaf(mean, n));
        };

        self.gain_by_feature[feature] += split.gain;
        self.splits_by_feature[feature] += 1;

        // Partition rows in place around the threshold.
        let col = data.column(feature);
        rows.sort_by(|&a, &b| col[a].total_cmp(&col[b]));
        let n_left = rows
            .iter()
            .take_while(|&&r| col[r] <= split.threshold)
            .count();
        debug_assert_eq!(n_left, split.n_left);

        // Reserve this node's slot before recursing so children line up.
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf {
            value: mean,
            n_samples: n,
        });
        let (left_rows, right_rows) = rows.split_at_mut(n_left);
        let left = self.build_exact(data, targets, left_rows, depth + 1, config, rng)?;
        let right = self.build_exact(data, targets, right_rows, depth + 1, config, rng)?;
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold: split.threshold,
            left,
            right,
            nan_left: split.nan_left,
        };
        Ok(node_idx)
    }
}

/// Shared state of one binned tree build: the read-only binned matrix plus
/// reusable scratch, so recursion allocates nothing per node.
struct BinnedCtx<'a> {
    binned: &'a BinnedMatrix,
    targets: &'a [f64],
    /// Per-row multiplicities (indexed by row id), or `None` when every
    /// occurrence in `rows` counts once.
    weights: Option<&'a [u32]>,
    /// What a row adds to a histogram sum: its target times its
    /// multiplicity (the target itself when unweighted).
    sums: Cow<'a, [f64]>,
    config: &'a TreeConfig,
    scratch: HistScratch,
    /// Staging area for right-child rows during the stable partition.
    part_buf: Vec<usize>,
    /// Histograms accumulated from rows (subtraction-derived ones excluded).
    hists_built: u64,
    /// Weighted count of every child re-accumulated by the subtraction
    /// trick, in build order — the observable trace of the smaller-side
    /// choice.
    #[cfg(test)]
    small_children: Vec<usize>,
}

/// One node's histograms for every feature (`(sums, counts)` per bin) —
/// the unit children inherit under the subtraction trick.
struct NodeHists {
    per_feature: Vec<(Vec<f64>, Vec<u32>)>,
}

impl NodeHists {
    /// The sibling's histograms: `self − other`, bin by bin.
    fn subtract(&self, other: &NodeHists) -> NodeHists {
        let per_feature = self
            .per_feature
            .iter()
            .zip(&other.per_feature)
            .map(|((sum, cnt), (osum, ocnt))| {
                let s: Vec<f64> = sum.iter().zip(osum).map(|(a, b)| a - b).collect();
                let c: Vec<u32> = cnt.iter().zip(ocnt).map(|(a, b)| a - b).collect();
                (s, c)
            })
            .collect();
        NodeHists { per_feature }
    }
}

impl<'a> BinnedCtx<'a> {
    fn new(
        binned: &'a BinnedMatrix,
        targets: &'a [f64],
        weights: Option<&'a [u32]>,
        config: &'a TreeConfig,
    ) -> Self {
        let sums = match weights {
            None => Cow::Borrowed(targets),
            Some(w) => Cow::Owned(
                targets
                    .iter()
                    .zip(w)
                    .map(|(&t, &w)| f64::from(w) * t)
                    .collect(),
            ),
        };
        BinnedCtx {
            binned,
            targets,
            weights,
            sums,
            config,
            scratch: HistScratch::new(),
            part_buf: Vec::new(),
            hists_built: 0,
            #[cfg(test)]
            small_children: Vec::new(),
        }
    }

    /// How many samples row `r` stands for.
    fn weight(&self, r: usize) -> usize {
        self.weights.map_or(1, |w| w[r] as usize)
    }

    /// Weighted sample count and target sum of `rows`.
    fn count_and_sum(&self, rows: &[usize]) -> (usize, f64) {
        let n = match self.weights {
            None => rows.len(),
            Some(w) => rows.iter().map(|&r| w[r] as usize).sum(),
        };
        (n, rows.iter().map(|&r| self.sums[r]).sum())
    }

    /// Accumulate fresh histograms of every feature over `rows`.
    fn build_all_hists(&mut self, rows: &[usize]) -> NodeHists {
        self.hists_built += self.binned.n_features() as u64;
        let per_feature = (0..self.binned.n_features())
            .map(|f| {
                let h = self
                    .scratch
                    .accumulate(self.binned, f, rows, &self.sums, self.weights);
                (h.sum.to_vec(), h.cnt.to_vec())
            })
            .collect();
        NodeHists { per_feature }
    }

    /// Whether a child of a node at `depth` could still be split — i.e.
    /// whether handing down inherited histograms can pay off.
    fn child_may_split(&self, depth: usize, n_left: usize, n_right: usize) -> bool {
        depth + 1 < self.config.max_depth && n_left.max(n_right) >= self.config.min_samples_split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaxFeatures;
    use rng::rngs::StdRng;
    use rng::SeedableRng;

    fn xor_data() -> (FeatureMatrix, Vec<f64>) {
        // XOR of two binary features: needs depth 2. Combo counts are
        // deliberately unbalanced — a perfectly balanced XOR has zero gain
        // for every single split and greedy CART cannot enter it.
        let combos = [
            (0.0, 0.0, 14usize),
            (1.0, 0.0, 6),
            (0.0, 1.0, 12),
            (1.0, 1.0, 8),
        ];
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        let mut i = 0u64;
        for (a, b, count) in combos {
            for _ in 0..count {
                // Hash-scrambled noise, decorrelated from the label blocks.
                let noise = (i.wrapping_mul(2_654_435_761) % 97) as f64 * 0.01;
                rows.push(vec![a, b, noise]);
                targets.push(if (a == 1.0) != (b == 1.0) { 1.0 } else { 0.0 });
                i += 1;
            }
        }
        (
            FeatureMatrix::from_rows(vec!["a".into(), "b".into(), "noise".into()], &rows).unwrap(),
            targets,
        )
    }

    fn all_rows(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    /// Bin `data` and grow one tree on `rows` from the RNG seeded `seed`.
    fn fit(
        data: &FeatureMatrix,
        targets: &[f64],
        rows: &[usize],
        config: &TreeConfig,
        seed: u64,
    ) -> Result<RegressionTree, TreesError> {
        let binned = BinnedMatrix::from_matrix(data).unwrap();
        RegressionTree::fit_binned(
            &binned,
            targets,
            rows,
            config,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn learns_xor_exactly() {
        let (data, targets) = xor_data();
        let tree = fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            1,
        )
        .unwrap();
        let preds = tree.predict(&data).unwrap();
        for (p, t) in preds.iter().zip(&targets) {
            assert!((p - t).abs() < 1e-9, "pred {p} target {t}");
        }
    }

    #[test]
    fn max_depth_zero_is_single_leaf() {
        let (data, targets) = xor_data();
        let config = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = fit(&data, &targets, &all_rows(data.n_rows()), &config, 1).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.depth(), 0);
        // The single leaf predicts the global positive rate (18/40).
        let positives = targets.iter().sum::<f64>();
        let p = tree.predict_row(&data, 0);
        assert!((p - positives / targets.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_is_respected() {
        let (data, targets) = xor_data();
        for max_depth in [1, 2, 3] {
            let config = TreeConfig {
                max_depth,
                ..TreeConfig::default()
            };
            let tree = fit(&data, &targets, &all_rows(data.n_rows()), &config, 2).unwrap();
            assert!(tree.depth() <= max_depth);
        }
    }

    #[test]
    fn importances_ignore_noise_feature() {
        let (data, targets) = xor_data();
        let tree = fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            3,
        )
        .unwrap();
        let gains = tree.gain_importances();
        assert!(gains[0] > 0.0 && gains[1] > 0.0);
        // All informative splits should land on a and b; noise may appear but
        // with negligible gain.
        assert!(gains[2] < 0.05 * (gains[0] + gains[1]));
    }

    #[test]
    fn empty_rows_is_error() {
        let (data, targets) = xor_data();
        assert_eq!(
            fit(&data, &targets, &[], &TreeConfig::default(), 4),
            Err(TreesError::EmptyTraining)
        );
    }

    #[test]
    fn target_length_mismatch_is_error() {
        let (data, _) = xor_data();
        let short = vec![0.0; 3];
        assert!(matches!(
            fit(&data, &short, &[0, 1], &TreeConfig::default(), 4),
            Err(TreesError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn predict_rejects_schema_mismatch() {
        let (data, targets) = xor_data();
        let tree = fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            5,
        )
        .unwrap();
        let narrow = FeatureMatrix::from_columns(vec!["a".into()], vec![vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            tree.predict(&narrow),
            Err(TreesError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn leaf_relabeling_changes_predictions() {
        let (data, targets) = xor_data();
        let mut tree = fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            6,
        )
        .unwrap();
        let leaf = tree.apply(&data, 0);
        tree.set_leaf_value(leaf, 42.0);
        assert_eq!(tree.predict_row(&data, 0), 42.0);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let data =
            FeatureMatrix::from_columns(vec!["x".into()], vec![vec![1.0, 2.0, 3.0, 4.0]]).unwrap();
        let targets = vec![7.0; 4];
        let tree = fit(&data, &targets, &[0, 1, 2, 3], &TreeConfig::default(), 7).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_row(&data, 2), 7.0);
    }

    #[test]
    fn subset_rows_are_respected() {
        // Train only on rows where target == 0; prediction must be 0.
        let (data, targets) = xor_data();
        let zero_rows: Vec<usize> = (0..data.n_rows()).filter(|&r| targets[r] == 0.0).collect();
        let tree = fit(&data, &targets, &zero_rows, &TreeConfig::default(), 8).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_row(&data, 0), 0.0);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let (data, targets) = xor_data();
        let config = TreeConfig {
            max_features: MaxFeatures::Count(2),
            ..TreeConfig::default()
        };
        let tree = fit(&data, &targets, &all_rows(data.n_rows()), &config, 9).unwrap();
        // With 2 of 3 features per node it may need more depth, but the fit
        // must still reduce error well below the 0.25 variance baseline.
        let preds = tree.predict(&data).unwrap();
        let mse: f64 = preds
            .iter()
            .zip(&targets)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / targets.len() as f64;
        assert!(mse < 0.1, "mse = {mse}");
    }

    /// One feature, three distinct rows with multiplicities, built so that
    /// at every count-dependent decision the distinct-row count and the
    /// weighted count disagree:
    ///
    /// | row | x | target | weight |
    /// |-----|---|--------|--------|
    /// | 0   | 0 | 0      | 6      |
    /// | 1   | 1 | 1      | 1      |
    /// | 2   | 1 | 0      | 2      |
    ///
    /// - root: 3 distinct rows < `min_samples_split` = 4 ≤ 9 weighted, so
    ///   it must split (at x ≤ 0, the only boundary);
    /// - left child: 1 distinct row < `min_samples_leaf` = 2 ≤ 6 weighted,
    ///   so the split is allowed, and its leaf holds `n_samples` = 6;
    /// - right child: mean 1/3 (weighted), not 1/2 (distinct);
    /// - `child_may_split`: max distinct 2 < 4 ≤ 6 max weighted, so the
    ///   children inherit histograms;
    /// - smaller child: the right one by weight (3 < 6), the left one by
    ///   distinct rows (1 < 2).
    ///
    /// The weighted fit must match the fit on the duplicated rows in tree,
    /// histogram count and smaller-child trace.
    #[test]
    fn multiplicities_count_where_duplicates_would() {
        let data =
            FeatureMatrix::from_columns(vec!["x".into()], vec![vec![0.0, 1.0, 1.0]]).unwrap();
        let binned = BinnedMatrix::from_matrix(&data).unwrap();
        let targets = [0.0, 1.0, 0.0];
        let weights = [6, 1, 2];
        let duplicated: Vec<usize> = (0..3)
            .flat_map(|r| std::iter::repeat_n(r, weights[r] as usize))
            .collect();
        let config = TreeConfig {
            max_depth: 3,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: MaxFeatures::All,
        };

        let mut weighted_ctx = BinnedCtx::new(&binned, &targets, Some(&weights), &config);
        let mut rng = StdRng::seed_from_u64(11);
        let weighted = RegressionTree::fit_in(&mut weighted_ctx, &[0, 1, 2], &mut rng).unwrap();
        let mut dup_ctx = BinnedCtx::new(&binned, &targets, None, &config);
        let mut rng = StdRng::seed_from_u64(11);
        let reference = RegressionTree::fit_in(&mut dup_ctx, &duplicated, &mut rng).unwrap();

        assert_eq!(
            weighted.nodes,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 0.0,
                    left: 1,
                    right: 2,
                    nan_left: true,
                },
                Node::Leaf {
                    value: 0.0,
                    n_samples: 6,
                },
                Node::Leaf {
                    value: 1.0 / 3.0,
                    n_samples: 3,
                },
            ]
        );
        assert_eq!(weighted, reference);
        assert_eq!(weighted_ctx.small_children, vec![3]);
        assert_eq!(weighted_ctx.small_children, dup_ctx.small_children);
        assert_eq!(weighted_ctx.hists_built, 2);
        assert_eq!(weighted_ctx.hists_built, dup_ctx.hists_built);
    }

    #[test]
    fn n_leaves_counts() {
        let (data, targets) = xor_data();
        let tree = fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            10,
        )
        .unwrap();
        assert_eq!(tree.n_leaves() + tree.n_leaves() - 1, tree.n_nodes());
    }
}
