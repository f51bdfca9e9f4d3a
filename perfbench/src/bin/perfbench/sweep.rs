//! The traced run of every listed workload: a sweep over every layer.
//!
//! A per-layer metric belongs to a layer, not to a workload, so each listed
//! workload's traced run reports all of them: the batch layers on the
//! `batch-select` inputs and the daemon layers on the `serve-daily` inputs.
//! Only `telemetry.overhead_ratio` depends on the workload: it is the
//! traced ÷ untraced time of that workload's own path.

use crate::env::Env;
use crate::report::{MetricSpec, Outcome};
use crate::{batch, daily, Args};

/// Named per-layer values, as one half of the sweep measured them.
pub type Layers = Vec<(&'static str, Option<f64>)>;

/// Per-layer metrics (traced run), in print order.
pub const PER_LAYER: &[MetricSpec] = &[
    // batch layers, on the batch-select inputs
    ("dataset.gen_s", "s"),
    ("dataset.gen_rows_per_s", "1/s"),
    ("pipeline.generated_matrix_s", "s"),
    ("core.select_s", "s"),
    ("trees.model_fit_s", "s"),
    ("core.rank.pearson_s", "s"),
    ("core.rank.spearman_s", "s"),
    ("core.rank.j-index_s", "s"),
    ("core.rank.random-forest_s", "s"),
    ("core.rank.gradient-boosting_s", "s"),
    ("core.run_rankers_s", "s"),
    ("core.ranker_parallelism", "ratio"),
    ("core.select_group.global_s", "s"),
    ("core.select_group.low_s", "s"),
    ("core.select_group.high_s", "s"),
    ("core.ensemble_ms", "ms"),
    ("core.wearout_detect_ms", "ms"),
    ("trees.bin_ms", "ms"),
    ("trees.forest_fit_s", "s"),
    ("trees.forest_permutation_s", "s"),
    ("trees.gbt_fit_s", "s"),
    ("trees.bin_calls", "count"),
    ("complexity.scan_ms", "ms"),
    // daemon layers, on the serve-daily inputs
    ("dataset.ingest_s", "s"),
    ("dataset.ingest_mib_per_s", "MiB/s"),
    ("dataset.ingest_queue_full_stalls", "count"),
    ("pipeline.collect_samples_ms", "ms"),
    ("pipeline.collect_samples_ms_per_100d", "ms"),
    ("pipeline.base_matrix_ms", "ms"),
    ("pipeline.base_matrix_ms_per_100d", "ms"),
    ("pipeline.survival_pairs_ms", "ms"),
    ("pipeline.survival_pairs_ms_per_100d", "ms"),
    ("pipeline.train_s", "s"),
    ("changepoint.detect_ms", "ms"),
    ("serve.replay_s", "s"),
    ("serve.day_ms", "ms"),
    ("serve.cycle_ms", "ms"),
    ("serve.reselect_ms", "ms"),
    ("serve.feed_day_ms", "ms"),
    ("serve.cycles", "count"),
    ("serve.reselections", "count"),
    ("serve.cycles_skipped", "count"),
    ("serve.score_us", "us"),
    ("serve.respond.score_us", "us"),
    ("serve.respond.features_us", "us"),
    ("serve.respond.status_us", "us"),
    ("pipeline.score_rows_us", "us"),
    ("serve.closed_loop_score_us", "us"),
    ("serve.socket_share_us", "us"),
    // the workload's own path, traced ÷ untraced
    ("telemetry.overhead_ratio", "ratio"),
];

/// `batch-select`'s traced run: the sweep, with the overhead of the batch
/// path.
pub fn batch_traced(args: &Args, env: &Env) -> Result<Outcome, String> {
    sweep(args, env, true)
}

/// `serve-daily`'s traced run: the sweep, with the overhead of a replay.
pub fn daily_traced(args: &Args, env: &Env) -> Result<Outcome, String> {
    sweep(args, env, false)
}

fn sweep(args: &Args, env: &Env, batch_overhead: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut values = batch::layers(args, env, &mut out, batch_overhead)?;
    values.extend(daily::layers(args, env, &mut out, !batch_overhead)?);
    for spec in PER_LAYER {
        let value = values.iter().find(|(name, _)| *name == spec.0);
        out.metric(*spec, value.and_then(|(_, v)| *v));
    }
    for (name, _) in &values {
        if !PER_LAYER.iter().any(|spec| spec.0 == *name) {
            out.mismatch(format!("layer metric {name} is not declared"));
        }
    }
    Ok(out)
}
