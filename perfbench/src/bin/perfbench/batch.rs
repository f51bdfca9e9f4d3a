//! `batch-select`: the paper's offline path.
//!
//! The paper population mix is streamed through `generated_base_matrix`
//! into MC1's base matrix (set-up), then WEFR selects with survival
//! context and a Random Forest trains on the selected columns, as
//! `bench_gen_stream` does. MC1 at this scale has a significant wear-out
//! change point, so every selection runs three `select_group`s (global,
//! low, high): the rankers and `smart-trees` do most of the work; ingest
//! and serve do none.
//!
//! The census is pinned, and `--seed` permutes the matrix rows. A census
//! drawn per seed changes the sample count by ±7% (31K to 36K rows over
//! four seeds), and the selection time with it, so `time_to_model_s`
//! would measure the draw. A permutation keeps the work and changes what
//! the seeded rankers and forests see: bootstraps, splits, selected sets.

use std::time::Instant;

use rng::rngs::StdRng;
use rng::seq::SliceRandom;
use rng::SeedableRng;

use smart_changepoint::bocpd::BocpdConfig;
use smart_complexity::{automated_feature_count, ThresholdConfig};
use smart_dataset::gen::stream::GenConfig;
use smart_dataset::{stream_fleet_batches, DatasetError, DriveModel, FleetConfig};
use smart_pipeline::{generated_base_matrix, GeneratedMatrix, SamplingConfig};
use smart_trees::{BinnedMatrix, ForestConfig, GradientBoosting, RandomForest};
use wefr_core::parallel::run_rankers;
use wefr_core::wearout::{detect_wearout_threshold, split_rows_by_mwi};
use wefr_core::{
    default_rankers, ensemble_rankings, ForestRanker, GradientBoostingRanker, SelectionInput, Wefr,
    WefrConfig, WefrSelection, PAPER_OUTLIER_SIGMA,
};

use crate::env::{peak_rss_mib, Env};
use crate::report::Outcome;
use crate::stats::{median, timed};
use crate::sweep::Layers;
use crate::{Args, END_TO_END};

/// Drives in the proportional census (all models; MC1 is one share).
pub const CENSUS_DRIVES: u32 = 10_000;
/// Generator seed of the pinned census.
pub const CENSUS_SEED: u64 = crate::DEFAULT_SEED;
/// The model whose matrix is selected on.
pub const MODEL: DriveModel = DriveModel::Mc1;
/// Trees of the forest trained on the selected columns.
pub const TRAIN_TREES: usize = 50;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Repeats of the millisecond-scale layer calls in the traced run.
const SHORT_REPEATS: usize = 5;

/// What the default seed must select: global, low and high sets (best
/// first) and the change-point MWI.
const PINNED_GLOBAL: &[&str] = &["OCE_R", "OCE_N", "UCE_N", "UCE_R", "CMDT_N"];
const PINNED_LOW: &[&str] = &["OCE_R", "OCE_N", "UCE_R", "UCE_N", "MWI_R"];
const PINNED_HIGH: &[&str] = &["OCE_R", "OCE_N", "UCE_N", "UCE_R", "CMDT_R"];
const PINNED_MWI: u32 = 86;

struct Setup {
    /// Seed of the row permutation.
    seed: u64,
    config: FleetConfig,
    gen: GenConfig,
    sampling: SamplingConfig,
    wefr: WefrConfig,
    forest: ForestConfig,
}

impl Setup {
    fn new(args: &Args, env: &Env) -> Result<Setup, String> {
        Ok(Setup {
            seed: args.seed,
            config: FleetConfig::proportional(CENSUS_DRIVES, CENSUS_SEED)
                .map_err(|e| e.to_string())?,
            gen: GenConfig {
                workers: env.nproc,
                ..GenConfig::default()
            },
            sampling: SamplingConfig::default(),
            // The program's own seeds stay at their defaults: only the
            // inputs vary with --seed.
            wefr: WefrConfig::default(),
            forest: ForestConfig {
                n_trees: TRAIN_TREES,
                n_threads: Some(env.nproc),
                ..ForestConfig::default()
            },
        })
    }

    fn meta(&self, args: &Args, env: &Env, trace: bool) -> String {
        env.meta_line(
            "batch-select",
            args.seed,
            &[
                ("trace", trace.to_string()),
                ("census_drives", self.config.total_drives().to_string()),
                ("census_seed", CENSUS_SEED.to_string()),
                ("row_permutation_seed", self.seed.to_string()),
                ("days", self.config.days().to_string()),
                ("model", format!("\"{MODEL}\"")),
                ("gen_workers", self.gen.workers.to_string()),
                ("gen_chunk_drives", self.gen.chunk_drives.to_string()),
                // `None` in the ranker forests resolves to
                // available_parallelism, i.e. nproc.
                ("ranker_forest_threads", env.nproc.to_string()),
                ("ranker_threads", "5".to_string()),
                ("train_threads", env.nproc.to_string()),
                ("train_trees", TRAIN_TREES.to_string()),
            ],
        )
    }

    /// The census's base matrix, its rows permuted by the seed.
    fn matrix(&self) -> Result<GeneratedMatrix, String> {
        let mut m = generated_base_matrix(
            &self.config,
            &self.gen,
            MODEL,
            0,
            self.config.days() - 1,
            &self.sampling,
        )
        .map_err(|e| e.to_string())?;
        let mut order: Vec<usize> = (0..m.labels.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(self.seed));
        m.matrix = m.matrix.select_rows(&order).map_err(|e| e.to_string())?;
        m.labels = order.iter().map(|&r| m.labels[r]).collect();
        m.mwi = order.iter().map(|&r| m.mwi[r]).collect();
        Ok(m)
    }

    fn select(
        &self,
        m: &GeneratedMatrix,
        survival: &[(f64, bool)],
    ) -> Result<WefrSelection, String> {
        Wefr::new(self.wefr)
            .select(&SelectionInput {
                data: &m.matrix,
                labels: &m.labels,
                mwi_per_sample: Some(&m.mwi),
                survival: Some(survival),
            })
            .map_err(|e| e.to_string())
    }

    fn train(&self, m: &GeneratedMatrix, sel: &WefrSelection) -> Result<RandomForest, String> {
        let columns = m
            .matrix
            .select_columns(&sel.global.selected)
            .map_err(|e| e.to_string())?;
        RandomForest::fit(&columns, &m.labels, &self.forest).map_err(|e| e.to_string())
    }
}

/// Spans named `name` with an ancestor named `ancestor` (the program's
/// fan-outs parent worker spans explicitly, so this follows threads).
fn spans_under(report: &telemetry::RunReport, name: &str, ancestor: &str) -> usize {
    let by_id: std::collections::BTreeMap<u64, &telemetry::SpanRecord> =
        report.spans.iter().map(|s| (s.id, s)).collect();
    report
        .spans_named(name)
        .into_iter()
        .filter(|s| {
            let mut parent = s.parent;
            while let Some(p) = parent.and_then(|id| by_id.get(&id)) {
                if p.name == ancestor {
                    return true;
                }
                parent = p.parent;
            }
            false
        })
        .count()
}

fn survival(m: &GeneratedMatrix) -> Vec<(f64, bool)> {
    m.census
        .summaries_of_model(MODEL)
        .map(|s| (s.final_mwi_n, s.is_failed()))
        .collect()
}

/// Output checks on one selection and the forest trained from it.
fn check_selection(
    out: &mut Outcome,
    args: &Args,
    sel: &WefrSelection,
    forest: &RandomForest,
    m: &GeneratedMatrix,
) {
    if sel.global.selected.is_empty() {
        out.mismatch("global selection is empty".to_string());
    }
    let proba = m
        .matrix
        .select_columns(&sel.global.selected)
        .map_err(|e| e.to_string())
        .and_then(|columns| forest.predict_proba(&columns).map_err(|e| e.to_string()));
    match proba {
        Ok(p) if p.iter().all(|v| (0.0..=1.0).contains(v)) => {}
        Ok(_) => out.mismatch("forest probability outside [0, 1]".to_string()),
        Err(e) => out.mismatch(format!("forest prediction failed: {e}")),
    }
    if args.seed == crate::DEFAULT_SEED {
        let names = |g: &wefr_core::GroupSelection| g.selected_names.clone();
        let pinned = |p: &[&str]| p.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        out.check(
            "global selection",
            names(&sel.global),
            pinned(PINNED_GLOBAL),
        );
        match &sel.wearout {
            Some(w) => {
                out.check("low selection", names(&w.low), pinned(PINNED_LOW));
                out.check("high selection", names(&w.high), pinned(PINNED_HIGH));
                out.check("change-point MWI", w.change_point.mwi_threshold, PINNED_MWI);
            }
            None => out.mismatch("no wear-out split at the default seed".to_string()),
        }
    }
}

/// The untraced run: set up [`SETUPS`] times, then select and train until
/// `--seconds` have passed (at least twice). `peak_rss_mib` is read after
/// the first selection and training.
pub fn run(args: &Args, env: &Env) -> Result<Outcome, String> {
    let setup = Setup::new(args, env)?;
    println!("{}", setup.meta(args, env, false));
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut matrix: Option<GeneratedMatrix> = None;
    for _ in 0..SETUPS {
        let (m, secs) = timed(|| setup.matrix());
        setup_s.push(secs);
        let Some(m) = out.op("generated_base_matrix", m) else {
            continue;
        };
        if let Some(first) = &matrix {
            if m.matrix != first.matrix || m.labels != first.labels || m.mwi != first.mwi {
                out.mismatch("two set-ups built different matrices".to_string());
            }
        }
        matrix = Some(m);
    }
    let m = matrix.ok_or("no set-up succeeded")?;
    let survival = survival(&m);
    println!(
        "matrix: {} samples ({} positive) x {} features",
        m.labels.len(),
        m.labels.iter().filter(|&&l| l).count(),
        m.matrix.n_features()
    );

    let mut model_s = Vec::new();
    let mut rows_per_s = Vec::new();
    let mut first: Option<WefrSelection> = None;
    let mut rss = None;
    let start = Instant::now();
    while model_s.len() < 2 || start.elapsed() < args.seconds {
        let (sel, s_secs) = timed(|| setup.select(&m, &survival));
        let Some(sel) = out.op("select", sel) else {
            break;
        };
        let (forest, t_secs) = timed(|| setup.train(&m, &sel));
        let Some(forest) = out.op("train", forest) else {
            break;
        };
        model_s.push(s_secs + t_secs);
        rows_per_s.push(m.labels.len() as f64 / s_secs);
        match &first {
            None => {
                check_selection(&mut out, args, &sel, &forest, &m);
                rss = peak_rss_mib();
                println!(
                    "selected global {:?}, wear-out {:?}",
                    sel.global.selected_names,
                    sel.wearout.as_ref().map(|w| (
                        w.change_point.mwi_threshold,
                        &w.low.selected_names,
                        &w.high.selected_names
                    ))
                );
                first = Some(sel);
            }
            Some(f) if sel != *f => out.mismatch("two selections differ".to_string()),
            Some(_) => {}
        }
    }
    println!("{} select+train iterations", model_s.len());
    out.metric(END_TO_END[0], median(&setup_s));
    out.metric(END_TO_END[1], median(&model_s));
    out.metric(END_TO_END[2], median(&rows_per_s));
    out.metric(END_TO_END[3], rss);
    Ok(out)
}

/// The batch layers of the traced sweep: the end-to-end path once
/// untraced and once with telemetry collecting (for the overhead ratio and
/// the program's own `trees/bin` spans), then each layer's public entry
/// point timed alone. `telemetry.overhead_ratio` is included when
/// `overhead` is set.
pub fn layers(args: &Args, env: &Env, out: &mut Outcome, overhead: bool) -> Result<Layers, String> {
    let setup = Setup::new(args, env)?;
    println!("{}", setup.meta(args, env, true));

    // The whole path, untraced then traced.
    let path = |out: &mut Outcome| -> Result<(f64, f64, f64, GeneratedMatrix), String> {
        let (m, gen_s) = timed(|| setup.matrix());
        let m = out.op("generated_base_matrix", m).ok_or("set-up failed")?;
        let survival = survival(&m);
        let (sel, sel_s) = timed(|| setup.select(&m, &survival));
        let sel = out.op("select", sel).ok_or("select failed")?;
        let (forest, train_s) = timed(|| setup.train(&m, &sel));
        let forest = out.op("train", forest).ok_or("train failed")?;
        check_selection(out, args, &sel, &forest, &m);
        Ok((gen_s, sel_s, train_s, m))
    };
    let (gen_off, sel_off, train_off, m) = path(&mut *out)?;
    telemetry::set_collect(true);
    telemetry::reset();
    let (gen_on, sel_on, train_on, _) = path(&mut *out)?;
    let report = telemetry::snapshot("perfbench-batch-select");
    telemetry::set_collect(false);
    telemetry::reset();
    let bin_calls = spans_under(&report, "trees/bin", "select");

    // Generation alone, without the matrix fold.
    let (gen_stats, bare_gen_s) = timed(|| {
        stream_fleet_batches(&setup.config, &setup.gen, |_batch| {
            Ok::<(), DatasetError>(())
        })
    });
    let gen_stats = out
        .op("stream_fleet_batches", gen_stats)
        .ok_or("generation failed")?;

    // Each ranker alone, then the fan-out, on the global matrix.
    let survival = survival(&m);
    let rankers = default_rankers(setup.wefr.seed);
    let mut solo = Vec::new();
    for ranker in &rankers {
        let (r, secs) = timed(|| ranker.rank(&m.matrix, &m.labels));
        out.op(ranker.name(), r);
        solo.push((ranker.name(), secs));
    }
    let (rankings, fanout_s) = timed(|| run_rankers(&rankers, &m.matrix, &m.labels));
    let rankings = out.op("run_rankers", rankings).ok_or("rankers failed")?;
    let mut ensemble = None;
    let mut ensemble_ms = Vec::new();
    for _ in 0..SHORT_REPEATS {
        let (e, secs) = timed(|| ensemble_rankings(&rankings, PAPER_OUTLIER_SIGMA));
        ensemble_ms.push(secs * 1e3);
        ensemble = out.op("ensemble_rankings", e);
    }
    let ensemble = ensemble.ok_or("ensemble failed")?;
    let mut scan_ms = Vec::new();
    let mut detect_ms = Vec::new();
    let mut bin_ms = Vec::new();
    let mut change_point = None;
    for _ in 0..SHORT_REPEATS {
        let (scan, secs) = timed(|| {
            automated_feature_count(
                &m.matrix,
                &m.labels,
                &ensemble.order,
                &ThresholdConfig::default(),
            )
        });
        out.op("automated_feature_count", scan);
        scan_ms.push(secs * 1e3);
        let (cp, secs) = timed(|| {
            let w = WefrConfig::default();
            detect_wearout_threshold(
                &survival,
                &BocpdConfig::default(),
                w.z_threshold,
                w.survival_min_bucket,
            )
        });
        change_point = out.op("detect_wearout_threshold", cp).flatten();
        detect_ms.push(secs * 1e3);
        let (binned, secs) = timed(|| BinnedMatrix::from_matrix(&m.matrix));
        out.op("BinnedMatrix::from_matrix", binned);
        bin_ms.push(secs * 1e3);
    }

    // select_group on the global matrix and on each wear-out side.
    let wefr = Wefr::new(setup.wefr);
    let (g, global_s) = timed(|| wefr.select_group(&m.matrix, &m.labels));
    out.op("select_group global", g);
    let cp = change_point.ok_or("no wear-out change point to split at")?;
    let split = split_rows_by_mwi(&m.mwi, f64::from(cp.mwi_threshold));
    let mut side_s = Vec::new();
    for rows in [&split.low_rows, &split.high_rows] {
        let sub = m.matrix.select_rows(rows).map_err(|e| e.to_string())?;
        let labels: Vec<bool> = rows.iter().map(|&r| m.labels[r]).collect();
        let (g, secs) = timed(|| wefr.select_group(&sub, &labels));
        out.op("select_group side", g);
        side_s.push(secs);
    }

    // The tree rankers' halves: fit and importance apart.
    let forest_config = ForestRanker::with_seed(setup.wefr.seed).config;
    let (forest, fit_s) = timed(|| RandomForest::fit(&m.matrix, &m.labels, &forest_config));
    let forest = out
        .op("RandomForest::fit", forest)
        .ok_or("forest fit failed")?;
    let (perm, perm_s) = timed(|| forest.permutation_importances(&m.matrix, &m.labels));
    out.op("permutation_importances", perm);
    let gbt_config = GradientBoostingRanker::with_seed(setup.wefr.seed.wrapping_add(1)).config;
    let (gbt, gbt_s) = timed(|| GradientBoosting::fit(&m.matrix, &m.labels, &gbt_config));
    out.op("GradientBoosting::fit", gbt);

    let solo_sum: f64 = solo.iter().map(|(_, s)| s).sum();
    let mut values = vec![
        ("dataset.gen_s", Some(bare_gen_s)),
        (
            "dataset.gen_rows_per_s",
            Some(gen_stats.rows as f64 / bare_gen_s),
        ),
        ("pipeline.generated_matrix_s", Some(gen_off)),
        ("core.select_s", Some(sel_off)),
        ("trees.model_fit_s", Some(train_off)),
        ("core.rank.pearson_s", Some(solo[0].1)),
        ("core.rank.spearman_s", Some(solo[1].1)),
        ("core.rank.j-index_s", Some(solo[2].1)),
        ("core.rank.random-forest_s", Some(solo[3].1)),
        ("core.rank.gradient-boosting_s", Some(solo[4].1)),
        ("core.run_rankers_s", Some(fanout_s)),
        ("core.ranker_parallelism", Some(solo_sum / fanout_s)),
        ("core.select_group.global_s", Some(global_s)),
        ("core.select_group.low_s", Some(side_s[0])),
        ("core.select_group.high_s", Some(side_s[1])),
        ("core.ensemble_ms", median(&ensemble_ms)),
        ("core.wearout_detect_ms", median(&detect_ms)),
        ("trees.bin_ms", median(&bin_ms)),
        ("trees.forest_fit_s", Some(fit_s)),
        ("trees.forest_permutation_s", Some(perm_s)),
        ("trees.gbt_fit_s", Some(gbt_s)),
        ("trees.bin_calls", Some(bin_calls as f64)),
        ("complexity.scan_ms", median(&scan_ms)),
    ];
    if overhead {
        let ratio = (gen_on + sel_on + train_on) / (gen_off + sel_off + train_off);
        values.push(("telemetry.overhead_ratio", Some(ratio)));
    }
    let names: Vec<&str> = rankers.iter().map(|r| r.name()).collect();
    out.check(
        "ranker order",
        names,
        vec![
            "pearson",
            "spearman",
            "j-index",
            "random-forest",
            "gradient-boosting",
        ],
    );
    println!("untraced select {sel_off:.3}s, traced select {sel_on:.3}s");
    Ok(values)
}
