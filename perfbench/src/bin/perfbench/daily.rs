//! `serve-daily`: the daemon's write path.
//!
//! The daemon ingests a pinned MC1 fleet's log (set-up), the benchmark
//! opens one connection, and then, day by day, calls `advance_to(d)` and
//! scores every drive observed on `d`, in-process and over the socket.
//! Chosen because the weekly cycle (fleet snapshot, `collect_samples`,
//! `base_matrix`, change point) and the re-selections dominate here, and
//! the rankers run inside the daemon rather than on a prepared matrix.

use std::time::Instant;

use serve::protocol::Request;
use serve::{CycleReport, Daemon};
use smart_changepoint::SurvivalCurve;
use smart_dataset::FeatureId;
use smart_pipeline::features::expand_sample;
use smart_pipeline::{
    base_features, base_matrix, collect_samples, survival_pairs, FailurePredictor,
};
use sync::PoisonError;

use crate::env::{peak_rss_mib, Env, Fnv};
use crate::report::Outcome;
use crate::serving::{
    check_ingest, closed_loop_us, expected_answer, ingest, respond_us, serve_config,
    serve_on_loopback, worker_meta, FleetSpec, Inputs, MODEL,
};
use crate::stats::{median, slope, timed};
use crate::sweep::Layers;
use crate::{Args, END_TO_END};

/// The replayed fleet.
pub const FLEET: FleetSpec = FleetSpec {
    drives: 400,
    days: 365,
    fleet_seed: crate::DEFAULT_SEED,
    failure_scale: 8.0,
};
/// Closed-loop SCOREs in the traced run's socket measurement.
const CLOSED_LOOP_REQUESTS: usize = 4_000;
/// Ingests per run; `setup_s` is their median. An ingest takes about
/// 200 ms, so eleven keep a few slow ones from setting it.
pub const SETUPS: usize = 11;

/// Digest of cycle reports, STATUS answers and SCORE answers at the
/// default seed.
const PINNED_DIGEST: u64 = 0xf15f_ce0e_2276_ff5a;

/// What one socket replay measured.
#[derive(Debug, Default)]
struct Replay {
    /// Advance + scores, summed over days.
    total_s: f64,
    /// Days without a cycle: advance + that day's scores.
    day_ms: Vec<f64>,
    /// `advance_to` on cycle days that checked without re-selecting.
    cycle_ms: Vec<f64>,
    /// `advance_to` on re-selection days.
    reselect_ms: Vec<f64>,
    reports: Vec<CycleReport>,
    digest: u64,
    scores: u64,
    /// Telemetry rows fed: drives observed, summed over days.
    rows: u64,
}

/// Replay every day. The timed part of a day is the daemon's own work:
/// `advance_to(d)`, then `Daemon::score` for every drive observed on `d`
/// once a selection exists. Untimed, the same SCOREs then go over one
/// connection and must match those values as printed `{:.9}`. Socket
/// round trips are left out of the timing because on a shared two-core
/// host their cost tripled for minutes at a time; `serve-query` measures
/// them.
fn replay(inputs: &Inputs, daemon: Daemon, out: &mut Outcome) -> Result<Replay, String> {
    let (daemon, server, mut conn) = serve_on_loopback(daemon)?;
    let lock = || daemon.lock().unwrap_or_else(PoisonError::into_inner);
    let mut r = Replay::default();
    let mut digest = Fnv::new();
    let mut ready = false;
    for d in 0..=inputs.last_day {
        let observed = inputs.observed_on(d);
        r.rows += observed.len() as u64;
        let (advanced, advance_s, scores, day_s) = {
            let start = Instant::now();
            let mut guard = lock();
            let advanced = guard.advance_to(d);
            let advance_s = start.elapsed().as_secs_f64();
            let scores: Vec<_> = if guard.features().is_ok() {
                observed.iter().map(|&id| (id, guard.score(id))).collect()
            } else {
                Vec::new()
            };
            (advanced, advance_s, scores, start.elapsed().as_secs_f64())
        };
        let Some(reports) = out.op("advance_to", advanced) else {
            break;
        };
        r.total_s += day_s;
        match reports.as_slice() {
            [] => r.day_ms.push(day_s * 1e3),
            [c] if c.reselected => r.reselect_ms.push(advance_s * 1e3),
            [c] if c.decision.is_some() => r.cycle_ms.push(advance_s * 1e3),
            _ => {}
        }

        // Untimed: the socket side of the day, checked and digested.
        for c in &reports {
            digest.line(&format!("{c:?}"));
            let status = conn.request("STATUS");
            if let Some(status) = out.op("STATUS", status) {
                out.check(
                    "STATUS",
                    &status,
                    &expected_answer(&lock(), Request::Status),
                );
                digest.line(&status);
            }
        }
        if !ready {
            // Not yet trained is an expected answer, not a failure.
            ready = conn
                .request("FEATURES")
                .is_ok_and(|a| a.starts_with("ok features"));
        }
        out.check("FEATURES answers once scores do", ready, !scores.is_empty());
        for (id, score) in scores {
            r.scores += 1;
            let Some(score) = out.op("Daemon::score", score) else {
                continue;
            };
            let Some(answer) = out.op("SCORE", conn.request(&format!("SCORE {id}"))) else {
                continue;
            };
            if answer.starts_with("ERR") {
                out.op("SCORE", Err::<(), _>(answer.trim_end().to_string()));
                continue;
            }
            out.check(
                "SCORE",
                answer.as_str(),
                format!("ok score {id} {score:.9}\n").as_str(),
            );
            digest.line(&answer);
        }
        r.reports.extend(reports);
    }
    out.op("QUIT", conn.request("QUIT"));
    server.stop();
    r.digest = digest.finish();
    Ok(r)
}

fn meta(args: &Args, env: &Env, trace: bool) -> String {
    let mut fields = vec![("trace", trace.to_string())];
    fields.extend(FLEET.meta());
    fields.extend(worker_meta(env));
    env.meta_line("serve-daily", args.seed, &fields)
}

/// Check the replay's shape and, at the default seed, its digest.
fn check_replay(out: &mut Outcome, args: &Args, r: &Replay) {
    if r.reselect_ms.is_empty() || r.cycle_ms.is_empty() || r.scores == 0 {
        out.mismatch(format!(
            "replay too thin: {} re-selections, {} checks, {} scores",
            r.reselect_ms.len(),
            r.cycle_ms.len(),
            r.scores
        ));
    }
    if args.seed == crate::DEFAULT_SEED {
        out.check(
            "transcript digest",
            format!("{:016x}", r.digest),
            format!("{PINNED_DIGEST:016x}"),
        );
    }
}

/// The untraced run: ingest [`SETUPS`] times, then replay every day —
/// again, from a fresh ingest, until `--seconds` have passed since the
/// first replay began. `time_to_model_s` is the median `advance_to` on
/// re-selection days, pooled across replays; `rows_per_s` is the rows fed
/// in all replays over the time of their timed parts; `peak_rss_mib` is
/// read after the first replay.
pub fn run(args: &Args, env: &Env) -> Result<Outcome, String> {
    println!("{}", meta(args, env, false));
    let inputs = Inputs::generate(&FLEET, args.seed)?;
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut start: Option<Instant> = None;
    let mut replays: Vec<Replay> = Vec::new();
    let mut rss = None;
    while setup_s.len() < SETUPS || start.is_none_or(|t| t.elapsed() < args.seconds) {
        let (result, secs) = ingest(&inputs, env);
        setup_s.push(secs);
        let daemon = out.op("ingest_csv", result).map(|(daemon, stats)| {
            check_ingest(&mut out, &inputs, &stats);
            daemon
        });
        if setup_s.len() < SETUPS {
            continue;
        }
        let daemon = daemon.ok_or("ingest failed")?;
        start.get_or_insert_with(Instant::now);
        let r = replay(&inputs, daemon, &mut out)?;
        check_replay(&mut out, args, &r);
        match replays.first() {
            Some(first) => out.check("replay digest", r.digest, first.digest),
            None => rss = peak_rss_mib(),
        }
        println!(
            "replay: {} days, {} cycles ({} re-selections), {} scores, {:.3}s, digest {:016x}",
            inputs.last_day + 1,
            r.reports.len(),
            r.reselect_ms.len(),
            r.scores,
            r.total_s,
            r.digest
        );
        replays.push(r);
    }
    let reselect_s: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.reselect_ms.iter().map(|ms| ms / 1e3))
        .collect();
    let rows: u64 = replays.iter().map(|r| r.rows).sum();
    let timed_s: f64 = replays.iter().map(|r| r.total_s).sum();
    out.metric(END_TO_END[0], median(&setup_s));
    out.metric(END_TO_END[1], median(&reselect_s));
    out.metric(END_TO_END[2], Some(rows as f64 / timed_s));
    out.metric(END_TO_END[3], rss);
    Ok(out)
}

/// Per-cycle-day layer timings on the benchmark's own fleet.
#[derive(Default)]
struct CycleLayers {
    days: Vec<f64>,
    collect_ms: Vec<f64>,
    matrix_ms: Vec<f64>,
    survival_ms: Vec<f64>,
    detect_ms: Vec<f64>,
    train_s: Vec<f64>,
}

/// The daemon layers of the traced sweep: the socket replay untraced and,
/// when `overhead` is set, traced (for `telemetry.overhead_ratio`, with
/// the program's `serve.cycle` spans as a cross-check), then an in-process
/// replay timing each layer's public entry point.
pub fn layers(args: &Args, env: &Env, out: &mut Outcome, overhead: bool) -> Result<Layers, String> {
    println!("{}", meta(args, env, true));
    let inputs = Inputs::generate(&FLEET, args.seed)?;

    let (first, ingest_s) = ingest(&inputs, env);
    let (daemon, stats) = out.op("ingest_csv", first).ok_or("ingest failed")?;
    check_ingest(out, &inputs, &stats);
    let untraced = replay(&inputs, daemon, out)?;
    check_replay(out, args, &untraced);

    let mut traced_s = None;
    if overhead {
        telemetry::set_collect(true);
        telemetry::reset();
        let (again, _) = ingest(&inputs, env);
        let (daemon, _) = out.op("ingest_csv", again).ok_or("ingest failed")?;
        let traced = replay(&inputs, daemon, out)?;
        let report = telemetry::snapshot("perfbench-serve-daily");
        telemetry::set_collect(false);
        telemetry::reset();
        out.check("traced digest", traced.digest, untraced.digest);
        out.check(
            "serve.cycle spans",
            report.count("serve.cycle"),
            untraced.reports.len(),
        );
        traced_s = Some(traced.total_s);
    }

    // In-process replay: each layer alone.
    let (fresh, _) = ingest(&inputs, env);
    let (mut daemon, _) = out.op("ingest_csv", fresh).ok_or("ingest failed")?;
    let config = serve_config(env);
    let base = base_features(MODEL);
    let fleet = &inputs.fleet;
    let mut layers = CycleLayers::default();
    let mut feed_ms = Vec::new();
    let mut predictor = None;
    let mut rows_us = Vec::new();
    let mut score_us = Vec::new();
    let (mut resp_score, mut resp_features, mut resp_status) = (Vec::new(), Vec::new(), Vec::new());
    for d in 0..=inputs.last_day {
        let (reports, secs) = timed(|| daemon.advance_to(d));
        let Some(reports) = out.op("advance_to", reports) else {
            break;
        };
        if reports.is_empty() {
            feed_ms.push(secs * 1e3);
        }
        for c in reports.iter().filter(|c| c.decision.is_some()) {
            let label_to = d.saturating_sub(config.sampling.horizon);
            layers.days.push(f64::from(d));
            let (samples, secs) =
                timed(|| collect_samples(fleet, MODEL, 0, label_to, &config.sampling));
            layers.collect_ms.push(secs * 1e3);
            let samples = out.op("collect_samples", samples).unwrap_or_default();
            let (m, secs) = timed(|| base_matrix(fleet, MODEL, &samples));
            layers.matrix_ms.push(secs * 1e3);
            out.op("base_matrix", m);
            let (survival, secs) = timed(|| survival_pairs(fleet, MODEL, d));
            layers.survival_ms.push(secs * 1e3);
            let (cp, secs) = timed(|| {
                SurvivalCurve::from_drives(
                    survival.iter().copied(),
                    config.wefr.survival_min_bucket,
                )
                .detect_change_point(&config.wefr.bocpd, config.wefr.z_threshold)
            });
            layers.detect_ms.push(secs * 1e3);
            out.op("detect_change_point", cp);
            if c.reselected {
                // The daemon's selection, best first, as base features.
                let selected: Vec<FeatureId> = daemon
                    .features()
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|n| base.iter().find(|f| f.name() == *n).copied())
                    .collect();
                let (p, secs) = timed(|| {
                    FailurePredictor::train(fleet, &samples, &selected, &config.predictor)
                });
                layers.train_s.push(secs);
                predictor = out.op("FailurePredictor::train", p).map(|p| (p, selected));
            }
        }
        // Every tenth ready day: the score path in-process, and the same
        // rows through a predictor trained like the daemon's.
        if d % 10 == 0 && daemon.features().is_ok() {
            if let Some((p, selected)) = &predictor {
                for drive in fleet.drives().iter().filter(|r| r.observed_on(d)) {
                    let rows = [expand_sample(drive, d, selected).map_err(|e| e.to_string())?];
                    let (s, secs) = timed(|| p.score_rows(&rows));
                    out.op("score_rows", s);
                    rows_us.push(secs * 1e6);
                }
            }
            for id in inputs.observed_on(d) {
                let (s, secs) = timed(|| daemon.score(id));
                score_us.push(secs * 1e6);
                out.op("Daemon::score", s);
                resp_score.extend(respond_us(&daemon, Request::Score(id), 1));
            }
            resp_features.extend(respond_us(&daemon, Request::Features, 1));
            resp_status.extend(respond_us(&daemon, Request::Status, 1));
        }
    }
    // Closed-loop SCOREs over the socket on the final day: the socket's
    // share is their latency minus `respond`'s.
    let score_lines: Vec<String> = inputs
        .observed_on(inputs.last_day)
        .iter()
        .map(|id| format!("SCORE {id}"))
        .collect();
    let (_, server, mut conn) = serve_on_loopback(daemon)?;
    let closed_score = closed_loop_us(&mut conn, &score_lines, CLOSED_LOOP_REQUESTS, out);
    out.op("QUIT", conn.request("QUIT"));
    server.stop();

    let count = |f: fn(&CycleReport) -> bool| untraced.reports.iter().filter(|c| f(c)).count();
    let per_100d = |ys: &[f64]| slope(&layers.days, ys).map(|s| s * 100.0);
    let csv_mib = inputs.csv.len() as f64 / (1024.0 * 1024.0);
    let mut values = vec![
        ("dataset.ingest_s", Some(ingest_s)),
        ("dataset.ingest_mib_per_s", Some(csv_mib / ingest_s)),
        (
            "dataset.ingest_queue_full_stalls",
            Some(stats.queue_full_stalls as f64),
        ),
        ("pipeline.collect_samples_ms", median(&layers.collect_ms)),
        (
            "pipeline.collect_samples_ms_per_100d",
            per_100d(&layers.collect_ms),
        ),
        ("pipeline.base_matrix_ms", median(&layers.matrix_ms)),
        (
            "pipeline.base_matrix_ms_per_100d",
            per_100d(&layers.matrix_ms),
        ),
        ("pipeline.survival_pairs_ms", median(&layers.survival_ms)),
        (
            "pipeline.survival_pairs_ms_per_100d",
            per_100d(&layers.survival_ms),
        ),
        ("pipeline.train_s", median(&layers.train_s)),
        ("changepoint.detect_ms", median(&layers.detect_ms)),
        ("serve.replay_s", Some(untraced.total_s)),
        ("serve.day_ms", median(&untraced.day_ms)),
        ("serve.cycle_ms", median(&untraced.cycle_ms)),
        ("serve.reselect_ms", median(&untraced.reselect_ms)),
        ("serve.feed_day_ms", median(&feed_ms)),
        ("serve.cycles", Some(untraced.reports.len() as f64)),
        ("serve.reselections", Some(count(|c| c.reselected) as f64)),
        (
            "serve.cycles_skipped",
            Some(count(|c| c.skipped.is_some()) as f64),
        ),
        ("serve.score_us", median(&score_us)),
        ("serve.respond.score_us", median(&resp_score)),
        ("serve.respond.features_us", median(&resp_features)),
        ("serve.respond.status_us", median(&resp_status)),
        ("pipeline.score_rows_us", median(&rows_us)),
        ("serve.closed_loop_score_us", Some(closed_score)),
        (
            "serve.socket_share_us",
            median(&resp_score).map(|r| closed_score - r),
        ),
    ];
    if let Some(traced_s) = traced_s {
        values.push((
            "telemetry.overhead_ratio",
            Some(traced_s / untraced.total_s),
        ));
    }
    println!(
        "untraced replay {:.3}s, {} cycles",
        untraced.total_s,
        untraced.reports.len()
    );
    Ok(values)
}
