//! What both daemon workloads share: the input log, the daemon and ingest
//! configuration, timed set-up, and the answers a correct daemon gives.

use std::io::Cursor;

use rng::rngs::StdRng;
use rng::seq::SliceRandom;
use rng::SeedableRng;
use serve::protocol::{respond, Request};
use serve::{Daemon, ServeConfig, ServeListener};
use smart_dataset::csv::export_smart_csv;
use smart_dataset::{
    tickets_from_summaries, DriveId, DriveModel, DriveRecord, Fleet, FleetConfig, IngestConfig,
    IngestStats, TroubleTicket,
};

use sync::{Arc, Mutex};

use crate::client::Connection;
use crate::env::Env;
use crate::report::Outcome;
use crate::stats::{median, timed};

/// The model both daemon workloads serve.
pub const MODEL: DriveModel = DriveModel::Mc1;

/// The simulated fleet a daemon workload replays.
///
/// The fleet itself is pinned per workload: whether the wear-out threshold
/// moves in a given week is a property of the simulated failures, and a
/// freshly drawn fleet per seed turns the number of re-selections — most
/// of the replay time — into a lottery (3 to 22 re-selections across four
/// seeds at 300 drives). The seed instead relabels the drives, which
/// reorders the log, the daemon's drive map, the negatives its sampler
/// keeps, what it selects and every score, but not when it re-selects.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// MC1 drives.
    pub drives: u32,
    /// Days of telemetry.
    pub days: u32,
    /// Generator seed of the pinned fleet.
    pub fleet_seed: u64,
    /// Failure-rate multiplier (the serve smoke fleet's 8.0).
    pub failure_scale: f64,
}

impl FleetSpec {
    /// The spec as `meta` fields.
    pub fn meta(&self) -> Vec<(&'static str, String)> {
        vec![
            ("drives", self.drives.to_string()),
            ("days", self.days.to_string()),
            ("fleet_seed", self.fleet_seed.to_string()),
            ("failure_scale", format!("{:?}", self.failure_scale)),
            ("model", format!("\"{MODEL}\"")),
        ]
    }
}

/// The generated inputs of a daemon workload.
pub struct Inputs {
    /// The relabelled fleet (the benchmark's own copy, for layer calls).
    pub fleet: Fleet,
    /// The fleet's SMART log.
    pub csv: Vec<u8>,
    /// Its trouble tickets.
    pub tickets: Vec<TroubleTicket>,
    /// The last observed day.
    pub last_day: u32,
}

impl Inputs {
    /// Generate the pinned fleet, relabel its drives by `seed`, and export
    /// the log the daemon ingests.
    ///
    /// # Errors
    ///
    /// Propagates configuration and export failures.
    pub fn generate(spec: &FleetSpec, seed: u64) -> Result<Inputs, String> {
        let config = FleetConfig::builder()
            .days(spec.days)
            .seed(spec.fleet_seed)
            .drives(MODEL, spec.drives)
            .failure_scale(spec.failure_scale)
            .build()
            .map_err(|e| e.to_string())?;
        let fleet = Fleet::generate(&config);
        let mut ids: Vec<u32> = (0..spec.drives).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut records: Vec<DriveRecord> = fleet.drives().to_vec();
        for (record, id) in records.iter_mut().zip(ids) {
            record.id = DriveId(id);
        }
        records.sort_by_key(|r| r.id);
        let fleet = Fleet::from_records(config, records);
        let mut csv = Vec::new();
        export_smart_csv(&fleet, &mut csv).map_err(|e| e.to_string())?;
        let summaries: Vec<_> = fleet.drives().iter().map(DriveRecord::summary).collect();
        let tickets = tickets_from_summaries(&summaries);
        let last_day = fleet
            .drives()
            .iter()
            .map(DriveRecord::last_day)
            .max()
            .ok_or("empty fleet")?;
        Ok(Inputs {
            fleet,
            csv,
            tickets,
            last_day,
        })
    }

    /// Drives observed on `day`, in id order.
    pub fn observed_on(&self, day: u32) -> Vec<DriveId> {
        self.fleet
            .drives()
            .iter()
            .filter(|d| d.observed_on(day))
            .map(|d| d.id)
            .collect()
    }
}

/// The daemon configuration: the paper's weekly cadence and default
/// selection, with the predictor's worker threads set to `nproc`.
pub fn serve_config(env: &Env) -> ServeConfig {
    let mut config = ServeConfig::default();
    config.predictor.n_threads = Some(env.nproc);
    config
}

/// The ingest configuration, with `nproc` parser workers.
pub fn ingest_config(env: &Env) -> IngestConfig {
    IngestConfig {
        workers: env.nproc,
        ..IngestConfig::default()
    }
}

/// Worker knobs as `meta` fields.
pub fn worker_meta(env: &Env) -> Vec<(&'static str, String)> {
    let config = serve_config(env);
    vec![
        ("ingest_workers", ingest_config(env).workers.to_string()),
        ("predictor_threads", env.nproc.to_string()),
        // `None` in the ranker forests resolves to available_parallelism.
        ("ranker_forest_threads", env.nproc.to_string()),
        ("ranker_threads", "5".to_string()),
        ("period_days", config.period_days.to_string()),
        ("load_threads", "2".to_string()),
        ("connections", "1".to_string()),
    ]
}

/// A fresh daemon with `inputs` ingested, and how long the ingest took.
pub fn ingest(inputs: &Inputs, env: &Env) -> (Result<(Daemon, IngestStats), String>, f64) {
    timed(|| {
        let mut daemon = Daemon::new(serve_config(env));
        let stats = daemon
            .ingest_csv(
                Cursor::new(&inputs.csv),
                &inputs.tickets,
                &ingest_config(env),
            )
            .map_err(|e| e.to_string())?;
        Ok((daemon, stats))
    })
}

/// Check one ingest's counters against the log.
pub fn check_ingest(out: &mut Outcome, inputs: &Inputs, stats: &IngestStats) {
    let rows: u64 = inputs
        .fleet
        .drives()
        .iter()
        .map(|d| u64::from(d.n_days()))
        .sum();
    out.check(
        "ingested drives",
        stats.drives,
        inputs.fleet.drives().len() as u64,
    );
    out.check("ingested rows", stats.rows, rows);
}

/// The answer block a correct daemon gives `request` right now, built
/// from its in-process API: scores print as `{:.9}`.
pub fn expected_answer(daemon: &Daemon, request: Request) -> String {
    let lines = match request {
        Request::Score(id) => match daemon.score(id) {
            Ok(score) => vec![format!("ok score {id} {score:.9}")],
            Err(e) => vec![format!("ERR {e}")],
        },
        Request::Features => match daemon.features() {
            Ok(names) => std::iter::once(format!("ok features {}", names.len()))
                .chain(names.iter().cloned())
                .collect(),
            Err(e) => vec![format!("ERR {e}")],
        },
        Request::Status => std::iter::once("ok status".to_string())
            .chain(daemon.status_lines())
            .collect(),
        Request::Quit => vec!["ok bye".to_string()],
    };
    block(&lines)
}

/// Lines as one newline-terminated answer block.
pub fn block(lines: &[String]) -> String {
    let mut text = String::new();
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    text
}

/// The request line for `request`.
pub fn request_line(request: Request) -> String {
    match request {
        Request::Score(id) => format!("SCORE {id}"),
        Request::Features => "FEATURES".to_string(),
        Request::Status => "STATUS".to_string(),
        Request::Quit => "QUIT".to_string(),
    }
}

/// Median in-process time of `protocol::respond` for `request`, in µs,
/// over `reps` calls.
pub fn respond_us(daemon: &Daemon, request: Request, reps: usize) -> Option<f64> {
    let samples: Vec<f64> = (0..reps)
        .map(|_| timed(|| respond(daemon, request)).1 * 1e6)
        .collect();
    median(&samples)
}

/// Median closed-loop latency of `count` requests cycling through `lines`,
/// in µs.
pub fn closed_loop_us(
    conn: &mut Connection,
    lines: &[String],
    count: usize,
    out: &mut Outcome,
) -> f64 {
    let samples: Vec<f64> = lines
        .iter()
        .cycle()
        .take(count)
        .map(|line| {
            let (answer, secs) = timed(|| conn.request(line));
            out.op("closed-loop request", answer);
            secs * 1e6
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

/// Serve `daemon` on an ephemeral loopback port and open the benchmark's
/// one connection to it. The daemon stays reachable in-process through
/// the returned handle.
///
/// # Errors
///
/// Propagates bind and connect failures.
pub fn serve_on_loopback(
    daemon: Daemon,
) -> Result<(Arc<Mutex<Daemon>>, ServeListener, Connection), String> {
    let daemon = Arc::new(Mutex::new(daemon));
    let server = serve::listener::start("127.0.0.1:0", Arc::clone(&daemon), "perfbench")
        .map_err(|e| format!("starting the listener: {e}"))?;
    let conn = Connection::open(server.addr()).map_err(|e| format!("connecting: {e}"))?;
    Ok((daemon, server, conn))
}
