//! Open-loop load over one line-protocol connection, timed from when each
//! request was due.
//!
//! Requests fall due on a fixed schedule (`due_i = i / rate`) whether or
//! not earlier answers have come back, the way independent operators
//! query a daemon. [`paced`] keeps one request in flight, like a client
//! without pipelining, and charges each request the wait a single queue
//! in front of the daemon would have imposed on it — the Lindley
//! recursion over the measured round trips — plus its own round trip. A
//! daemon stall therefore counts against every request due while it
//! lasted. The generator's own lateness (its thread not running while the
//! connection stood free, which on a shared two-core host happens for
//! milliseconds at a time) only delays sends; it is not the daemon's, so
//! it is reported apart instead of charged.
//!
//! [`pipelined`] writes each request when due and reads answers on a
//! second thread, timing each from its due time. The daemon's listener
//! leaves Nagle's algorithm on, so with several requests in flight an
//! answer can sit in the server's send buffer until the client's next
//! request carries the ACK for the previous one: latency then tracks the
//! inter-arrival gap, and flips between that and the round trip from one
//! window to the next. Pipelined latency is therefore reported per layer,
//! where it has no bound, and the end-to-end query metrics use [`paced`].

use std::io::{BufReader, Write};
// lint:allow(side-effects) the open-loop generator is a client of the serve listener's socket
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::client::{read_block, Connection};
use crate::stats::{median, percentile};

/// Added to twice the early median before a late median counts as a
/// growing backlog, so scheduler noise on a quiet step is not mistaken for
/// one.
pub const BACKLOG_SLACK_US: f64 = 200.0;

/// The generator sleeps through a wait until this many microseconds
/// remain, then busy-waits (yielding) — enough to absorb a sleep's
/// overshoot without keeping a core busy: on a shared two-core host a busy
/// core is what the hypervisor preempts, for milliseconds at a time.
const SPIN_US: f64 = 150.0;

/// One answered request, in microseconds from the start of its step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due_us: f64,
    /// When its whole answer had been read.
    pub received_us: f64,
    /// Latency charged to the daemon.
    pub latency_us: f64,
    /// How late the generator sent it once the connection was free.
    pub lateness_us: f64,
}

/// Paced samples from `(due, sent, received)` triples in schedule order,
/// one request in flight at a time. A request waits for the connection as
/// long as the round trips before it, started at their due times, would
/// have kept it busy: `wait_i = max(0, wait_{i-1} + rtt_{i-1} - gap_i)`.
pub fn paced_samples(timings: &[(f64, f64, f64)]) -> Vec<Sample> {
    let mut wait = 0.0;
    let mut previous: Option<(f64, f64, f64)> = None;
    timings
        .iter()
        .map(|&(due, sent, received)| {
            let mut free = 0.0;
            if let Some((prev_due, prev_sent, prev_received)) = previous {
                wait = (wait + (prev_received - prev_sent) - (due - prev_due)).max(0.0);
                free = prev_received;
            }
            previous = Some((due, sent, received));
            Sample {
                due_us: due,
                received_us: received,
                latency_us: wait + received - sent,
                lateness_us: (sent - due.max(free)).max(0.0),
            }
        })
        .collect()
}

/// Due time of request `index` at `rate` requests per second.
pub fn due_us(index: usize, rate: f64) -> f64 {
    index as f64 * 1e6 / rate
}

/// Requests per percentile window (a window's p99 keeps ten beyond it).
pub const WINDOW: usize = 1_000;

/// What one fixed-rate step measured.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSummary {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests answered.
    pub requests: usize,
    /// Answers per second over the step, first due time to last answer.
    pub achieved_rps: f64,
    /// Median latency over the whole step.
    pub p50_us: f64,
    /// Median over [`WINDOW`]-request windows of each window's p99, when
    /// the step has at least one full window. A multi-millisecond stall of
    /// the host lands in a minority of windows instead of setting the
    /// step's p99 outright.
    pub p99_us: Option<f64>,
    /// The worst window's p99.
    pub worst_p99_us: Option<f64>,
    /// Worst generator lateness.
    pub max_lateness_us: f64,
    /// Whether latency kept climbing through the step: the median of the
    /// last quarter exceeds twice the first quarter's plus
    /// [`BACKLOG_SLACK_US`].
    pub backlog_growing: bool,
}

impl StepSummary {
    /// Whether the step met `p99_limit_us` without a growing backlog.
    pub fn meets(&self, p99_limit_us: f64) -> bool {
        self.p99_us.is_some_and(|p| p <= p99_limit_us) && !self.backlog_growing
    }
}

/// Summarise one step's samples (in schedule order).
pub fn summarize(rate: f64, samples: &[Sample]) -> Option<StepSummary> {
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
    let p50_us = median(&latencies)?;
    let window_p99: Vec<f64> = latencies
        .chunks_exact(WINDOW)
        .filter_map(|w| percentile(w, 0.99))
        .collect();
    let quarter = (latencies.len() / 4).max(1);
    let early = median(&latencies[..quarter])?;
    let late = median(&latencies[latencies.len() - quarter..])?;
    let span_us =
        samples.iter().map(|s| s.received_us).fold(0.0, f64::max) - samples.first()?.due_us;
    Some(StepSummary {
        rate,
        requests: samples.len(),
        achieved_rps: samples.len() as f64 * 1e6 / span_us.max(1.0),
        p50_us,
        p99_us: median(&window_p99),
        worst_p99_us: window_p99.iter().copied().reduce(f64::max),
        max_lateness_us: samples.iter().map(|s| s.lateness_us).fold(0.0, f64::max),
        backlog_growing: late > 2.0 * early + BACKLOG_SLACK_US,
    })
}

/// Wait until `due_us` microseconds after `start`. Waits of more than
/// [`SPIN_US`] sleep until one spin stretch remains; the rest busy-waits
/// (yielding), so a request leaves on time instead of a scheduler wake-up
/// later.
fn wait_until(start: Instant, due_us: f64) {
    loop {
        let wait = due_us - start.elapsed().as_secs_f64() * 1e6;
        if wait <= 0.0 {
            return;
        }
        if wait > SPIN_US {
            std::thread::sleep(Duration::from_secs_f64((wait - SPIN_US) / 1e6));
        } else {
            // Yield rather than spin blind: on two cores the daemon's
            // listener thread may be queued behind this one.
            std::thread::yield_now();
        }
    }
}

/// Send `requests[i % len]` for `count` requests at `rate` over `conn`,
/// one in flight at a time, and return the samples with the indices whose
/// answer differed from `expected[i % len]`.
///
/// # Errors
///
/// Propagates socket failures and a connection closed mid-step.
pub fn paced(
    conn: &mut Connection,
    requests: &[String],
    expected: &[String],
    rate: f64,
    count: usize,
) -> std::io::Result<(Vec<Sample>, Vec<usize>)> {
    let start = Instant::now();
    let elapsed_us = || start.elapsed().as_secs_f64() * 1e6;
    let mut timings = Vec::with_capacity(count);
    let mut wrong = Vec::new();
    for i in 0..count {
        let due = due_us(i, rate);
        wait_until(start, due);
        let sent = elapsed_us();
        let answer = conn.request(&requests[i % requests.len()])?;
        timings.push((due, sent, elapsed_us()));
        if answer != expected[i % expected.len()] {
            wrong.push(i);
        }
    }
    Ok((paced_samples(&timings), wrong))
}

/// Like [`paced`], but each request is written when due and the answers
/// are read on a second thread, so several can be in flight.
///
/// # Errors
///
/// Propagates socket failures and a connection closed mid-step.
pub fn pipelined(
    stream: &TcpStream, // lint:allow(side-effects) the benchmark's one client connection
    requests: &[String],
    expected: &[String],
    rate: f64,
    count: usize,
) -> std::io::Result<(Vec<Sample>, Vec<usize>)> {
    let reader_stream = stream.try_clone()?;
    let mut writer = stream.try_clone()?;
    let start = Instant::now();
    let elapsed_us = move || start.elapsed().as_secs_f64() * 1e6;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> std::io::Result<(Vec<f64>, Vec<usize>)> {
            let mut reader = BufReader::new(reader_stream);
            let mut received = Vec::with_capacity(count);
            let mut wrong = Vec::new();
            for i in 0..count {
                let block = read_block(&mut reader)?;
                received.push(elapsed_us());
                if block != expected[i % expected.len()] {
                    wrong.push(i);
                }
            }
            Ok((received, wrong))
        });
        let mut sent = Vec::with_capacity(count);
        let mut batch = String::new();
        let mut next = 0;
        while next < count {
            wait_until(start, due_us(next, rate));
            // Everything already due goes out in one write.
            let now = elapsed_us();
            batch.clear();
            let first = next;
            while next < count && due_us(next, rate) <= now {
                batch.push_str(&requests[next % requests.len()]);
                batch.push('\n');
                next += 1;
            }
            writer.write_all(batch.as_bytes())?;
            let at = elapsed_us();
            sent.extend(std::iter::repeat_n(at, next - first));
        }
        writer.flush()?;
        let (received, wrong) = reader
            .join()
            .map_err(|_| std::io::Error::other("reader thread panicked"))??;
        let samples = (0..count)
            .map(|i| Sample {
                due_us: due_us(i, rate),
                received_us: received[i],
                latency_us: received[i] - due_us(i, rate),
                lateness_us: (sent[i] - due_us(i, rate)).max(0.0),
            })
            .collect();
        Ok((samples, wrong))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(due, sent, received)` at 10 000 req/s with one request in flight
    /// and a 50 µs round trip; request `at` takes `extra` µs longer, in
    /// the daemon (`daemon`) or in the generator before sending.
    fn schedule(at: usize, extra: f64, daemon: bool) -> Vec<(f64, f64, f64)> {
        let mut free = 0.0;
        (0..3 * WINDOW)
            .map(|i| {
                let due = due_us(i, 10_000.0);
                let mut sent = due.max(free);
                let mut rtt = 50.0;
                if i == at {
                    if daemon {
                        rtt += extra;
                    } else {
                        sent += extra;
                    }
                }
                free = sent + rtt;
                (due, sent, free)
            })
            .collect()
    }

    #[test]
    fn a_daemon_stall_is_charged_to_every_request_due_while_it_lasted() {
        let s = paced_samples(&schedule(100, 5_000.0, true));
        assert_eq!(s[100].latency_us, 5_050.0);
        // Request 101 fell due 100 µs into the stall and waited for it:
        // charged from its due time, though its own round trip was 50 µs.
        assert_eq!(s[101].latency_us, 5_000.0);
        assert_eq!(s[102].latency_us, 4_950.0);
        assert_eq!(s[101].received_us - s[101].due_us, 5_000.0);
        // The generator was never late: it waited on a busy connection.
        assert!(s.iter().all(|x| x.lateness_us == 0.0));
        let sum = summarize(10_000.0, &s).unwrap();
        assert_eq!(sum.p50_us, 50.0);
        // The stall sets the first window's p99; the step's p99 is the
        // median window's, so one stall does not sink the step.
        assert!(sum.worst_p99_us.unwrap() > 1_000.0);
        assert_eq!(sum.p99_us, Some(50.0));
        assert!(sum.meets(1_000.0));
    }

    #[test]
    fn stalls_in_most_windows_set_the_p99() {
        let mut timings = schedule(100, 5_000.0, true);
        for at in [1_100, 2_100] {
            let stalled = schedule(at, 5_000.0, true);
            timings[at - 100..at + 200].copy_from_slice(&stalled[at - 100..at + 200]);
        }
        let sum = summarize(10_000.0, &paced_samples(&timings)).unwrap();
        assert!(sum.p99_us.unwrap() > 1_000.0);
        assert!(!sum.meets(1_000.0));
    }

    #[test]
    fn generator_lateness_is_reported_not_charged() {
        let s = paced_samples(&schedule(100, 5_000.0, false));
        assert_eq!(s[100].lateness_us, 5_000.0);
        // Every round trip was 50 µs and would have kept the connection
        // free by each due time, so nothing queued behind the late send.
        assert!(s.iter().all(|x| x.latency_us == 50.0));
        let sum = summarize(10_000.0, &s).unwrap();
        assert_eq!(sum.max_lateness_us, 5_000.0);
        assert!(sum.meets(1_000.0));
    }

    #[test]
    fn a_rate_the_daemon_cannot_keep_up_with_is_a_growing_backlog() {
        // Due every 100 µs, answered 150 µs after sending.
        let mut free = 0.0;
        let timings: Vec<(f64, f64, f64)> = (0..2 * WINDOW)
            .map(|i| {
                let due = due_us(i, 10_000.0);
                let sent = due.max(free);
                free = sent + 150.0;
                (due, sent, free)
            })
            .collect();
        let s = paced_samples(&timings);
        assert_eq!(s[1].latency_us, 200.0);
        assert_eq!(s[1999].latency_us, 150.0 + 1999.0 * 50.0);
        let sum = summarize(10_000.0, &s).unwrap();
        assert!(sum.backlog_growing);
        assert!(!sum.meets(f64::INFINITY));
        assert!((sum.achieved_rps - 6_666.6).abs() < 1.0);
    }
}
