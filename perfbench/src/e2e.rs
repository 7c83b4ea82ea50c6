//! End-to-end metrics (`--trace 0`): what a client of `flqd` sees.
//!
//! A run sets the server up [`SET_UPS`] times, and each set-up serves an
//! equal share of the measured phase, so that no single process's luck —
//! where its threads land, how its memory is laid out — decides the run.
//! A set-up starts the process, waits until it listens, connects, and
//! sends the workload's warm-up requests; for `disk` it then stops the
//! server (SIGTERM, so it drains and flushes) and starts it again on the
//! same data directory. The measured phase sends requests in a closed
//! loop, each timed from just before its bytes are written to just after
//! its answer is read.
//!
//! * `latency_p50_us`, `latency_p90_us`: the latency of the measured
//!   requests that got a decision, tens of thousands per run. The tail is
//!   read at p90, not p99: on two shared virtual CPUs about one request in
//!   a hundred waits a millisecond or more for the scheduler, which made
//!   p99 swing fourfold between runs of the same code;
//! * `throughput_rps`: those requests per second of request time, the
//!   rate one closed-loop client sustains, leaving out the benchmark's own
//!   time between requests;
//! * `setup_s`: the median time of a set-up.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::net::{Client, Flqd};
use crate::workload::{Checker, Shape, Workload};
use crate::Report;

/// Set-ups per run; each serves `1/SET_UPS` of the measured phase, and
/// `setup_s` is their median.
const SET_UPS: usize = 5;

/// A server in the state the measured phase starts from.
pub struct Live {
    server: Flqd,
    client: Client,
    /// The durable tier's directory, for `disk`.
    data_dir: Option<PathBuf>,
}

impl Live {
    /// Stops the server, draining it.
    pub fn stop(mut self) -> Result<(), String> {
        self.server.stop()
    }

    /// Stops the server and starts it again on the same data directory.
    fn restart(&mut self, flqd: &Path) -> Result<(), String> {
        self.server.stop()?;
        self.server = Flqd::start(flqd, self.data_dir.as_deref())?;
        self.client = Client::connect(self.server.addr())?;
        Ok(())
    }
}

/// Starts `flqd` and brings it to the state the workload measures from;
/// returns it with the answers to the warm-up requests.
pub fn set_up(
    workload: &Workload,
    flqd: &Path,
    data_dir: &Path,
) -> Result<(Live, Vec<String>), String> {
    let data_dir = (workload.shape() == Shape::Disk).then(|| data_dir.to_path_buf());
    let server = Flqd::start(flqd, data_dir.as_deref())?;
    let client = Client::connect(server.addr())?;
    let mut live = Live {
        server,
        client,
        data_dir,
    };
    let mut answers = Vec::with_capacity(workload.warm_up().len());
    for body in workload.warm_up() {
        match live.client.post("/v1/contains", body) {
            Ok((200, answer)) => answers.push(answer),
            Ok((status, answer)) => {
                return Err(format!("set-up request answered HTTP {status}: {answer}"))
            }
            Err(e) => return Err(format!("set-up request failed: {e}")),
        }
    }
    if workload.shape() == Shape::Disk {
        live.restart(flqd)?;
    }
    Ok((live, answers))
}

/// What the measured phase saw.
#[derive(Default)]
pub struct Measured {
    /// Latency of every request that got a decision.
    pub latencies: Vec<Duration>,
    /// Requests sent; also the number of the next request.
    pub attempted: u64,
    /// Requests that got no decision.
    pub failed: u64,
}

/// Sends measured requests to `live` in a closed loop until `seconds`
/// have passed, checking each answer, and adds them to `measured`.
pub fn measure(
    workload: &Workload,
    live: &mut Live,
    checker: &mut Checker<'_>,
    flqd: &Path,
    seconds: f64,
    measured: &mut Measured,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let r = measured.attempted;
        if workload.restarts_before(r) {
            live.restart(flqd)?;
        }
        let (body, truth) = workload.request(r);
        measured.attempted += 1;
        let start = Instant::now();
        let answer = live.client.post("/v1/contains", &body);
        let latency = start.elapsed();
        match answer {
            Ok((200, answer)) => {
                measured.latencies.push(latency);
                checker.check(r, truth, &answer);
            }
            Ok((status, answer)) => {
                measured.failed += 1;
                eprintln!("request {r} answered HTTP {status}: {answer}");
            }
            Err(e) => {
                // The connection is gone: nothing after it can be measured.
                measured.failed += 1;
                eprintln!("request {r} failed: {e}");
                break;
            }
        }
    }
    Ok(())
}

/// One `--trace 0` run.
pub fn run(workload: &Workload, flqd: &Path, work: &Path, seconds: f64) -> Result<Report, String> {
    let expected = workload.expected()?;
    let mut setups = Vec::with_capacity(SET_UPS);
    let mut measured = Measured::default();
    let mut wrong = 0;
    for k in 0..SET_UPS {
        let start = Instant::now();
        let (mut live, answers) = set_up(workload, flqd, &work.join(format!("setup-{k}")))?;
        setups.push(start.elapsed());
        let mut checker = Checker::new(workload, &expected, answers);
        let share = seconds / SET_UPS as f64;
        measure(
            workload,
            &mut live,
            &mut checker,
            flqd,
            share,
            &mut measured,
        )?;
        live.stop()?;
        wrong += checker.finish()?;
    }

    let mut latencies = measured.latencies;
    if latencies.is_empty() {
        return Err("no request got a decision".into());
    }
    latencies.sort_unstable();
    setups.sort_unstable();
    let busy: Duration = latencies.iter().sum();
    Ok(Report {
        correct: measured.failed == 0 && wrong == 0,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: vec![
            ("latency_p50_us", micros(quantile(&latencies, 0.50)), "us"),
            ("latency_p90_us", micros(quantile(&latencies, 0.90)), "us"),
            (
                "throughput_rps",
                latencies.len() as f64 / busy.as_secs_f64(),
                "1/s",
            ),
            ("setup_s", quantile(&setups, 0.50).as_secs_f64(), "s"),
        ],
    })
}

/// The `q`-quantile of sorted samples, by nearest rank.
fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A duration in microseconds.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
