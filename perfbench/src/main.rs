//! `flqd-perfbench`: the driver of the flqd benchmark, built and run by
//! `perfbench/run.py`.
//!
//! ```text
//! flqd-perfbench --workload warm|variant|cold|disk --seed N --seconds S
//!                --trace 0|1 --flqd PATH --work-dir DIR
//! ```
//!
//! A run makes its inputs from `--seed` (see [`workload`]), drives a real
//! `flqd` process over loopback with one kept-alive client in a closed
//! loop (the next request leaves when the previous answer is back),
//! checks the answers against the decision procedure run in this
//! process, and prints one JSON object as the last line of stdout:
//!
//! * `--trace 0` ([`e2e`]): what a client sees — latency p50 and p90,
//!   throughput, and the time it takes to set the server up;
//! * `--trace 1` ([`layers`]): what each layer of the request path
//!   costs, measured outside in.
//!
//! Scratch data (the stores of the `disk` workload) lives in a directory
//! of its own under `--work-dir`, removed when the run ends.

mod e2e;
mod layers;
mod net;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Shape, Workload};

const USAGE: &str = "usage: flqd-perfbench --workload warm|variant|cold|disk --seed N \
--seconds S --trace 0|1 --flqd PATH --work-dir DIR";

/// The result of one run, as the benchmark prints it.
pub struct Report {
    /// No request failed and every answer checked was right.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got no decision back.
    pub failed: u64,
    /// `(name, value, unit)`, in the order they are printed.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    flqd: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut shape, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut flqd, mut work_dir) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                shape = Some(
                    Shape::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs a whole number, got {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| {
                            format!("--seconds needs a positive number, got {value:?}")
                        })?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                }
            }
            "--flqd" => flqd = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    Ok(Args {
        shape: shape.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: f64::from(seconds.ok_or_else(|| missing("--seconds"))?),
        trace,
        flqd: flqd.ok_or_else(|| missing("--flqd"))?,
        work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = args.work_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let workload = Workload::new(args.shape, args.seed);
    let outcome = if args.trace {
        layers::run(&workload, &args.flqd, &work, args.seconds)
    } else {
        e2e::run(&workload, &args.flqd, &work, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) if report.metrics.iter().all(|(_, value, _)| value.is_finite()) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("error: a metric came out as no finite number");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
