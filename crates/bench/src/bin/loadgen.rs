//! `loadgen` — drive a running `flqd` with a seeded containment workload.
//!
//! ```text
//! loadgen --addr HOST:PORT [--requests N] [--concurrency N] [--batch N]
//!         [--pairs N] [--variants N] [--seed N] [--max-conjuncts N]
//!         [--warmup N] [--keep-alive] [--pipeline N] [--csv FILE] [--verify]
//!         [--server-stats]
//! ```
//!
//! Generates `--pairs` query pairs with the E4 workload generator
//! (seeded, so every run and every verifier sees the same pairs), then
//! fires `--requests` requests round-robin over them from
//! `--concurrency` client threads. `--batch N` groups N pairs per
//! `POST /v1/contains_batch` request instead of one per
//! `POST /v1/contains`.
//!
//! `--variants N` appends N mutated respellings of every base pair to
//! the pair list (redundant atoms + variable renaming + body
//! permutation, seeded like everything else) — the variant-storm
//! workload that exercises the server's semantic cache keys. Combined
//! with `--verify`, every variant's verdict is still checked against a
//! local `contains_with` of that exact variant, so the storm doubles as
//! a canonicalization soundness gate.
//!
//! Three connection modes:
//!
//! * default — a fresh connection per request, `Connection: close`.
//! * `--keep-alive` — one persistent connection per thread, reused for
//!   every request.
//! * `--keep-alive --pipeline N` — additionally keep N requests in
//!   flight per connection; per-request latency is then the window
//!   round trip divided by the window size (service time, not queueing
//!   delay).
//!
//! Connect and request phases are timed separately in every mode, so
//! TCP handshake cost is never conflated with decision cost. Output is
//! `key=value` lines (p50/p95/p99); `--csv FILE` appends one summary
//! row (header written when the file is new). `--warmup N` sends N
//! unmeasured requests first to warm the server's caches.
//!
//! `--verify` recomputes every pair locally with `contains_with` under
//! the same options and exits `1` on any verdict mismatch — the
//! bit-identity check the CI server smoke test relies on. (With only
//! deterministic budgets in play — `--max-conjuncts`, never a deadline —
//! verdicts, including `exhausted` ones, are reproducible.)
//!
//! `--server-stats` scrapes the server's Prometheus `GET /metrics`
//! before and after the measured phase, diffs the per-stage
//! `flqd_stage_duration_nanoseconds` histograms, and prints one
//! `server_stage NAME count= p50_us= p99_us=` line per pipeline stage —
//! the server's own view of where this run's time went — plus the run's
//! `server_batch_dedup_hits` delta.
//!
//! Exit codes: `0` success, `1` mismatch or transport failure, `2` usage.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use flogic_bench::promstats::{diff_stages, scrape_server_stats, ServerStats};
use flogic_bench::wire;
use flogic_core::{contains_with, ContainmentOptions};
use flogic_gen::rng::SplitMix64;
use flogic_gen::{generalize, mutate_variant, random_query, GeneralizeConfig, QueryGenConfig};
use flogic_model::ConjunctiveQuery;

struct Config {
    addr: String,
    requests: usize,
    concurrency: usize,
    batch: usize,
    pairs: usize,
    variants: usize,
    seed: u64,
    max_conjuncts: usize,
    warmup: usize,
    keep_alive: bool,
    pipeline: usize,
    csv: Option<String>,
    verify: bool,
    server_stats: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--requests N] [--concurrency N] [--batch N] \
         [--pairs N] [--variants N] [--seed N] [--max-conjuncts N] [--warmup N] \
         [--keep-alive] [--pipeline N] [--csv FILE] [--verify] [--server-stats]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Config, ExitCode> {
    let mut config = Config {
        addr: String::new(),
        requests: 100,
        concurrency: 1,
        batch: 1,
        pairs: 16,
        variants: 0,
        seed: 7,
        max_conjuncts: 50_000,
        warmup: 0,
        keep_alive: false,
        pipeline: 1,
        csv: None,
        verify: false,
        server_stats: false,
    };
    fn text<I: Iterator<Item = String>>(
        it: &mut I,
        arg: &str,
        what: &str,
    ) -> Result<String, ExitCode> {
        it.next().ok_or_else(|| {
            eprintln!("error: {arg} needs {what}");
            usage()
        })
    }
    fn num<I: Iterator<Item = String>>(
        it: &mut I,
        arg: &str,
        what: &str,
    ) -> Result<usize, ExitCode> {
        let raw = text(it, arg, what)?;
        raw.parse().map_err(|_| {
            eprintln!("error: {arg} needs {what}, got {raw:?}");
            usage()
        })
    }
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = text(&mut it, &arg, "an address")?,
            "--requests" => config.requests = num(&mut it, &arg, "a number")?,
            "--concurrency" => config.concurrency = num(&mut it, &arg, "a number")?,
            "--batch" => config.batch = num(&mut it, &arg, "a number")?,
            "--pairs" => config.pairs = num(&mut it, &arg, "a number")?,
            "--variants" => config.variants = num(&mut it, &arg, "a number")?,
            "--seed" => config.seed = num(&mut it, &arg, "a number")? as u64,
            "--max-conjuncts" => config.max_conjuncts = num(&mut it, &arg, "a number")?,
            "--warmup" => config.warmup = num(&mut it, &arg, "a number")?,
            "--keep-alive" => config.keep_alive = true,
            "--pipeline" => config.pipeline = num(&mut it, &arg, "a number")?,
            "--csv" => config.csv = Some(text(&mut it, &arg, "a file path")?),
            "--verify" => config.verify = true,
            "--server-stats" => config.server_stats = true,
            other => {
                eprintln!("error: unknown flag {other:?}");
                return Err(usage());
            }
        }
    }
    if config.addr.is_empty() {
        eprintln!("error: --addr is required");
        return Err(usage());
    }
    if config.requests == 0
        || config.concurrency == 0
        || config.batch == 0
        || config.pairs == 0
        || config.pipeline == 0
    {
        eprintln!(
            "error: --requests, --concurrency, --batch, --pairs and --pipeline must be positive"
        );
        return Err(usage());
    }
    if config.pipeline > 1 && !config.keep_alive {
        eprintln!("error: --pipeline needs --keep-alive (pipelining reuses one connection)");
        return Err(usage());
    }
    Ok(config)
}

/// The E4 workload, first arm: random `q1`, generalized `q2` — plus
/// `variants` mutated respellings of every base pair (both sides
/// independently mutated), appended after the base pairs so round-robin
/// traffic interleaves originals and variants.
fn workload(pairs: usize, variants: usize, seed: u64) -> Vec<(ConjunctiveQuery, ConjunctiveQuery)> {
    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let base: Vec<(ConjunctiveQuery, ConjunctiveQuery)> = (0..pairs as u64)
        .map(|i| {
            let q1 = random_query(&qcfg, &mut SplitMix64::seed_from_u64(seed.wrapping_add(i)));
            let q2 = generalize(
                &q1,
                &gcfg,
                &mut SplitMix64::seed_from_u64(seed.wrapping_add(i + 10_000)),
            );
            (q1, q2)
        })
        .collect();
    let mut all = base.clone();
    for v in 1..=variants as u64 {
        for (i, (q1, q2)) in base.iter().enumerate() {
            let s = seed.wrapping_add(v * 1_000_000 + i as u64);
            all.push((
                mutate_variant(q1, &mut SplitMix64::seed_from_u64(s.wrapping_add(20_000))),
                mutate_variant(q2, &mut SplitMix64::seed_from_u64(s.wrapping_add(40_000))),
            ));
        }
    }
    all
}

/// The request body (and path) for measured request number `r`:
/// round-robin over the pair list, batch-sized. Also returns the pair
/// indices for `--verify`.
fn build_request(
    texts: &[(String, String)],
    r: usize,
    batch: usize,
    max_conjuncts: usize,
) -> (&'static str, String, Vec<usize>) {
    let picked: Vec<usize> = (0..batch).map(|j| (r * batch + j) % texts.len()).collect();
    if batch == 1 {
        let (q1, q2) = &texts[picked[0]];
        (
            "/v1/contains",
            format!(
                "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":{max_conjuncts}}}",
                wire::json_quote(q1),
                wire::json_quote(q2)
            ),
            picked,
        )
    } else {
        let items: Vec<String> = picked
            .iter()
            .map(|&i| {
                let (q1, q2) = &texts[i];
                format!("[{},{}]", wire::json_quote(q1), wire::json_quote(q2))
            })
            .collect();
        (
            "/v1/contains_batch",
            format!(
                "{{\"pairs\":[{}],\"max_conjuncts\":{max_conjuncts}}}",
                items.join(",")
            ),
            picked,
        )
    }
}

/// Checks the verdicts of one response against local ground truth;
/// returns the mismatch count.
fn check_verdicts(
    resp: &str,
    picked: &[usize],
    expected: &[&'static str],
) -> Result<usize, String> {
    let mut mismatches = 0;
    for (j, &i) in picked.iter().enumerate() {
        let got = wire::nth_verdict(resp, j).ok_or_else(|| format!("no verdict {j} in {resp}"))?;
        if got != expected[i] {
            eprintln!(
                "MISMATCH pair {i}: server says {got:?}, local says {:?}",
                expected[i]
            );
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// What one client thread measured.
struct ThreadStats {
    connects: Vec<Duration>,
    requests: Vec<Duration>,
    mismatches: usize,
}

#[allow(clippy::too_many_arguments)]
fn client_thread(
    config: &Config,
    texts: &[(String, String)],
    expected: &[&'static str],
    next: &AtomicUsize,
) -> Result<ThreadStats, String> {
    let mut stats = ThreadStats {
        connects: Vec::new(),
        requests: Vec::new(),
        mismatches: 0,
    };
    let conn_err = |e: std::io::Error| format!("connect failed: {e}");
    let req_err = |e: std::io::Error| format!("request failed: {e}");

    if config.keep_alive {
        let mut client = wire::Client::connect(&config.addr).map_err(conn_err)?;
        stats.connects.push(client.connect_time());
        loop {
            // Claim a window of `pipeline` request numbers (one, when
            // not pipelining).
            let base = next.fetch_add(config.pipeline, Ordering::Relaxed);
            if base >= config.requests {
                return Ok(stats);
            }
            let window = config.pipeline.min(config.requests - base);
            let mut picks = Vec::with_capacity(window);
            let mut bodies = Vec::with_capacity(window);
            let mut path = "/v1/contains";
            for w in 0..window {
                let (p, body, picked) =
                    build_request(texts, base + w, config.batch, config.max_conjuncts);
                path = p;
                bodies.push(body);
                picks.push(picked);
            }
            let t0 = Instant::now();
            let responses = if window == 1 {
                vec![client.post(path, &bodies[0]).map_err(req_err)?]
            } else {
                client.post_pipelined(path, &bodies).map_err(req_err)?
            };
            // Per-request service time: the window round trip shared
            // evenly. Exact for window == 1.
            let per_request = t0.elapsed() / window as u32;
            for ((status, resp), picked) in responses.iter().zip(&picks) {
                stats.requests.push(per_request);
                if *status != 200 {
                    return Err(format!("HTTP {status}: {resp}"));
                }
                if config.verify {
                    stats.mismatches += check_verdicts(resp, picked, expected)?;
                }
            }
        }
    } else {
        loop {
            let r = next.fetch_add(1, Ordering::Relaxed);
            if r >= config.requests {
                return Ok(stats);
            }
            let (path, body, picked) = build_request(texts, r, config.batch, config.max_conjuncts);
            // A fresh connection per request, but timed as two phases:
            // the handshake is transport cost, not decision cost.
            let mut client = wire::Client::connect(&config.addr).map_err(conn_err)?;
            stats.connects.push(client.connect_time());
            let t0 = Instant::now();
            let (status, resp) = client.post(path, &body).map_err(req_err)?;
            stats.requests.push(t0.elapsed());
            if status != 200 {
                return Err(format!("HTTP {status}: {resp}"));
            }
            if config.verify {
                stats.mismatches += check_verdicts(&resp, picked.as_slice(), expected)?;
            }
        }
    }
}

/// Prints the `server_stage` / `server_batch_dedup_hits` lines for the
/// window between two scrapes.
fn print_server_stats(before: &ServerStats, after: &ServerStats) {
    for (stage, diff) in diff_stages(before, after) {
        println!(
            "server_stage {stage} count={} p50_us={} p99_us={}",
            diff.count,
            diff.p50() / 1_000,
            diff.p99() / 1_000
        );
    }
    println!(
        "server_batch_dedup_hits {}",
        after
            .batch_dedup_hits
            .saturating_sub(before.batch_dedup_hits)
    );
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(code) => return code,
    };
    let pairs = workload(config.pairs, config.variants, config.seed);
    let texts: Arc<Vec<(String, String)>> = Arc::new(
        pairs
            .iter()
            .map(|(q1, q2)| {
                (
                    flogic_syntax::query_to_flogic(q1),
                    flogic_syntax::query_to_flogic(q2),
                )
            })
            .collect(),
    );

    // Local ground truth for --verify, computed once per distinct pair
    // under exactly the options the requests carry.
    let expected: Arc<Vec<&'static str>> = Arc::new(if config.verify {
        let opts = ContainmentOptions {
            max_conjuncts: config.max_conjuncts,
            ..Default::default()
        };
        pairs
            .iter()
            .map(|(q1, q2)| {
                contains_with(q1, q2, &opts)
                    .expect("generated pairs decide without errors")
                    .verdict()
                    .wire_name()
            })
            .collect()
    } else {
        Vec::new()
    });

    // Unmeasured warmup: fill the server's decision/snapshot caches so
    // the measured phase reports steady-state latency.
    if config.warmup > 0 {
        let mut client = match wire::Client::connect(&config.addr) {
            Ok(client) => client,
            Err(e) => {
                eprintln!("error: warmup connect failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for r in 0..config.warmup {
            let (path, body, _) = build_request(&texts, r, config.batch, config.max_conjuncts);
            if let Err(e) = client.post(path, &body) {
                eprintln!("error: warmup request failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Baseline scrape for --server-stats: after warmup, so the diff
    // covers exactly the measured phase.
    let baseline = if config.server_stats {
        match scrape_server_stats(&config.addr) {
            Ok(stats) => Some(stats),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let next = Arc::new(AtomicUsize::new(0));
    let config = Arc::new(config);
    let started = Instant::now();
    let threads: Vec<_> = (0..config.concurrency)
        .map(|_| {
            let texts = Arc::clone(&texts);
            let expected = Arc::clone(&expected);
            let next = Arc::clone(&next);
            let config = Arc::clone(&config);
            thread::spawn(move || client_thread(&config, &texts, &expected, &next))
        })
        .collect();

    let mut connects: Vec<Duration> = Vec::new();
    let mut latencies: Vec<Duration> = Vec::new();
    let mut mismatches = 0usize;
    for t in threads {
        match t.join().expect("client thread panicked") {
            Ok(stats) => {
                connects.extend(stats.connects);
                latencies.extend(stats.requests);
                mismatches += stats.mismatches;
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = started.elapsed();
    connects.sort();
    latencies.sort();
    let decided = latencies.len() * config.batch;
    let mode = if config.pipeline > 1 {
        "pipeline"
    } else if config.keep_alive {
        "keep-alive"
    } else {
        "close"
    };
    println!(
        "mode={mode} requests={} batch={} concurrency={} pipeline={} decided_pairs={decided}",
        config.requests, config.batch, config.concurrency, config.pipeline
    );
    println!(
        "connect_us count={} p50={:.0} max={:.0}",
        connects.len(),
        us(quantile(&connects, 0.5)),
        us(quantile(&connects, 1.0)),
    );
    println!(
        "latency_us min={:.0} p50={:.0} p95={:.0} p99={:.0} max={:.0}",
        us(quantile(&latencies, 0.0)),
        us(quantile(&latencies, 0.5)),
        us(quantile(&latencies, 0.95)),
        us(quantile(&latencies, 0.99)),
        us(quantile(&latencies, 1.0)),
    );
    let throughput = decided as f64 / elapsed.as_secs_f64();
    println!("throughput_pairs_per_s {throughput:.0}");

    if let Some(before) = &baseline {
        match scrape_server_stats(&config.addr) {
            Ok(after) => print_server_stats(before, &after),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &config.csv {
        let header = "mode,requests,batch,concurrency,pipeline,connect_p50_us,p50_us,p95_us,p99_us,throughput_pairs_per_s\n";
        let row = format!(
            "{mode},{},{},{},{},{:.0},{:.0},{:.0},{:.0},{throughput:.0}\n",
            config.requests,
            config.batch,
            config.concurrency,
            config.pipeline,
            us(quantile(&connects, 0.5)),
            us(quantile(&latencies, 0.5)),
            us(quantile(&latencies, 0.95)),
            us(quantile(&latencies, 0.99)),
        );
        let new = !std::path::Path::new(path).exists();
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| {
                if new {
                    f.write_all(header.as_bytes())?;
                }
                f.write_all(row.as_bytes())
            });
        if let Err(e) = written {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if config.verify {
        if mismatches > 0 {
            eprintln!("error: {mismatches} verdict mismatches");
            return ExitCode::FAILURE;
        }
        println!("verify: all {decided} verdicts match local contains_with");
    }
    ExitCode::SUCCESS
}
