//! Server configuration, shared warm state, and request routing.
//!
//! The runtime itself lives in [`reactor`](crate::reactor): a single
//! epoll event loop owns every socket, and a bounded worker pool owns
//! the chase/decide work. This module owns what the reactor shares:
//!
//! * a [`DurableDecisionCache`] memoizing whole `(q1, q2)` verdicts —
//!   in-RAM always, and additionally persisted to an LSM store when
//!   `--data-dir` is set, so a restarted server begins disk-warm
//!   (format spec in `docs/STORAGE.md`),
//! * a [`SnapshotCache`] holding each `q1`'s chase so repeated
//!   questions about the same query pay only the homomorphism search,
//! * the dispatch queue feeding the workers — bounded at
//!   `--queue-cap`, beyond which requests are answered `503` with
//!   `Retry-After` (explicit backpressure, mirroring how the chase
//!   governor refuses work instead of letting it balloon), and
//! * the process counters behind `GET /metrics`.
//!
//! [`KeyBuilder`] keys each request pair once: RAM hashes that key, disk
//! probes its bytes, and on a double miss the snapshot cache keys `q1`'s
//! chase by its `q1` half, whose
//! [`ChaseSnapshot::contains`](flogic_core::ChaseSnapshot::contains)
//! mirrors `contains_with` exactly — so verdicts are bit-identical to
//! the `flq` CLI's, warm or cold.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use flogic_core::{ContainmentOptions, ContainmentResult, CoreError, DecisionKey, KeyBuilder};
use flogic_model::ConjunctiveQuery;
use flogic_store::DurableDecisionCache;
use flogic_syntax::parse_query;

use crate::api::{self, ApiError};
use crate::http::{Request, Response};
use crate::obs::{Endpoint, ReqMeta, ServerObs};
use crate::poll::Waker;
use crate::reactor::{self, Completion, Job};
use crate::signal;
use crate::snapshots::SnapshotCache;

/// The content type Prometheus scrapers require of text exposition.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Configuration of a [`Server`], settable from the command line via
/// [`ServerConfig::from_args`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Listen address (`--addr`); `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads deciding containments (`--workers`). The reactor
    /// itself runs on the calling thread and never chases.
    pub workers: usize,
    /// Bounded dispatch-queue depth (`--queue-cap`); requests arriving
    /// while the queue is full are answered `503` with `Retry-After`.
    pub queue_depth: usize,
    /// Byte cap of the resident chase-snapshot cache (`--cache-bytes`), in
    /// `ChaseSnapshot::approx_bytes` charges; the decision tier's cap is
    /// the constant [`flogic_core::DecisionCache::CAP_BYTES`].
    pub cache_bytes: usize,
    /// Cap on request bodies (`--max-body-bytes`).
    pub max_body_bytes: usize,
    /// Chase discovery threads per decision (`--threads`), as in
    /// `flq contains --threads`.
    pub threads: usize,
    /// Server-side default wall-clock budget per decision (`--timeout`,
    /// milliseconds); requests may override. `None` means unlimited.
    pub default_timeout_ms: Option<u64>,
    /// Server-side default cap on materialized chase conjuncts
    /// (`--max-conjuncts`); requests may override.
    pub max_conjuncts: usize,
    /// Keep-alive idle timeout (`--read-timeout`, milliseconds): a
    /// connection with no pending work and no bytes moving for this
    /// long is closed.
    pub read_timeout_ms: u64,
    /// File descriptor to write a `HOST:PORT\n` readiness line to once
    /// bound (`--ready-fd`), then close. Lets supervisors and CI block
    /// on actual readiness instead of polling logs.
    pub ready_fd: Option<i32>,
    /// Canonicalize incoming queries to their semantic representatives
    /// (classic core + total ordering) before the warm caches
    /// (`--no-canon` turns it off). On by default: syntactic variants —
    /// renamed variables, permuted conjuncts, redundant atoms — share
    /// decision-cache entries and chase snapshots. Verdicts are
    /// identical with the toggle on or off.
    pub canon: bool,
    /// Structured JSONL access-log destination (`--access-log`): a file
    /// path, or `-` for stdout. `None` disables the log entirely — the
    /// per-request logging path then allocates nothing.
    pub access_log: Option<String>,
    /// Slow-request threshold in microseconds (`--slow-us`): requests
    /// at or over it are always logged, even when sampled out.
    pub slow_us: Option<u64>,
    /// Access-log sampling divisor (`--log-sample 1/N` or `N`): only
    /// requests whose id is divisible by N produce a line. 1 (the
    /// default) logs every request.
    pub log_sample: u64,
    /// Durable decision-store directory (`--data-dir`). When set,
    /// decided containments are persisted to an LSM store under this
    /// directory (created if absent) and a restarted server serves
    /// prior decisions from disk instead of recomputing them. `None`
    /// (the default) keeps the caches RAM-only. On-disk format:
    /// `docs/STORAGE.md`.
    pub data_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7171".into(),
            workers: 2,
            queue_depth: 64,
            cache_bytes: 64 << 20,
            max_body_bytes: 1 << 20,
            threads: 1,
            default_timeout_ms: None,
            max_conjuncts: ContainmentOptions::default().max_conjuncts,
            read_timeout_ms: 5_000,
            ready_fd: None,
            canon: true,
            access_log: None,
            slow_us: None,
            log_sample: 1,
            data_dir: None,
        }
    }
}

/// The `flq serve` / `flqd` flag reference, shared by both binaries'
/// usage text.
pub const SERVE_FLAGS: &str = "[--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-bytes N] \
[--max-body-bytes N] [--threads N] [--timeout MS] [--max-conjuncts N] [--read-timeout MS] \
[--ready-fd FD] [--no-canon] [--access-log FILE|-] [--slow-us N] [--log-sample 1/N] \
[--data-dir DIR]";

impl ServerConfig {
    /// Parses command-line flags into a config, starting from defaults.
    /// Unknown flags and malformed values are errors (the caller prints
    /// the message and exits with the usage status).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<ServerConfig, String> {
        let mut config = ServerConfig::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
            match arg.as_str() {
                "--addr" => config.addr = value("an address")?,
                "--workers" => config.workers = parse_flag(&arg, value("a number")?)?,
                "--queue-cap" => config.queue_depth = parse_flag(&arg, value("a number")?)?,
                "--cache-bytes" => config.cache_bytes = parse_flag(&arg, value("a number")?)?,
                "--max-body-bytes" => config.max_body_bytes = parse_flag(&arg, value("a number")?)?,
                "--threads" => config.threads = parse_flag(&arg, value("a number")?)?,
                "--timeout" => {
                    config.default_timeout_ms =
                        Some(parse_flag(&arg, value("a duration in milliseconds")?)?)
                }
                "--max-conjuncts" => config.max_conjuncts = parse_flag(&arg, value("a number")?)?,
                "--read-timeout" => {
                    config.read_timeout_ms = parse_flag(&arg, value("a duration in milliseconds")?)?
                }
                "--ready-fd" => {
                    config.ready_fd = Some(parse_flag(&arg, value("a file descriptor")?)?)
                }
                "--no-canon" => config.canon = false,
                "--access-log" => config.access_log = Some(value("a file path or -")?),
                "--slow-us" => {
                    config.slow_us = Some(parse_flag(&arg, value("a duration in microseconds")?)?)
                }
                "--log-sample" => {
                    config.log_sample = parse_sample(&arg, &value("a rate like 1/16")?)?
                }
                "--data-dir" => config.data_dir = Some(value("a directory")?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if config.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
        if config.queue_depth == 0 {
            return Err("--queue-cap must be at least 1".into());
        }
        Ok(config)
    }

    /// The base decision options this config implies; per-request knobs
    /// are applied on top (see [`api::RequestOpts::apply`]).
    pub fn base_options(&self) -> ContainmentOptions {
        let mut opts = ContainmentOptions {
            threads: self.threads,
            max_conjuncts: self.max_conjuncts,
            canon: self.canon,
            ..ContainmentOptions::default()
        };
        if let Some(ms) = self.default_timeout_ms {
            opts.budget = flogic_core::Budget::with_timeout(Duration::from_millis(ms));
        }
        opts
    }
}

fn parse_flag<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

/// Parses a sampling rate written `1/N` (or bare `N`) into the divisor
/// N; zero is rejected.
fn parse_sample(flag: &str, raw: &str) -> Result<u64, String> {
    let divisor = raw.strip_prefix("1/").unwrap_or(raw);
    let n: u64 = parse_flag(flag, divisor.to_string())?;
    if n == 0 {
        return Err(format!("{flag}: the divisor must be at least 1"));
    }
    Ok(n)
}

/// State shared between the reactor and the workers.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    base_opts: ContainmentOptions,
    decisions: DurableDecisionCache,
    snapshots: SnapshotCache,
    /// The bounded dispatch queue feeding the worker pool.
    pub(crate) jobs: Mutex<VecDeque<Job>>,
    pub(crate) jobs_cv: Condvar,
    /// Finished decisions on their way back to the reactor.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Wakes the reactor's epoll loop when completions land.
    pub(crate) waker: Waker,
    shutdown: AtomicBool,
    pub(crate) requests_total: AtomicU64,
    pub(crate) rejected_total: AtomicU64,
    pub(crate) connections_total: AtomicU64,
    /// Request-level observability: stage/endpoint histograms, gauges,
    /// and the access log.
    pub(crate) obs: ServerObs,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal::shutdown_requested()
    }
}

/// A handle for stopping a running [`Server`] from another thread (the
/// in-process equivalent of SIGTERM).
#[derive(Clone)]
pub struct ServerHandle(Arc<Shared>);

impl ServerHandle {
    /// Asks the server to stop accepting, drain in-flight requests and
    /// return from [`Server::run`].
    pub fn shutdown(&self) {
        self.0.shutdown.store(true, Ordering::Relaxed);
        self.0.jobs_cv.notify_all();
        self.0.waker.wake();
    }
}

/// A bound, not-yet-running containment server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and allocates the shared caches and reactor
    /// waker. The server does not accept until [`run`](Server::run).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let base_opts = config.base_options();
        let snapshots = SnapshotCache::new(config.cache_bytes);
        let obs = ServerObs::new(&config)?;
        // Opening the durable tier is part of bind: a server asked to
        // persist but unable to must fail loudly before serving, not
        // degrade to silent RAM-only mode.
        let decisions = match &config.data_dir {
            Some(dir) => DurableDecisionCache::open(std::path::Path::new(dir))
                .map_err(|e| io::Error::other(format!("--data-dir {dir}: {e}")))?,
            None => DurableDecisionCache::memory(),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                base_opts,
                snapshots,
                obs,
                decisions,
                jobs: Mutex::new(VecDeque::new()),
                jobs_cv: Condvar::new(),
                completions: Mutex::new(Vec::new()),
                waker: Waker::new()?,
                shutdown: AtomicBool::new(false),
                requests_total: AtomicU64::new(0),
                rejected_total: AtomicU64::new(0),
                connections_total: AtomicU64::new(0),
                config,
            }),
        })
    }

    /// The bound address (the actual port when `--addr` asked for 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle(Arc::clone(&self.shared))
    }

    /// Runs the reactor until shutdown is requested (via
    /// [`ServerHandle::shutdown`] or SIGTERM/SIGINT once
    /// [`signal::install`] has run), then drains: parsed and queued
    /// requests complete — pipelined tails included — workers join, and
    /// `run` returns.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared } = self;
        let out = reactor::run(listener, Arc::clone(&shared));
        // Graceful drain done: flush the durable tier's memtable so a
        // clean shutdown never loses decided containments to the WAL's
        // relaxed fsync policy.
        shared
            .decisions
            .flush()
            .map_err(|e| io::Error::other(format!("flushing decision store: {e}")))?;
        out
    }
}

/// Dispatches one request to its endpoint. Called from worker threads.
/// Fills `meta.endpoint` so per-endpoint histograms and the access log
/// name what actually ran. A query string is ignored.
pub(crate) fn route(shared: &Arc<Shared>, req: &Request, meta: &mut ReqMeta) -> Response {
    let path = req
        .path
        .split_once('?')
        .map_or(req.path.as_str(), |(p, _)| p);
    match (req.method.as_str(), path) {
        ("POST", "/v1/contains") => {
            meta.endpoint = Endpoint::Contains;
            contains_endpoint(shared, &req.body, meta)
        }
        ("POST", "/v1/contains_batch") => {
            meta.endpoint = Endpoint::Batch;
            batch_endpoint(shared, &req.body, meta)
        }
        ("GET", "/metrics") => {
            meta.endpoint = Endpoint::Metrics;
            Response::with_content_type(200, PROMETHEUS_CONTENT_TYPE, metrics_prometheus(shared))
        }
        ("GET", "/v1/status") => {
            meta.endpoint = Endpoint::Status;
            Response::json(200, status_json(shared))
        }
        (_, "/v1/contains" | "/v1/contains_batch" | "/v1/status" | "/metrics") => {
            ApiError::method_not_allowed(&req.method, path).to_response()
        }
        _ => ApiError::not_found(path).to_response(),
    }
}

/// `POST /v1/contains`: one pair, one verdict object.
fn contains_endpoint(shared: &Arc<Shared>, body: &[u8], meta: &mut ReqMeta) -> Response {
    let req = match api::parse_contains(body) {
        Ok(req) => req,
        Err(e) => return e.to_response(),
    };
    let (q1, q2) = match (parse_wire_query(&req.q1), parse_wire_query(&req.q2)) {
        (Ok(q1), Ok(q2)) => (q1, q2),
        (Err(e), _) | (_, Err(e)) => return e.to_response(),
    };
    let opts = req.opts.apply(&shared.base_opts);
    meta.span.mark("decode");
    match decide_pair(shared, &q1, &q2, &opts, meta) {
        Ok(result) => {
            meta.verdict = Some(result.verdict().wire_name());
            Response::json(200, api::verdict_json(&result))
        }
        Err(e) => api::core_error(&e).to_response(),
    }
}

/// `POST /v1/contains_batch`: many pairs, verdicts in request order.
/// Each distinct `q1` text gets one [`KeyBuilder`], so a repeated `q1`
/// is canonicalized once; with canonicalization on, pairs whose `q1`s
/// share a key half — renamed, permuted or redundant variants — share
/// one resident chase, the server-side analogue of
/// [`contains_batch`](flogic_core::contains_batch). Each pair whose `q1`
/// half was already seen in the batch counts one
/// `flqd_batch_dedup_hits_total`.
fn batch_endpoint(shared: &Arc<Shared>, body: &[u8], meta: &mut ReqMeta) -> Response {
    let req = match api::parse_batch(body) {
        Ok(req) => req,
        Err(e) => return e.to_response(),
    };
    let parse = |i: usize, side: usize, text: &str| {
        parse_wire_query(text)
            .map_err(|e| ApiError::parse_error(format!("pairs[{i}][{side}]: {}", e.message)))
    };
    let mut parsed = Vec::with_capacity(req.pairs.len());
    for (i, (q1, q2)) in req.pairs.iter().enumerate() {
        match (parse(i, 0, q1), parse(i, 1, q2)) {
            (Ok(q1), Ok(q2)) => parsed.push((q1, q2)),
            (Err(e), _) | (_, Err(e)) => return e.to_response(),
        }
    }
    let opts = req.opts.apply(&shared.base_opts);
    meta.span.mark("decode");
    let mut builders: HashMap<&str, KeyBuilder> = HashMap::new();
    let mut seen_q1 = HashSet::new();
    let mut results = Vec::with_capacity(parsed.len());
    for ((text, _), (q1, q2)) in req.pairs.iter().zip(&parsed) {
        let start = Instant::now();
        let fresh = !builders.contains_key(text.as_str());
        let builder = builders
            .entry(text)
            .or_insert_with(|| KeyBuilder::new(q1, &opts).with_representatives());
        let (key, canonical) = match builder.key(q2) {
            Ok(keyed) => keyed,
            Err(e) => return api::core_error(&e).to_response(),
        };
        if let Some((c1, c2)) = &canonical {
            let reduced =
                u64::from(fresh && c1.size() < q1.size()) + u64::from(c2.size() < q2.size());
            shared
                .obs
                .record_canon(1 + u64::from(fresh), reduced, start.elapsed());
            if !seen_q1.insert(key.q1()) {
                shared.obs.batch_dedup_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        let pair = canonical.as_ref().map_or((q1, q2), |(c1, c2)| (c1, c2));
        match decide_keyed(shared, &key, pair, &opts).0 {
            Ok(result) => results.push(result),
            Err(e) => return api::core_error(&e).to_response(),
        }
    }
    meta.span.mark("decide");
    Response::json(200, api::batch_json(&results))
}

/// The warm decision path, verdict-identical to a fresh `contains_with`.
/// [`KeyBuilder`] keys the pair once, rejecting different arities before
/// any keying or chase; with canonicalization on it also returns the
/// semantic representatives, decided instead of the pair as given, so
/// every renamed, permuted or redundant variant shares one decision key,
/// one chase snapshot and one Theorem 12 bound. The wire carries no
/// witness, so their variable names never leak. The `canon` stage times
/// the keying, the `cache` stage the tier probes.
fn decide_pair(
    shared: &Arc<Shared>,
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
    meta: &mut ReqMeta,
) -> Result<ContainmentResult, CoreError> {
    let start = Instant::now();
    let (key, canonical) = KeyBuilder::new(q1, opts).with_representatives().key(q2)?;
    if let Some((c1, c2)) = &canonical {
        let reduced = u64::from(c1.size() < q1.size()) + u64::from(c2.size() < q2.size());
        shared.obs.record_canon(2, reduced, start.elapsed());
    }
    meta.span.mark("canon");
    let pair = canonical.as_ref().map_or((q1, q2), |(c1, c2)| (c1, c2));
    let (out, computed) = decide_keyed(shared, &key, pair, opts);
    match computed {
        // The cache stage ends where compute began; everything from
        // there to now is the decide stage.
        Some(compute_start) => {
            meta.span.mark_at("cache", compute_start);
            meta.span.mark("decide");
            meta.cache = Some("miss");
        }
        None => {
            meta.span.mark("cache");
            meta.cache = Some("hit");
        }
    }
    out
}

/// Decides the pair `key` names — its canonical representatives, or the
/// pair as given — through the decision tiers over the snapshot cache,
/// at the bound the key carries, reporting *when* the compute closure
/// started: `None` means a decision tier answered outright. Feeds the
/// `flqd_decision_cache_{hits,misses}` counters.
fn decide_keyed(
    shared: &Arc<Shared>,
    key: &DecisionKey,
    (q1, q2): (&ConjunctiveQuery, &ConjunctiveQuery),
    opts: &ContainmentOptions,
) -> (Result<ContainmentResult, CoreError>, Option<Instant>) {
    let compute_start = Cell::new(None);
    let out = shared.decisions.contains_keyed(key, || {
        compute_start.set(Some(Instant::now()));
        let snapshot = shared
            .snapshots
            .get_or_build_keyed(key.q1(), q1, key.bound(), opts)?;
        snapshot.contains(q2, opts)
    });
    let computed = compute_start.get();
    let counter = if computed.is_some() {
        &shared.obs.decision_misses
    } else {
        &shared.obs.decision_hits
    };
    counter.fetch_add(1, Ordering::Relaxed);
    (out, computed)
}

fn parse_wire_query(text: &str) -> Result<ConjunctiveQuery, ApiError> {
    parse_query(text).map_err(|e| ApiError::parse_error(e.to_string()))
}

/// The `GET /metrics` body: Prometheus text exposition
/// (format 0.0.4). Every family gets its `# TYPE` header and at least
/// one sample line, so scrapers and the exposition checker never see a
/// headerless series or a sampleless family. Latency histograms use
/// cumulative `_bucket{le=...}` series in nanoseconds, one labeled
/// series per pipeline stage and per endpoint.
fn metrics_prometheus(shared: &Arc<Shared>) -> String {
    use std::fmt::Write as _;
    let snap = shared.obs.snapshot();
    let stats = shared.snapshots.stats();
    let mut s = String::with_capacity(8 << 10);
    let simple = |s: &mut String, name: &str, kind: &str, value: u64| {
        let _ = writeln!(s, "# TYPE {name} {kind}");
        let _ = writeln!(s, "{name} {value}");
    };
    simple(&mut s, "flqd_uptime_seconds", "gauge", snap.uptime_s);
    simple(
        &mut s,
        "flqd_requests_total",
        "counter",
        shared.requests_total.load(Ordering::Relaxed),
    );
    simple(
        &mut s,
        "flqd_rejected_total",
        "counter",
        shared.rejected_total.load(Ordering::Relaxed),
    );
    simple(
        &mut s,
        "flqd_connections_total",
        "counter",
        shared.connections_total.load(Ordering::Relaxed),
    );
    let _ = writeln!(s, "# TYPE flqd_responses_total counter");
    for (class, count) in [
        ("2xx", snap.responses_2xx),
        ("4xx", snap.responses_4xx),
        ("5xx", snap.responses_5xx),
    ] {
        let _ = writeln!(s, "flqd_responses_total{{class=\"{class}\"}} {count}");
    }
    simple(
        &mut s,
        "flqd_open_connections",
        "gauge",
        snap.open_connections,
    );
    simple(
        &mut s,
        "flqd_queue_depth_highwater",
        "gauge",
        snap.queue_highwater,
    );
    simple(
        &mut s,
        "flqd_in_flight_workers",
        "gauge",
        snap.in_flight_workers,
    );
    simple(
        &mut s,
        "flqd_decision_cache_hits_total",
        "counter",
        snap.decision_hits,
    );
    simple(
        &mut s,
        "flqd_decision_cache_misses_total",
        "counter",
        snap.decision_misses,
    );
    simple(
        &mut s,
        "flqd_decision_cache_entries",
        "gauge",
        shared.decisions.len() as u64,
    );
    simple(
        &mut s,
        "flqd_snapshot_cache_hits_total",
        "counter",
        stats.hits,
    );
    simple(
        &mut s,
        "flqd_snapshot_cache_misses_total",
        "counter",
        stats.misses,
    );
    simple(
        &mut s,
        "flqd_snapshot_cache_evictions_total",
        "counter",
        stats.evictions,
    );
    simple(
        &mut s,
        "flqd_snapshot_cache_uncacheable_total",
        "counter",
        stats.uncacheable,
    );
    simple(
        &mut s,
        "flqd_snapshot_resident_bytes",
        "gauge",
        stats.resident_bytes,
    );
    simple(
        &mut s,
        "flqd_snapshot_resident_entries",
        "gauge",
        stats.resident_entries,
    );
    simple(
        &mut s,
        "flqd_snapshot_cap_bytes",
        "gauge",
        shared.config.cache_bytes as u64,
    );
    simple(
        &mut s,
        "flqd_batch_dedup_hits_total",
        "counter",
        snap.batch_dedup_hits,
    );
    // This server's canonicalization passes, so `--no-canon` vs canon-on
    // is scrapeable.
    simple(&mut s, "flqd_canon_keys_total", "counter", snap.canon_keys);
    simple(
        &mut s,
        "flqd_canon_reduced_total",
        "counter",
        snap.canon_reduced,
    );
    simple(
        &mut s,
        "flqd_canon_nanoseconds_total",
        "counter",
        snap.canon_nanos,
    );
    // The durable decision tier, present only when `--data-dir` is set
    // (no sampleless families for a tier that does not exist).
    if let Some(store) = shared.decisions.store() {
        let durable = shared.decisions.durable_stats();
        let ss = store.stats();
        simple(
            &mut s,
            "flqd_store_disk_hits_total",
            "counter",
            durable.disk_hits,
        );
        simple(
            &mut s,
            "flqd_store_disk_misses_total",
            "counter",
            durable.disk_misses,
        );
        simple(
            &mut s,
            "flqd_store_disk_errors_total",
            "counter",
            durable.disk_errors,
        );
        simple(&mut s, "flqd_store_puts_total", "counter", ss.puts);
        simple(&mut s, "flqd_store_flushes_total", "counter", ss.flushes);
        simple(
            &mut s,
            "flqd_store_compactions_total",
            "counter",
            ss.compactions,
        );
        simple(
            &mut s,
            "flqd_store_quarantined_total",
            "counter",
            ss.quarantined,
        );
        simple(&mut s, "flqd_store_segments", "gauge", ss.segments);
        simple(
            &mut s,
            "flqd_store_segment_entries",
            "gauge",
            ss.segment_entries,
        );
        simple(
            &mut s,
            "flqd_store_memtable_entries",
            "gauge",
            ss.memtable_entries,
        );
        simple(
            &mut s,
            "flqd_store_memtable_bytes",
            "gauge",
            ss.memtable_bytes,
        );
        simple(&mut s, "flqd_store_wal_bytes", "gauge", ss.wal_bytes);
        simple(&mut s, "flqd_store_generation", "gauge", ss.generation);
        simple(
            &mut s,
            "flqd_store_wal_replayed_records",
            "gauge",
            ss.wal_replayed,
        );
    }
    simple(
        &mut s,
        "flqd_access_log_lines_total",
        "counter",
        snap.log_lines,
    );
    simple(
        &mut s,
        "flqd_access_log_dropped_total",
        "counter",
        snap.log_dropped,
    );
    let _ = writeln!(s, "# TYPE flqd_stage_duration_nanoseconds histogram");
    for (stage, hist) in &snap.stages {
        hist.render_prometheus(
            &mut s,
            "flqd_stage_duration_nanoseconds",
            &format!("stage=\"{stage}\""),
        );
    }
    let _ = writeln!(s, "# TYPE flqd_request_duration_nanoseconds histogram");
    for (endpoint, hist) in &snap.endpoints {
        hist.render_prometheus(
            &mut s,
            "flqd_request_duration_nanoseconds",
            &format!("endpoint=\"{endpoint}\""),
        );
    }
    s
}

/// The `GET /v1/status` body: a JSON rollup of uptime, per-stage and
/// per-endpoint latency percentiles (microseconds), live gauges, cache
/// hit ratios, and access-log health. Integer-only JSON, parseable by
/// the strict [`json`](crate::json) parser; ratios are whole percents.
fn status_json(shared: &Arc<Shared>) -> String {
    use std::fmt::Write as _;
    fn pct(hits: u64, misses: u64) -> u64 {
        (hits * 100).checked_div(hits + misses).unwrap_or(0)
    }
    fn write_percentiles(s: &mut String, series: &[(&'static str, flogic_obs::HistogramSnapshot)]) {
        for (i, (name, hist)) in series.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                hist.count,
                hist.p50() / 1_000,
                hist.p90() / 1_000,
                hist.p99() / 1_000,
                hist.max / 1_000
            );
        }
    }
    let snap = shared.obs.snapshot();
    let stats = shared.snapshots.stats();
    let mut s = String::with_capacity(4 << 10);
    let _ = write!(
        s,
        "{{\"uptime_s\":{},\"requests_total\":{},\"rejected_total\":{},\"connections_total\":{}",
        snap.uptime_s,
        shared.requests_total.load(Ordering::Relaxed),
        shared.rejected_total.load(Ordering::Relaxed),
        shared.connections_total.load(Ordering::Relaxed)
    );
    let _ = write!(
        s,
        ",\"gauges\":{{\"open_connections\":{},\"queue_depth_highwater\":{},\"in_flight_workers\":{},\"snapshot_resident_bytes\":{}}}",
        snap.open_connections, snap.queue_highwater, snap.in_flight_workers, stats.resident_bytes
    );
    s.push_str(",\"stages\":{");
    write_percentiles(&mut s, &snap.stages);
    s.push_str("},\"endpoints\":{");
    write_percentiles(&mut s, &snap.endpoints);
    let _ = write!(
        s,
        "}},\"cache\":{{\"decision_hits\":{},\"decision_misses\":{},\"decision_hit_pct\":{},\"snapshot_hits\":{},\"snapshot_misses\":{},\"snapshot_hit_pct\":{}}}",
        snap.decision_hits,
        snap.decision_misses,
        pct(snap.decision_hits, snap.decision_misses),
        stats.hits,
        stats.misses,
        pct(stats.hits, stats.misses)
    );
    let _ = write!(
        s,
        ",\"batch_dedup_hits\":{},\"responses\":{{\"2xx\":{},\"4xx\":{},\"5xx\":{}}},\"access_log\":{{\"lines\":{},\"dropped\":{}}}}}",
        snap.batch_dedup_hits,
        snap.responses_2xx,
        snap.responses_4xx,
        snap.responses_5xx,
        snap.log_lines,
        snap.log_dropped
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_every_flag_and_rejects_nonsense() {
        let args = [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--queue-cap",
            "9",
            "--cache-bytes",
            "1024",
            "--max-body-bytes",
            "2048",
            "--threads",
            "2",
            "--timeout",
            "250",
            "--max-conjuncts",
            "77",
            "--read-timeout",
            "300",
            "--ready-fd",
            "5",
            "--no-canon",
            "--access-log",
            "/tmp/access.jsonl",
            "--slow-us",
            "750",
            "--log-sample",
            "1/16",
            "--data-dir",
            "/tmp/flq-data",
        ];
        let config = ServerConfig::from_args(args.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.workers, 4);
        assert_eq!(config.queue_depth, 9);
        assert_eq!(config.cache_bytes, 1024);
        assert_eq!(config.max_body_bytes, 2048);
        assert_eq!(config.threads, 2);
        assert_eq!(config.default_timeout_ms, Some(250));
        assert_eq!(config.max_conjuncts, 77);
        assert_eq!(config.read_timeout_ms, 300);
        assert_eq!(config.ready_fd, Some(5));
        assert!(!config.canon);
        assert!(ServerConfig::default().canon, "canon is on by default");
        assert_eq!(config.access_log.as_deref(), Some("/tmp/access.jsonl"));
        assert_eq!(config.slow_us, Some(750));
        assert_eq!(config.log_sample, 16);
        let bare = ServerConfig::from_args(["--log-sample".into(), "8".into()]).unwrap();
        assert_eq!(bare.log_sample, 8, "bare N accepted alongside 1/N");
        assert_eq!(ServerConfig::default().log_sample, 1);
        assert_eq!(config.data_dir.as_deref(), Some("/tmp/flq-data"));
        assert_eq!(ServerConfig::default().data_dir, None, "RAM-only default");

        for bad in [
            vec!["--bogus"],
            vec!["--queue", "4"],
            vec!["--workers"],
            vec!["--workers", "zero"],
            vec!["--workers", "0"],
            vec!["--queue-cap", "0"],
            vec!["--ready-fd", "three"],
            vec!["--access-log"],
            vec!["--data-dir"],
            vec!["--slow-us", "soon"],
            vec!["--log-sample", "0"],
            vec!["--log-sample", "1/0"],
            vec!["--log-sample", "2/3"],
        ] {
            assert!(
                ServerConfig::from_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn base_options_carry_config_knobs() {
        let config = ServerConfig {
            threads: 3,
            max_conjuncts: 42,
            default_timeout_ms: Some(5),
            ..ServerConfig::default()
        };
        let opts = config.base_options();
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.max_conjuncts, 42);
        assert!(!opts.budget.is_unlimited());
        assert!(opts.analysis);
        assert_eq!(opts.level_bound, None);
        assert!(opts.canon);
        let no_canon = ServerConfig {
            canon: false,
            ..ServerConfig::default()
        };
        assert!(!no_canon.base_options().canon);
    }
}
