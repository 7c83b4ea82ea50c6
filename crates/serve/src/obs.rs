//! Request-level observability: per-stage histograms, live gauges, and
//! the structured access log.
//!
//! Every request carries a [`ReqMeta`] from the moment its bytes parse
//! to the moment its response bytes reach the socket. The embedded
//! [`RequestSpan`] times eight named stages — `parse`, `queue`,
//! `decode`, `canon`, `cache`, `decide`, `serialize`, `write` — and the
//! metadata around it records what the request *was*: endpoint, status,
//! verdict, cache outcome, failure cause, bytes in and out. When the
//! write stage closes, the reactor hands the finished meta to
//! [`ServerObs::record`], which feeds the per-stage and per-endpoint
//! [`Histogram`]s behind `GET /metrics` and `GET /v1/status`, and — when
//! `--access-log` is set — emits one JSONL line.
//!
//! The hot path stays cheap by construction: histograms are relaxed
//! atomics, the span is a fixed inline array, and the access-log line
//! is only *built* (the one allocation) for requests that pass the
//! `--log-sample` / `--slow-us` filters. The line then crosses a
//! bounded channel to a dedicated logger thread; when the channel is
//! full the line is dropped and counted (`flqd_access_log_dropped`),
//! never blocking the reactor on disk.

use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flogic_obs::{Histogram, HistogramSnapshot, RequestSpan};

use crate::server::ServerConfig;

/// The named pipeline stages, in request order. Each gets its own
/// histogram series under `flqd_stage_duration_nanoseconds`. `decode`
/// covers the JSON body and the query parses, so `canon` times
/// canonicalization alone.
pub const STAGES: [&str; 8] = [
    "parse",
    "queue",
    "decode",
    "canon",
    "cache",
    "decide",
    "serialize",
    "write",
];

/// Bounded capacity of the access-log channel; beyond it lines are
/// dropped and counted instead of blocking the reactor.
const LOG_CHANNEL_CAP: usize = 1024;

fn stage_index(stage: &str) -> Option<usize> {
    STAGES.iter().position(|s| *s == stage)
}

/// The endpoint a request resolved to, for per-endpoint latency series
/// and the access log's `endpoint` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/contains`.
    Contains,
    /// `POST /v1/contains_batch`.
    Batch,
    /// `GET /metrics`.
    Metrics,
    /// `GET /v1/status`.
    Status,
    /// Anything else: unknown paths, refused parses, early rejections.
    Other,
}

/// Every endpoint, in the order their histograms are indexed.
pub const ENDPOINTS: [Endpoint; 5] = [
    Endpoint::Contains,
    Endpoint::Batch,
    Endpoint::Metrics,
    Endpoint::Status,
    Endpoint::Other,
];

impl Endpoint {
    /// The stable wire name (`endpoint` label / access-log field).
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Contains => "contains",
            Endpoint::Batch => "batch",
            Endpoint::Metrics => "metrics",
            Endpoint::Status => "status",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Contains => 0,
            Endpoint::Batch => 1,
            Endpoint::Metrics => 2,
            Endpoint::Status => 3,
            Endpoint::Other => 4,
        }
    }
}

/// One request's observability record: the stage-timing span plus what
/// the request turned out to be. Created when the request parses,
/// carried through the dispatch queue and worker, finished by the
/// reactor when the response's last byte is flushed.
#[derive(Debug)]
pub struct ReqMeta {
    /// Stage timings and the request id.
    pub span: RequestSpan,
    /// The endpoint the router resolved (Other until routed).
    pub endpoint: Endpoint,
    /// Response status (filled when the response serializes).
    pub status: u16,
    /// Decision verdict (`holds` / `not_holds` / `exhausted`), when the
    /// request was a single decision.
    pub verdict: Option<&'static str>,
    /// Decision-cache outcome (`hit` / `miss`) for single decisions.
    pub cache: Option<&'static str>,
    /// Machine-readable cause for non-2xx answers (`overloaded`,
    /// `parse_error`, …).
    pub cause: Option<&'static str>,
    /// Request bytes consumed off the wire (head + body).
    pub bytes_in: u64,
    /// Response bytes queued to the socket (head + body).
    pub bytes_out: u64,
}

impl ReqMeta {
    /// A fresh record whose span starts at `start` (the instant the
    /// parse attempt began).
    pub fn begin_at(start: Instant) -> ReqMeta {
        ReqMeta {
            span: RequestSpan::begin_at(start),
            endpoint: Endpoint::Other,
            status: 0,
            verdict: None,
            cache: None,
            cause: None,
            bytes_in: 0,
            bytes_out: 0,
        }
    }
}

/// The access-log writer: a bounded channel into a dedicated thread
/// that owns the file handle. Dropping it closes the channel and joins
/// the thread, so every accepted line reaches the file before process
/// exit.
struct AccessLog {
    tx: Option<SyncSender<String>>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn logger_loop(rx: Receiver<String>, out: Box<dyn Write + Send>) {
    let mut buf = BufWriter::new(out);
    while let Ok(line) = rx.recv() {
        let _ = buf.write_all(line.as_bytes());
        // Drain whatever queued behind this line, then flush once: the
        // file stays current whenever the channel goes quiet, without a
        // flush per line under load.
        while let Ok(more) = rx.try_recv() {
            let _ = buf.write_all(more.as_bytes());
        }
        let _ = buf.flush();
    }
    let _ = buf.flush();
}

/// The server's request-level observability state: stage and endpoint
/// histograms, live gauges, decision-cache outcome counters, and the
/// optional access log.
pub struct ServerObs {
    started: Instant,
    stage_hist: [Histogram; STAGES.len()],
    endpoint_hist: [Histogram; ENDPOINTS.len()],
    /// Currently open client connections.
    pub open_connections: AtomicU64,
    /// High-watermark of the dispatch-queue depth.
    pub queue_highwater: AtomicU64,
    /// Workers currently inside a request handler.
    pub in_flight_workers: AtomicU64,
    /// Batch pairs that reused another pair's canonical `q1`
    /// representative (server-side batch dedup wins).
    pub batch_dedup_hits: AtomicU64,
    /// Decisions answered from the decision cache.
    pub decision_hits: AtomicU64,
    /// Decisions that ran the chase/hom compute path.
    pub decision_misses: AtomicU64,
    /// Queries this server canonicalized.
    canon_keys: AtomicU64,
    /// Canonicalized queries whose classic core is smaller than the query.
    canon_reduced: AtomicU64,
    /// Nanoseconds this server spent canonicalizing.
    canon_nanos: AtomicU64,
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses.
    pub responses_4xx: AtomicU64,
    /// 5xx responses.
    pub responses_5xx: AtomicU64,
    /// Access-log lines accepted onto the channel.
    pub log_lines: AtomicU64,
    /// Access-log lines dropped because the channel was full.
    pub log_dropped: AtomicU64,
    log: Option<AccessLog>,
    slow_us: Option<u64>,
    sample: u64,
}

impl ServerObs {
    /// Builds the observability state for `config`, opening the access
    /// log (append mode; `-` means stdout) and starting its logger
    /// thread when `--access-log` was given.
    pub fn new(config: &ServerConfig) -> io::Result<ServerObs> {
        let log = match config.access_log.as_deref() {
            None => None,
            Some(target) => {
                let out: Box<dyn Write + Send> = if target == "-" {
                    Box::new(io::stdout())
                } else {
                    Box::new(OpenOptions::new().create(true).append(true).open(target)?)
                };
                let (tx, rx) = sync_channel(LOG_CHANNEL_CAP);
                let thread = std::thread::Builder::new()
                    .name("flqd-access-log".into())
                    .spawn(move || logger_loop(rx, out))?;
                Some(AccessLog {
                    tx: Some(tx),
                    thread: Some(thread),
                })
            }
        };
        Ok(ServerObs {
            started: Instant::now(),
            stage_hist: std::array::from_fn(|_| Histogram::new()),
            endpoint_hist: std::array::from_fn(|_| Histogram::new()),
            open_connections: AtomicU64::new(0),
            queue_highwater: AtomicU64::new(0),
            in_flight_workers: AtomicU64::new(0),
            batch_dedup_hits: AtomicU64::new(0),
            decision_hits: AtomicU64::new(0),
            decision_misses: AtomicU64::new(0),
            canon_keys: AtomicU64::new(0),
            canon_reduced: AtomicU64::new(0),
            canon_nanos: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            log_lines: AtomicU64::new(0),
            log_dropped: AtomicU64::new(0),
            log,
            slow_us: config.slow_us,
            sample: config.log_sample.max(1),
        })
    }

    /// Records the dispatch-queue depth after an enqueue (gauge
    /// high-watermark).
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_highwater.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts `keys` canonicalized queries, `reduced` of them folded to a
    /// smaller core, that took `elapsed` together.
    pub fn record_canon(&self, keys: u64, reduced: u64, elapsed: Duration) {
        self.canon_keys.fetch_add(keys, Ordering::Relaxed);
        self.canon_reduced.fetch_add(reduced, Ordering::Relaxed);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.canon_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Folds a finished request into the histograms, counters, and —
    /// when it passes the sampling/slow filters — the access log.
    pub fn record(&self, meta: &ReqMeta) {
        for &(stage, nanos) in meta.span.stages() {
            if let Some(i) = stage_index(stage) {
                self.stage_hist[i].record_nanos(nanos);
            }
        }
        let total = meta.span.total_nanos();
        self.endpoint_hist[meta.endpoint.index()].record_nanos(total);
        let class = match meta.status {
            s if s < 400 => &self.responses_2xx,
            s if s < 500 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        if let Some(log) = &self.log {
            let total_us = total / 1_000;
            let sampled = meta.span.id() % self.sample == 0;
            let slow = self.slow_us.is_some_and(|t| total_us >= t);
            if !(sampled || slow) {
                return;
            }
            let line = access_line(meta, total_us);
            let tx = log.tx.as_ref().expect("log sender alive while serving");
            match tx.try_send(line) {
                Ok(()) => {
                    self.log_lines.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                    self.log_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// A point-in-time copy of everything the metrics and status
    /// endpoints render.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            uptime_s: self.started.elapsed().as_secs(),
            stages: STAGES
                .iter()
                .zip(self.stage_hist.iter())
                .map(|(name, h)| (*name, h.snapshot()))
                .collect(),
            endpoints: ENDPOINTS
                .iter()
                .zip(self.endpoint_hist.iter())
                .map(|(e, h)| (e.name(), h.snapshot()))
                .collect(),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            queue_highwater: self.queue_highwater.load(Ordering::Relaxed),
            in_flight_workers: self.in_flight_workers.load(Ordering::Relaxed),
            batch_dedup_hits: self.batch_dedup_hits.load(Ordering::Relaxed),
            decision_hits: self.decision_hits.load(Ordering::Relaxed),
            decision_misses: self.decision_misses.load(Ordering::Relaxed),
            canon_keys: self.canon_keys.load(Ordering::Relaxed),
            canon_reduced: self.canon_reduced.load(Ordering::Relaxed),
            canon_nanos: self.canon_nanos.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            log_lines: self.log_lines.load(Ordering::Relaxed),
            log_dropped: self.log_dropped.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of [`ServerObs`] for rendering `/metrics` and
/// `/v1/status`.
pub struct ObsSnapshot {
    /// Whole seconds since the server started.
    pub uptime_s: u64,
    /// Per-stage latency distributions, in [`STAGES`] order.
    pub stages: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-endpoint end-to-end latency distributions.
    pub endpoints: Vec<(&'static str, HistogramSnapshot)>,
    /// Currently open client connections.
    pub open_connections: u64,
    /// Dispatch-queue depth high-watermark.
    pub queue_highwater: u64,
    /// Workers currently inside a request handler.
    pub in_flight_workers: u64,
    /// Batch pairs that reused a shared canonical representative.
    pub batch_dedup_hits: u64,
    /// Decision-cache hits.
    pub decision_hits: u64,
    /// Decision-cache misses (compute ran).
    pub decision_misses: u64,
    /// Queries canonicalized.
    pub canon_keys: u64,
    /// Canonicalized queries folded to a smaller core.
    pub canon_reduced: u64,
    /// Nanoseconds spent canonicalizing.
    pub canon_nanos: u64,
    /// Responses with status < 400.
    pub responses_2xx: u64,
    /// Responses with 4xx status.
    pub responses_4xx: u64,
    /// Responses with 5xx status.
    pub responses_5xx: u64,
    /// Access-log lines accepted.
    pub log_lines: u64,
    /// Access-log lines dropped (channel full).
    pub log_dropped: u64,
}

/// One JSONL access-log line (newline-terminated). Integer-only JSON so
/// the strict [`json`](crate::json) parser round-trips it; string
/// values are fixed `'static` vocabularies, so no escaping is needed.
fn access_line(meta: &ReqMeta, total_us: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"id\":{},\"endpoint\":\"{}\",\"status\":{}",
        meta.span.id(),
        meta.endpoint.name(),
        meta.status
    );
    if let Some(v) = meta.verdict {
        let _ = write!(s, ",\"verdict\":\"{v}\"");
    }
    if let Some(c) = meta.cache {
        let _ = write!(s, ",\"cache\":\"{c}\"");
    }
    if let Some(c) = meta.cause {
        let _ = write!(s, ",\"cause\":\"{c}\"");
    }
    let _ = write!(
        s,
        ",\"bytes_in\":{},\"bytes_out\":{},\"total_us\":{total_us},\"stages\":{{",
        meta.bytes_in, meta.bytes_out
    );
    for (i, (stage, nanos)) in meta.span.stages().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{stage}_us\":{}", nanos / 1_000);
    }
    s.push_str("}}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_meta() -> ReqMeta {
        let t0 = Instant::now();
        let mut meta = ReqMeta::begin_at(t0);
        meta.span.mark_at("parse", t0 + Duration::from_micros(3));
        meta.span.mark_at("queue", t0 + Duration::from_micros(8));
        meta.span.mark_at("decide", t0 + Duration::from_micros(110));
        meta.span.mark_at("write", t0 + Duration::from_micros(118));
        meta.endpoint = Endpoint::Contains;
        meta.status = 200;
        meta.verdict = Some("holds");
        meta.cache = Some("hit");
        meta.bytes_in = 140;
        meta.bytes_out = 180;
        meta
    }

    #[test]
    fn access_line_is_strict_json_and_integer_only() {
        let meta = sample_meta();
        let line = access_line(&meta, meta.span.total_nanos() / 1_000);
        assert!(line.ends_with('\n'));
        let value = crate::json::parse(line.trim_end()).expect("line parses back");
        let obj = value.as_obj().unwrap();
        assert_eq!(obj.get("endpoint").unwrap().as_str(), Some("contains"));
        assert_eq!(obj.get("status").unwrap().as_u64(), Some(200));
        assert_eq!(obj.get("verdict").unwrap().as_str(), Some("holds"));
        assert_eq!(obj.get("bytes_in").unwrap().as_u64(), Some(140));
        let stages = obj.get("stages").unwrap().as_obj().unwrap();
        assert_eq!(stages.get("parse_us").unwrap().as_u64(), Some(3));
        assert_eq!(stages.get("decide_us").unwrap().as_u64(), Some(102));
        assert!(!obj.contains_key("cause"), "cause omitted when None");
    }

    #[test]
    fn record_feeds_stage_and_endpoint_histograms() {
        let obs = ServerObs::new(&ServerConfig::default()).unwrap();
        let meta = sample_meta();
        obs.record(&meta);
        let snap = obs.snapshot();
        let stage = |name: &str| {
            snap.stages
                .iter()
                .find(|(s, _)| *s == name)
                .map(|(_, h)| h.count)
                .unwrap()
        };
        assert_eq!(stage("parse"), 1);
        assert_eq!(stage("queue"), 1);
        assert_eq!(stage("decide"), 1);
        assert_eq!(stage("write"), 1);
        assert_eq!(stage("canon"), 0, "unmarked stages stay empty");
        let contains = snap
            .endpoints
            .iter()
            .find(|(e, _)| *e == "contains")
            .unwrap();
        assert_eq!(contains.1.count, 1);
        assert_eq!(snap.responses_2xx, 1);
        assert_eq!(snap.log_lines, 0, "no access log configured");
    }

    #[test]
    fn sampling_and_slow_threshold_filter_lines() {
        let dir = std::env::temp_dir().join(format!("flqd-obs-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("access.jsonl");
        let config = ServerConfig {
            access_log: Some(path.to_string_lossy().into_owned()),
            log_sample: 1_000_000_000,
            slow_us: Some(50),
            ..ServerConfig::default()
        };
        let obs = ServerObs::new(&config).unwrap();
        // total ≈ 118 µs ≥ slow-us 50: logged despite the huge sample
        // divisor (request ids are global, so id % N == 0 is unlikely).
        obs.record(&sample_meta());
        // A fast request under the threshold: sampled out.
        let t0 = Instant::now();
        let mut fast = ReqMeta::begin_at(t0);
        fast.span.mark_at("write", t0 + Duration::from_micros(4));
        fast.status = 200;
        obs.record(&fast);
        let lines = obs.log_lines.load(Ordering::Relaxed);
        assert!((1..=2).contains(&lines), "slow line always logged: {lines}");
        drop(obs); // joins the logger thread, flushing the file
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count() as u64, lines);
        assert!(text.contains("\"endpoint\":\"contains\""), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
