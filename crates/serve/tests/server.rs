//! End-to-end tests of a running in-process `flqd`: real sockets, real
//! HTTP, real decisions — only the process boundary is elided.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use flogic_serve::{Server, ServerConfig, ServerHandle};

/// Binds a server with `config`, runs it on a background thread, and
/// returns its address, its handle, and the join handle of `run`.
fn start(
    mut config: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    thread::JoinHandle<std::io::Result<()>>,
) {
    config.addr = "127.0.0.1:0".into();
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

/// One full HTTP/1.1 exchange on a fresh connection; returns
/// `(status, body)`.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    read_response(&mut BufReader::new(&mut stream))
}

fn read_response<R: BufRead>(reader: &mut R) -> (u16, String) {
    let (status, _headers, body) = read_response_full(reader);
    (status, body)
}

/// Reads one `content-length`-framed response; returns status, the
/// lowercased header block, and the body. Takes a caller-owned reader so
/// pipelined responses on one connection are not lost to a discarded
/// buffer.
fn read_response_full<R: BufRead>(reader: &mut R) -> (u16, String, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    let mut headers = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let line = line.to_ascii_lowercase();
        if let Some(v) = line
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_length = v;
        }
        headers.push_str(&line);
        headers.push('\n');
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (
        status,
        headers,
        String::from_utf8(body).expect("utf-8 body"),
    )
}

const Q1: &str = "q(X, Z) :- sub(X, Y), sub(Y, Z).";
const Q2: &str = "p(X, Z) :- sub(X, Z).";

fn contains_body(q1: &str, q2: &str) -> String {
    format!("{{\"q1\":{},\"q2\":{}}}", serde_lite(q1), serde_lite(q2))
}

/// Just enough JSON string quoting for the test queries (no escapes
/// needed in the surface syntax used here).
fn serde_lite(s: &str) -> String {
    format!("\"{s}\"")
}

#[test]
fn contains_and_batch_answer_real_verdicts() {
    let (addr, handle, join) = start(ServerConfig::default());

    // Cold single decision: holds.
    let (status, body) = exchange(addr, "POST", "/v1/contains", &contains_body(Q1, Q2));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verdict\":\"holds\""), "{body}");

    // Reverse direction: not_holds.
    let (status, body) = exchange(addr, "POST", "/v1/contains", &contains_body(Q2, Q1));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verdict\":\"not_holds\""), "{body}");

    // Batch sharing one q1; results in request order.
    let batch = format!(
        "{{\"pairs\":[[{q1},{q2}],[{q1},{q1}],[{q2},{q1}]]}}",
        q1 = serde_lite(Q1),
        q2 = serde_lite(Q2)
    );
    let (status, body) = exchange(addr, "POST", "/v1/contains_batch", &batch);
    assert_eq!(status, 200, "{body}");
    let verdicts: Vec<&str> = body.matches("\"verdict\":\"holds\"").collect();
    assert_eq!(verdicts.len(), 2, "{body}");
    assert!(body.contains("\"verdict\":\"not_holds\""), "{body}");

    // Warm repeat of the first pair still answers identically.
    let (status, body) = exchange(addr, "POST", "/v1/contains", &contains_body(Q1, Q2));
    assert_eq!(status, 200);
    assert!(body.contains("\"verdict\":\"holds\""), "{body}");

    // The Prometheus exposition reports the work.
    let (status, metrics) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("# TYPE flqd_requests_total counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE flqd_stage_duration_nanoseconds histogram"),
        "{metrics}"
    );
    assert!(
        metrics.contains("flqd_stage_duration_nanoseconds_bucket{stage=\"decide\",le=\"+Inf\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("\nflqd_requests_total "), "{metrics}");
    assert!(
        metrics.contains("\nflqd_snapshot_cache_hits_total "),
        "{metrics}"
    );
    // The server keeps no chase profile: `flq profile` is the per-rule view.
    let (status, body) = exchange(addr, "GET", "/profile", "");
    assert_eq!(status, 404, "{body}");

    handle.shutdown();
    join.join().expect("join").expect("clean drain");
}

/// The value of one sample line of a `/metrics` body.
fn sample(metrics: &str, family: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{family}` sample in:\n{metrics}"))
}

#[test]
fn canon_counters_belong_to_their_own_server() {
    // Two servers in one process: the canon-on one canonicalizes both
    // sides of its pair, the `--no-canon` one none, whatever the other
    // server did.
    let (on_addr, on_handle, on_join) = start(ServerConfig::default());
    let (off_addr, off_handle, off_join) = start(ServerConfig {
        canon: false,
        ..ServerConfig::default()
    });
    let (status, body) = exchange(on_addr, "POST", "/v1/contains", &contains_body(Q1, Q2));
    assert_eq!(status, 200, "{body}");
    let (status, body) = exchange(off_addr, "POST", "/v1/contains", &contains_body(Q1, Q2));
    assert_eq!(status, 200, "{body}");

    let (_, on) = exchange(on_addr, "GET", "/metrics", "");
    let (_, off) = exchange(off_addr, "GET", "/metrics", "");
    assert_eq!(sample(&on, "flqd_canon_keys_total"), 2, "{on}");
    assert_eq!(sample(&off, "flqd_canon_keys_total"), 0, "{off}");
    assert_eq!(sample(&off, "flqd_canon_reduced_total"), 0, "{off}");
    assert_eq!(sample(&off, "flqd_canon_nanoseconds_total"), 0, "{off}");

    for (handle, join) in [(on_handle, on_join), (off_handle, off_join)] {
        handle.shutdown();
        join.join().expect("join").expect("clean drain");
    }
}

#[test]
fn exhausted_decisions_are_200_with_exhausted_verdict() {
    let (addr, handle, join) = start(ServerConfig::default());
    let body = format!(
        "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":1,\"analysis\":false}}",
        serde_lite(Q1),
        serde_lite(Q2)
    );
    let (status, body) = exchange(addr, "POST", "/v1/contains", &body);
    assert_eq!(
        status, 200,
        "exhaustion is an outcome, not an error: {body}"
    );
    assert!(body.contains("\"verdict\":\"exhausted\""), "{body}");
    assert!(body.contains("\"reason\":\"conjuncts\""), "{body}");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn bad_requests_get_typed_errors() {
    let (addr, handle, join) = start(ServerConfig {
        max_body_bytes: 256,
        ..ServerConfig::default()
    });

    let (status, body) = exchange(addr, "POST", "/v1/contains", "not json");
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"parse_error\""), "{body}");

    let (status, body) = exchange(
        addr,
        "POST",
        "/v1/contains",
        &contains_body("q(X) :- nonsense", Q2),
    );
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"parse_error\""), "{body}");

    // Arity mismatch is its own code.
    let (status, body) = exchange(
        addr,
        "POST",
        "/v1/contains",
        &contains_body("q(X) :- sub(X, Y).", Q2),
    );
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"arity_mismatch\""), "{body}");
    // Rejected before keying: no decision-cache miss, no chase kept.
    let (_, metrics) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(
        sample(&metrics, "flqd_snapshot_resident_entries"),
        0,
        "{metrics}"
    );
    assert_eq!(
        sample(&metrics, "flqd_decision_cache_misses_total"),
        0,
        "{metrics}"
    );

    let (status, body) = exchange(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(body.contains("\"code\":\"not_found\""), "{body}");

    let (status, body) = exchange(addr, "GET", "/v1/contains", "");
    assert_eq!(status, 405);
    assert!(body.contains("\"code\":\"method_not_allowed\""), "{body}");

    let oversized = contains_body(&"x".repeat(500), Q2);
    let (status, body) = exchange(addr, "POST", "/v1/contains", &oversized);
    assert_eq!(status, 413);
    assert!(body.contains("\"code\":\"payload_too_large\""), "{body}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    // One worker, queue depth one. Pipeline three requests in a single
    // write: the reactor dispatches them back-to-back (nanoseconds
    // apart), while even a cache-hit decision costs the worker tens of
    // microseconds — so the queue is necessarily full for at least one
    // of the tail requests. That one is answered 503 + Retry-After on
    // the spot, per request: the connection stays open and responses
    // stay in pipeline order.
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);
    let body = contains_body(Q1, Q2);
    let one = format!(
        "POST /v1/contains HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    writer
        .write_all(format!("{one}{one}{one}").as_bytes())
        .unwrap();

    // First into an empty queue: always served.
    let (status, body1) = read_response(&mut reader);
    assert_eq!(status, 200, "{body1}");
    assert!(body1.contains("\"verdict\":\"holds\""), "{body1}");
    // Of the two tail requests, at least one bounced; whichever did
    // carries the typed 503 and its Retry-After.
    let mut statuses = Vec::new();
    for _ in 0..2 {
        let (status, headers, body) = read_response_full(&mut reader);
        if status == 503 {
            assert!(headers.contains("retry-after: 1"), "{headers}");
            assert!(body.contains("\"code\":\"overloaded\""), "{body}");
        } else {
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("\"verdict\":\"holds\""), "{body}");
        }
        statuses.push(status);
    }
    assert!(statuses.contains(&503), "{statuses:?}");

    // The connection survived the rejection: the same socket serves a
    // fourth request once the queue has room again.
    write!(writer, "{one}").unwrap();
    let (status, body4) = read_response(&mut reader);
    assert_eq!(status, 200, "{body4}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        read_timeout_ms: 500,
        ..ServerConfig::default()
    });

    // A keep-alive connection with one answered request stays open...
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = contains_body(Q1, Q2);
    write!(
        stream,
        "POST /v1/contains HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, body) = read_response(&mut BufReader::new(&mut stream));
    assert_eq!(status, 200, "{body}");

    // ...and shutdown still completes: the worker finishes the idle
    // connection (read timeout) and run() returns Ok.
    handle.shutdown();
    join.join().expect("join").expect("clean drain");
}
