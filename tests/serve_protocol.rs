//! Raw-socket protocol tests of the `flqd` reactor: HTTP/1.1 framing,
//! keep-alive reuse, pipelining, slow and malformed clients.
//!
//! The cross-validation suite checks *verdicts*; this one checks the
//! *wire*. Every test speaks bytes directly to a real socket — no
//! client library on either side — because the behaviors under test
//! (in-order pipelined responses, partial-write resume, typed refusals,
//! drain with requests still in flight) are exactly the ones a client
//! library would paper over.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use flogic_lite::serve::{Server, ServerConfig, ServerHandle};

/// Starts an in-process server on an ephemeral port.
fn start(
    config: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    thread::JoinHandle<std::io::Result<()>>,
) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

/// A `POST /v1/contains` request whose answer depends on `marker`'s
/// parity — even markers hold, odd ones do not — so a reordered
/// pipeline is visible in the verdicts, not just in response framing.
/// The marker constant also keeps every request body distinct, so the
/// decision cache cannot conflate them.
fn contains_request(marker: usize) -> String {
    let q2 = if marker % 2 == 0 {
        "p(X) :- sub(X, Y)."
    } else {
        "p(X) :- data(X, A, V)."
    };
    let body =
        format!("{{\"q1\":\"q(X) :- sub(X, c{marker}), sub(c{marker}, X).\",\"q2\":\"{q2}\"}}");
    format!(
        "POST /v1/contains HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// The verdict [`contains_request`]`(marker)` must come back with.
fn expected_verdict(marker: usize) -> &'static str {
    if marker % 2 == 0 {
        "\"verdict\":\"holds\""
    } else {
        "\"verdict\":\"not_holds\""
    }
}

/// Reads one `content-length`-framed response; returns status, the
/// lowercased header block, and the body.
fn read_response<R: BufRead>(reader: &mut R) -> (u16, String, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut headers = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
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

#[test]
fn pipelined_requests_are_answered_in_order() {
    // More workers than the pipeline is deep, so completions race:
    // whatever order the decisions finish in, responses must come back
    // in request order — visible here because the expected verdict
    // alternates with the request's position.
    let (addr, handle, join) = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    let n = 8;
    let burst: String = (0..n).map(contains_request).collect();
    writer.write_all(burst.as_bytes()).unwrap();
    for i in 0..n {
        let (status, headers, body) = read_response(&mut reader);
        assert_eq!(status, 200, "response {i}: {body}");
        assert!(
            body.contains(expected_verdict(i)),
            "response {i} out of order: {body}"
        );
        assert!(
            !headers.contains("connection: close"),
            "response {i} closed a keep-alive pipeline: {headers}"
        );
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn slow_byte_by_byte_requests_still_parse() {
    // A client that dribbles one byte at a time exercises the
    // incremental parser across every possible split point.
    let (addr, handle, join) = start(ServerConfig::default());
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    let request = contains_request(1);
    for chunk in request.as_bytes().chunks(1) {
        writer.write_all(chunk).unwrap();
        writer.flush().unwrap();
    }
    let (status, _headers, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn oversized_header_block_is_431() {
    let (addr, handle, join) = start(ServerConfig::default());
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    // A single header far past the 16 KiB head cap. The server refuses
    // without waiting for the head to terminate.
    write!(
        writer,
        "POST /v1/contains HTTP/1.1\r\nx-padding: {}\r\n\r\n",
        "x".repeat(32 * 1024)
    )
    .unwrap();
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, 431, "{body}");
    assert!(body.contains("\"code\":\"headers_too_large\""), "{body}");
    assert!(headers.contains("connection: close"), "{headers}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_request_line_is_400_and_closes() {
    let (addr, handle, join) = start(ServerConfig::default());
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    writer.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");
    assert!(headers.contains("connection: close"), "{headers}");
    // The server closes after the refusal: the next read sees EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "bytes after close: {rest:?}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn one_connection_serves_many_requests() {
    let (addr, handle, join) = start(ServerConfig::default());
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    let n = 16;
    for i in 0..n {
        write!(writer, "{}", contains_request(i)).unwrap();
        let (status, _headers, body) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i}: {body}");
    }
    // The metrics (read over the same connection — request n+1) agree
    // this was a single connection carrying all traffic.
    writer
        .write_all(b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _headers, metrics) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(metrics.contains("flqd_connections_total 1\n"), "{metrics}");
    assert!(
        metrics.contains(&format!("flqd_requests_total {}\n", n + 1)),
        "{metrics}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Golden-shape assertions on the default Prometheus `/metrics` body:
/// every `# TYPE` family has at least one sample, histogram `_bucket`
/// series are cumulative-monotone and end at `le="+Inf"` equal to
/// `_count`, and the stage/endpoint series that just did work are
/// nonzero.
#[test]
fn prometheus_metrics_have_golden_shape() {
    let (addr, handle, join) = start(ServerConfig::default());
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    write!(writer, "{}", contains_request(0)).unwrap();
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");

    writer
        .write_all(b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, headers, metrics) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(
        headers.contains("content-type: text/plain; version=0.0.4"),
        "{headers}"
    );

    // Every # TYPE header is followed by at least one sample of its
    // family before the next header.
    let mut current_family: Option<(&str, usize)> = None;
    let mut buckets: Vec<(String, u64)> = Vec::new();
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((family, samples)) = current_family.take() {
                assert!(samples > 0, "family {family} has no samples:\n{metrics}");
            }
            let name = rest.split(' ').next().unwrap();
            current_family = Some((name, 0));
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line:?}"));
        let Some(family) = current_family.as_mut() else {
            panic!("sample before any # TYPE header: {line:?}");
        };
        let base = series.split('{').next().unwrap();
        assert!(
            base.starts_with(family.0),
            "sample {series:?} outside its family {:?}",
            family.0
        );
        family.1 += 1;
        if let Some((labels, _)) = series
            .strip_prefix("flqd_stage_duration_nanoseconds_bucket{")
            .and_then(|r| r.split_once('}'))
        {
            buckets.push((labels.to_string(), value.parse().unwrap()));
        }
    }
    if let Some((family, samples)) = current_family {
        assert!(samples > 0, "family {family} has no samples");
    }

    // Per-stage bucket series are monotone non-decreasing in file order
    // (the exposition renders le ascending within one stage).
    let mut prev: Option<(String, u64)> = None;
    for (labels, cum) in &buckets {
        let stage = labels.split(",le=").next().unwrap().to_string();
        if let Some((prev_stage, prev_cum)) = &prev {
            if *prev_stage == stage {
                assert!(
                    cum >= prev_cum,
                    "bucket series for {stage} not monotone: {prev_cum} -> {cum}"
                );
            }
        }
        prev = Some((stage, *cum));
    }

    // The decide stage just ran once: its +Inf bucket counts it.
    assert!(
        metrics.contains("flqd_stage_duration_nanoseconds_bucket{stage=\"decide\",le=\"+Inf\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains(
            "flqd_request_duration_nanoseconds_bucket{endpoint=\"contains\",le=\"+Inf\"} 1"
        ),
        "{metrics}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `GET /v1/status` returns strict integer-only JSON whose rollup agrees
/// with the requests this connection just made.
#[test]
fn status_endpoint_reports_the_rollup() {
    let (addr, handle, join) = start(ServerConfig::default());
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    for i in 0..3 {
        write!(writer, "{}", contains_request(i)).unwrap();
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200, "{body}");
    }
    writer
        .write_all(b"GET /v1/status HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(
        headers.contains("content-type: application/json"),
        "{headers}"
    );

    let value = flogic_lite::serve::json::parse(&body).expect("status body parses strictly");
    let root = value.as_obj().expect("status body is an object");
    assert_eq!(
        root.get("requests_total").and_then(|v| v.as_u64()),
        Some(4),
        "{body}"
    );
    assert_eq!(
        root.get("connections_total").and_then(|v| v.as_u64()),
        Some(1),
        "{body}"
    );
    let stages = root
        .get("stages")
        .and_then(|v| v.as_obj())
        .expect("stages object");
    let decide = stages
        .get("decide")
        .and_then(|v| v.as_obj())
        .expect("decide stage");
    assert_eq!(
        decide.get("count").and_then(|v| v.as_u64()),
        Some(3),
        "{body}"
    );
    let cache = root
        .get("cache")
        .and_then(|v| v.as_obj())
        .expect("cache object");
    assert_eq!(
        cache.get("decision_misses").and_then(|v| v.as_u64()),
        Some(3),
        "three cold pairs: {body}"
    );
    let gauges = root
        .get("gauges")
        .and_then(|v| v.as_obj())
        .expect("gauges object");
    assert_eq!(
        gauges.get("open_connections").and_then(|v| v.as_u64()),
        Some(1),
        "{body}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// With `--access-log`, every request emits one JSONL line that parses
/// back with the server's own strict JSON parser and carries the
/// request's identity: endpoint, verdict, cache outcome, stage micros.
#[test]
fn access_log_lines_parse_back() {
    let dir = std::env::temp_dir().join(format!("flqd-proto-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("access.jsonl");
    let (addr, handle, join) = start(ServerConfig {
        access_log: Some(path.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    });
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    write!(writer, "{}", contains_request(0)).unwrap();
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    write!(writer, "{}", contains_request(0)).unwrap();
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    drop(stream);

    // Releasing every handle drops ServerObs, which joins the logger
    // thread — only then is the log file guaranteed complete.
    handle.shutdown();
    join.join().unwrap().unwrap();
    drop(handle);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one line per request: {text:?}");
    for (i, line) in lines.iter().enumerate() {
        let value = flogic_lite::serve::json::parse(line)
            .unwrap_or_else(|e| panic!("line {i} does not parse: {e}: {line}"));
        let obj = value.as_obj().unwrap();
        assert_eq!(
            obj.get("endpoint").and_then(|v| v.as_str()),
            Some("contains")
        );
        assert_eq!(obj.get("status").and_then(|v| v.as_u64()), Some(200));
        assert_eq!(obj.get("verdict").and_then(|v| v.as_str()), Some("holds"));
        let stages = obj.get("stages").and_then(|v| v.as_obj()).unwrap();
        for stage in [
            "parse_us",
            "queue_us",
            "decode_us",
            "canon_us",
            "cache_us",
            "write_us",
        ] {
            assert!(
                stages.contains_key(stage),
                "line {i} missing {stage}: {line}"
            );
        }
        assert!(obj.get("id").and_then(|v| v.as_u64()).is_some(), "{line}");
        assert!(
            obj.get("bytes_in").and_then(|v| v.as_u64()).unwrap() > 0,
            "{line}"
        );
        assert!(
            obj.get("bytes_out").and_then(|v| v.as_u64()).unwrap() > 0,
            "{line}"
        );
    }
    // First request was a cold decision, the identical repeat a cache hit.
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_serves_the_pipelined_tail_before_closing() {
    // Burst a pipeline of heavyweight batch requests — one worker, each
    // request holding 200 distinct cold pairs, so the tail is
    // guaranteed to still be in flight when drain starts — then shut
    // down before reading anything. Drain must answer every request
    // that was already parsed, mark the final response
    // `connection: close`, and only then close the socket.
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let stream = connect(addr);
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);

    let n = 4;
    let per_request = 200;
    let burst: String = (0..n)
        .map(|r| {
            let pairs: Vec<String> = (0..per_request)
                .map(|j| {
                    let m = r * per_request + j;
                    format!("[\"q(X) :- sub(X, d{m}), sub(d{m}, X).\",\"p(X) :- sub(X, Y).\"]")
                })
                .collect();
            let body = format!("{{\"pairs\":[{}]}}", pairs.join(","));
            format!(
                "POST /v1/contains_batch HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    writer.write_all(burst.as_bytes()).unwrap();
    // Long enough for the reactor to parse the whole burst, far shorter
    // than the queued decision work (hundreds of cold pairs).
    thread::sleep(Duration::from_millis(20));
    handle.shutdown();

    for i in 0..n {
        let (status, headers, body) = read_response(&mut reader);
        assert!(
            status == 200 || status == 503,
            "response {i}: HTTP {status}: {body}"
        );
        if i == n - 1 {
            assert!(
                headers.contains("connection: close"),
                "last drained response must close: {headers}"
            );
        }
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "bytes after drain close: {rest:?}");
    join.join().unwrap().unwrap();
}
