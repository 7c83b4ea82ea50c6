//! A strict, minimal HTTP/1.1 parser and serializer for the reactor.
//!
//! `flqd` speaks just enough HTTP for its four endpoints: `GET`/`POST`
//! requests with `Content-Length` bodies over keep-alive connections,
//! pipelining included. There is no TLS, no chunked transfer coding, no
//! `Expect: continue`, and no multipart — a request that needs any of
//! those gets a clean 4xx instead of undefined behaviour.
//!
//! Unlike the pre-reactor parser, nothing here blocks: [`parse_request`]
//! inspects whatever bytes a connection has buffered so far and either
//! yields a complete request (plus how many bytes it consumed), asks for
//! more, or rejects the prefix with the status to answer before closing.
//! The per-connection state machine in [`conn`](crate::conn) drives it
//! in a loop, which is what makes pipelined requests fall out for free:
//! a buffer holding three back-to-back requests parses three times.
//!
//! Caps are enforced structurally: the head (request line + headers) may
//! not exceed 16 KiB — exceeding it is `431 Request Header Fields Too
//! Large`, distinguishable from a malformed request's `400` — and a
//! declared `Content-Length` beyond the server's body cap is `413`
//! before any body byte is read.

/// Cap on the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request head plus its body.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request target path, e.g. `/v1/contains` (query strings are
    /// kept verbatim; no endpoint uses them).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when the client asked for `Connection: close` (or spoke
    /// HTTP/1.0), so the server must not reuse the connection.
    pub close: bool,
}

/// A request prefix the server refuses: the status and typed code to
/// answer with before closing the connection (resynchronizing an
/// ill-framed stream is not worth the ambiguity).
#[derive(Clone, Debug)]
pub struct HttpError {
    /// HTTP status to answer (`400`, `413`, `431`).
    pub status: u16,
    /// Stable machine-readable code (mirrors `api::ApiError`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl HttpError {
    fn malformed(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            code: "bad_request",
            message: message.into(),
        }
    }
}

/// The outcome of one [`parse_request`] attempt over buffered bytes.
#[derive(Debug)]
pub enum Parse {
    /// The buffer holds no complete request yet; read more and retry.
    NeedMore,
    /// One complete request, and the count of buffer bytes it consumed
    /// (head + body) — the caller drains those and may parse again for
    /// pipelined successors.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// The buffer prefix is not a servable request; answer and close.
    Refused(HttpError),
}

/// Attempts to parse one request from the front of `buf`.
///
/// `max_body_bytes` caps the declared `Content-Length` (`413` beyond
/// it); the head is capped at [`MAX_HEAD_BYTES`] unconditionally
/// (`431` beyond it).
pub fn parse_request(buf: &[u8], max_body_bytes: usize) -> Parse {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Parse::Refused(HttpError {
                status: 431,
                code: "headers_too_large",
                message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            });
        }
        return Parse::NeedMore;
    };
    if head_len > MAX_HEAD_BYTES {
        return Parse::Refused(HttpError {
            status: 431,
            code: "headers_too_large",
            message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
        });
    }
    let head = match std::str::from_utf8(&buf[..head_len]) {
        Ok(head) => head,
        Err(_) => return Parse::Refused(HttpError::malformed("non-UTF-8 request head")),
    };
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Parse::Refused(HttpError::malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Parse::Refused(HttpError::malformed(format!("bad version {version:?}")));
    }
    let mut close = version == "HTTP/1.0";
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Refused(HttpError::malformed(format!("bad header {line:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = match value.parse() {
                Ok(n) => n,
                Err(_) => {
                    return Parse::Refused(HttpError::malformed(format!(
                        "bad content-length {value:?}"
                    )))
                }
            };
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Parse::Refused(HttpError::malformed(
                "transfer-encoding is not supported; send content-length",
            ));
        }
    }
    if content_length > max_body_bytes {
        return Parse::Refused(HttpError {
            status: 413,
            code: "payload_too_large",
            message: format!(
                "declared body of {content_length} bytes exceeds the {max_body_bytes}-byte cap"
            ),
        });
    }
    let total = head_len + content_length;
    if buf.len() < total {
        return Parse::NeedMore;
    }
    Parse::Complete {
        request: Request {
            method: method.to_string(),
            path: path.to_string(),
            body: buf[head_len..total].to_vec(),
            close,
        },
        consumed: total,
    }
}

/// Finds the end of the head (the byte *after* the blank line), honoring
/// both `\r\n\r\n` and bare-LF `\n\n` terminators.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] != b'\n' {
            i += 1;
            continue;
        }
        // A line ended at i. The head ends if the next line is empty.
        let rest = &buf[i + 1..];
        if rest.first() == Some(&b'\n') {
            return Some(i + 2);
        }
        if rest.len() >= 2 && rest[0] == b'\r' && rest[1] == b'\n' {
            return Some(i + 3);
        }
        i += 1;
    }
    None
}

/// A response ready to be serialized: status, extra headers, body.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers as `(name, value)` pairs (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: String,
    /// Machine-readable cause for non-2xx responses, carried for the
    /// access log (never serialized onto the wire; the body's typed
    /// `error.code` is the wire form).
    pub cause: Option<&'static str>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response::with_content_type(status, "application/json", body)
    }

    /// A plain-text response with the given status
    /// (`text/plain; charset=utf-8`).
    pub fn text(status: u16, body: String) -> Response {
        Response::with_content_type(status, "text/plain; charset=utf-8", body)
    }

    /// A response with an explicit `Content-Type` (e.g. the Prometheus
    /// exposition's mandated `text/plain; version=0.0.4`).
    pub fn with_content_type(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            extra_headers: Vec::new(),
            body,
            cause: None,
        }
    }
}

/// The standard reason phrase for the status codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes `resp` onto the end of `out` (the connection's write
/// buffer). `close` controls the `Connection` header; partial socket
/// writes are the caller's business — this only formats bytes.
pub fn encode_response(out: &mut Vec<u8>, resp: &Response, close: bool) {
    use std::io::Write as _;
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    if close {
        out.extend_from_slice(b"connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(resp.body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8], max_body: usize) -> (Request, usize) {
        match parse_request(buf, max_body) {
            Parse::Complete { request, consumed } => (request, consumed),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/contains HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let (req, consumed) = complete(raw, 1024);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/contains");
        assert_eq!(req.body, b"body");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn incremental_prefixes_ask_for_more() {
        let raw = b"POST /v1/contains HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in [0, 1, 10, raw.len() - 5, raw.len() - 1] {
            match parse_request(&raw[..cut], 1024) {
                Parse::NeedMore => {}
                other => panic!("prefix of {cut} bytes: expected NeedMore, got {other:?}"),
            }
        }
        let (req, _) = complete(raw, 1024);
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw: Vec<u8> = [
            &b"GET /metrics HTTP/1.1\r\n\r\n"[..],
            &b"POST /v1/contains HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi"[..],
            &b"GET /v1/status HTTP/1.1\r\nconnection: close\r\n\r\n"[..],
        ]
        .concat();
        let (first, used) = complete(&raw, 1024);
        assert_eq!(first.path, "/metrics");
        let (second, used2) = complete(&raw[used..], 1024);
        assert_eq!(second.path, "/v1/contains");
        assert_eq!(second.body, b"hi");
        let (third, used3) = complete(&raw[used + used2..], 1024);
        assert_eq!(third.path, "/v1/status");
        assert!(third.close);
        assert_eq!(used + used2 + used3, raw.len());
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let (req, _) = complete(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n", 1024);
        assert!(req.close);
        let (req, _) = complete(b"GET /metrics HTTP/1.0\r\n\r\n", 1024);
        assert!(req.close);
    }

    #[test]
    fn bare_lf_heads_parse_too() {
        let (req, consumed) = complete(b"GET /metrics HTTP/1.1\nHost: x\n\n", 1024);
        assert_eq!(req.path, "/metrics");
        assert_eq!(consumed, 31);
    }

    #[test]
    fn oversized_body_is_413_before_reading_it() {
        match parse_request(
            b"POST /v1/contains HTTP/1.1\r\nContent-Length: 999\r\n\r\n",
            10,
        ) {
            Parse::Refused(e) => {
                assert_eq!(e.status, 413);
                assert_eq!(e.code, "payload_too_large");
            }
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn oversized_head_is_431_not_400() {
        // Headers streaming past the cap without a terminator.
        let mut raw = b"GET /metrics HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD_BYTES {
            raw.extend_from_slice(b"x-filler: yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n");
        }
        match parse_request(&raw, 1024) {
            Parse::Refused(e) => {
                assert_eq!(e.status, 431);
                assert_eq!(e.code, "headers_too_large");
            }
            other => panic!("expected 431, got {other:?}"),
        }
        // A terminated head over the cap is also 431.
        raw.extend_from_slice(b"\r\n");
        match parse_request(&raw, 1024) {
            Parse::Refused(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn malformed_heads_are_400() {
        for raw in [
            b"NOT-HTTP\r\n\r\n".as_slice(),
            b"GET /x HTTP/9.9\r\n\r\n".as_slice(),
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
            b"GET x-no-slash HTTP/1.1\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_slice(),
        ] {
            match parse_request(raw, 1024) {
                Parse::Refused(e) => {
                    assert_eq!(e.status, 400, "{:?}", String::from_utf8_lossy(raw));
                }
                other => panic!("expected 400 for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn responses_carry_status_headers_and_length() {
        let mut resp = Response::json(503, "{\"error\":{}}".into());
        resp.extra_headers.push(("retry-after", "1".into()));
        let mut out = Vec::new();
        encode_response(&mut out, &resp, true);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(text.contains("content-length: 12\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":{}}"), "{text}");

        let mut out = Vec::new();
        encode_response(&mut out, &Response::text(200, "ok".into()), false);
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("connection: close"), "{text}");
    }
}
