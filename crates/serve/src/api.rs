//! The wire API: request decoding and verdict/error encoding.
//!
//! Everything the server says is JSON with a fixed, documented shape.
//! Two invariants matter more than the shapes themselves:
//!
//! * **Exhaustion is an outcome, not an error.** A request whose chase
//!   ran out of budget answers HTTP 200 with `"verdict": "exhausted"`
//!   and the partial statistics — exactly the contract of
//!   [`Verdict::Exhausted`] and the `flq` CLI's exit code 3. Only
//!   malformed requests and true engine faults get non-2xx statuses.
//! * **Typed errors.** Every non-2xx body is
//!   `{"error": {"code": …, "message": …}}` with a stable machine
//!   code, so load generators and clients can branch without string
//!   matching.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use flogic_core::{
    Budget, ContainmentOptions, ContainmentResult, CoreError, ExhaustReason, Verdict,
};

use crate::http::Response;
use crate::json::{self, escape_into, Json};

/// A typed API error: HTTP status plus a stable machine-readable code.
#[derive(Clone, Debug)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable code (`bad_request`, `parse_error`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// A 400 with code `bad_request` — structurally valid JSON that does
    /// not match the documented request shape.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code: "bad_request",
            message: message.into(),
        }
    }

    /// A 400 with code `parse_error` — the body was not valid JSON, or a
    /// query string was not valid surface syntax.
    pub fn parse_error(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code: "parse_error",
            message: message.into(),
        }
    }

    /// A 404 with code `not_found`.
    pub fn not_found(path: &str) -> ApiError {
        ApiError {
            status: 404,
            code: "not_found",
            message: format!("no such endpoint: {path}"),
        }
    }

    /// A 405 with code `method_not_allowed`.
    pub fn method_not_allowed(method: &str, path: &str) -> ApiError {
        ApiError {
            status: 405,
            code: "method_not_allowed",
            message: format!("{method} is not supported on {path}"),
        }
    }

    /// A 413 with code `payload_too_large`.
    pub fn payload_too_large(declared: usize, cap: usize) -> ApiError {
        ApiError {
            status: 413,
            code: "payload_too_large",
            message: format!("declared body of {declared} bytes exceeds the {cap}-byte cap"),
        }
    }

    /// A 503 with code `overloaded` — the accept queue is full. The
    /// response carries `Retry-After`.
    pub fn overloaded() -> ApiError {
        ApiError {
            status: 503,
            code: "overloaded",
            message: "request queue is full; retry shortly".into(),
        }
    }

    /// A 500 with code `internal`.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            code: "internal",
            message: message.into(),
        }
    }

    /// Renders the error as its HTTP response (adding `Retry-After: 1`
    /// to 503s).
    pub fn to_response(&self) -> Response {
        let mut body = String::from("{\"error\":{\"code\":");
        escape_into(&mut body, self.code);
        body.push_str(",\"message\":");
        escape_into(&mut body, &self.message);
        body.push_str("}}");
        let mut resp = Response::json(self.status, body);
        resp.cause = Some(self.code);
        if self.status == 503 {
            resp.extra_headers.push(("retry-after", "1".into()));
        }
        resp
    }
}

/// Maps a decision-engine error onto the API error space.
///
/// `Exhausted` is unreachable here — `contains_with` reports exhaustion
/// as a verdict — but mapping it defensively to `internal` beats a
/// panic if a future refactor changes that.
pub fn core_error(e: &CoreError) -> ApiError {
    match e {
        CoreError::Syntax(msg) => ApiError::parse_error(msg.clone()),
        CoreError::ArityMismatch { q1, q2 } => ApiError {
            status: 400,
            code: "arity_mismatch",
            message: format!("head arities differ: q1 has {q1}, q2 has {q2}"),
        },
        CoreError::WorkerFailed { detail } => ApiError::internal(detail.clone()),
        CoreError::Exhausted { .. } => ApiError::internal(format!("unexpected error: {e}")),
    }
}

/// Per-request decision knobs, all optional; absent fields fall back to
/// the server's configured defaults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestOpts {
    /// Wall-clock budget for the decision, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Cap on materialized chase conjuncts.
    pub max_conjuncts: Option<usize>,
    /// Whether to consult the static analyzer (verdict-neutral).
    pub analysis: Option<bool>,
}

impl RequestOpts {
    /// Applies the request's overrides on top of the server's base
    /// options.
    pub fn apply(&self, base: &ContainmentOptions) -> ContainmentOptions {
        let mut opts = base.clone();
        if let Some(ms) = self.timeout_ms {
            opts.budget = Budget::with_timeout(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_conjuncts {
            opts.max_conjuncts = n;
        }
        if let Some(a) = self.analysis {
            opts.analysis = a;
        }
        opts
    }

    fn from_obj(obj: &BTreeMap<String, Json>) -> Result<RequestOpts, ApiError> {
        let mut opts = RequestOpts::default();
        if let Some(v) = obj.get("timeout_ms") {
            opts.timeout_ms = Some(
                v.as_u64()
                    .ok_or_else(|| ApiError::bad_request("timeout_ms must be an integer"))?,
            );
        }
        if let Some(v) = obj.get("max_conjuncts") {
            let n = v
                .as_u64()
                .ok_or_else(|| ApiError::bad_request("max_conjuncts must be an integer"))?;
            opts.max_conjuncts = Some(usize::try_from(n).map_err(|_| {
                ApiError::bad_request("max_conjuncts does not fit this platform's usize")
            })?);
        }
        if let Some(v) = obj.get("analysis") {
            opts.analysis = Some(
                v.as_bool()
                    .ok_or_else(|| ApiError::bad_request("analysis must be a boolean"))?,
            );
        }
        Ok(opts)
    }
}

/// A decoded `POST /v1/contains` body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainsRequest {
    /// Surface syntax of the candidate containee.
    pub q1: String,
    /// Surface syntax of the candidate container.
    pub q2: String,
    /// Per-request knobs.
    pub opts: RequestOpts,
}

/// A decoded `POST /v1/contains_batch` body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRequest {
    /// The `(q1, q2)` pairs, in request order.
    pub pairs: Vec<(String, String)>,
    /// Per-request knobs, shared by every pair in the batch.
    pub opts: RequestOpts,
}

/// Decodes a request body, which must be one JSON object.
fn parse_object(body: &[u8]) -> Result<BTreeMap<String, Json>, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::parse_error("request body is not UTF-8"))?;
    match json::parse(text).map_err(ApiError::parse_error)? {
        Json::Obj(obj) => Ok(obj),
        _ => Err(ApiError::bad_request("body must be a JSON object")),
    }
}

fn known_keys(obj: &BTreeMap<String, Json>, allowed: &[&str]) -> Result<(), ApiError> {
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::bad_request(format!("unknown field {key:?}")));
        }
    }
    Ok(())
}

/// Decodes a `POST /v1/contains` body:
/// `{"q1": …, "q2": …, "timeout_ms"?, "max_conjuncts"?, "analysis"?}`.
pub fn parse_contains(body: &[u8]) -> Result<ContainsRequest, ApiError> {
    let mut obj = parse_object(body)?;
    known_keys(
        &obj,
        &["q1", "q2", "timeout_ms", "max_conjuncts", "analysis"],
    )?;
    let mut field = |name: &str| match obj.remove(name) {
        Some(Json::Str(text)) => Ok(text),
        _ => Err(ApiError::bad_request(format!("{name} must be a string"))),
    };
    let (q1, q2) = (field("q1")?, field("q2")?);
    Ok(ContainsRequest {
        q1,
        q2,
        opts: RequestOpts::from_obj(&obj)?,
    })
}

/// Decodes a `POST /v1/contains_batch` body:
/// `{"pairs": [[q1, q2], …], "timeout_ms"?, "max_conjuncts"?, "analysis"?}`.
pub fn parse_batch(body: &[u8]) -> Result<BatchRequest, ApiError> {
    let mut obj = parse_object(body)?;
    known_keys(&obj, &["pairs", "timeout_ms", "max_conjuncts", "analysis"])?;
    let Some(Json::Arr(raw_pairs)) = obj.remove("pairs") else {
        return Err(ApiError::bad_request("pairs must be an array"));
    };
    let mut pairs = Vec::with_capacity(raw_pairs.len());
    for (i, item) in raw_pairs.into_iter().enumerate() {
        let pair = match item {
            Json::Arr(pair) => <[Json; 2]>::try_from(pair).ok(),
            _ => None,
        };
        let Some([q1, q2]) = pair else {
            return Err(ApiError::bad_request(format!(
                "pairs[{i}] must be a two-element array"
            )));
        };
        let text = |side: usize, value: Json| match value {
            Json::Str(text) => Ok(text),
            _ => Err(ApiError::bad_request(format!(
                "pairs[{i}][{side}] must be a string"
            ))),
        };
        pairs.push((text(0, q1)?, text(1, q2)?));
    }
    Ok(BatchRequest {
        pairs,
        opts: RequestOpts::from_obj(&obj)?,
    })
}

/// The stable wire name of an exhaustion reason.
pub fn reason_code(reason: ExhaustReason) -> &'static str {
    match reason {
        ExhaustReason::Conjuncts => "conjuncts",
        ExhaustReason::Deadline => "deadline",
        ExhaustReason::Steps => "steps",
        ExhaustReason::Bytes => "bytes",
        ExhaustReason::Cancelled => "cancelled",
    }
}

/// Encodes one decision as its wire object.
///
/// The object always carries `verdict` (`"holds"`, `"not_holds"` or
/// `"exhausted"`) and the decision statistics; `reason` appears only on
/// exhausted verdicts.
pub fn verdict_json(result: &ContainmentResult) -> String {
    let mut s = String::with_capacity(160);
    s.push_str("{\"verdict\":");
    escape_into(&mut s, result.verdict().wire_name());
    if let Verdict::Exhausted(reason) = result.verdict() {
        s.push_str(",\"reason\":");
        escape_into(&mut s, reason_code(reason));
    }
    let _ = write!(s, ",\"vacuous\":{}", result.is_vacuous());
    let _ = write!(
        s,
        ",\"decided_by_analysis\":{}",
        result.decided_by_analysis()
    );
    let _ = write!(s, ",\"chase_conjuncts\":{}", result.chase_conjuncts());
    let _ = write!(s, ",\"level_bound\":{}", result.level_bound());
    let _ = write!(s, ",\"max_chase_level\":{}", result.max_chase_level());
    s.push('}');
    s
}

/// Encodes a batch of decisions, in request order:
/// `{"results": [<verdict object>, …]}`.
pub fn batch_json(results: &[ContainmentResult]) -> String {
    let mut s = String::with_capacity(32 + results.len() * 160);
    s.push_str("{\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&verdict_json(r));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_core::contains_with;
    use flogic_syntax::parse_query;

    #[test]
    fn contains_request_decodes_with_and_without_knobs() {
        let req = parse_contains(
            br#"{"q1":"a","q2":"b","timeout_ms":50,"max_conjuncts":10,"analysis":false}"#,
        )
        .unwrap();
        assert_eq!(req.q1, "a");
        assert_eq!(req.opts.timeout_ms, Some(50));
        assert_eq!(req.opts.max_conjuncts, Some(10));
        assert_eq!(req.opts.analysis, Some(false));

        let req = parse_contains(br#"{"q1":"a","q2":"b"}"#).unwrap();
        assert_eq!(req.opts, RequestOpts::default());

        let base = ContainmentOptions::default();
        let opts = req.opts.apply(&base);
        assert_eq!(opts.max_conjuncts, base.max_conjuncts);
        assert!(opts.analysis);
    }

    #[test]
    fn malformed_contains_requests_get_typed_errors() {
        for (body, code) in [
            (br#"not json"#.as_slice(), "parse_error"),
            (
                br#"{"q1":"a","q2":"b","timeout_ms":050}"#.as_slice(),
                "parse_error",
            ),
            (br#"[1,2]"#.as_slice(), "bad_request"),
            (br#"{"q1":"a"}"#.as_slice(), "bad_request"),
            (br#"{"q1":"a","q2":7}"#.as_slice(), "bad_request"),
            (
                br#"{"q1":"a","q2":"b","bogus":1}"#.as_slice(),
                "bad_request",
            ),
            (
                br#"{"q1":"a","q2":"b","timeout_ms":"soon"}"#.as_slice(),
                "bad_request",
            ),
        ] {
            let err = parse_contains(body).unwrap_err();
            assert_eq!(err.code, code, "{:?}", String::from_utf8_lossy(body));
            assert_eq!(err.status, 400);
        }
    }

    #[test]
    fn a_body_at_the_default_cap_decodes_in_linear_time() {
        // Plain runs, multi-byte characters and escapes, up to the
        // default 1 MiB `--max-body-bytes`. Decoding is linear in the
        // body, so this takes milliseconds even unoptimized.
        let (wire, text) = (
            r#"q(X) :- X[größe -> été], \"Ärger\"\n"#,
            "q(X) :- X[größe -> été], \"Ärger\"\n",
        );
        let copies = ((1 << 20) - 32) / wire.len();
        let body = format!(r#"{{"q1":"{}","q2":"b"}}"#, wire.repeat(copies));
        assert!(body.len() <= 1 << 20 && body.len() > 1_000_000);
        let start = std::time::Instant::now();
        let req = parse_contains(body.as_bytes()).unwrap();
        let took = start.elapsed();
        assert_eq!(req.q1, text.repeat(copies));
        assert!(
            took < Duration::from_secs(1),
            "decoding a {}-byte body took {took:?}",
            body.len()
        );
    }

    #[test]
    fn batch_request_decodes_pairs_in_order() {
        let req = parse_batch(br#"{"pairs":[["a","b"],["c","d"]],"timeout_ms":9}"#).unwrap();
        assert_eq!(
            req.pairs,
            vec![
                ("a".to_string(), "b".to_string()),
                ("c".to_string(), "d".to_string())
            ]
        );
        assert_eq!(req.opts.timeout_ms, Some(9));

        for body in [
            br#"{"pairs":[["a"]]}"#.as_slice(),
            br#"{"pairs":[["a","b","c"]]}"#.as_slice(),
            br#"{"pairs":"ab"}"#.as_slice(),
            br#"{"pairs":[["a",2]]}"#.as_slice(),
        ] {
            assert_eq!(parse_batch(body).unwrap_err().code, "bad_request");
        }
    }

    #[test]
    fn verdicts_encode_all_three_values() {
        let q1 = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
        let q2 = parse_query("p(X, Z) :- sub(X, Z).").unwrap();
        let opts = ContainmentOptions::default();

        let holds = contains_with(&q1, &q2, &opts).unwrap();
        let body = verdict_json(&holds);
        assert!(body.contains("\"verdict\":\"holds\""), "{body}");
        assert!(!body.contains("\"reason\""), "{body}");
        assert!(body.contains("\"vacuous\":false"), "{body}");
        assert!(body.contains("\"level_bound\":"), "{body}");

        let not = contains_with(&q2, &q1, &opts).unwrap();
        assert!(verdict_json(&not).contains("\"verdict\":\"not_holds\""));

        let tight = ContainmentOptions {
            max_conjuncts: 1,
            analysis: false,
            ..Default::default()
        };
        let exhausted = contains_with(&q1, &q2, &tight).unwrap();
        let body = verdict_json(&exhausted);
        assert!(body.contains("\"verdict\":\"exhausted\""), "{body}");
        assert!(body.contains("\"reason\":\"conjuncts\""), "{body}");

        let batch = batch_json(&[holds, not]);
        assert!(batch.starts_with("{\"results\":[{"), "{batch}");
        assert_eq!(batch.matches("\"verdict\"").count(), 2);
    }

    #[test]
    fn error_bodies_are_typed_and_503_carries_retry_after() {
        let resp = ApiError::overloaded().to_response();
        assert_eq!(resp.status, 503);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(name, _)| *name == "retry-after"));
        assert!(
            resp.body.contains("\"code\":\"overloaded\""),
            "{}",
            resp.body
        );

        let resp = ApiError::not_found("/nope").to_response();
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("\"code\":\"not_found\""));
    }
}
