//! Per-layer costs (`--trace 1`), measured outside in.
//!
//! Phase one drives `flqd` as the end-to-end run does, for half of
//! `--seconds`, and keeps the mean client-observed latency. Phase two
//! sends the same requests, after the same set-up, through the layers
//! `flqd` runs a request through: called in this process, in the
//! server's order, each call inside a span of this file.
//!
//! | metric         | layer: call                                                     |
//! |----------------|-----------------------------------------------------------------|
//! | `decode_us`    | serve: `api::parse_contains`, the JSON request body             |
//! | `parse_us`     | syntax: `parse_query`, both queries                             |
//! | `canon_us`     | core: `canonical_pair`, classic cores in canonical order        |
//! | `cache_us`     | store: `DurableDecisionCache` probe (RAM, then disk) and insert |
//! | `chase_us`     | serve: `SnapshotCache::get_or_build`, the chase on a miss       |
//! | `hom_us`       | core: `ChaseSnapshot::contains`, the homomorphism search        |
//! | `serialize_us` | serve: `api::verdict_json`                                      |
//!
//! Each is the mean time of one call. Decode, parse, canon, cache and
//! serialize run once per measured request. Chase and hom run only when
//! the decision cache misses, which `warm`, `variant` and `disk` never do
//! once set up, so their means cover every call of phase two, set-up
//! included. `path_us` is the mean sum of the spans per measured request;
//! `shell_us` is phase one's mean latency minus `path_us`: what lies
//! around the layers — the loopback round trip, HTTP framing, the reactor,
//! the dispatch queue and per-request tracing. `decision_hit_pct` is the
//! share of measured requests the decision cache answered.

use std::cell::Cell;
use std::path::Path;
use std::time::{Duration, Instant};

use flogic_core::{canonical_pair, theorem_bound, ContainmentOptions};
use flogic_serve::snapshots::SnapshotCache;
use flogic_serve::{api, ServerConfig};
use flogic_store::DurableDecisionCache;
use flogic_syntax::parse_query;

use crate::e2e::{self, micros};
use crate::workload::{Checker, Shape, Workload};
use crate::Report;

/// Time spent in each layer over a number of requests.
#[derive(Default)]
struct Spans {
    decode: Duration,
    parse: Duration,
    canon: Duration,
    cache: Duration,
    chase: Duration,
    hom: Duration,
    serialize: Duration,
    requests: u64,
    /// Requests the decision cache answered.
    hits: u64,
}

impl Spans {
    fn path(&self) -> Duration {
        self.decode + self.parse + self.canon + self.cache + self.chase + self.hom + self.serialize
    }
}

/// The warm state `flqd` keeps, held in this process: the decision tier
/// over the chase-snapshot cache, configured as the server's defaults.
struct Node {
    base: ContainmentOptions,
    decisions: DurableDecisionCache,
    snapshots: SnapshotCache,
}

impl Node {
    fn open(data_dir: Option<&Path>) -> Result<Node, String> {
        let config = ServerConfig::default();
        let decisions = match data_dir {
            Some(dir) => DurableDecisionCache::open(dir)
                .map_err(|e| format!("cannot open a decision store in {}: {e}", dir.display()))?,
            None => DurableDecisionCache::memory(),
        };
        Ok(Node {
            base: config.base_options(),
            decisions,
            snapshots: SnapshotCache::new(config.cache_bytes),
        })
    }

    /// Flushes the durable tier, as a draining server does.
    fn close(self) -> Result<(), String> {
        self.decisions
            .flush()
            .map_err(|e| format!("cannot flush the decision store: {e}"))
    }

    /// Answers one request body the way `flqd` does, timing each layer.
    fn serve(&self, body: &str, spans: &mut Spans) -> Result<String, String> {
        let t0 = Instant::now();
        let request = api::parse_contains(body.as_bytes()).map_err(|e| e.message)?;
        let t1 = Instant::now();
        let q1 = parse_query(&request.q1).map_err(|e| e.to_string())?;
        let q2 = parse_query(&request.q2).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let opts = request.opts.apply(&self.base);
        let canonical = if q1.arity() == q2.arity() {
            canonical_pair(&q1, &q2, &opts)
        } else {
            None
        };
        let t3 = Instant::now();
        // As in flqd: a canonical pair is decided with canonicalization
        // off, so the caches key it structurally.
        let (q1, q2, opts) = match canonical {
            Some((c1, c2)) => (
                c1,
                c2,
                ContainmentOptions {
                    canon: false,
                    ..opts
                },
            ),
            None => (q1, q2, opts),
        };
        let chase = Cell::new(Duration::ZERO);
        let hom = Cell::new(Duration::ZERO);
        let computed = Cell::new(false);
        let result = self
            .decisions
            .contains_with_compute(&q1, &q2, &opts, || {
                computed.set(true);
                let start = Instant::now();
                let snapshot = self
                    .snapshots
                    .get_or_build(&q1, theorem_bound(&q1, &q2), &opts);
                let built = Instant::now();
                let out = snapshot.and_then(|s| s.contains(&q2, &opts));
                chase.set(built - start);
                hom.set(built.elapsed());
                out
            })
            .map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        let answer = api::verdict_json(&result);
        let t5 = Instant::now();
        spans.decode += t1 - t0;
        spans.parse += t2 - t1;
        spans.canon += t3 - t2;
        spans.cache += (t4 - t3).saturating_sub(chase.get() + hom.get());
        spans.chase += chase.get();
        spans.hom += hom.get();
        spans.serialize += t5 - t4;
        spans.requests += 1;
        spans.hits += u64::from(!computed.get());
        Ok(answer)
    }
}

/// Phase two: set-up and then measured requests for `seconds`, through
/// an in-process [`Node`]. Returns the set-up spans, the measured spans
/// and how many answers were wrong.
fn in_process(
    workload: &Workload,
    expected: &[&'static str],
    work: &Path,
    seconds: f64,
) -> Result<(Spans, Spans, u64), String> {
    let dir = work.join("in-process");
    let data_dir = (workload.shape() == Shape::Disk).then_some(dir.as_path());
    // A restart: the RAM tiers start empty, the durable tier is reopened.
    let restart = |node: Node| -> Result<Node, String> {
        node.close()?;
        Node::open(data_dir)
    };
    let mut setup = Spans::default();
    let mut node = Node::open(data_dir)?;
    let answers = workload
        .warm_up()
        .iter()
        .map(|body| node.serve(body, &mut setup))
        .collect::<Result<Vec<_>, _>>()?;
    if workload.shape() == Shape::Disk {
        node = restart(node)?;
    }
    let mut checker = Checker::new(workload, expected, answers);
    let mut spans = Spans::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut r = 0;
    while Instant::now() < deadline {
        if workload.restarts_before(r) {
            node = restart(node)?;
        }
        let (body, truth) = workload.request(r);
        let answer = node.serve(&body, &mut spans)?;
        checker.check(r, truth, &answer);
        r += 1;
    }
    node.close()?;
    let wrong = checker.finish()?;
    Ok((setup, spans, wrong))
}

/// One `--trace 1` run.
pub fn run(workload: &Workload, flqd: &Path, work: &Path, seconds: f64) -> Result<Report, String> {
    let expected = workload.expected()?;
    let half = seconds / 2.0;

    let (mut live, answers) = e2e::set_up(workload, flqd, &work.join("wire"))?;
    let mut checker = Checker::new(workload, &expected, answers);
    let mut wire = e2e::Measured::default();
    e2e::measure(workload, &mut live, &mut checker, flqd, half, &mut wire)?;
    live.stop()?;
    let wire_wrong = checker.finish()?;
    if wire.latencies.is_empty() {
        return Err("no request got a decision".into());
    }
    let wire_mean = micros(wire.latencies.iter().sum()) / wire.latencies.len() as f64;

    let (setup, spans, in_process_wrong) = in_process(workload, &expected, work, half)?;
    let per_request = |d: Duration| micros(d) / spans.requests as f64;
    let misses = (setup.requests - setup.hits) + (spans.requests - spans.hits);
    let per_miss = |d: Duration| micros(d) / misses as f64;
    let path = per_request(spans.path());
    Ok(Report {
        correct: wire.failed == 0 && wire_wrong == 0 && in_process_wrong == 0,
        attempted: wire.attempted + spans.requests,
        failed: wire.failed,
        metrics: vec![
            ("decode_us", per_request(spans.decode), "us"),
            ("parse_us", per_request(spans.parse), "us"),
            ("canon_us", per_request(spans.canon), "us"),
            ("cache_us", per_request(spans.cache), "us"),
            ("chase_us", per_miss(setup.chase + spans.chase), "us"),
            ("hom_us", per_miss(setup.hom + spans.hom), "us"),
            ("serialize_us", per_request(spans.serialize), "us"),
            ("path_us", path, "us"),
            ("shell_us", wire_mean - path, "us"),
            (
                "decision_hit_pct",
                100.0 * spans.hits as f64 / spans.requests as f64,
                "%",
            ),
        ],
    })
}
