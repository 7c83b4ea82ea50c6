//! `flqd` — a resident, batched containment service over the Theorem 12
//! decision engine.
//!
//! The CLI decides one containment per process: every `flq contains`
//! pays the chase of `q1` from scratch. This crate keeps that work
//! *warm*: a long-lived process holds a [`DecisionCache`] of whole
//! verdicts and a byte-capped [`SnapshotCache`] of per-`q1` chases, so a
//! workload that keeps asking about the same queries converges to
//! homomorphism searches (and then to cache hits) instead of repeated
//! chases.
//!
//! The transport is a hand-rolled nonblocking reactor — `epoll` via the
//! same one-scoped-FFI pattern as [`signal`], a single event loop owning
//! every socket, and a bounded worker pool owning every chase (see
//! [`reactor`](crate::conn)) — still dependency-free in the same spirit
//! as `flogic-obs`'s JSONL layer. Connections are kept alive and may
//! pipeline; responses always come back in request order. The
//! interesting contracts stay semantic, not protocol-level:
//!
//! * **Verdict parity.** Warm or cold, every answer is bit-identical to
//!   `flq contains` on the same pair: the snapshot path mirrors
//!   `contains_with`'s decision order exactly, and both caches refuse to
//!   memoize anything budget-dependent.
//! * **Exhaustion is an outcome.** A decision stopped by its budget is
//!   HTTP 200 with `"verdict": "exhausted"` — the server analogue of the
//!   CLI's exit code 3 — never a 5xx.
//! * **Explicit backpressure.** A bounded dispatch queue (`--queue-cap`);
//!   a request arriving while it is full is answered `503` +
//!   `Retry-After` on the spot — the connection stays open, and nothing
//!   queues without bound.
//!
//! * **Observability built in.** Every request carries a stage-timed
//!   span from parse to socket write; per-stage and per-endpoint
//!   latency histograms back `GET /metrics` (Prometheus text
//!   exposition) and `GET /v1/status` (a JSON rollup), and
//!   `--access-log` emits one structured JSONL line per request through
//!   a dedicated logger thread that drops-and-counts rather than block
//!   the reactor (see [`obs`]).
//!
//! Endpoints: `POST /v1/contains`, `POST /v1/contains_batch`,
//! `GET /metrics` (Prometheus), `GET /v1/status`. The per-rule chase
//! profile of one pair is `flq profile q1 q2`, not a server endpoint.
//! See `docs/ARCHITECTURE.md` for the request lifecycle and
//! `docs/CLI.md` for the `flqd` / `flq serve` flags.
//!
//! [`DecisionCache`]: flogic_core::DecisionCache
//! [`SnapshotCache`]: snapshots::SnapshotCache

pub mod api;
pub mod conn;
pub mod http;
pub mod json;
pub mod obs;
pub mod poll;
pub mod signal;
pub mod snapshots;

mod reactor;
mod server;

pub use server::{Server, ServerConfig, ServerHandle, PROMETHEUS_CONTENT_TYPE, SERVE_FLAGS};

/// Runs the server as a foreground process: parse `args`, bind, print
/// the listen address on stdout, install signal handlers, serve until
/// SIGTERM/SIGINT, drain, exit.
///
/// This is the shared implementation of the `flqd` binary and the
/// `flq serve` subcommand. Returns the process exit code: `0` after a
/// clean drain, `1` on bind/serve errors, `2` on flag errors.
pub fn run_cli<I: IntoIterator<Item = String>>(args: I) -> u8 {
    let config = match ServerConfig::from_args(args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: flqd {SERVE_FLAGS}");
            return 2;
        }
    };
    let ready_fd = config.ready_fd;
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return 1;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: cannot read local address: {e}");
            return 1;
        }
    };
    // The fixed prefix lets scripts (and the CI smoke test) discover an
    // ephemeral port: `flqd --addr 127.0.0.1:0` prints the real one.
    println!("flqd listening on {addr}");
    if let Some(fd) = ready_fd {
        // Readiness protocol: the supervisor passed us a pipe; one
        // `HOST:PORT\n` line on it means "bound and about to serve".
        // Closing the fd afterwards lets a blocked `head -n1` return
        // even if the write path is a FIFO.
        if let Err(e) = poll::write_to_raw_fd(fd, format!("{addr}\n").as_bytes()) {
            eprintln!("error: cannot write readiness line to fd {fd}: {e}");
            return 1;
        }
        poll::close_raw_fd(fd);
    }
    signal::install();
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            1
        }
    }
}
