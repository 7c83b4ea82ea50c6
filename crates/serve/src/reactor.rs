//! The event-driven reactor: one epoll loop owning every socket, a
//! bounded worker pool owning every chase.
//!
//! The pre-reactor server spent ~1 ms of every warm request on
//! transport — a blocking accept, a thread handoff, a connection
//! teardown — while the decision itself cost ~71 µs (E11). This module
//! inverts the shape: a single thread multiplexes all connections with
//! level-triggered `epoll`, connections stay open across requests
//! (keep-alive and pipelining are the normal case, not an option), and
//! the worker pool is reserved for the only work that deserves a
//! thread: deciding containment.
//!
//! One reactor turn:
//!
//! 1. `epoll_wait` (bounded timeout, so SIGTERM and idle sweeps are
//!    never starved).
//! 2. Drain worker **completions** (handed back via an `eventfd`
//!    wakeup), fill each response into its connection's pipeline slot,
//!    serialize the in-order prefix.
//! 3. Handle socket events: accept new connections; read + parse
//!    ready connections (each complete request is **dispatched** to the
//!    worker queue, or answered `503 Retry-After` on the spot when the
//!    queue is at `--queue-cap`); flush writable connections, resuming
//!    partial writes where they stopped.
//! 4. Re-register interest where it changed, sweep idle keep-alive
//!    connections, and — when draining — close what has finished.
//!
//! Graceful drain mirrors the blocking server's contract: on
//! SIGTERM/SIGINT (or [`ServerHandle::shutdown`]) the listener is
//! deregistered, idle connections close immediately, connections with
//! parsed-but-unanswered requests are served to completion (pipelined
//! tails included), workers finish the queued decisions, and `run`
//! returns `Ok`.
//!
//! [`ServerHandle::shutdown`]: crate::ServerHandle

use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::api::ApiError;
use crate::conn::{Conn, Incoming, Turn, Wants};
use crate::http::{Request, Response};
use crate::obs::ReqMeta;
use crate::poll::{Event, Interest, Poller};
use crate::server::{route, Shared};

/// Token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Token of the completion-wakeup eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Upper bound on one `epoll_wait`, so shutdown flags and idle sweeps
/// are observed promptly even on a silent server.
const MAX_WAIT_MS: i32 = 100;

/// A decision dispatched to the worker pool.
pub(crate) struct Job {
    token: u64,
    seq: u64,
    request: Request,
    /// The request's observability record; the worker marks the queue
    /// and handler stages on it.
    meta: ReqMeta,
}

/// A finished decision on its way back to the reactor.
pub(crate) struct Completion {
    token: u64,
    seq: u64,
    response: Response,
    meta: ReqMeta,
}

/// A connection plus the interest it is currently registered under.
struct Registered {
    conn: Conn,
    interest: Wants,
}

/// Runs the reactor until drain completes. This is `Server::run`.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(shared.waker.fd(), TOKEN_WAKER, Interest::READ)?;

    let workers: Vec<_> = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("flqd-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let mut conns: HashMap<u64, Registered> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events: Vec<Event> = Vec::new();
    let mut incoming: Vec<Incoming> = Vec::new();
    let mut finished: Vec<ReqMeta> = Vec::new();
    let mut accepting = true;
    let mut last_sweep = Instant::now();
    let idle_timeout = Duration::from_millis(shared.config.read_timeout_ms);

    loop {
        let draining = shared.draining();
        if draining && accepting {
            // Stop accepting; serve out what is already here.
            let _ = poller.deregister(listener.as_raw_fd());
            accepting = false;
            close_or_mark_draining(&poller, &mut conns, &shared);
        }
        if draining && conns.is_empty() {
            break;
        }

        poller.wait(&mut events, MAX_WAIT_MS)?;
        let now = Instant::now();

        // Completions first: they free pipeline slots and queue bytes
        // that this turn's socket events may immediately extend.
        let done: Vec<Completion> = {
            let mut guard = shared.completions.lock().expect("completions poisoned");
            std::mem::take(&mut *guard)
        };
        let mut touched: Vec<u64> = Vec::new();
        for c in done {
            if let Some(reg) = conns.get_mut(&c.token) {
                reg.conn.complete(c.seq, c.response, c.meta);
                touched.push(c.token);
            }
        }

        // Move the events out so `conns` can be borrowed mutably while
        // iterating; the buffer is handed back (capacity intact) below.
        let drained_events = std::mem::take(&mut events);
        for ev in &drained_events {
            match ev.token {
                TOKEN_WAKER => shared.waker.drain(),
                TOKEN_LISTENER => {
                    if accepting {
                        accept_ready(
                            &listener,
                            &poller,
                            &mut conns,
                            &mut next_token,
                            &shared,
                            now,
                        );
                    }
                }
                token => {
                    let Some(reg) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut close = ev.hangup && !reg.conn.has_pending_work();
                    if !close && ev.readable {
                        incoming.clear();
                        if reg
                            .conn
                            .fill(&mut incoming, shared.config.max_body_bytes, now)
                            == Turn::Close
                        {
                            close = true;
                        } else {
                            for inc in incoming.drain(..) {
                                dispatch(&shared, &mut reg.conn, inc, draining);
                            }
                        }
                    }
                    if close {
                        remove_conn(&poller, &mut conns, token, &shared);
                    } else {
                        touched.push(token);
                    }
                }
            }
        }
        events = drained_events;
        events.clear();

        // Flush and re-register every connection something happened to.
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            let Some(reg) = conns.get_mut(&token) else {
                continue;
            };
            if reg.conn.flush(now) == Turn::Close {
                reg.conn.take_finished(now, &mut finished);
                remove_conn(&poller, &mut conns, token, &shared);
                continue;
            }
            reg.conn.take_finished(now, &mut finished);
            let wants = reg.conn.wants();
            if wants != reg.interest {
                let interest = Interest {
                    readable: wants.read,
                    writable: wants.write,
                };
                let _ = poller.reregister(reg.conn.stream().as_raw_fd(), token, interest);
                reg.interest = wants;
            }
        }

        // Fold fully-written requests into the histograms / access log.
        for meta in finished.drain(..) {
            shared.obs.record(&meta);
        }

        // Idle keep-alive sweep (and, during drain, a stuck-peer sweep:
        // a client that stops reading its responses cannot hold the
        // process open past the idle timeout).
        if now.duration_since(last_sweep) >= Duration::from_millis(250) {
            last_sweep = now;
            let cutoff = now.checked_sub(idle_timeout).unwrap_or(now);
            let stale: Vec<u64> = conns
                .iter()
                .filter(|(_, reg)| {
                    reg.conn.idle_since(cutoff) || (draining && reg.conn.last_activity < cutoff)
                })
                .map(|(&t, _)| t)
                .collect();
            for token in stale {
                remove_conn(&poller, &mut conns, token, &shared);
            }
        }
    }

    // Workers: queued jobs are already fully enqueued (drain stops new
    // parses before it stops the loop), so they exit once the queue is
    // empty.
    shared.jobs_cv.notify_all();
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

/// Accepts every pending connection on the listener.
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Registered>,
    next_token: &mut u64,
    shared: &Arc<Shared>,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Nagle would add ~40 ms to small pipelined responses.
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                shared.connections_total.fetch_add(1, Ordering::Relaxed);
                shared.obs.open_connections.fetch_add(1, Ordering::Relaxed);
                conns.insert(
                    token,
                    Registered {
                        conn: Conn::new(stream, token, now),
                        interest: Wants {
                            read: true,
                            write: false,
                        },
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Routes one parsed request: to the worker queue, or straight to a
/// `503` when the queue is at capacity (the reactor's backpressure —
/// applied per request, so one answer's worth of work is the most an
/// overloaded server promises).
fn dispatch(shared: &Arc<Shared>, conn: &mut Conn, inc: Incoming, draining: bool) {
    shared.requests_total.fetch_add(1, Ordering::Relaxed);
    let Incoming { seq, request, meta } = inc;
    if draining {
        // Between the drain flag rising and this connection's
        // begin_close, a parsed request may slip through; refuse it
        // rather than racing the worker shutdown.
        shared.rejected_total.fetch_add(1, Ordering::Relaxed);
        conn.complete(seq, ApiError::overloaded().to_response(), meta);
        return;
    }
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    if jobs.len() >= shared.config.queue_depth {
        drop(jobs);
        shared.rejected_total.fetch_add(1, Ordering::Relaxed);
        conn.complete(seq, ApiError::overloaded().to_response(), meta);
        return;
    }
    jobs.push_back(Job {
        token: conn.token(),
        seq,
        request,
        meta,
    });
    let depth = jobs.len() as u64;
    drop(jobs);
    shared.obs.note_queue_depth(depth);
    shared.jobs_cv.notify_one();
}

/// Deregisters and drops one connection.
fn remove_conn(
    poller: &Poller,
    conns: &mut HashMap<u64, Registered>,
    token: u64,
    shared: &Arc<Shared>,
) {
    if let Some(reg) = conns.remove(&token) {
        let _ = poller.deregister(reg.conn.stream().as_raw_fd());
        shared.obs.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// At drain start: close idle connections now, mark the busy ones to
/// close once their pipeline finishes.
fn close_or_mark_draining(
    poller: &Poller,
    conns: &mut HashMap<u64, Registered>,
    shared: &Arc<Shared>,
) {
    let idle: Vec<u64> = conns
        .iter()
        .filter(|(_, reg)| !reg.conn.has_pending_work())
        .map(|(&t, _)| t)
        .collect();
    for token in idle {
        remove_conn(poller, conns, token, shared);
    }
    for reg in conns.values_mut() {
        reg.conn.begin_close();
    }
}

/// One worker: pop decisions until the reactor drains the queue dry and
/// raises the shutdown flag. Panics below a request become a 500 for
/// that request, never a dead worker.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().expect("jobs poisoned");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _timeout) = shared
                    .jobs_cv
                    .wait_timeout(jobs, Duration::from_millis(50))
                    .expect("jobs poisoned");
                jobs = guard;
            }
        };
        let Some(job) = job else { return };
        let Job {
            token,
            seq,
            request,
            mut meta,
        } = job;
        meta.span.mark("queue");
        shared.obs.in_flight_workers.fetch_add(1, Ordering::Relaxed);
        let response = catch_unwind(AssertUnwindSafe(|| route(shared, &request, &mut meta)))
            .unwrap_or_else(|_| ApiError::internal("request handler panicked").to_response());
        shared.obs.in_flight_workers.fetch_sub(1, Ordering::Relaxed);
        // The handler's JSON body is built; what remains is the header
        // encode and the socket write, timed by the reactor.
        meta.span.mark("serialize");
        let mut done = shared.completions.lock().expect("completions poisoned");
        done.push(Completion {
            token,
            seq,
            response,
            meta,
        });
        drop(done);
        shared.waker.wake();
    }
}
