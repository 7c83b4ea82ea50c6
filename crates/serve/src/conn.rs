//! Per-connection state machines for the reactor.
//!
//! Each accepted socket becomes a [`Conn`]: a nonblocking stream plus a
//! read buffer the incremental parser consumes, an ordered pipeline of
//! response slots, and a write buffer that survives partial writes.
//! The reactor drives every transition; nothing here blocks or spawns.
//!
//! The pipeline is the part worth reading twice. HTTP/1.1 requires
//! responses in request order, but the worker pool completes decisions
//! in *any* order — so each parsed request claims the next sequence
//! number and a `Slot` in a queue. Completions fill their slot by
//! sequence number; only the contiguous ready prefix is serialized into
//! the write buffer. A fast second answer sits in its slot until the
//! slow first one lands, and ordering holds under any interleaving.
//!
//! Flow control is structural: a connection stops being read (the
//! reactor drops its read interest) while it has [`MAX_PIPELINE`]
//! requests in flight or [`MAX_WRITE_BUF`] unsent bytes — a client
//! pipelining faster than it drains responses is throttled by TCP
//! backpressure instead of ballooning server memory.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Instant;

use crate::http::{self, Parse, Request, Response};
use crate::obs::ReqMeta;

/// Cap on in-flight (parsed, not yet fully written) requests per
/// connection; beyond it the reactor pauses reading, it never rejects.
pub const MAX_PIPELINE: usize = 128;

/// Cap on buffered unsent response bytes before reading pauses.
pub const MAX_WRITE_BUF: usize = 1 << 20;

/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// One pipelined response slot, keyed by arrival order.
enum Slot {
    /// Dispatched to the worker pool; response pending.
    InFlight,
    /// Response ready, not yet serialized (it is not at the head yet,
    /// or the head was not flushed in this reactor turn), plus the
    /// request's observability record. Boxed: the pair is ~400 bytes
    /// and most live slots are `InFlight`.
    Ready(Box<(Response, ReqMeta)>),
}

/// What a connection wants from the poller right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wants {
    /// Keep reading request bytes.
    pub read: bool,
    /// Flush buffered response bytes.
    pub write: bool,
}

/// The outcome of a reactor turn over one connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Turn {
    /// Keep the connection registered.
    Keep,
    /// Close and drop the connection now.
    Close,
}

/// One client connection owned by the reactor.
pub struct Conn {
    stream: TcpStream,
    /// The poller token this connection is registered under.
    token: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Pipeline slots; `slots[i]` answers sequence `base_seq + i`.
    slots: VecDeque<Slot>,
    /// Sequence number of `slots[0]`.
    base_seq: u64,
    /// Next sequence number to hand out.
    next_seq: u64,
    /// Peer shut down its write side (EOF seen); serve what is
    /// buffered, accept no more.
    peer_eof: bool,
    /// Stop parsing further requests and close once the pipeline
    /// drains (a `Connection: close` request, a refused request, or a
    /// server-initiated drain).
    closing: bool,
    /// A refusal was answered mid-stream: keep reading and *discarding*
    /// the peer's in-flight bytes instead of dropping the socket.
    /// Closing with unread data in the receive buffer makes the kernel
    /// send RST instead of FIN, which destroys the refusal response
    /// before the client can read it.
    discarding: bool,
    /// The write half was shut down after the refusal flushed (the
    /// lingering-close FIN); the full close waits for peer EOF.
    write_shut: bool,
    /// Instant of the last byte in or out, for idle keep-alive sweeps.
    pub last_activity: Instant,
    /// Cumulative response bytes ever queued into `write_buf`.
    queued_total: u64,
    /// Cumulative response bytes ever written to the socket.
    flushed_total: u64,
    /// Observability records of serialized responses, keyed by the
    /// `queued_total` offset at which their last byte sits; a record is
    /// finished once `flushed_total` reaches that offset.
    pending_finish: VecDeque<(u64, ReqMeta)>,
}

/// A request parsed off a connection, tagged with the sequence number
/// its response slot answers.
pub struct Incoming {
    /// Sequence to complete with [`Conn::complete`].
    pub seq: u64,
    /// The parsed request.
    pub request: Request,
    /// The request's observability record (span begun, parse stage
    /// marked, `bytes_in` filled).
    pub meta: ReqMeta,
}

impl Conn {
    /// Wraps an accepted stream (the caller has set it nonblocking).
    pub fn new(stream: TcpStream, token: u64, now: Instant) -> Conn {
        Conn {
            stream,
            token,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            peer_eof: false,
            closing: false,
            discarding: false,
            write_shut: false,
            last_activity: now,
            queued_total: 0,
            flushed_total: 0,
            pending_finish: VecDeque::new(),
        }
    }

    /// The underlying stream (for fd registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The poller token this connection answers to.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// True while any request is parsed-but-unanswered or any response
    /// byte is unsent — the work that graceful drain must finish.
    pub fn has_pending_work(&self) -> bool {
        !self.slots.is_empty() || !self.write_buf.is_empty()
    }

    /// Marks the connection for close-after-drain: already-parsed
    /// requests will be answered, nothing further is read.
    pub fn begin_close(&mut self) {
        self.closing = true;
    }

    /// The poller interest implied by the current state.
    pub fn wants(&self) -> Wants {
        let throttled = self.slots.len() >= MAX_PIPELINE || self.write_buf.len() >= MAX_WRITE_BUF;
        Wants {
            read: !self.peer_eof && !throttled && (!self.closing || self.discarding),
            write: !self.write_buf.is_empty(),
        }
    }

    /// Reads whatever the socket has, parses as many complete requests
    /// as the bytes hold, and appends them to `out`. Refused prefixes
    /// (malformed, oversized) are answered inline and mark the
    /// connection closing. Returns [`Turn::Close`] on a dead socket.
    pub fn fill(&mut self, out: &mut Vec<Incoming>, max_body_bytes: usize, now: Instant) -> Turn {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if (self.closing && !self.discarding) || self.slots.len() >= MAX_PIPELINE {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(_) if self.discarding => {
                    // Lingering after a refusal: drain the peer's bytes
                    // into the void until it sees our response and
                    // closes. Nothing here is parseable — the stream
                    // lost sync at the refusal.
                    self.last_activity = now;
                }
                Ok(n) => {
                    self.last_activity = now;
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    if self.parse_available(out, max_body_bytes) == Turn::Close {
                        return Turn::Close;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Turn::Close,
            }
        }
        if self.peer_eof && !self.has_pending_work() {
            return Turn::Close;
        }
        Turn::Keep
    }

    /// Parses every complete request currently buffered. Each complete
    /// request begins its observability span here: the `parse` stage is
    /// the duration of its (final, successful) parse attempt.
    fn parse_available(&mut self, out: &mut Vec<Incoming>, max_body_bytes: usize) -> Turn {
        let mut consumed_total = 0usize;
        while !self.closing && self.slots.len() < MAX_PIPELINE {
            let parse_start = Instant::now();
            match http::parse_request(&self.read_buf[consumed_total..], max_body_bytes) {
                Parse::NeedMore => break,
                Parse::Complete { request, consumed } => {
                    consumed_total += consumed;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    if request.close {
                        // Answer this one, then close: later pipelined
                        // bytes (if any) are ignored per the client's
                        // own `Connection: close`.
                        self.closing = true;
                    }
                    self.slots.push_back(Slot::InFlight);
                    let mut meta = ReqMeta::begin_at(parse_start);
                    meta.span.mark("parse");
                    meta.bytes_in = consumed as u64;
                    out.push(Incoming { seq, request, meta });
                }
                Parse::Refused(e) => {
                    // Answer the refusal in-order through a slot, then
                    // close — the stream cannot be resynchronized.
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.slots.push_back(Slot::InFlight);
                    self.closing = true;
                    self.discarding = true;
                    let mut meta = ReqMeta::begin_at(parse_start);
                    meta.span.mark("parse");
                    let resp = crate::api::ApiError {
                        status: e.status,
                        code: e.code,
                        message: e.message,
                    }
                    .to_response();
                    self.complete(seq, resp, meta);
                    break;
                }
            }
        }
        if self.discarding {
            // Whatever followed the refused prefix is junk.
            self.read_buf.clear();
        } else if consumed_total > 0 {
            self.read_buf.drain(..consumed_total);
        }
        Turn::Keep
    }

    /// Delivers the response for sequence `seq` into its slot, with the
    /// request's observability record, then serializes the contiguous
    /// ready prefix into the write buffer. The record is finished (write
    /// stage marked, handed to [`take_finished`](Conn::take_finished))
    /// once the response's last byte is flushed to the socket.
    /// Out-of-range sequences (a slot dropped by a racing close) are
    /// ignored.
    pub fn complete(&mut self, seq: u64, response: Response, meta: ReqMeta) {
        let Some(idx) = seq.checked_sub(self.base_seq) else {
            return;
        };
        let Ok(idx) = usize::try_from(idx) else {
            return;
        };
        if idx >= self.slots.len() {
            return;
        }
        self.slots[idx] = Slot::Ready(Box::new((response, meta)));
        self.serialize_ready();
    }

    /// Moves the contiguous ready prefix of the pipeline into the write
    /// buffer, in order.
    fn serialize_ready(&mut self) {
        while let Some(Slot::Ready(..)) = self.slots.front() {
            let Some(Slot::Ready(slot)) = self.slots.pop_front() else {
                unreachable!("front() said Ready");
            };
            let (resp, mut meta) = *slot;
            self.base_seq += 1;
            // `connection: close` on the last response of a closing
            // pipeline tells the client not to wait for more.
            let close = self.closing && self.slots.is_empty();
            let before = self.write_buf.len();
            http::encode_response(&mut self.write_buf, &resp, close);
            let added = (self.write_buf.len() - before) as u64;
            self.queued_total += added;
            meta.status = resp.status;
            if meta.cause.is_none() {
                meta.cause = resp.cause;
            }
            meta.bytes_out = added;
            self.pending_finish.push_back((self.queued_total, meta));
        }
    }

    /// Drains the observability records of responses whose last byte
    /// has reached the socket, closing their `write` stage at `now`.
    /// Called by the reactor after [`flush`](Conn::flush).
    pub fn take_finished(&mut self, now: Instant, out: &mut Vec<ReqMeta>) {
        while let Some((end, _)) = self.pending_finish.front() {
            if *end > self.flushed_total {
                break;
            }
            let (_, mut meta) = self
                .pending_finish
                .pop_front()
                .expect("front() said present");
            meta.span.mark_at("write", now);
            out.push(meta);
        }
    }

    /// Writes buffered response bytes until the socket blocks or the
    /// buffer empties. Returns [`Turn::Close`] when the connection is
    /// done (close requested and everything flushed) or dead.
    pub fn flush(&mut self, now: Instant) -> Turn {
        while !self.write_buf.is_empty() {
            match self.stream.write(&self.write_buf) {
                Ok(0) => return Turn::Close,
                Ok(n) => {
                    self.last_activity = now;
                    self.flushed_total += n as u64;
                    self.write_buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Turn::Close,
            }
        }
        let finished = self.closing && self.slots.is_empty() && self.write_buf.is_empty();
        let dead_idle = self.peer_eof && !self.has_pending_work();
        if dead_idle || (finished && !self.discarding) {
            return Turn::Close;
        }
        if finished && !self.write_shut {
            // Lingering close after a refusal: announce our end with a
            // clean FIN but keep the socket alive, draining input,
            // until the peer reads the refusal and closes (or the idle
            // sweep gives up on it). A full close here would RST over
            // the peer's unread in-flight bytes.
            let _ = self.stream.shutdown(Shutdown::Write);
            self.write_shut = true;
        }
        Turn::Keep
    }

    /// True when the connection is idle (no pending work) and its last
    /// activity predates `cutoff` — the keep-alive sweep predicate.
    pub fn idle_since(&self, cutoff: Instant) -> bool {
        !self.has_pending_work() && self.last_activity < cutoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A loopback pair with the server side wrapped in a `Conn`.
    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, Conn::new(server, 2, Instant::now()))
    }

    fn ok_response(tag: &str) -> Response {
        Response::text(200, format!("resp-{tag}"))
    }

    #[test]
    fn pipelined_requests_come_back_in_order_regardless_of_completion_order() {
        let (mut client, mut conn) = pair();
        client
            .write_all(
                b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
        let mut incoming = Vec::new();
        assert_eq!(conn.fill(&mut incoming, 1024, Instant::now()), Turn::Keep);
        assert_eq!(incoming.len(), 3);
        assert_eq!(incoming[0].request.path, "/a");
        assert_eq!(incoming[2].request.path, "/c");
        assert!(conn.has_pending_work());

        // Complete out of order: c, a, b. Nothing serializes until the
        // head (a) lands; then a alone; then b and c together.
        let c = incoming.pop().unwrap();
        conn.complete(c.seq, ok_response("c"), c.meta);
        assert!(conn.write_buf.is_empty());
        let a = incoming.remove(0);
        conn.complete(a.seq, ok_response("a"), a.meta);
        let after_a = String::from_utf8(conn.write_buf.clone()).unwrap();
        assert!(after_a.contains("resp-a") && !after_a.contains("resp-c"));
        let b = incoming.pop().unwrap();
        conn.complete(b.seq, ok_response("b"), b.meta);
        let all = String::from_utf8(conn.write_buf.clone()).unwrap();
        let (pa, pb, pc) = (
            all.find("resp-a").unwrap(),
            all.find("resp-b").unwrap(),
            all.find("resp-c").unwrap(),
        );
        assert!(pa < pb && pb < pc, "{all}");
        // The close-marked last response carries connection: close.
        assert_eq!(all.matches("connection: close").count(), 1, "{all}");
        // Flushing everything finishes the closing connection.
        assert_eq!(conn.flush(Instant::now()), Turn::Close);
    }

    #[test]
    fn malformed_prefix_is_answered_then_lingers_until_peer_eof() {
        let (mut client, mut conn) = pair();
        client.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut incoming = Vec::new();
        conn.fill(&mut incoming, 1024, Instant::now());
        assert!(incoming.is_empty(), "refusals never reach the workers");
        let body = String::from_utf8(conn.write_buf.clone()).unwrap();
        assert!(body.starts_with("HTTP/1.1 400 "), "{body}");
        // The refusal flushes, but the connection lingers (FIN sent,
        // input drained) instead of closing over unread peer bytes.
        assert_eq!(conn.flush(Instant::now()), Turn::Keep);
        assert!(conn.wants().read, "linger keeps draining input");
        // The peer reads the refusal, sees EOF, and closes; only then
        // does the connection finish.
        let mut refusal = String::new();
        client.read_to_string(&mut refusal).unwrap();
        assert!(refusal.starts_with("HTTP/1.1 400 "), "{refusal}");
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(conn.fill(&mut incoming, 1024, Instant::now()), Turn::Close);
    }

    #[test]
    fn pipeline_throttle_pauses_reading() {
        let (mut client, mut conn) = pair();
        let mut burst = Vec::new();
        for _ in 0..MAX_PIPELINE + 8 {
            burst.extend_from_slice(b"GET /m HTTP/1.1\r\n\r\n");
        }
        client.write_all(&burst).unwrap();
        let mut incoming = Vec::new();
        // Give the loopback a moment to make all bytes readable.
        std::thread::sleep(std::time::Duration::from_millis(50));
        conn.fill(&mut incoming, 1024, Instant::now());
        assert!(incoming.len() <= MAX_PIPELINE, "{}", incoming.len());
        assert!(!conn.wants().read, "reading pauses at the pipeline cap");
        // Draining the pipeline resumes reading.
        for inc in incoming.drain(..) {
            conn.complete(inc.seq, ok_response("x"), inc.meta);
        }
        conn.flush(Instant::now());
        assert!(conn.wants().read);
    }

    #[test]
    fn eof_with_no_pending_work_closes() {
        let (client, mut conn) = pair();
        drop(client);
        let mut incoming = Vec::new();
        assert_eq!(conn.fill(&mut incoming, 1024, Instant::now()), Turn::Close);
    }
}
