//! The `flqd` server process, and a minimal keep-alive HTTP/1.1 client.
//!
//! The client is written against the wire format, not against the
//! server's own HTTP code, so the benchmark reaches `flqd` the way any
//! client does, and a change to the server's framing code cannot also
//! change how its latency is measured.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running `flqd` process. Dropping it kills the process, if it still
/// runs, and reaps it.
pub struct Flqd {
    child: Child,
    /// Kept open for the life of the process, so it never writes into a
    /// closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Flqd {
    /// Starts `flqd` on an ephemeral loopback port, with its durable tier
    /// in `data_dir` when given, and returns once it reports the address
    /// it listens on.
    pub fn start(bin: &Path, data_dir: Option<&Path>) -> Result<Flqd, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .strip_prefix("flqd listening on ")
                .map(str::to_string)
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("flqd reported no listen address (said {line:?})"));
        };
        Ok(Flqd {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The `HOST:PORT` the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the server as an operator does — SIGTERM, so it drains and
    /// flushes its durable tier — and waits until it has exited.
    pub fn stop(&mut self) -> Result<(), String> {
        if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
            return Err(format!("flqd had exited already ({status})"));
        }
        let pid = self.child.id().to_string();
        let signalled = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(|e| format!("cannot run kill: {e}"))?;
        if !signalled.success() {
            return Err(format!("kill -TERM {pid} failed ({signalled})"));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("flqd exited with {status} after SIGTERM"))
        }
    }
}

impl Drop for Flqd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One kept-alive connection to `flqd`.
pub struct Client {
    stream: TcpStream,
    /// Bytes received but not yet consumed.
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr`, with Nagle's algorithm off as the server has it,
    /// and the socket nonblocking for [`Client::read_response`] to poll.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("cannot configure the connection to {addr}: {e}"))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(16 << 10),
        })
    }

    /// Sends `POST path` with a JSON `body`; returns the answer's status
    /// and body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut request = Vec::with_capacity(body.len() + 128);
        write!(
            request,
            "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        )?;
        request.extend_from_slice(body.as_bytes());
        self.stream.write_all(&request)?;
        self.read_response()
    }

    /// Reads one `content-length`-framed response, polling the socket
    /// rather than sleeping on it: a client that blocks adds the time its
    /// own thread takes to wake up, which on a virtual machine swings by
    /// tens of microseconds from one second to the next and is no part of
    /// `flqd`. A server that never answers is left to `run.py`'s timeout.
    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut chunk = [0u8; 16 << 10];
        loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end])
                    .map_err(|_| bad("response head is not UTF-8"))?;
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("bad status line"))?;
                let length: usize = head
                    .lines()
                    .find_map(|line| {
                        let (name, value) = line.split_once(':')?;
                        if name.trim().eq_ignore_ascii_case("content-length") {
                            value.trim().parse().ok()
                        } else {
                            None
                        }
                    })
                    .ok_or_else(|| bad("response has no content-length"))?;
                let total = end + 4 + length;
                if self.buf.len() >= total {
                    let body = String::from_utf8(self.buf[end + 4..total].to_vec())
                        .map_err(|_| bad("response body is not UTF-8"))?;
                    self.buf.drain(..total);
                    return Ok((status, body));
                }
            }
            let n = match self.stream.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::hint::spin_loop();
                    continue;
                }
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
