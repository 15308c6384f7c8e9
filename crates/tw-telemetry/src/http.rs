//! The one HTTP/1.1 and TCP-server substrate behind every endpoint in the
//! workspace: the `/metrics` scrape server, the push sink, the push
//! exporter, the `fetch_*` clients, and the span-ingest listener.
//!
//! * [`read_request`] — one request-head reader, bounded by [`MAX_HEAD`];
//! * [`respond`] — reads a request, runs a handler, and writes its
//!   [`Response`] (or a 4xx for a malformed or oversized head);
//! * [`request`] — one client call over a fresh `Connection: close`
//!   connection;
//! * [`Server`] — one accept loop that owns the stop flag, wakes the
//!   blocking `accept` on shutdown, and serves the backlog before exiting;
//! * [`backoff`] — the jittered exponential retry delay both exporters use.
//!
//! Messages go out with a single `write_all` and come in through chunked
//! reads, so a response never pays for Nagle's algorithm or a syscall per
//! byte. Std only, like the rest of this crate.

use std::fmt::Display;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on a message head (start line plus headers), in bytes.
pub const MAX_HEAD: usize = 8 * 1024;
/// Socket timeout of [`Server::http`] connections.
const SERVE_TIMEOUT: Duration = Duration::from_secs(2);
/// Connect, read and write timeout of [`request`].
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// A request as [`read_request`] parsed it.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Request target, query string included.
    pub path: String,
    pub body: Vec<u8>,
}

/// A reply written by [`respond`].
#[derive(Debug)]
pub struct Response {
    /// Status code and reason phrase, e.g. `"200 OK"`.
    pub status: &'static str,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: &'static str, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type,
            body: body.into(),
        }
    }

    /// A `text/plain` reply.
    pub fn text(status: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status, "text/plain; charset=utf-8", body)
    }

    /// A `200 OK` JSON reply.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Response::new("200 OK", "application/json; charset=utf-8", body)
    }
}

/// Read one message: the head (at most [`MAX_HEAD`] bytes, else
/// `InvalidData`) and a body of `Content-Length` bytes. Without that
/// header the body is empty, or with `body_to_eof` runs to end of stream.
fn read_message(r: &mut impl Read, body_to_eof: bool) -> std::io::Result<(String, Vec<u8>)> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let end = loop {
        let n = match r.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed inside the message head",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        let found = buf[from..].windows(4).position(|w| w == b"\r\n\r\n");
        match found.map(|i| from + i + 4) {
            Some(end) if end <= MAX_HEAD => break end,
            None if buf.len() <= MAX_HEAD => {}
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("message head exceeds {MAX_HEAD} bytes"),
                ))
            }
        }
    };
    let mut body = buf.split_off(end);
    let head = String::from_utf8_lossy(&buf).into_owned();
    let length = head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        if key.trim().eq_ignore_ascii_case("content-length") {
            value.trim().parse::<u64>().ok()
        } else {
            None
        }
    });
    match length {
        Some(len) => {
            let more = len.saturating_sub(body.len() as u64);
            r.by_ref().take(more).read_to_end(&mut body)?;
            body.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        }
        None if body_to_eof => {
            r.read_to_end(&mut body)?;
        }
        None => body.clear(),
    }
    Ok((head, body))
}

/// Read one request. Errors: `InvalidData` when the head exceeds
/// [`MAX_HEAD`], `InvalidInput` for a request line without a method and a
/// target, `UnexpectedEof` when the peer closes inside the head.
pub fn read_request(r: &mut impl Read) -> std::io::Result<Request> {
    let (head, body) = read_message(r, false)?;
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(path)) => Ok(Request {
            method: method.to_string(),
            path: path.to_string(),
            body,
        }),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "malformed request line",
        )),
    }
}

/// Serve one request on `stream`: read it, answer with `handler`'s
/// response (`Connection: close`). An oversized head gets `431`, a
/// malformed request line `400`; a peer that closes or times out inside
/// the head gets no reply.
pub fn respond<S: Read + Write>(
    stream: &mut S,
    handler: impl FnOnce(&Request) -> Response,
) -> std::io::Result<()> {
    let response = match read_request(stream) {
        Ok(request) => handler(&request),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Response::text(
            "431 Request Header Fields Too Large",
            "request head too large\n",
        ),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
            Response::text("400 Bad Request", "malformed request line\n")
        }
        Err(e) => return Err(e),
    };
    let mut out = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    )
    .into_bytes();
    out.extend_from_slice(&response.body);
    stream.write_all(&out)?;
    stream.flush()
}

/// One client request over a fresh `Connection: close` connection; a
/// non-empty `body` is sent as JSON. Returns the status code and the
/// response body.
pub fn request(
    addr: impl ToSocketAddrs + Display,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotFound, format!("{addr}: no address"))
    })?;
    let mut stream = TcpStream::connect_timeout(&target, CLIENT_TIMEOUT)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let content_type = if body.is_empty() {
        ""
    } else {
        "Content-Type: application/json\r\n"
    };
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{content_type}Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    let (head, body) = read_message(&mut stream, true)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
        })?;
    Ok((status, body))
}

/// Exponential backoff before retry attempt `n + 1` (1-based `n`):
/// `base · 2ⁿ⁻¹` capped at `max`, plus up to +25% jitter hashed from the
/// attempt and the target port with splitmix64 — no RNG state, the same
/// schedule every run, yet desynchronized across targets.
pub fn backoff(base: Duration, max: Duration, n: u32, port: u16) -> Duration {
    let nominal = base
        .saturating_mul(1u32 << n.saturating_sub(1).min(20))
        .min(max);
    let mut z = ((u64::from(n) << 32) | u64::from(port)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    nominal + nominal.mul_f64((z % 256) as f64 / 1024.0)
}

/// A bound TCP listener whose accept loop runs on a background thread
/// until [`shutdown`](Server::shutdown) or drop. Stopping sets the stop
/// flag, wakes the blocking `accept` with a loopback connection, serves
/// every connection already queued (so every connection made before the
/// stop is served), and joins all handler threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and answer HTTP requests with `handler`, one connection
    /// at a time on the accept thread, under 2 s socket timeouts.
    pub fn http(
        addr: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<Server> {
        Server::spawn(addr, false, move |mut stream| {
            let _ = stream.set_read_timeout(Some(SERVE_TIMEOUT));
            let _ = stream.set_write_timeout(Some(SERVE_TIMEOUT));
            let _ = respond(&mut stream, &handler);
        })
    }

    /// Bind `addr` and hand each raw connection to `handler` on a thread
    /// of its own.
    pub fn threaded(
        addr: &str,
        handler: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Server> {
        Server::spawn(addr, true, handler)
    }

    fn spawn(
        addr: &str,
        threaded: bool,
        handler: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handler = Arc::new(handler);
        let thread = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            let mut serve = |stream: TcpStream| {
                if threaded {
                    let handler = handler.clone();
                    workers.retain(|w| !w.is_finished());
                    workers.push(std::thread::spawn(move || handler(stream)));
                } else {
                    handler(stream);
                }
            };
            for conn in listener.incoming() {
                let stopping = flag.load(Ordering::SeqCst);
                match conn {
                    Ok(stream) => serve(stream),
                    Err(_) if !stopping => std::thread::sleep(Duration::from_millis(10)),
                    Err(_) => {}
                }
                if stopping {
                    // Connections made before the stop may be queued
                    // behind the wake-up one: serve the backlog.
                    let _ = listener.set_nonblocking(true);
                    while let Ok((stream, _)) = listener.accept() {
                        let _ = stream.set_nonblocking(false);
                        serve(stream);
                    }
                    break;
                }
            }
            for worker in workers {
                let _ = worker.join();
            }
        });
        Ok(Server {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, serve the backlog, and join every thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the blocking accept
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> Server {
        Server::http("127.0.0.1:0", |req| match req.path.as_str() {
            "/echo" => Response::text("200 OK", [req.method.as_bytes(), &req.body].concat()),
            _ => Response::text("404 Not Found", "not found\n"),
        })
        .unwrap()
    }

    #[test]
    fn client_and_server_round_trip() {
        let server = echo_server();
        let addr = server.local_addr();
        let (status, body) = request(addr, "POST", "/echo", b"{\"k\":1}").unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"POST{\"k\":1}"[..]));
        let (status, body) = request(addr.to_string().as_str(), "GET", "/nope", &[]).unwrap();
        assert_eq!((status, body.as_slice()), (404, &b"not found\n"[..]));
        server.shutdown();
        assert!(request(addr, "GET", "/echo", &[]).is_err(), "stopped");
    }

    #[test]
    fn oversized_head_gets_431_over_a_socket() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Exactly one byte past the bound and no terminator: the server
        // consumes all of it, so the reply is not lost to a reset.
        stream.write_all(&vec![b'a'; MAX_HEAD + 1]).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 431 "), "{reply}");
    }

    #[test]
    fn shutdown_serves_connections_made_before_it() {
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = std::sync::Mutex::new(tx);
        let server = Server::threaded("127.0.0.1:0", move |mut stream| {
            let mut byte = [0u8; 1];
            if stream.read_exact(&mut byte).is_ok() {
                tx.lock().unwrap().send(byte[0]).unwrap();
            }
        })
        .unwrap();
        let clients: Vec<TcpStream> = (0..8u8)
            .map(|i| {
                let mut stream = TcpStream::connect(server.local_addr()).unwrap();
                stream.write_all(&[i]).unwrap();
                stream
            })
            .collect();
        server.shutdown();
        drop(clients);
        let mut got: Vec<u8> = rx.try_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<u8>>());
    }
}
