//! The workspace's one HTTP/1.1 server, `std`-only: a non-blocking
//! accept loop (2 ms poll) hands each connection to its own thread, one
//! request per connection, so a slow client holds only its own. Past
//! [`MAX_CONNECTIONS`] the accept loop answers `503` at once. A request
//! not whole within [`REQUEST_DEADLINE`] gets `408` (each read waits only
//! for the time remaining, so trickled bytes cannot restart the clock);
//! one over [`MAX_REQUEST`], declared or sent, gets `413`. Neither
//! reaches the handler.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::json_escape;

/// Connections served at once; one more is answered `503`.
pub const MAX_CONNECTIONS: usize = 32;

/// Time a client has from accept to deliver its whole request; also
/// the response's write timeout and the bound on the lingering close.
pub const REQUEST_DEADLINE: Duration = Duration::from_millis(500);

/// Request size cap: request line, headers and body together.
pub const MAX_REQUEST: usize = 8192;

/// Accept-loop poll interval.
const POLL: Duration = Duration::from_millis(2);

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The target's path, query string stripped.
    pub path: String,
    /// The target's query string without the `?` (empty when absent).
    pub query: String,
    /// The body: exactly the bytes `Content-Length` declared.
    pub body: String,
}

/// One response, framed with `Content-Length` and `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code and reason phrase, e.g. `"404 Not Found"`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The payload.
    pub body: String,
}

impl Response {
    /// An `application/json` response.
    pub fn json(status: &'static str, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// `{"error": message}` with `status`.
    pub fn error(status: &'static str, message: &str) -> Self {
        let body = format!("{{\"error\":\"{}\"}}", json_escape(message));
        Response::json(status, body)
    }

    fn to_bytes(&self) -> Vec<u8> {
        format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            self.content_type,
            self.body.len(),
            self.body,
        )
        .into_bytes()
    }
}

type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// What the server shares with its accept loop and connections.
#[derive(Debug, Default)]
struct Shared {
    stop: AtomicBool,
    accepted: AtomicU64,
    /// Connections being served, one per live [`Slot`].
    active: AtomicUsize,
}

/// A running server: bind with [`HttpServer::bind`], stop with
/// [`HttpServer::shutdown`] or by dropping it.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (`"127.0.0.1:0"` picks an ephemeral port) and
    /// answers every request with `handler`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O failures.
    pub fn bind<H>(addr: &str, handler: H) -> std::io::Result<Self>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let (handler, loop_shared): (Arc<Handler>, _) = (Arc::new(handler), Arc::clone(&shared));
        let accept_thread = thread::spawn(move || accept_loop(&listener, &handler, &loop_shared));
        Ok(HttpServer {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (any outcome, `503`s included).
    pub fn requests(&self) -> u64 {
        self.shared.accepted.load(SeqCst)
    }

    /// Stops accepting, joins the accept loop, and waits for the
    /// connections in flight (each bounded by its deadlines).
    pub fn shutdown(self) {}
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        while self.shared.active.load(SeqCst) > 0 {
            thread::sleep(POLL);
        }
    }
}

/// One connection's place under the cap, given back on drop.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, SeqCst);
    }
}

fn accept_loop(listener: &TcpListener, handler: &Arc<Handler>, shared: &Arc<Shared>) {
    while !shared.stop.load(SeqCst) {
        let Ok((stream, _peer)) = listener.accept() else {
            thread::sleep(POLL);
            continue;
        };
        shared.accepted.fetch_add(1, SeqCst);
        let slot = Slot(Arc::clone(shared));
        if shared.active.fetch_add(1, SeqCst) >= MAX_CONNECTIONS {
            refuse(stream);
            continue;
        }
        let handler = Arc::clone(handler);
        // A failed spawn drops the closure, giving the slot back.
        let _ = thread::Builder::new().spawn(move || {
            let _slot = slot;
            let _ = serve(stream, handler.as_ref());
        });
    }
}

/// Answers `503` without blocking the accept loop: the response fits a
/// fresh socket's send buffer, and one bounded read drains the request
/// bytes already received, so the close is usually a FIN, not a reset.
fn refuse(mut stream: TcpStream) {
    if stream.set_nonblocking(true).is_ok() {
        let _ = stream.write_all(&Response::error("503 Service Unavailable", "busy").to_bytes());
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.read(&mut [0u8; MAX_REQUEST]);
    }
}

/// Reads one request, answers it, closes. Errors only on I/O.
fn serve(mut stream: TcpStream, handler: &Handler) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    let response = read_request(&mut stream, Instant::now() + REQUEST_DEADLINE)
        .map_or_else(|rejection| rejection, |request| handler(&request));
    let deadline = Instant::now() + REQUEST_DEADLINE;
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    stream.write_all(&response.to_bytes())?;
    // Lingering close: wait (until the deadline) for the client's FIN,
    // discarding what it still sends, so unread request bytes cannot
    // turn the close into a reset that destroys the response.
    stream.shutdown(Shutdown::Write)?;
    while let Some(left) = remaining(deadline) {
        stream.set_read_timeout(Some(left))?;
        if stream.read(&mut [0u8; 1024])? == 0 {
            break;
        }
    }
    Ok(())
}

/// Time left before `deadline`; `None` once it has passed.
fn remaining(deadline: Instant) -> Option<Duration> {
    Some(deadline.saturating_duration_since(Instant::now())).filter(|d| !d.is_zero())
}

/// Reads until the headers and the declared body are buffered; `Err`
/// is the response for a request that must not reach the handler.
fn read_request(stream: &mut TcpStream, deadline: Instant) -> Result<Request, Response> {
    let too_large = || Response::error("413 Payload Too Large", "request too large");
    let timed_out = || Response::error("408 Request Timeout", "request incomplete at deadline");
    let (mut buf, mut chunk) = (Vec::with_capacity(512), [0u8; 1024]);
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]);
            let total = content_length(&head)?
                .checked_add(head_end + 4)
                .filter(|&total| total <= MAX_REQUEST)
                .ok_or_else(too_large)?;
            if buf.len() >= total {
                let body = String::from_utf8_lossy(&buf[head_end + 4..total]);
                return parse_head(&head, &body)
                    .ok_or_else(|| Response::error("400 Bad Request", "malformed request"));
            }
        } else if buf.len() >= MAX_REQUEST {
            return Err(too_large());
        }
        let left = remaining(deadline).ok_or_else(timed_out)?;
        stream
            .set_read_timeout(Some(left))
            .map_err(|_| timed_out())?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err(Response::error("400 Bad Request", "request cut short")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(timed_out()),
        }
    }
}

/// The declared body length, 0 when absent. A decimal too large for
/// `usize` reads as `usize::MAX`, which the cap then rejects.
fn content_length(head: &str) -> Result<usize, Response> {
    let value = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim())
    });
    match value {
        Some(v) if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) => {
            Err(Response::error("400 Bad Request", "bad content-length"))
        }
        v => Ok(v.map_or(0, |v| v.parse().unwrap_or(usize::MAX))),
    }
}

/// `"GET /x?a=1 HTTP/1.1\r\n..."` → a [`Request`]; `None` unless the
/// request line has a method and a target.
fn parse_head(head: &str, body: &str) -> Option<Request> {
    let mut parts = head.lines().next()?.split_whitespace();
    let (method, target) = (parts.next()?, parts.next()?);
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::bind("127.0.0.1:0", |req| {
            Response::json(
                "200 OK",
                format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"query\":\"{}\",\"body\":\"{}\"}}",
                    json_escape(&req.method),
                    json_escape(&req.path),
                    json_escape(&req.query),
                    json_escape(&req.body),
                ),
            )
        })
        .unwrap()
    }

    /// Writes `raw` and returns the whole response.
    fn exchange(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn request_line_parsing() {
        let req = parse_head("GET /links?live=1 HTTP/1.1\r\nHost: x", "").unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/links"));
        assert_eq!(req.query, "live=1");
        let req = parse_head("POST /metrics HTTP/1.1", "{}").unwrap();
        assert_eq!((req.path.as_str(), req.query.as_str()), ("/metrics", ""));
        assert_eq!(req.body, "{}");
        assert_eq!(parse_head("", ""), None);
        assert_eq!(parse_head("GET", ""), None);
    }

    #[test]
    fn content_length_parsing_never_overflows() {
        assert_eq!(content_length("POST / HTTP/1.1\r\nHost: x"), Ok(0));
        assert_eq!(
            content_length("POST / HTTP/1.1\r\ncontent-length: 12"),
            Ok(12)
        );
        assert_eq!(
            content_length("POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999"),
            Ok(usize::MAX)
        );
        assert!(content_length("POST / HTTP/1.1\r\nContent-Length: -1").is_err());
        assert!(content_length("POST / HTTP/1.1\r\nContent-Length: ").is_err());
    }

    #[test]
    fn serves_the_declared_body_and_frames_the_response() {
        let server = echo_server();
        let response = exchange(
            server.local_addr(),
            b"POST /x?a=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
        );
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: application/json\r\n"));
        assert!(response.contains("Connection: close\r\n"));
        assert!(
            response.ends_with(
                "{\"method\":\"POST\",\"path\":\"/x\",\"query\":\"a=1\",\"body\":\"body\"}"
            ),
            "{response}"
        );
        assert_eq!(server.requests(), 1);
        server.shutdown();
    }

    #[test]
    fn oversized_and_truncated_requests_never_reach_the_handler() {
        let server = echo_server();
        let addr = server.local_addr();
        let huge = exchange(
            addr,
            b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n{}",
        );
        assert!(huge.starts_with("HTTP/1.1 413"), "{huge}");
        let long_head = exchange(addr, &[b'a'; MAX_REQUEST + 10]);
        assert!(long_head.starts_with("HTTP/1.1 413"), "{long_head}");
        let cut = exchange(addr, b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}");
        assert!(cut.starts_with("HTTP/1.1 408"), "{cut}");
        let garbage = exchange(addr, b"\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
        // The server is still up.
        assert!(exchange(addr, b"GET / HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 200"));
        server.shutdown();
    }

    #[test]
    fn the_deadline_bounds_the_whole_request_not_each_read() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut slow = stream.try_clone().unwrap();
        let t = Instant::now();
        let slow_client = thread::spawn(move || {
            for b in b"GET / HTTP/1.1\r\nHost: slow" {
                if slow.write_all(&[*b]).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(100));
            }
        });
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let took = t.elapsed();
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        assert!(took < Duration::from_secs(1), "408 after {took:?}");
        server.shutdown();
        slow_client.join().expect("slow client thread");
    }

    #[test]
    fn a_full_server_answers_503_at_once_and_recovers() {
        let server = echo_server();
        let addr = server.local_addr();
        let stalled: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let until = Instant::now() + Duration::from_secs(5);
        while server.requests() < MAX_CONNECTIONS as u64 {
            assert!(Instant::now() < until, "stalled clients never accepted");
            thread::sleep(Duration::from_millis(1));
        }

        let t = Instant::now();
        let busy = exchange(addr, b"GET / HTTP/1.1\r\n\r\n");
        let took = t.elapsed();
        assert!(busy.starts_with("HTTP/1.1 503"), "{busy}");
        assert!(took < Duration::from_millis(100), "503 took {took:?}");

        drop(stalled);
        let until = Instant::now() + Duration::from_secs(5);
        loop {
            let response = exchange(addr, b"GET / HTTP/1.1\r\n\r\n");
            if response.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(Instant::now() < until, "never recovered: {response}");
            thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }
}
