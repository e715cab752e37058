//! The exposition endpoint: live telemetry for scrapers and operators,
//! served by the shared [`HttpServer`].
//!
//! Routes (`GET` only; any other method is `405`):
//!
//! * `GET /metrics` — the observed registry's snapshot in Prometheus
//!   text exposition format 0.0.4 (via
//!   [`prometheus_text`]), plus directory-derived
//!   `tonos_links_*` gauges when a [`LinkDirectory`] is attached —
//!   those sum *live* per-connection counters that won't reach the
//!   fleet registry until session rollup.
//! * `GET /health` — a compact JSON health summary derived from the
//!   registry's [`HealthReport`](tonos_telemetry::HealthReport).
//! * `GET /links` — per-connection [`LinkStatus`](tonos_link::LinkStatus)
//!   JSON, mid-ingest included (empty array without a directory).
//! * `GET /flight` — the attached [`FlightRecorder`]'s ring status.
//!
//! A scrape is a read: the server never mutates the observed registry.
//! An attached recorder is ticked ([`FlightRecorder::maybe_tick`], every
//! 2 ms) by a thread the [`ScopeServer`] owns and joins when it stops,
//! so attaching one is all periodic capture takes and no client stalls it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use tonos_link::LinkDirectory;
use tonos_telemetry::http::{HttpServer, Request, Response};
use tonos_telemetry::{prometheus_text, Registry};

use crate::recorder::FlightRecorder;

/// What the endpoint exposes: a registry (required) plus optional
/// live-link directory and flight recorder.
#[derive(Clone)]
pub struct ScopeSources {
    registry: Registry,
    directory: Option<Arc<LinkDirectory>>,
    recorder: Option<Arc<Mutex<FlightRecorder>>>,
}

impl ScopeSources {
    /// Sources exposing only `registry`.
    pub fn registry(registry: Registry) -> Self {
        ScopeSources {
            registry,
            directory: None,
            recorder: None,
        }
    }

    /// Attaches a link directory: `/links` gains per-connection status
    /// and `/metrics` gains live `tonos_links_*` gauges.
    #[must_use]
    pub fn with_directory(mut self, directory: Arc<LinkDirectory>) -> Self {
        self.directory = Some(directory);
        self
    }

    /// Attaches a flight recorder; the server's tick thread drives it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<Mutex<FlightRecorder>>) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

impl std::fmt::Debug for ScopeSources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopeSources")
            .field("directory", &self.directory.is_some())
            .field("recorder", &self.recorder.is_some())
            .finish_non_exhaustive()
    }
}

/// A running telemetry endpoint; stop it with [`ScopeServer::shutdown`]
/// or by dropping it.
#[derive(Debug)]
pub struct ScopeServer {
    http: HttpServer,
    stop_ticks: Arc<AtomicBool>,
    tick_thread: Option<JoinHandle<()>>,
}

impl ScopeServer {
    /// Binds and starts serving; `"127.0.0.1:0"` picks an ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O failures.
    pub fn bind(addr: &str, sources: ScopeSources) -> std::io::Result<Self> {
        let recorder = sources.recorder.clone();
        let http = HttpServer::bind(addr, move |req| route(req, &sources))?;
        let stop_ticks = Arc::new(AtomicBool::new(false));
        let tick_thread = recorder.map(|recorder| {
            let stop = Arc::clone(&stop_ticks);
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    recorder
                        .lock()
                        .expect("flight recorder lock poisoned")
                        .maybe_tick();
                    thread::sleep(Duration::from_millis(2));
                }
            })
        });
        Ok(ScopeServer {
            http,
            stop_ticks,
            tick_thread,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Requests served so far (any route, errors included).
    pub fn requests(&self) -> u64 {
        self.http.requests()
    }

    /// Stops serving and the recorder ticks, and joins both.
    pub fn shutdown(self) {}
}

impl Drop for ScopeServer {
    fn drop(&mut self) {
        self.stop_ticks.store(true, Ordering::SeqCst);
        if let Some(handle) = self.tick_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Dispatches a request to its payload.
fn route(req: &Request, sources: &ScopeSources) -> Response {
    if req.method != "GET" {
        return Response::error("405 Method Not Allowed", "method not allowed");
    }
    let body = match req.path.as_str() {
        "/metrics" => {
            return Response {
                status: "200 OK",
                content_type: "text/plain; version=0.0.4",
                body: metrics_body(sources),
            }
        }
        "/health" => health_body(sources),
        "/links" => sources
            .directory
            .as_deref()
            .map_or("[]".into(), LinkDirectory::to_json),
        "/flight" => flight_body(sources),
        _ => return Response::error("404 Not Found", "not found"),
    };
    Response::json("200 OK", body)
}

/// The registry exposition, plus live link gauges when a directory is
/// attached.
fn metrics_body(sources: &ScopeSources) -> String {
    let mut body = prometheus_text(&sources.registry.snapshot());
    if let Some(directory) = &sources.directory {
        let agg = directory.aggregate();
        // Gauges, not counters: these are sums over a mutable directory
        // of live sessions, a complement to the rolled-up
        // `tonos_link_*_total` counters above (which lag by design —
        // session registries fold in only at rollup).
        for (name, help, value) in [
            ("live", "Connections currently ingesting", agg.live),
            ("closed", "Connections that have disconnected", agg.closed),
            (
                "frames",
                "CRC-verified frames across all connections",
                agg.frames,
            ),
            (
                "crc_failures",
                "CRC failures across all connections",
                agg.crc_failures,
            ),
            (
                "gap_events",
                "Gap episodes across all connections",
                agg.gap_events,
            ),
            (
                "clean_samples",
                "Clean output samples across all connections",
                agg.clean_samples,
            ),
            (
                "concealed_samples",
                "Concealed or invalid output samples across all connections",
                agg.concealed_samples,
            ),
            (
                "stream_resets",
                "Stream resets across all connections",
                agg.stream_resets,
            ),
            (
                "skipped_samples",
                "Reset-skipped output samples across all connections",
                agg.skipped_samples,
            ),
            ("alarms", "Alarms across all connections", agg.alarms),
            (
                "reordered_frames",
                "Frames healed by the reorder window across all connections",
                agg.reordered_frames,
            ),
            (
                "retransmits_rx",
                "NAK-recovered retransmitted frames accepted across all connections",
                agg.retransmits_rx,
            ),
            (
                "naks_tx",
                "NAK retransmit requests sent to devices across all connections",
                agg.naks_tx,
            ),
            (
                "handshakes_ok",
                "Verified device handshakes across all connections",
                agg.handshakes_ok,
            ),
            (
                "handshakes_rejected",
                "Rejected (forged or malformed) device handshakes across all connections",
                agg.handshakes_rejected,
            ),
            (
                "unauth_frames",
                "Data frames dropped before authentication across all connections",
                agg.unauth_frames,
            ),
        ] {
            body.push_str(&format!(
                "# HELP tonos_links_{name} {help} (live directory sum).\n\
                 # TYPE tonos_links_{name} gauge\n\
                 tonos_links_{name} {value}\n",
            ));
        }
    }
    body
}

/// The `/health` JSON payload.
fn health_body(sources: &ScopeSources) -> String {
    let h = sources.registry.health();
    let (live, closed) = sources.directory.as_ref().map_or((0, 0), |d| {
        let agg = d.aggregate();
        (agg.live, agg.closed)
    });
    format!(
        concat!(
            "{{\"status\":\"ok\",\"uptime_s\":{},\"modulator_steps\":{},",
            "\"frames_in\":{},\"samples_out\":{},\"beats\":{},\"alarms\":{},",
            "\"warning_events\":{},\"critical_events\":{},",
            "\"links_live\":{},\"links_closed\":{}}}"
        ),
        h.uptime.as_secs_f64(),
        h.modulator_steps,
        h.frames_in,
        h.samples_out,
        h.beats,
        h.alarms,
        h.warning_events,
        h.critical_events,
        live,
        closed,
    )
}

/// The `/flight` JSON payload: ring status, not the frames themselves
/// (replay is an in-process API; the endpoint answers "is history being
/// kept, how much, how big").
fn flight_body(sources: &ScopeSources) -> String {
    match &sources.recorder {
        None => "{\"enabled\":false}".to_string(),
        Some(recorder) => {
            let rec = recorder.lock().expect("flight recorder lock poisoned");
            let (from, to) = rec
                .span()
                .map_or((0.0, 0.0), |(a, b)| (a.as_secs_f64(), b.as_secs_f64()));
            format!(
                concat!(
                    "{{\"enabled\":true,\"frames\":{},\"capacity\":{},",
                    "\"interval_s\":{},\"ticks\":{},\"from_s\":{},\"to_s\":{},",
                    "\"series\":{},\"approx_bytes\":{}}}"
                ),
                rec.len(),
                rec.capacity(),
                rec.interval().as_secs_f64(),
                rec.ticks(),
                from,
                to,
                rec.series_names().len(),
                rec.approx_bytes(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to scope server");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header terminator");
        (head.to_string(), body.to_string())
    }

    /// A client that sends a request one byte per 100 ms (30 bytes,
    /// about 3 s) until the server hangs up on it.
    fn trickle(addr: SocketAddr) -> JoinHandle<()> {
        let mut stream = TcpStream::connect(addr).expect("connect to scope server");
        thread::spawn(move || {
            for b in b"GET /health HTTP/1.1\r\nHost: slow".iter().take(30) {
                if stream.write_all(&[*b]).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(100));
            }
        })
    }

    #[test]
    fn serves_metrics_health_links_and_404() {
        let registry = Registry::new();
        registry.telemetry().counter("scope.test").add(9);
        let server =
            ScopeServer::bind("127.0.0.1:0", ScopeSources::registry(registry.clone())).unwrap();
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("tonos_uptime_seconds"));
        assert!(body.contains("tonos_scope_test_total 9"));

        let (head, body) = http_get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.starts_with("{\"status\":\"ok\""));
        assert!(body.contains("\"links_live\":0"));

        let (head, body) = http_get(addr, "/links");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "[]");

        let (head, body) = http_get(addr, "/flight");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "{\"enabled\":false}");

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        assert_eq!(server.requests(), 5);
        server.shutdown();
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        let server =
            ScopeServer::bind("127.0.0.1:0", ScopeSources::registry(Registry::new())).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "got: {response}");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "got: {response}");
        server.shutdown();
    }

    #[test]
    fn a_trickling_client_does_not_stall_other_requests() {
        let server =
            ScopeServer::bind("127.0.0.1:0", ScopeSources::registry(Registry::new())).unwrap();
        let addr = server.local_addr();
        let slow_client = trickle(addr);
        while server.requests() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let t = Instant::now();
        let (head, _) = http_get(addr, "/health");
        let took = t.elapsed();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
        assert!(took < Duration::from_millis(100), "/health took {took:?}");
        server.shutdown();
        slow_client.join().expect("slow client thread");
    }

    #[test]
    fn recorder_ticks_while_a_client_trickles() {
        let registry = Registry::new(); // real clock: ticks are time-driven
        let recorder = Arc::new(Mutex::new(FlightRecorder::new(
            registry.clone(),
            crate::recorder::RecorderConfig {
                interval: Duration::from_millis(5),
                retention: Duration::from_secs(1),
            },
        )));
        let server = ScopeServer::bind(
            "127.0.0.1:0",
            ScopeSources::registry(registry).with_recorder(Arc::clone(&recorder)),
        )
        .unwrap();
        let slow_client = trickle(server.local_addr());
        while server.requests() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let start = recorder.lock().unwrap().ticks();
        // Well inside the slow client's request deadline, so the ticks
        // below all land while it holds its connection.
        let deadline = Instant::now() + Duration::from_millis(300);
        loop {
            let ticks = recorder.lock().unwrap().ticks() - start;
            if ticks >= 3 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "recorder stalled behind the slow client (got {ticks} ticks)"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let (_, body) = http_get(server.local_addr(), "/flight");
        assert!(body.starts_with("{\"enabled\":true"), "body: {body}");
        assert!(body.contains("\"capacity\":200"));
        server.shutdown();
        slow_client.join().expect("slow client thread");
    }
}
