//! The measurement-session HTTP API: the lifecycle endpoints a
//! frontend polls, as routes on the shared [`HttpServer`], so a slow
//! client never delays another's poll and a request cut short never
//! routes.
//!
//! Routes:
//!
//! * `POST /sessions/prepare` — body `{"device": N}`; allocates a
//!   session, returns `{"id": ...}`.
//! * `POST /sessions/{id}/start` — arms it; tap samples from its
//!   device start landing.
//! * `POST /sessions/{id}/stop` — settles it (`complete`/`failed`).
//! * `POST /sessions/{id}/retry` — re-arms a failed session.
//! * `GET /sessions` — every session's status.
//! * `GET /sessions/{id}/status` — one status snapshot.
//! * `GET /sessions/{id}/readings` — the live tail of calibrated
//!   readings (the "current pressure" a UI shows during a measurement).
//! * `GET /sessions/{id}/waveform?from=&to=&max_points=` — a ranged
//!   waveform read answered from the store through the downsampling
//!   pyramid; the response point count is bounded by `max_points`
//!   (default 512) no matter how long the recording is. `raw` is
//!   `null` where the link concealed the sample.
//!
//! All JSON is hand-rolled (the build is dependency-free); NaN
//! serializes as `null`.

use std::net::SocketAddr;

use tonos_telemetry::http::{HttpServer, Request, Response};
use tonos_telemetry::{json_array, json_escape, json_f64, names, Telemetry};

use crate::hub::MeasurementHub;

/// A running measurement-session API server; stop it with
/// [`MeasurementApi::shutdown`] or by dropping it.
#[derive(Debug)]
pub struct MeasurementApi {
    http: HttpServer,
}

impl MeasurementApi {
    /// Binds and starts serving `hub` at `addr` (`"127.0.0.1:0"` picks
    /// an ephemeral port); every request that reaches the routes counts
    /// into `historian.api_requests` on `telemetry`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O failures.
    pub fn bind(addr: &str, hub: MeasurementHub, telemetry: &Telemetry) -> std::io::Result<Self> {
        let requests = telemetry.counter(names::HISTORIAN_API_REQUESTS);
        let http = HttpServer::bind(addr, move |req| {
            requests.inc();
            route(req, &hub)
        })?;
        Ok(MeasurementApi { http })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Stops serving and waits for the requests in flight.
    pub fn shutdown(self) {}
}

fn json_opt_u64(x: Option<u64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Pulls `"name": <integer>` out of a flat JSON object body. Not a
/// JSON parser — the API's only body is `{"device": N}`, and a
/// malformed body reads as "field absent".
fn extract_u64(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\"");
    let rest = &body[body.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Pulls `name=<u64>` out of a query string.
fn query_u64(query: &str, name: &str) -> Option<u64> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

fn status_json(st: &crate::hub::SessionStatus) -> String {
    format!(
        concat!(
            "{{\"id\":{},\"device\":{},\"state\":\"{}\",\"sample_rate_hz\":{},",
            "\"first_clock\":{},\"last_clock\":{},\"samples\":{},\"clean\":{},",
            "\"concealed\":{},\"flushed_records\":{},\"error\":{}}}"
        ),
        st.id,
        st.device,
        json_escape(st.state.as_str()),
        json_f64(st.sample_rate_hz),
        json_opt_u64(st.first_clock),
        json_opt_u64(st.last_clock),
        st.samples,
        st.clean,
        st.concealed,
        st.flushed_records,
        st.error
            .as_deref()
            .map_or_else(|| "null".to_string(), |e| format!("\"{}\"", json_escape(e))),
    )
}

fn route(req: &Request, hub: &MeasurementHub) -> Response {
    let method = req.method.as_str();
    match (method, req.path.as_str()) {
        ("POST", "/sessions/prepare") => match extract_u64(&req.body, "device") {
            Some(device) => {
                let id = hub.prepare(device);
                Response::json("200 OK", format!("{{\"id\":{id}}}"))
            }
            None => Response::error("400 Bad Request", "body must carry \"device\""),
        },
        ("GET", "/sessions") => {
            Response::json("200 OK", json_array(hub.list().iter().map(status_json)))
        }
        (_, path) => {
            let Some((id_str, action)) = path
                .strip_prefix("/sessions/")
                .and_then(|rest| rest.split_once('/'))
            else {
                return Response::error("404 Not Found", "not found");
            };
            let Ok(id) = id_str.parse::<u64>() else {
                return Response::error("400 Bad Request", "session id must be an integer");
            };
            match (method, action) {
                ("POST", "start") => lifecycle(hub.start(id)),
                ("POST", "retry") => lifecycle(hub.retry(id)),
                ("POST", "stop") => match hub.stop(id) {
                    Ok(st) => Response::json("200 OK", status_json(&st)),
                    Err(e) => Response::error("409 Conflict", &e),
                },
                ("GET", "status") => match hub.status(id) {
                    Some(st) => Response::json("200 OK", status_json(&st)),
                    None => Response::error("404 Not Found", "unknown session"),
                },
                ("GET", "readings") => match hub.readings(id) {
                    Some(readings) => Response::json(
                        "200 OK",
                        json_array(readings.iter().map(|r| {
                            let mmhg = json_f64(r.mmhg);
                            format!(
                                "{{\"clock\":{},\"mmhg\":{mmhg},\"clean\":{}}}",
                                r.clock, r.clean
                            )
                        })),
                    ),
                    None => Response::error("404 Not Found", "unknown session"),
                },
                ("GET", "waveform") => waveform(hub, id, &req.query),
                _ => Response::error("404 Not Found", "not found"),
            }
        }
    }
}

fn lifecycle(result: Result<(), String>) -> Response {
    match result {
        Ok(()) => Response::json("200 OK", "{\"ok\":true}"),
        Err(e) => Response::error("409 Conflict", &e),
    }
}

fn waveform(hub: &MeasurementHub, id: u64, query: &str) -> Response {
    let Some(st) = hub.status(id) else {
        return Response::error("404 Not Found", "unknown session");
    };
    let snap = hub.historian().snapshot();
    let span = snap.session_span(st.device, id);
    let from = query_u64(query, "from")
        .or(span.map(|(a, _)| a))
        .unwrap_or(0);
    let to = query_u64(query, "to")
        .or(span.map(|(_, b)| b))
        .unwrap_or(from);
    let max_points = query_u64(query, "max_points").unwrap_or(512).max(1) as usize;
    drop(snap);
    let reader = hub.historian().reader();
    match reader.read_range(st.device, id, from, to, max_points) {
        Ok(wave) => {
            let points = json_array(wave.points.iter().map(|p| {
                let (raw, mmhg) = (json_f64(p.raw), json_f64(p.mmhg));
                format!("{{\"clock\":{},\"raw\":{raw},\"mmhg\":{mmhg}}}", p.clock)
            }));
            Response::json(
                "200 OK",
                format!(
                    concat!(
                        "{{\"id\":{},\"device\":{},\"tier\":{},\"sample_rate_hz\":{},",
                        "\"stride\":{},\"from\":{},\"to\":{},\"points\":{}}}"
                    ),
                    id,
                    st.device,
                    wave.tier,
                    json_f64(wave.sample_rate_hz),
                    wave.stride,
                    from,
                    to,
                    points,
                ),
            )
        }
        Err(e) => Response::error("500 Internal Server Error", &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::HubConfig;
    use crate::scratch_dir;
    use crate::store::{Historian, StoreConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::thread;
    use std::time::{Duration, Instant};
    use tonos_link::{HostSample, IngestTap, SampleFlag, TapSession};

    fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to api server");
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header terminator");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn body_and_query_extraction() {
        assert_eq!(extract_u64("{\"device\": 42}", "device"), Some(42));
        assert_eq!(extract_u64("{\"device\":7,\"x\":1}", "device"), Some(7));
        assert_eq!(extract_u64("{}", "device"), None);
        assert_eq!(query_u64("from=5&to=100", "to"), Some(100));
        assert_eq!(query_u64("from=5", "to"), None);
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn http_lifecycle_end_to_end() {
        let dir = scratch_dir("api-e2e");
        let t = Telemetry::disabled();
        let (historian, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        let hub = MeasurementHub::new(historian, HubConfig::default(), &t);
        let api = MeasurementApi::bind("127.0.0.1:0", hub.clone(), &t).unwrap();
        let addr = api.local_addr();

        let (head, body) = request(addr, "POST", "/sessions/prepare", "{\"device\": 5}");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "{\"id\":1}");

        let (head, _) = request(addr, "POST", "/sessions/1/start", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        // Double-start conflicts.
        let (head, _) = request(addr, "POST", "/sessions/1/start", "");
        assert!(head.starts_with("HTTP/1.1 409"), "{head}");

        // Ingest through the tap while measuring.
        let tap = TapSession {
            conn_id: 1,
            peer: "test".to_string(),
            device_id: Some(5),
            output_rate_hz: 1000.0,
        };
        let samples: Vec<HostSample> = (0..50)
            .map(|i| HostSample {
                index: i,
                value_mmhg: 100.0 + i as f64,
                flag: SampleFlag::Clean,
            })
            .collect();
        hub.on_samples(&tap, &samples);

        let (_, body) = request(addr, "GET", "/sessions/1/status", "");
        assert!(body.contains("\"state\":\"measuring\""), "{body}");
        assert!(body.contains("\"samples\":50"), "{body}");

        let (_, body) = request(addr, "GET", "/sessions/1/readings", "");
        assert!(body.contains("\"mmhg\":149"), "{body}");

        let (head, body) = request(addr, "POST", "/sessions/1/stop", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"state\":\"complete\""), "{body}");

        let (_, body) = request(addr, "GET", "/sessions/1/waveform?max_points=10", "");
        assert!(body.contains("\"points\":["), "{body}");
        // Bounded by the budget.
        assert!(body.matches("\"clock\":").count() <= 10, "{body}");

        let (_, body) = request(addr, "GET", "/sessions", "");
        assert!(body.starts_with("[{\"id\":1"), "{body}");

        let (head, _) = request(addr, "GET", "/nope", "");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        api.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn api() -> (MeasurementHub, MeasurementApi, std::path::PathBuf) {
        let dir = scratch_dir("api-hostile");
        let t = Telemetry::disabled();
        let (historian, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        let hub = MeasurementHub::new(historian, HubConfig::default(), &t);
        let api = MeasurementApi::bind("127.0.0.1:0", hub.clone(), &t).unwrap();
        (hub, api, dir)
    }

    #[test]
    fn a_trickling_client_does_not_stall_session_polls() {
        let (_hub, api, dir) = api();
        let addr = api.local_addr();
        // 30 bytes at 100 ms per byte, until the server hangs up. It
        // connects first, so it is accepted before the poll below.
        let mut slow = TcpStream::connect(addr).unwrap();
        let slow_client = thread::spawn(move || {
            for b in b"POST /sessions/prepare HTTP/1.1".iter().take(30) {
                if slow.write_all(&[*b]).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(100));
            }
        });
        let t = Instant::now();
        let (head, body) = request(addr, "GET", "/sessions", "");
        let took = t.elapsed();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "[]");
        assert!(
            took < Duration::from_millis(100),
            "GET /sessions took {took:?}"
        );
        api.shutdown();
        slow_client.join().expect("slow client thread");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_huge_content_length_gets_413_and_the_api_stays_up() {
        let (hub, api, dir) = api();
        let addr = api.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"POST /sessions/prepare HTTP/1.1\r\n\
                  Content-Length: 18446744073709551615\r\n\r\n{\"device\": 1}",
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(hub.list().is_empty());

        let (head, body) = request(addr, "GET", "/sessions", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "[]");
        api.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_body_late_past_the_deadline_gets_408_and_prepares_nothing() {
        let (hub, api, dir) = api();
        let mut stream = TcpStream::connect(api.local_addr()).unwrap();
        stream
            .write_all(
                b"POST /sessions/prepare HTTP/1.1\r\nContent-Length: 14\r\n\r\n{\"device\": 1",
            )
            .unwrap();
        thread::sleep(Duration::from_millis(700));
        // The rest of the body may land after the server has answered.
        let _ = stream.write_all(b"2}");
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        assert!(hub.list().is_empty(), "{:?}", hub.list());
        api.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
