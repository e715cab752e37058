//! `ward_replay` (closed loop): ingest beside reads.
//!
//! Why: one device connection writes clean pre-encoded streams as fast
//! as TCP allows, session after session, while one closed-loop client
//! reads ranged waveforms from a store that was pre-populated and
//! compacted during setup. This loads the `link` chunk actor, the hub
//! lock, store appends and store reads together, so a change that
//! speeds writes at the cost of reads, or the reverse, shows here.
//! Bypasses chip simulation (setup) and the open-loop schedule.
//!
//! Each device session is prepared and started on the hub in-process
//! (the operator path), streamed, half-closed, and counted once the
//! hub has settled it `complete`. The client's requests cycle through
//! three seeded `/waveform` reads at mixed `max_points` and one status
//! or readings request on the live session. The read tail is the median
//! of per-1000-read p99s (`Dist::segmented`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use tonos_historian::{MeasurementHub, SessionState};
use tonos_link::{HostSample, IngestTap, SampleFlag, TapSession};
use tonos_telemetry::{names, TelemetrySnapshot};

use crate::http::{request, Json};
use crate::layers;
use crate::report::{Metric, Outcome, Tally};
use crate::stats::{median, now, Dist, Rng, Trace};
use crate::ward::{self, Stack, Stream, TapCall};

const SETUP_REPS: usize = 5;
/// Point budgets the waveform reads mix.
const MAX_POINTS: [usize; 4] = [64, 256, 1024, 4096];
/// Longest wait for a streamed session to settle.
const SETTLE_TIMEOUT_S: f64 = 10.0;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Device signal per streamed session, seconds.
    pub signal_s: f64,
    /// Distinct pre-encoded streams, sent in turn.
    pub streams: usize,
    /// Sessions written into the store during setup.
    pub stored_sessions: usize,
    /// Times each stored session repeats its stream's signal.
    pub stored_repeats: usize,
}

impl Size {
    pub const FULL: Size = Size {
        signal_s: 10.0,
        streams: 2,
        stored_sessions: 4,
        stored_repeats: 6,
    };
    #[cfg(test)]
    pub const TINY: Size = Size {
        signal_s: 1.0,
        streams: 1,
        stored_sessions: 1,
        stored_repeats: 2,
    };
}

/// A ranged read of one stored session.
#[derive(Debug, Clone, Copy)]
struct Query {
    id: u64,
    device: u64,
    from: u64,
    to: u64,
    max_points: usize,
}

/// Writes `stream`'s samples into a new hub session `repeats` times
/// over, clock after clock, through the hub's ingest tap, and settles
/// it.
fn store_session(
    hub: &MeasurementHub,
    stream: &Stream,
    device: u64,
    repeats: usize,
) -> Result<(u64, u64), String> {
    let id = hub.prepare(device);
    hub.start(id)?;
    let tap = TapSession {
        conn_id: 0,
        peer: "setup".into(),
        device_id: Some(device),
        output_rate_hz: 1000.0,
    };
    let len = stream.lossless.len() as u64;
    let mut batch = Vec::with_capacity(1024);
    for r in 0..repeats as u64 {
        for block in stream.lossless.chunks(1024).enumerate() {
            batch.clear();
            let base = r * len + block.0 as u64 * 1024;
            batch.extend(block.1.iter().enumerate().map(|(i, &v)| HostSample {
                index: base + i as u64,
                value_mmhg: v,
                flag: SampleFlag::Clean,
            }));
            hub.on_samples(&tap, &batch);
        }
    }
    let st = hub.stop(id)?;
    if st.state != SessionState::Complete {
        return Err(format!("stored session {id} settled {:?}", st.state));
    }
    Ok((id, len * repeats as u64))
}

struct Setup {
    streams: Vec<Stream>,
    stack: Stack,
    /// `(session id, device, samples)` of each stored session.
    stored: Vec<(u64, u64, u64)>,
}

fn setup_once(seed: u64, size: Size, trace: bool) -> Result<Setup, String> {
    let link = ward::link_config(LINK_REORDER_WINDOW);
    let streams = ward::patients(seed, size.streams)
        .iter()
        .enumerate()
        .map(|(i, p)| ward::encode(&link, p, 300 + i as u64, size.signal_s, None))
        .collect::<Result<Vec<_>, _>>()?;
    let stack = Stack::start("ward_replay", link, trace)?;
    let mut stored = Vec::with_capacity(size.stored_sessions);
    for s in 0..size.stored_sessions {
        let device = 200 + s as u64;
        let (id, len) = store_session(
            &stack.hub,
            &streams[s % streams.len()],
            device,
            size.stored_repeats,
        )?;
        stored.push((id, device, len));
    }
    stack
        .hub
        .historian()
        .compact()
        .map_err(|e| format!("compact: {e}"))?;
    Ok(Setup {
        streams,
        stack,
        stored,
    })
}

/// The next seeded read: a stored session, a span anywhere inside it,
/// and a point budget. Queries never repeat on purpose, so the read
/// tail reflects the query mix rather than a few unlucky queries.
fn next_query(rng: &mut Rng, stored: &[(u64, u64, u64)]) -> Query {
    let (id, device, len) = stored[rng.below(stored.len())];
    let span = 1 + rng.below(len as usize) as u64;
    let from = rng.below((len - span + 1) as usize) as u64;
    Query {
        id,
        device,
        from,
        to: from + span,
        max_points: MAX_POINTS[rng.below(MAX_POINTS.len())],
    }
}

/// The server's reorder window on this clean wire: the ingest default.
const LINK_REORDER_WINDOW: u32 = 32;

/// One streamed session, as the device thread timed it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    id: u64,
    stream: usize,
    prepared: f64,
    started: f64,
    written: f64,
    closed: f64,
    settled: f64,
}

fn device(
    hub: &MeasurementHub,
    streams: &[Stream],
    wire: &[Vec<u8>],
    addr: std::net::SocketAddr,
    live: &AtomicU64,
    stop: &AtomicBool,
) -> Result<Vec<Sent>, String> {
    let mut sent = Vec::new();
    let mut k = 0usize;
    while !stop.load(Ordering::SeqCst) || sent.is_empty() {
        let which = k % streams.len();
        let stream = &streams[which];
        let prepared = now();
        let id = hub.prepare(stream.device);
        hub.start(id)?;
        live.store(id, Ordering::SeqCst);
        let started = now();
        let mut conn = ward::connect(addr)?;
        ward::send(&mut conn, &wire[which])?;
        let written = now();
        ward::finish_connection(conn)?;
        let closed = now();
        loop {
            match hub.status(id).map(|s| s.state) {
                Some(SessionState::Complete) => break,
                Some(SessionState::Measuring) if now() < closed + SETTLE_TIMEOUT_S => {
                    thread::sleep(Duration::from_micros(100));
                }
                other => return Err(format!("session {id} settled as {other:?}")),
            }
        }
        sent.push(Sent {
            id,
            stream: which,
            prepared,
            started,
            written,
            closed,
            settled: now(),
        });
        k += 1;
    }
    Ok(sent)
}

/// One answered client request.
#[derive(Debug, Clone, Copy)]
struct Read {
    /// The waveform query, or `None` for status and readings.
    query: Option<Query>,
    ms: f64,
}

fn client(
    mut rng: Rng,
    stored: &[(u64, u64, u64)],
    addr: std::net::SocketAddr,
    live: &AtomicU64,
    deadline: f64,
    tally: &mut Tally,
) -> Vec<Read> {
    let mut reads = Vec::new();
    let mut i = 0usize;
    while now() < deadline || reads.is_empty() {
        i += 1;
        if i.is_multiple_of(4) {
            let id = live.load(Ordering::SeqCst);
            if id == 0 {
                continue;
            }
            let what = if i.is_multiple_of(8) {
                "status"
            } else {
                "readings"
            };
            if let Some(r) =
                tally.record(request(addr, "GET", &format!("/sessions/{id}/{what}"), ""))
            {
                reads.push(Read {
                    query: None,
                    ms: (r.arrived - r.sent) * 1e3,
                });
            }
            continue;
        }
        let q = next_query(&mut rng, stored);
        let target = format!(
            "/sessions/{}/waveform?from={}&to={}&max_points={}",
            q.id, q.from, q.to, q.max_points
        );
        let Some(r) = tally.record(request(addr, "GET", &target, "")) else {
            continue;
        };
        let points = r
            .body
            .get("points")
            .and_then(Json::arr)
            .map_or(0, <[Json]>::len);
        tally.check(points > 0 && points <= q.max_points, || {
            format!("{target}: {points} points for a budget of {}", q.max_points)
        });
        reads.push(Read {
            query: Some(q),
            ms: (r.arrived - r.sent) * 1e3,
        });
    }
    reads
}

fn once(seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let mut tally = Tally::default();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        let t = now();
        let built = setup_once(seed, size, trace);
        times.push(now() - t);
        match built {
            Ok(b) => {
                if let Some(old) = kept.replace(b) {
                    old.stack.stop().2.remove();
                }
            }
            Err(e) => tally.fail(format!("setup: {e}")),
        }
    }
    let setup_s = median(&times);
    let Some(Setup {
        streams,
        stack,
        stored,
    }) = kept
    else {
        return Outcome::new("ward_replay", setup_s, f64::NAN, Dist::of(&[])).finish(tally);
    };

    let wire: Vec<Vec<u8>> = streams.iter().map(Stream::bytes).collect();
    let before = stack.registry.as_ref().map(|r| r.snapshot());
    let (link_addr, api_addr) = (stack.server.local_addr(), stack.api.local_addr());
    let live = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let t0 = now();
    let (sent, reads) = thread::scope(|s| {
        let dev = s.spawn(|| device(&stack.hub, &streams, &wire, link_addr, &live, &stop));
        let rng = Rng::new(seed ^ 0x0051_EAD5);
        let reads = client(rng, &stored, api_addr, &live, t0 + seconds, &mut tally);
        stop.store(true, Ordering::SeqCst);
        (dev.join().expect("device thread does not panic"), reads)
    });
    let t_reads = now();
    let sent = match sent {
        Ok(s) => s,
        Err(e) => {
            tally.fail(e);
            Vec::new()
        }
    };
    let after = stack.registry.as_ref().map(|r| r.snapshot());

    let (report, snapshot, stopped) = stack.stop();
    tally.check(report.failures().is_empty(), || {
        format!("link sessions failed: {:?}", report.failures())
    });
    let crc = snapshot.counter(names::LINK_CRC_FAIL).unwrap_or(0);
    tally.check(crc == 0, || format!("{crc} CRC failures on a clean wire"));
    for s in &sent {
        ward::check_stored(&stopped.hub, s.id, &streams[s.stream], &mut tally);
    }

    let ingest_wall = sent.last().map_or(f64::NAN, |s| s.settled - t0);
    // The median session's rate, so a host hiccup in one session does
    // not move it.
    let rates: Vec<f64> = sent
        .iter()
        .map(|s| streams[s.stream].signal_s / (s.settled - s.prepared))
        .collect();
    let ingest = if rates.is_empty() {
        f64::NAN
    } else {
        median(&rates)
    };
    let waveform: Vec<f64> = reads
        .iter()
        .filter(|r| r.query.is_some())
        .map(|r| r.ms)
        .collect();
    let read = Dist::segmented(&waveform);
    let read_wall = t_reads - t0;
    let mut out = Outcome::new("ward_replay", setup_s, ingest, read);
    out.named = vec![
        Metric::new("ingest_device_s_per_s", ingest, "1/s"),
        Metric::new("read_p50_ms", read.p50, "ms"),
        Metric::new(format!("read_{}_ms", read.hi_label()), read.hi, "ms"),
        Metric::new("reads_per_s", waveform.len() as f64 / read_wall, "1/s"),
        Metric::new("sessions_streamed", sent.len() as f64, "count"),
    ];
    out.layers = vec![
        Metric::new(
            "ward_replay.reads_per_s",
            waveform.len() as f64 / read_wall,
            "1/s",
        ),
        Metric::new("link.crc_failures", crc as f64, "count"),
        Metric::new(
            "link.ingest_mbit_per_s",
            snapshot.counter(names::LINK_BYTES_RX).unwrap_or(0) as f64 * 8e-6 / ingest_wall,
            "Mbit/s",
        ),
    ];
    if let (Some(tap), Some(before), Some(after)) = (&stopped.tap, before, after) {
        let mut direct = Vec::with_capacity(waveform.len());
        let reader = stopped.hub.historian().reader();
        for r in &reads {
            let Some(q) = r.query else { continue };
            let t = now();
            match reader.read_range(q.device, q.id, q.from, q.to, q.max_points) {
                Ok(w) => tally.check(!w.points.is_empty(), || {
                    format!("direct read {q:?} is empty")
                }),
                Err(e) => tally.fail(format!("direct read {q:?}: {e}")),
            }
            direct.push((now() - t) * 1e3);
        }
        drop(reader);
        let calls = tap.calls();
        let tap_busy: f64 = calls.iter().map(|c| c.exit - c.entry).sum();
        let delta = |name: &str| {
            after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
        };
        let fsync = after
            .histogram(names::HISTORIAN_FSYNC_S)
            .and_then(|h| h.p99)
            .unwrap_or(0.0);
        out.layers.extend([
            Metric::new("historian.read_range_p99_ms", Dist::of(&direct).hi, "ms"),
            Metric::new("historian.api_waveform_ms_p99", read.hi, "ms"),
            Metric::new(
                "historian.tap_busy_frac",
                tap_busy / ingest_wall,
                "fraction",
            ),
            Metric::new(
                "historian.append_mb_per_s",
                delta(names::HISTORIAN_APPEND_BYTES) * 1e-6 / ingest_wall,
                "MB/s",
            ),
            Metric::new("historian.fsync_p99_ms", fsync * 1e3, "ms"),
            Metric::new(
                "historian.records_appended",
                delta(names::HISTORIAN_APPENDS),
                "count",
            ),
            Metric::new(
                "historian.bytes_written",
                delta(names::HISTORIAN_APPEND_BYTES),
                "count",
            ),
        ]);
        attribute(&mut out, &sent, &calls, &snapshot, t0, &mut tally);
    }
    stopped.remove();
    out.finish(tally)
}

/// Splits the device thread's critical path — session after session —
/// into layer rows. Per session: hub prepare and start (`historian`),
/// writing the stream (`link`), waiting for the server to drain and
/// close (`link`), and waiting for the hub to settle it (`historian`).
/// Tap calls made while a session was writing or draining are children
/// of that span (`historian.tap`); decimation is carved out of the
/// `link` self time at its measured unit cost (`dsp`). Gaps between
/// sessions are the root's self time: unattributed.
fn attribute(
    out: &mut Outcome,
    sent: &[Sent],
    calls: &[TapCall],
    snapshot: &TelemetrySnapshot,
    t0: f64,
    tally: &mut Tally,
) {
    let Some(last) = sent.last() else { return };
    let mut trace = Trace::default();
    let root = trace.add("ingest", t0, last.settled, None);
    let mut conns: Vec<u64> = calls.iter().map(|c| c.conn).collect();
    conns.sort_unstable();
    conns.dedup();
    for (s, &conn) in sent.iter().zip(&conns) {
        let session = trace.add("harness", s.prepared, s.settled, Some(root));
        trace.add("historian", s.prepared, s.started, Some(session));
        let write = trace.add("link", s.started, s.written, Some(session));
        let drain = trace.add("link", s.written, s.closed, Some(session));
        trace.add("historian", s.closed, s.settled, Some(session));
        for c in calls.iter().filter(|c| c.conn == conn) {
            let parent = if c.entry < s.written { write } else { drain };
            trace.add("historian.tap", c.entry, c.exit, Some(parent));
        }
    }
    let mut rows = trace.by_layer();
    let config = tonos_core::config::SystemConfig::paper_default();
    match layers::measure(&config, 1.0).map(|c| c.decimate_ns_per_bit) {
        Ok(ns_per_bit) => {
            let bits = snapshot.counter(names::LINK_SAMPLES_CLEAN).unwrap_or(0) as f64
                * config.decimator.osr as f64;
            let dsp = (ns_per_bit * 1e-9 * bits).min(rows.get("link").copied().unwrap_or(0.0));
            *rows.entry("link").or_insert(0.0) -= dsp;
            rows.insert("dsp", dsp);
            out.layers
                .push(Metric::new("dsp.decimate_ns_per_bit", ns_per_bit, "ns"));
        }
        Err(e) => tally.fail(format!("unit costs: {e}")),
    }
    let decode = snapshot
        .histogram(names::SPAN_LINK_DECODE)
        .map_or(0.0, |h| h.sum);
    out.notes.push(format!(
        "link decode span total {:.1} ms (inside the link rows)",
        decode * 1e3
    ));
    out.wall_ms = trace.root_time() * 1e3;
    out.wall_label = format!("device critical path over {} sessions", sent.len());
    let unattributed = rows.get("unattributed").copied().unwrap_or(0.0);
    out.rows = rows
        .into_iter()
        .map(|(l, s)| (l.to_string(), s * 1e3))
        .collect();
    out.layers.push(Metric::new(
        "ward_replay.unattributed_frac",
        unattributed * 1e3 / out.wall_ms.max(f64::MIN_POSITIVE),
        "fraction",
    ));
}

pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let base = once(seed, seconds, false, size);
    if !trace {
        return base;
    }
    let mut t = once(seed, seconds, true, size);
    t.trace_overhead = Some((base.throughput_per_s - t.throughput_per_s) / base.throughput_per_s);
    t.attempted += base.attempted;
    t.failed += base.failed;
    t.problems.extend(base.problems);
    t.invalid = t.invalid.or(base.invalid);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_replay_ward_has_no_errors() {
        let out = run(13, 0.0, true, Size::TINY);
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        crate::tests::assert_layers_listed(&out);
        assert!(out.attempted > 0 && out.throughput_per_s > 0.0);
        let total: f64 = out.rows.iter().map(|(_, ms)| ms).sum();
        assert!(
            (total - out.wall_ms).abs() < 1e-6 * out.wall_ms.max(1.0),
            "{:?}",
            out.rows
        );
    }
}
