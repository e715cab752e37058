//! `ward_live` (open loop): wrist-to-API freshness.
//!
//! Why: the host is lightly loaded, so freshness is set by waits rather
//! than compute — packetisation, the `link` IO loop's idle sleep, the
//! API's accept sleep and the hub lock. Loads `link` and `historian`
//! (tap, store, API) at a fixed rate; bypasses chip simulation, which
//! runs during setup, outside the timed region.
//!
//! One device connection replays pre-encoded, lossy (seeded
//! `FaultyTransport`, reorder window 0, so concealment runs) streams
//! over loopback TCP on a fixed schedule at `SPEEDUP` × real time, one
//! measurement session per stream. One API client runs the frontend
//! lifecycle on its own fixed schedule: prepare → start → poll status
//! and readings every `POLL_S` → stop. Every request is timed from
//! when it was due, so a stall shows in the requests behind it.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use tonos_link::FaultConfig;
use tonos_telemetry::names;

use crate::http::{request, Json, Response};
use crate::report::{Metric, Outcome, Tally};
use crate::stats::{median, now, Dist, Trace};
use crate::ward::{self, Stack, Stream, TapCall};

/// Replay speed as a multiple of real time.
const SPEEDUP: f64 = 4.0;
/// Status and readings poll interval.
const POLL_S: f64 = 0.005;
/// How far ahead of its stream a session is prepared and started.
const LEAD_S: f64 = 0.1;
/// Slack after each stream for the session to settle and stop.
const SLOT_MARGIN_S: f64 = 0.4;
/// Longest wait for the last samples to become visible.
const SETTLE_TIMEOUT_S: f64 = 3.0;
/// A generator this far behind its schedule (p99) invalidates the run.
const MAX_SEND_LAG_S: f64 = 0.02;
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Device signal per session, seconds.
    pub signal_s: f64,
    /// Distinct pre-encoded streams, replayed in turn.
    pub streams: usize,
}

impl Size {
    pub const FULL: Size = Size {
        signal_s: 8.0,
        streams: 2,
    };
    #[cfg(test)]
    pub const TINY: Size = Size {
        signal_s: 1.0,
        streams: 1,
    };
}

fn sleep_until(t: f64) {
    let d = t - now();
    if d > 0.0 {
        thread::sleep(Duration::from_secs_f64(d));
    }
}

/// Device-side record of one slot: when each packet was due and sent.
#[derive(Debug, Default)]
struct Sends {
    due: Vec<f64>,
    sent: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Lifecycle,
    Status,
    Readings,
}

/// One answered API request.
#[derive(Debug)]
struct Polled {
    slot: usize,
    kind: Kind,
    due: f64,
    sent: f64,
    arrived: f64,
    /// Newest reading's device clock, for a readings response that
    /// arrived while its stream was still flowing.
    newest: Option<u64>,
}

/// The fixed schedule both generator threads follow.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    t0: f64,
    slot_s: f64,
    sessions: usize,
}

impl Schedule {
    fn stream_start(&self, k: usize) -> f64 {
        self.t0 + k as f64 * self.slot_s + LEAD_S
    }

    fn period(stream: &Stream) -> f64 {
        stream.samples_per_packet as f64 / 1000.0 / SPEEDUP
    }

    fn stream_end(&self, k: usize, stream: &Stream) -> f64 {
        self.stream_start(k) + stream.chunks.len() as f64 * Schedule::period(stream)
    }

    /// When the packet carrying `clock` was due on the wire.
    fn due(&self, k: usize, stream: &Stream, clock: u64) -> f64 {
        self.stream_start(k)
            + (clock as usize / stream.samples_per_packet) as f64 * Schedule::period(stream)
    }
}

/// Seeds of the wires' fault schedules, one per stream. They are fixed
/// rather than drawn from `--seed`, so every run carries the same
/// damage and the freshness tail compares between runs; `--seed`
/// varies the patients. The two schedules are the ones among fault
/// seeds 0..20 that carry the most of the costliest fault the noisy
/// profile produces: the decoder emits nothing for ~400 ms, then the
/// whole backlog (11 such stalls over those 20 seeds of an 8 s stream;
/// seed 13 has 7, seed 4 has 3). They are kept so the freshness tail
/// measures that stall instead of leaving it out.
const FAULT_SEEDS: [u64; 2] = [13, 4];

fn setup_once(seed: u64, size: Size, trace: bool) -> Result<(Vec<Stream>, Stack), String> {
    let link = ward::link_config(0);
    let streams = ward::patients(seed, size.streams)
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let faults = (FaultConfig::noisy(), FAULT_SEEDS[i % FAULT_SEEDS.len()]);
            ward::encode(&link, p, 100 + i as u64, size.signal_s, Some(faults))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let stack = Stack::start("ward_live", link, trace)?;
    Ok((streams, stack))
}

/// Device thread: connect per slot, send each packet when due, and
/// close once the client has stopped the session.
fn device(
    schedule: Schedule,
    streams: &[Stream],
    addr: std::net::SocketAddr,
    stopped: mpsc::Receiver<usize>,
) -> Result<Vec<Sends>, String> {
    let mut log = Vec::with_capacity(schedule.sessions);
    for k in 0..schedule.sessions {
        let stream = &streams[k % streams.len()];
        let start = schedule.stream_start(k);
        let period = Schedule::period(stream);
        sleep_until(start - 0.005);
        let mut conn = ward::connect(addr)?;
        let mut sends = Sends::default();
        for (p, chunk) in stream.chunks.iter().enumerate() {
            let due = start + p as f64 * period;
            sleep_until(due);
            if !chunk.is_empty() {
                ward::send(&mut conn, chunk)?;
            }
            sends.due.push(due);
            sends.sent.push(now());
        }
        loop {
            match stopped.recv_timeout(Duration::from_secs(30)) {
                Ok(s) if s >= k => break,
                Ok(_) => {}
                Err(_) => return Err(format!("slot {k}: client never stopped the session")),
            }
        }
        ward::finish_connection(conn)?;
        log.push(sends);
    }
    Ok(log)
}

/// Client thread: the frontend lifecycle per slot. Returns the
/// session ids (0 where prepare failed) and every answered request.
fn client(
    schedule: Schedule,
    streams: &[Stream],
    addr: std::net::SocketAddr,
    stopped: &mpsc::Sender<usize>,
    tally: &mut Tally,
) -> (Vec<u64>, Vec<Polled>) {
    let mut ids = Vec::with_capacity(schedule.sessions);
    let mut polls = Vec::new();
    for k in 0..schedule.sessions {
        let stream = &streams[k % streams.len()];
        let id = lifecycle(schedule, k, stream, addr, tally, &mut polls);
        ids.push(id.unwrap_or(0));
        let _ = stopped.send(k);
    }
    (ids, polls)
}

fn lifecycle(
    schedule: Schedule,
    k: usize,
    stream: &Stream,
    addr: std::net::SocketAddr,
    tally: &mut Tally,
    polls: &mut Vec<Polled>,
) -> Option<u64> {
    let start = schedule.stream_start(k);
    let end = schedule.stream_end(k, stream);
    let mut call =
        |kind: Kind, due: f64, method: &str, target: String, body: String, tally: &mut Tally| {
            let r: Option<Response> = tally.record(request(addr, method, &target, &body));
            let r = r?;
            let newest = (kind == Kind::Readings && r.arrived <= end)
                .then(|| {
                    r.body
                        .arr()
                        .and_then(|a| a.last())
                        .and_then(|x| x.get("clock"))
                        .and_then(Json::num)
                        .map(|c| c as u64)
                })
                .flatten();
            polls.push(Polled {
                slot: k,
                kind,
                due,
                sent: r.sent,
                arrived: r.arrived,
                newest,
            });
            Some(r.body)
        };

    let due = start - LEAD_S;
    sleep_until(due);
    let body = format!("{{\"device\": {}}}", stream.device);
    let prepared = call(
        Kind::Lifecycle,
        due,
        "POST",
        "/sessions/prepare".into(),
        body,
        tally,
    )?;
    let Some(id) = prepared.get("id").and_then(Json::num).map(|x| x as u64) else {
        tally.fail(format!("slot {k}: prepare returned no id"));
        return None;
    };
    call(
        Kind::Lifecycle,
        due,
        "POST",
        format!("/sessions/{id}/start"),
        String::new(),
        tally,
    )?;

    let mut j = 0usize;
    loop {
        let due = start + j as f64 * POLL_S;
        if due >= end {
            break;
        }
        sleep_until(due);
        call(
            Kind::Status,
            due,
            "GET",
            format!("/sessions/{id}/status"),
            String::new(),
            tally,
        );
        call(
            Kind::Readings,
            due,
            "GET",
            format!("/sessions/{id}/readings"),
            String::new(),
            tally,
        );
        j += 1;
    }

    // Poll until every sample of the stream is visible, then stop.
    let want = stream.expected.len() as f64;
    loop {
        let due = now();
        let st = call(
            Kind::Status,
            due,
            "GET",
            format!("/sessions/{id}/status"),
            String::new(),
            tally,
        );
        if st
            .as_ref()
            .and_then(|b| b.get("samples"))
            .and_then(Json::num)
            == Some(want)
        {
            break;
        }
        if due > end + SETTLE_TIMEOUT_S {
            tally.fail(format!("session {id}: samples never reached {want}"));
            break;
        }
        sleep_until(due + POLL_S);
    }
    let stop = call(
        Kind::Lifecycle,
        now(),
        "POST",
        format!("/sessions/{id}/stop"),
        String::new(),
        tally,
    );
    if let Some(st) = stop {
        tally.check(
            st.get("state").and_then(Json::str) == Some("complete"),
            || format!("session {id} did not settle complete: {st:?}"),
        );
    }
    Some(id)
}

/// One measured run; `trace` swaps in the timing tap and registries.
fn once(seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let mut tally = Tally::default();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Vec<Stream>, Stack)> = None;
    for _ in 0..SETUP_REPS {
        let t = now();
        let built = setup_once(seed, size, trace);
        times.push(now() - t);
        match built {
            Ok(b) => {
                if let Some((_, old)) = kept.replace(b) {
                    old.stop().2.remove();
                }
            }
            Err(e) => tally.fail(format!("setup: {e}")),
        }
    }
    let setup_s = median(&times);
    let Some((streams, stack)) = kept else {
        return Outcome::new("ward_live", setup_s, f64::NAN, Dist::of(&[])).finish(tally);
    };

    let slot_s = size.signal_s / SPEEDUP + SLOT_MARGIN_S;
    let schedule = Schedule {
        t0: now() + 0.05,
        slot_s,
        sessions: ((seconds / slot_s).floor() as usize).max(1),
    };
    let (link_addr, api_addr) = (stack.server.local_addr(), stack.api.local_addr());
    let (tx, rx) = mpsc::channel();
    let (sends, (ids, polls)) = thread::scope(|s| {
        let dev = s.spawn(|| device(schedule, &streams, link_addr, rx));
        let answered = client(schedule, &streams, api_addr, &tx, &mut tally);
        (dev.join().expect("device thread does not panic"), answered)
    });
    let t_end = now();
    let sends = match sends {
        Ok(s) => s,
        Err(e) => {
            tally.fail(e);
            Vec::new()
        }
    };

    let (report, snapshot, stopped) = stack.stop();
    tally.check(report.failures().is_empty(), || {
        format!("link sessions failed: {:?}", report.failures())
    });
    for (k, &id) in ids.iter().enumerate() {
        if id != 0 {
            ward::check_stored(&stopped.hub, id, &streams[k % streams.len()], &mut tally);
        }
    }

    let freshness: Vec<f64> = polls
        .iter()
        .filter_map(|p| {
            let c = p.newest?;
            Some((p.arrived - schedule.due(p.slot, &streams[p.slot % streams.len()], c)) * 1e3)
        })
        .collect();
    let lags: Vec<f64> = sends
        .iter()
        .flat_map(|s| s.sent.iter().zip(&s.due).map(|(a, b)| (a - b) * 1e3))
        .collect();
    let poll_ms: Vec<f64> = polls.iter().map(|p| (p.arrived - p.due) * 1e3).collect();
    let (fresh, lag, poll) = (Dist::of(&freshness), Dist::of(&lags), Dist::of(&poll_ms));

    let wall = t_end - schedule.t0;
    let mut out = Outcome::new("ward_live", setup_s, polls.len() as f64 / wall, fresh);
    if lag.hi > MAX_SEND_LAG_S * 1e3 {
        out.invalid = Some(format!(
            "device generator fell behind its schedule: send lag {} {:.2} ms > {} ms",
            lag.hi_label(),
            lag.hi,
            MAX_SEND_LAG_S * 1e3
        ));
    }
    let concealed = snapshot.counter(names::LINK_GAPS_CONCEALED).unwrap_or(0) as f64;
    let crc = snapshot.counter(names::LINK_CRC_FAIL).unwrap_or(0) as f64;
    out.named = vec![
        Metric::new("freshness_p50_ms", fresh.p50, "ms"),
        Metric::new(format!("freshness_{}_ms", fresh.hi_label()), fresh.hi, "ms"),
        Metric::new("poll_p50_ms", poll.p50, "ms"),
        Metric::new(format!("poll_{}_ms", poll.hi_label()), poll.hi, "ms"),
    ];
    out.layers = vec![
        Metric::new("ward_live.poll_p50_ms", poll.p50, "ms"),
        Metric::new("ward_live.poll_p99_ms", poll.hi, "ms"),
        Metric::new("harness.send_lag_p99_ms", lag.hi, "ms"),
        Metric::new("link.concealed_samples", concealed, "count"),
        Metric::new("link.crc_failures", crc, "count"),
    ];
    if let Some(tap) = &stopped.tap {
        let decode = snapshot
            .histogram(names::SPAN_LINK_DECODE)
            .and_then(|h| h.mean());
        out.layers.push(Metric::new(
            "link.decode_ms_per_chunk",
            decode.unwrap_or(0.0) * 1e3,
            "ms",
        ));
        attribute(&mut out, schedule, &streams, &sends, &polls, &tap.calls());
    }
    stopped.remove();
    out.finish(tally)
}

/// Tap calls per slot: connections are accepted in slot order, so the
/// k-th connection id is slot k.
fn calls_by_slot(calls: &[TapCall]) -> Vec<Vec<TapCall>> {
    let mut conns: Vec<u64> = calls.iter().map(|c| c.conn).collect();
    conns.sort_unstable();
    conns.dedup();
    conns
        .iter()
        .map(|&id| {
            calls
                .iter()
                .filter(|c| c.conn == id && c.range.is_some())
                .copied()
                .collect()
        })
        .collect()
}

/// The tap call that delivered `clock`.
fn delivering(calls: &[TapCall], clock: u64) -> Option<&TapCall> {
    let i = calls.partition_point(|c| c.range.is_some_and(|(_, last)| last < clock));
    calls
        .get(i)
        .filter(|c| c.range.is_some_and(|(first, _)| first <= clock))
}

/// Splits the mean freshness into contiguous segments per readings
/// response: due → sent (generator lag), sent → tap entry (`link`:
/// socket, IO loop, decode, decimation), the tap call (`historian`
/// hub and store), tap exit → request sent (the poll interval), and
/// the request itself (`historian` API).
fn attribute(
    out: &mut Outcome,
    schedule: Schedule,
    streams: &[Stream],
    sends: &[Sends],
    polls: &[Polled],
    calls: &[TapCall],
) {
    let by_slot = calls_by_slot(calls);
    let mut trace = Trace::default();
    let mut to_visible = Vec::new();
    let mut responses = 0usize;
    for p in polls {
        let Some(c) = p.newest else { continue };
        let stream = &streams[p.slot % streams.len()];
        let due = schedule.due(p.slot, stream, c);
        let packet = c as usize / stream.samples_per_packet;
        let sent = sends.get(p.slot).and_then(|s| s.sent.get(packet)).copied();
        let call = by_slot.get(p.slot).and_then(|cs| delivering(cs, c));
        let root = trace.add("freshness", due, p.arrived, None);
        responses += 1;
        let mut at = due;
        let mut segment = |layer: &'static str, until: f64| {
            // Boundaries are kept monotone inside the root, so the
            // segments tile it and the rows sum to the freshness.
            let next = until.clamp(at, p.arrived);
            trace.add(layer, at, next, Some(root));
            at = next;
        };
        if let (Some(sent), Some(call)) = (sent, call) {
            segment("harness.send_lag", sent);
            segment("link", call.entry);
            segment("historian.tap", call.exit);
            segment("harness.poll_wait", p.sent);
            to_visible.push((p.arrived - call.exit) * 1e3);
            segment("historian.api", p.arrived);
        }
    }
    let n = responses.max(1) as f64;
    out.rows = trace
        .by_layer()
        .into_iter()
        .map(|(l, s)| (l.to_string(), s / n * 1e3))
        .collect();
    out.wall_ms = trace.root_time() / n * 1e3;
    out.wall_label = format!("mean freshness over {responses} readings responses");
    let unattributed = out
        .rows
        .iter()
        .find(|(l, _)| l == "unattributed")
        .map_or(0.0, |r| r.1);

    let mut send_to_tap = Vec::new();
    let mut tap_us = Vec::new();
    for (k, cs) in by_slot.iter().enumerate() {
        let (Some(s), Some(stream)) = (sends.get(k), streams.get(k % streams.len())) else {
            continue;
        };
        for c in cs {
            tap_us.push((c.exit - c.entry) * 1e6);
            let last = c.range.map_or(0, |r| r.1) as usize;
            if let Some(&sent) = s.sent.get(last / stream.samples_per_packet) {
                send_to_tap.push((c.entry - sent) * 1e3);
            }
        }
    }
    let api = |kind: Kind| {
        let v: Vec<f64> = polls
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| (p.arrived - p.sent) * 1e3)
            .collect();
        Dist::of(&v).hi
    };
    let s2t = Dist::of(&send_to_tap);
    out.layers.extend([
        Metric::new("link.send_to_tap_p50_ms", s2t.p50, "ms"),
        Metric::new("link.send_to_tap_p99_ms", s2t.hi, "ms"),
        Metric::new("historian.tap_us_p99", Dist::of(&tap_us).hi, "us"),
        Metric::new(
            "historian.tap_to_visible_p99_ms",
            Dist::of(&to_visible).hi,
            "ms",
        ),
        Metric::new("historian.api_status_ms_p99", api(Kind::Status), "ms"),
        Metric::new("historian.api_readings_ms_p99", api(Kind::Readings), "ms"),
        Metric::new(
            "ward_live.unattributed_frac",
            unattributed / out.wall_ms.max(f64::MIN_POSITIVE),
            "fraction",
        ),
    ]);
}

pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let base = once(seed, seconds, false, size);
    if !trace {
        return base;
    }
    let mut t = once(seed, seconds, true, size);
    t.trace_overhead = Some((t.latency.p50 - base.latency.p50) / base.latency.p50);
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
    fn tiny_live_ward_has_no_errors() {
        let out = run(11, 0.0, true, Size::TINY);
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        crate::tests::assert_layers_listed(&out);
        assert!(out.attempted > 0 && out.latency.n > 0);
        let total: f64 = out.rows.iter().map(|(_, ms)| ms).sum();
        assert!(
            (total - out.wall_ms).abs() < 1e-6 * out.wall_ms.max(1.0),
            "{:?}",
            out.rows
        );
    }
}
