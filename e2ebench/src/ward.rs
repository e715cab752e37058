//! The ward stack both ward workloads drive — `LinkServer` with an
//! ingest tap into `MeasurementHub`, the `Historian` store under it and
//! `MeasurementApi` in front — plus pre-encoded device streams.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tonos_core::config::SystemConfig;
use tonos_fleet::FleetReport;
use tonos_historian::{Historian, HubConfig, MeasurementApi, MeasurementHub, StoreConfig};
use tonos_link::{
    DeviceSimulator, FaultConfig, FaultyTransport, HostPipeline, HostSample, IngestTap, LinkKey,
    LinkServer, LinkServerConfig, SampleFlag, TapSession,
};
use tonos_physio::patient::PatientProfile;
use tonos_telemetry::{Registry, Telemetry, TelemetrySnapshot};

use crate::report::Tally;
use crate::stats::{now, Rng};

/// The pre-shared key every simulated device signs its hello with.
pub fn link_key() -> LinkKey {
    LinkKey::from_bytes(*b"tonos-bench-key!")
}

/// The ingest configuration: paper decimation, authenticated devices.
pub fn link_config(reorder_window: u32) -> LinkServerConfig {
    LinkServerConfig {
        decimator: SystemConfig::paper_default().decimator,
        reorder_window,
        auth_key: Some(link_key()),
        require_auth: true,
        ..LinkServerConfig::default()
    }
}

/// One device session, encoded before timing starts.
#[derive(Debug)]
pub struct Stream {
    pub device: u64,
    /// Bytes to write, one entry per wire packet slot (a slot the lossy
    /// transport dropped is empty).
    pub chunks: Vec<Vec<u8>>,
    /// In-process decode of the lossless bytes, by device clock.
    pub lossless: Vec<f64>,
    /// In-process decode of `chunks` with the server's pipeline
    /// settings: what the store must end up holding.
    pub expected: Vec<HostSample>,
    /// Output samples each wire packet carries.
    pub samples_per_packet: usize,
    pub signal_s: f64,
}

impl Stream {
    pub fn bytes(&self) -> Vec<u8> {
        self.chunks.concat()
    }
}

fn decode(config: &LinkServerConfig, chunks: &[Vec<u8>]) -> Result<Vec<HostSample>, String> {
    let mut pipe = HostPipeline::new(&config.decimator, config.calibration, config.policy)
        .map_err(|e| e.to_string())?
        .with_reorder_window(config.reorder_window)
        .with_auth(link_key(), config.require_auth);
    let mut out = Vec::new();
    for c in chunks {
        pipe.push_bytes(c, &mut out);
    }
    Ok(out)
}

/// Simulates `patient` on the device for `signal_s` seconds and encodes
/// the stream with an authenticated hello. With `faults`, every packet
/// after the first (which carries the hello) passes through a seeded
/// lossy transport.
pub fn encode(
    config: &LinkServerConfig,
    patient: &PatientProfile,
    device: u64,
    signal_s: f64,
    faults: Option<(FaultConfig, u64)>,
) -> Result<Stream, String> {
    let system = SystemConfig::paper_default();
    let mut sim = DeviceSimulator::new(&system, patient, signal_s)
        .map_err(|e| e.to_string())?
        .with_auth(link_key(), device, device ^ 0x5EED);
    let mut packets = Vec::new();
    while let Some(p) = sim.next_packet().map_err(|e| e.to_string())? {
        packets.push(p);
    }
    let lossless = decode(config, &packets)?;
    let frames = sim.frames_total();
    if lossless.len() != frames || lossless.iter().any(|s| s.flag != SampleFlag::Clean) {
        return Err(format!(
            "lossless decode gave {} samples for {frames} frames",
            lossless.len()
        ));
    }
    let samples_per_packet = frames.div_ceil(packets.len());
    let chunks = match faults {
        None => packets,
        Some((fault, seed)) => {
            let mut wire = FaultyTransport::new(fault, seed);
            let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(packets.len());
            for (i, p) in packets.iter().enumerate() {
                chunks.push(if i == 0 { p.clone() } else { wire.transmit(p) });
            }
            let tail = wire.flush();
            chunks
                .last_mut()
                .expect("a stream has packets")
                .extend(tail);
            chunks
        }
    };
    let expected = decode(config, &chunks)?;
    Ok(Stream {
        device,
        chunks,
        lossless: lossless.iter().map(|s| s.value_mmhg).collect(),
        expected,
        samples_per_packet,
        signal_s,
    })
}

/// Seeded patients for `n` streams of one workload.
pub fn patients(seed: u64, n: usize) -> Vec<PatientProfile> {
    let all = PatientProfile::all();
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| all[rng.below(all.len())].with_seed(rng.next_u64()))
        .collect()
}

/// One ingest-tap call as the benchmark's tap saw it.
#[derive(Debug, Clone, Copy)]
pub struct TapCall {
    pub conn: u64,
    pub entry: f64,
    pub exit: f64,
    /// Device clocks of the first and last sample; `None` for the
    /// close notification.
    pub range: Option<(u64, u64)>,
}

/// The benchmark's ingest tap: times each call into the hub and hands
/// it on unchanged.
pub struct TracedTap {
    hub: MeasurementHub,
    calls: Mutex<Vec<TapCall>>,
}

impl TracedTap {
    pub fn calls(&self) -> Vec<TapCall> {
        self.calls.lock().expect("tap log lock").clone()
    }

    fn log(&self, call: TapCall) {
        self.calls.lock().expect("tap log lock").push(call);
    }
}

impl IngestTap for TracedTap {
    fn on_samples(&self, session: &TapSession, samples: &[HostSample]) {
        let entry = now();
        self.hub.on_samples(session, samples);
        let exit = now();
        self.log(TapCall {
            conn: session.conn_id,
            entry,
            exit,
            range: samples
                .first()
                .zip(samples.last())
                .map(|(a, b)| (a.index, b.index)),
        });
    }

    fn on_closed(&self, session: &TapSession) {
        let entry = now();
        self.hub.on_closed(session);
        let exit = now();
        self.log(TapCall {
            conn: session.conn_id,
            entry,
            exit,
            range: None,
        });
    }
}

/// A fresh store directory inside the working directory.
fn store_dir(tag: &str) -> Result<PathBuf, String> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A running ward: ingest server, hub, store and API.
pub struct Stack {
    pub server: LinkServer,
    pub api: MeasurementApi,
    pub hub: MeasurementHub,
    /// The store and hub registry, when tracing.
    pub registry: Option<Registry>,
    pub tap: Option<Arc<TracedTap>>,
    dir: PathBuf,
}

impl Stack {
    pub fn start(tag: &str, link: LinkServerConfig, trace: bool) -> Result<Stack, String> {
        let dir = store_dir(tag)?;
        let registry = trace.then(Registry::new);
        let tel = registry
            .as_ref()
            .map_or_else(Telemetry::disabled, Registry::telemetry);
        let (historian, _) =
            Historian::open(&dir, StoreConfig::default(), &tel).map_err(|e| e.to_string())?;
        // Keep every session of a run queryable: the benchmark checks
        // each one after the run.
        let hub_config = HubConfig {
            terminal_keep: 1 << 20,
            ..HubConfig::default()
        };
        let hub = MeasurementHub::new(historian, hub_config, &tel);
        let traced = trace.then(|| {
            Arc::new(TracedTap {
                hub: hub.clone(),
                calls: Mutex::new(Vec::new()),
            })
        });
        let tap: Arc<dyn IngestTap> = match &traced {
            Some(t) => Arc::clone(t) as Arc<dyn IngestTap>,
            None => Arc::new(hub.clone()),
        };
        let server =
            LinkServer::bind_with_tap("127.0.0.1:0", link, Some(tap)).map_err(|e| e.to_string())?;
        let api =
            MeasurementApi::bind("127.0.0.1:0", hub.clone(), &tel).map_err(|e| e.to_string())?;
        Ok(Stack {
            server,
            api,
            hub,
            registry,
            tap: traced,
            dir,
        })
    }

    /// Stops the API and the ingest server (joining their threads) and
    /// returns the server's report and telemetry. The store stays
    /// readable through `hub` until [`Stack::remove`].
    pub fn stop(self) -> (FleetReport, TelemetrySnapshot, Stopped) {
        self.api.shutdown();
        let (report, snapshot) = self.server.shutdown();
        (
            report,
            snapshot,
            Stopped {
                hub: self.hub,
                tap: self.tap,
                dir: self.dir,
            },
        )
    }
}

/// What is left of a stack after its servers stopped.
pub struct Stopped {
    pub hub: MeasurementHub,
    pub tap: Option<Arc<TracedTap>>,
    dir: PathBuf,
}

impl Stopped {
    /// Deletes the run's store directory.
    pub fn remove(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checks one settled session against its stream, straight from the
/// store: every sample present, each bit-identical to the in-process
/// decode of the same wire bytes, and every Clean one bit-identical to
/// the lossless decode.
pub fn check_stored(hub: &MeasurementHub, id: u64, stream: &Stream, tally: &mut Tally) {
    let wave = match hub
        .historian()
        .reader()
        .read_tier(stream.device, id, 0, 0, u64::MAX)
    {
        Ok(w) => w,
        Err(e) => return tally.fail(format!("session {id}: store read failed: {e}")),
    };
    tally.check(wave.points.len() == stream.expected.len(), || {
        format!(
            "session {id}: {} samples stored, {} sent",
            wave.points.len(),
            stream.expected.len()
        )
    });
    let mut mismatches = 0usize;
    for p in &wave.points {
        let i = p.clock as usize;
        let Some(want) = stream.expected.get(i) else {
            mismatches += 1;
            continue;
        };
        let clean_ok = !p.raw.is_finite()
            || stream
                .lossless
                .get(i)
                .is_some_and(|l| l.to_bits() == p.raw.to_bits());
        let flag_ok = (want.flag == SampleFlag::Clean) == p.raw.is_finite();
        if !clean_ok || !flag_ok || want.value_mmhg.to_bits() != p.mmhg.to_bits() {
            mismatches += 1;
        }
    }
    tally.check(mismatches == 0, || {
        format!("session {id}: {mismatches} stored samples differ from the in-process decode")
    });
}

/// Half-closes a device connection and reads until the server closes
/// its side: the server has then processed every byte, and nothing is
/// left unread when the socket drops.
pub fn finish_connection(mut conn: TcpStream) -> Result<(), String> {
    conn.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut sink = [0u8; 512];
    loop {
        match conn.read(&mut sink) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) => return Err(format!("device read: {e}")),
        }
    }
}

/// Connects a device to the ingest server.
pub fn connect(stack_addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(stack_addr).map_err(|e| format!("device connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(conn)
}

/// Writes one chunk.
pub fn send(conn: &mut TcpStream, bytes: &[u8]) -> Result<(), String> {
    conn.write_all(bytes)
        .map_err(|e| format!("device write: {e}"))
}
