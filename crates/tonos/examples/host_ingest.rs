//! The host half of the link, end to end on one machine: a concurrent
//! TCP ingest server fed by several simulated devices — most on clean
//! transports, one behind a deliberately lossy wire — showing frame
//! resynchronization, gap concealment, and the fleet report that a
//! ward's worth of sockets rolls up into.
//!
//! Run with: `cargo run --release --example host_ingest`
//!
//! To drive it from a separate process instead, bump `IDLE_EXIT` and
//! point `cargo run --release --example device_sim -- <addr>` at the
//! printed address.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use tonos::link::{
    DeviceSimulator, FaultConfig, FaultyTransport, LinkCalibration, LinkServer, LinkServerConfig,
};
use tonos::mems::units::MillimetersHg;
use tonos::physio::patient::PatientProfile;
use tonos::system::config::SystemConfig;
use tonos::telemetry::names;

const DEVICES: usize = 4;
const DURATION_S: f64 = 6.0;

fn main() {
    let config = SystemConfig::paper_default();
    // Calibrate the host side against the known device configuration by
    // probing an in-process readout at two reference pressures, exactly
    // as a bench calibration run would.
    let calibration =
        LinkCalibration::two_point(&config, MillimetersHg(60.0), MillimetersHg(180.0))
            .expect("two-point calibration");
    let server = LinkServer::bind(
        "127.0.0.1:0",
        LinkServerConfig {
            decimator: config.decimator,
            calibration,
            ..LinkServerConfig::default()
        },
    )
    .expect("bind ingest server");
    let addr = server.local_addr();
    println!("ingest server listening on {addr}");

    // Three patients on clean wires, one hypertensive patient behind a
    // transport that flips bits, drops chunks, and stalls — the server
    // must flag and conceal that stream, never silently corrupt it.
    let devices: Vec<_> = (0..DEVICES)
        .map(|i| {
            thread::spawn(move || {
                let (patient, faults) = match i {
                    0 => (PatientProfile::normotensive(), FaultConfig::clean()),
                    1 => (PatientProfile::hypotensive(), FaultConfig::clean()),
                    2 => (PatientProfile::hypertensive(), FaultConfig::noisy()),
                    _ => (
                        PatientProfile::normotensive().with_seed(0xBED + i as u64),
                        FaultConfig::clean(),
                    ),
                };
                let label = format!(
                    "{} ({})",
                    patient.name,
                    if faults.drop_chunk > 0.0 {
                        "noisy wire"
                    } else {
                        "clean wire"
                    }
                );
                let mut device =
                    DeviceSimulator::new(&config, &patient, DURATION_S).expect("device");
                let mut transport = FaultyTransport::new(faults, 0x1D_EA + i as u64);
                let mut stream = TcpStream::connect(addr).expect("connect");
                while let Some(packet) = device.next_packet().expect("conversion") {
                    stream
                        .write_all(&transport.transmit(&packet))
                        .expect("stream");
                }
                stream.write_all(&transport.flush()).expect("stream");
                label
            })
        })
        .collect();
    for d in devices {
        println!("device finished: {}", d.join().expect("device thread"));
    }

    // Readers drain to EOF once the sockets close; give them a moment.
    while server.connections() < DEVICES {
        thread::sleep(Duration::from_millis(10));
    }
    thread::sleep(Duration::from_millis(300));
    let (report, snapshot) = server.shutdown();

    print!("\n{report}");
    let counter = |name: &str| -> u64 { snapshot.counter(name).unwrap_or(0) };
    println!("\nlink telemetry rollup:");
    println!(
        "  {} connections, {} frames in ({} bytes), {} clean samples",
        counter(names::LINK_CONNECTIONS),
        counter(names::LINK_FRAMES_RX),
        counter(names::LINK_BYTES_RX),
        counter(names::LINK_SAMPLES_CLEAN),
    );
    println!(
        "  {} CRC rejects, {} length rejects, {} resyncs, {} gap events ({} frames lost), {} samples concealed",
        counter(names::LINK_CRC_FAIL),
        counter(names::LINK_LENGTH_REJECTS),
        counter(names::LINK_RESYNCS),
        counter(names::LINK_GAP_EVENTS),
        counter(names::LINK_GAP_FRAMES),
        counter(names::LINK_GAPS_CONCEALED),
    );
    println!(
        "  {} stale frames dropped, {} slow consumers evicted",
        counter(names::LINK_STALE_FRAMES),
        counter(names::LINK_SLOW_CONSUMER_DISCONNECTS),
    );
}
