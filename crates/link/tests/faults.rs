//! The no-silent-corruption property, under a thousand-plus randomly
//! seeded lossy transports.
//!
//! For every fault cocktail the transport can brew — bit flips, chunk
//! drops, truncation, duplication, reordering, stalls — the pipeline
//! must never emit a wrong value labelled clean. Samples are either
//! bit-identical to the lossless reference at the same device-clock
//! index, or flagged (`Concealed`/`Invalid`) and accounted for in the
//! stream's health counters.

use proptest::prelude::*;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::decimator::DecimatorConfig;
use tonos_dsp::frame::MAX_PAYLOAD_BITS;
use tonos_link::{
    FaultConfig, FaultyTransport, FrameDecoder, FrameEncoder, GapPolicy, HostPipeline, HostSample,
    LinkCalibration, SampleFlag,
};
use tonos_telemetry::{names, Registry};

/// Deterministic pseudo-random bit at position `i` of stream `seed`.
fn bit(seed: u64, i: u64) -> bool {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z & 1 == 1
}

const FRAMES: usize = 48;
const BITS_PER_FRAME: usize = 128;

/// Lossless reference: the decimated stream with no transport at all.
fn reference(seed: u64) -> Vec<f64> {
    let mut dec = DecimatorConfig::paper_default().build().unwrap();
    let mut out = Vec::new();
    for f in 0..FRAMES as u64 {
        let chunk: PackedBits = (0..BITS_PER_FRAME as u64)
            .map(|k| bit(seed, f * BITS_PER_FRAME as u64 + k))
            .collect();
        dec.process_packed_into(&chunk, &mut out);
    }
    out
}

/// Runs one seeded lossy session; returns the pipeline and its output.
fn lossy_session(
    seed: u64,
    faults: FaultConfig,
    policy: GapPolicy,
) -> (HostPipeline, Vec<HostSample>) {
    let mut enc = FrameEncoder::new(0);
    let mut transport = FaultyTransport::new(faults, seed);
    let mut pipe = HostPipeline::new(
        &DecimatorConfig::paper_default(),
        LinkCalibration::identity(),
        policy,
    )
    .unwrap();
    let mut out = Vec::new();
    for f in 0..FRAMES as u64 {
        let chunk: PackedBits = (0..BITS_PER_FRAME as u64)
            .map(|k| bit(seed, f * BITS_PER_FRAME as u64 + k))
            .collect();
        let packet = enc.encode(&chunk).unwrap();
        let delivered = transport.transmit(&packet);
        pipe.push_bytes(&delivered, &mut out);
    }
    let tail = transport.flush();
    pipe.push_bytes(&tail, &mut out);
    (pipe, out)
}

/// The invariant itself, checked for one session.
fn assert_no_silent_corruption(seed: u64, reference: &[f64], samples: &[HostSample]) {
    // Indices are gapless and start at the device's clock zero.
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.index, i as u64, "seed {seed:#x}: index hole at {i}");
    }
    assert!(
        samples.len() <= reference.len(),
        "seed {seed:#x}: more samples than the device produced"
    );
    for s in samples {
        match s.flag {
            SampleFlag::Clean => {
                let expect = reference[s.index as usize];
                assert_eq!(
                    s.value_mmhg.to_bits(),
                    expect.to_bits(),
                    "seed {seed:#x}: clean sample {} is {} but the device produced {}",
                    s.index,
                    s.value_mmhg,
                    expect
                );
            }
            SampleFlag::Concealed => assert!(s.value_mmhg.is_finite()),
            SampleFlag::Invalid => assert!(s.value_mmhg.is_nan()),
        }
    }
}

proptest! {
    // 1024 randomly seeded corruption sessions, plus the explicit
    // fault-class sweeps below: well past the thousand-case bar.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random fault cocktails never produce a wrong clean sample.
    #[test]
    fn no_silent_corruption_under_random_faults(
        seed in any::<u64>(),
        flips in 0.0_f64..0.003,
        drops in 0.0_f64..0.15,
        trunc in 0.0_f64..0.08,
        dup in 0.0_f64..0.08,
        reorder in 0.0_f64..0.08,
        stall in 0.0_f64..0.10,
        hold in prop::bool::ANY,
    ) {
        let faults = FaultConfig {
            bit_flip_per_byte: flips,
            drop_chunk: drops,
            truncate_chunk: trunc,
            duplicate_chunk: dup,
            reorder_chunk: reorder,
            stall_chunk: stall,
        };
        let policy = if hold { GapPolicy::HoldLast } else { GapPolicy::MarkInvalid };
        let reference = reference(seed);
        let (pipe, samples) = lossy_session(seed, faults, policy);
        assert_no_silent_corruption(seed, &reference, &samples);

        // Accounting: the health counters add up to what was emitted,
        // and a session that lost anything says so somewhere.
        let health = pipe.health();
        prop_assert_eq!(health.samples(), samples.len() as u64);
        let flagged = samples.iter().filter(|s| s.flag != SampleFlag::Clean).count();
        prop_assert_eq!(health.concealed_samples + health.invalid_samples, flagged as u64);
        if samples.len() == reference.len() && flagged == 0 {
            // Nothing concealed and full length: the stream must be
            // perfect *and* the decoder must agree nothing went wrong
            // mid-stream (trailing losses are legitimately invisible).
            prop_assert_eq!(health.decoder.gap_events, 0);
        }
    }
}

/// Each fault class in isolation, across many seeds — so a regression
/// in one class cannot hide inside the cocktail distribution.
#[test]
fn every_fault_class_alone_is_survivable() {
    let classes: [(&str, FaultConfig); 6] = [
        (
            "flips",
            FaultConfig {
                bit_flip_per_byte: 0.002,
                ..FaultConfig::clean()
            },
        ),
        (
            "drops",
            FaultConfig {
                drop_chunk: 0.2,
                ..FaultConfig::clean()
            },
        ),
        (
            "trunc",
            FaultConfig {
                truncate_chunk: 0.2,
                ..FaultConfig::clean()
            },
        ),
        (
            "dup",
            FaultConfig {
                duplicate_chunk: 0.3,
                ..FaultConfig::clean()
            },
        ),
        (
            "reorder",
            FaultConfig {
                reorder_chunk: 0.3,
                ..FaultConfig::clean()
            },
        ),
        (
            "stall",
            FaultConfig {
                stall_chunk: 0.4,
                ..FaultConfig::clean()
            },
        ),
    ];
    for (name, faults) in classes {
        for seed in 0..24u64 {
            let reference = reference(seed);
            let (_, samples) = lossy_session(seed, faults, GapPolicy::HoldLast);
            assert!(
                !samples.is_empty() || faults.drop_chunk > 0.0,
                "{name}/{seed}"
            );
            assert_no_silent_corruption(seed, &reference, &samples);
        }
    }
}

/// The telemetry view of a lossy session matches the decoder's own
/// statistics — operators see the same truth the tests assert on.
#[test]
fn telemetry_counters_match_decoder_statistics() {
    let registry = Registry::new();
    let seed = 0xBAD_CAB1E;
    let mut enc = FrameEncoder::new(0).with_telemetry(&registry.telemetry());
    let mut transport = FaultyTransport::new(FaultConfig::noisy(), seed);
    let mut pipe = HostPipeline::new(
        &DecimatorConfig::paper_default(),
        LinkCalibration::identity(),
        GapPolicy::HoldLast,
    )
    .unwrap()
    .with_telemetry(&registry.telemetry());

    let mut out = Vec::new();
    for f in 0..200u64 {
        let chunk: PackedBits = (0..128u64).map(|k| bit(seed, f * 128 + k)).collect();
        let packet = enc.encode(&chunk).unwrap();
        let delivered = transport.transmit(&packet);
        pipe.push_bytes(&delivered, &mut out);
    }
    pipe.push_bytes(&transport.flush(), &mut out);

    let stats = pipe.health();
    let snapshot = registry.snapshot();
    let counter = |name: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(counter(names::LINK_FRAMES_TX), 200);
    assert_eq!(counter(names::LINK_FRAMES_RX), stats.decoder.frames);
    assert_eq!(counter(names::LINK_CRC_FAIL), stats.decoder.crc_failures);
    assert_eq!(counter(names::LINK_RESYNCS), stats.decoder.resyncs);
    assert_eq!(counter(names::LINK_GAP_EVENTS), stats.decoder.gap_events);
    assert_eq!(counter(names::LINK_GAP_FRAMES), stats.decoder.lost_frames);
    assert_eq!(
        counter(names::LINK_STALE_FRAMES),
        stats.decoder.stale_frames
    );
    assert_eq!(counter(names::LINK_SAMPLES_CLEAN), stats.clean_samples);
    assert_eq!(counter(names::LINK_GAPS_CONCEALED), stats.concealed_samples);
    assert_eq!(counter(names::LINK_SAMPLES_INVALID), stats.invalid_samples);
    // The transport really did damage this stream.
    assert!(stats.decoder.gap_events > 0);
    assert!(stats.decoder.crc_failures > 0);
}

/// Deterministic pseudo-random value `i` of stream `seed`, below `bound`.
fn below(seed: u64, i: u64, bound: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 29)) % bound
}

/// Offset of the 32-bit payload-length field inside a frame.
const LENGTH_FIELD: usize = 19;

/// A stream of frames of random sizes, some with their length field
/// replaced by an in-range lie (so the parser waits for the declared
/// bytes instead of rejecting the header), then sprinkled with bit
/// flips.
fn lying_stream(seed: u64) -> Vec<u8> {
    let mut enc = FrameEncoder::new(0);
    let mut wire = Vec::new();
    let frames = 4 + below(seed, 0, 20);
    for f in 0..frames {
        let start = wire.len();
        let n = below(seed, 100 + f, 1025);
        let chunk: PackedBits = (0..n).map(|k| bit(seed, f * 2048 + k)).collect();
        enc.encode_into(&chunk, &mut wire).unwrap();
        if below(seed, 200 + f, 4) == 0 {
            // Half the lies run past the end of the stream, half stay
            // near the true size (landing on or inside later frames).
            let lie = if below(seed, 300 + f, 2) == 0 {
                below(seed, 400 + f, u64::from(MAX_PAYLOAD_BITS) + 1)
            } else {
                below(seed, 400 + f, 8 * 1024)
            } as u32;
            wire[start + LENGTH_FIELD..start + LENGTH_FIELD + 4]
                .copy_from_slice(&lie.to_le_bytes());
        }
    }
    let flips = below(seed, 1, 4);
    for k in 0..flips {
        let at = below(seed, 500 + k, wire.len() as u64 * 8);
        wire[(at / 8) as usize] ^= 1 << (at % 8);
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lying length fields and bit flips decode to the same events and
    /// statistics whichever way the transport splits the bytes: the
    /// nested-frame rule looks only at bytes inside a candidate's
    /// declared extent, and a frame found there stays found as more
    /// bytes arrive.
    #[test]
    fn every_split_decodes_like_one_shot(seed in any::<u64>(), window in 0u32..3) {
        let wire = lying_stream(seed);
        let decoder = || FrameDecoder::new().with_reorder_window(window * 4);
        let mut one_shot = decoder();
        let mut expected = Vec::new();
        one_shot.push(&wire, &mut expected);

        for split in 0..4u64 {
            let mut dec = decoder();
            let mut events = Vec::new();
            let mut at = 0;
            while at < wire.len() {
                // Split 0 dribbles single bytes; the rest cut at random.
                let len = if split == 0 { 1 } else { 1 + below(seed ^ split, at as u64, 200) as usize };
                let end = (at + len).min(wire.len());
                dec.push(&wire[at..end], &mut events);
                at = end;
            }
            prop_assert_eq!(&events, &expected);
            prop_assert_eq!(dec.stats(), one_shot.stats());
        }
    }
}

/// A length lie in the last second of a session must not swallow the
/// rest of it: the frames after the lying header are delivered and the
/// session ends with every sample the device produced (the lied-about
/// frame concealed), where waiting for the declared bytes would drop
/// every later frame at end of stream.
#[test]
fn a_length_lie_near_the_end_loses_only_its_own_frame() {
    const FRAMES: u64 = 1000; // 8 s at the paper's 1 kHz output rate
    const LIAR: usize = 930;
    let seed = 0x7A11_1055;
    let mut enc = FrameEncoder::new(0);
    let mut wire = Vec::new();
    let mut liar_start = 0;
    for f in 0..FRAMES {
        if f as usize == LIAR {
            liar_start = wire.len();
        }
        let chunk: PackedBits = (0..1024u64).map(|k| bit(seed, f * 1024 + k)).collect();
        enc.encode_into(&chunk, &mut wire).unwrap();
    }
    // 236 544 bits: ~29 KiB declared, ~11 KiB actually left to send.
    wire[liar_start + LENGTH_FIELD..liar_start + LENGTH_FIELD + 4]
        .copy_from_slice(&236_544u32.to_le_bytes());

    let registry = Registry::new();
    let mut pipe = HostPipeline::new(
        &DecimatorConfig::paper_default(),
        LinkCalibration::identity(),
        GapPolicy::HoldLast,
    )
    .unwrap()
    .with_telemetry(&registry.telemetry());
    let mut out = Vec::new();
    for packet in wire.chunks(155 * 4) {
        pipe.push_bytes(packet, &mut out);
    }

    assert_eq!(out.len(), 8_000, "samples lost at end of stream");
    let stats = pipe.health().decoder;
    assert_eq!(stats.frames, FRAMES - 1);
    assert_eq!(stats.gap_events, 1);
    assert_eq!(stats.lost_frames, 1);
    assert_eq!(stats.length_rejects, 1);
    assert_eq!(stats.crc_failures, 0);
    // The lost frame is concealed, and the concealment settles well
    // before the end: the frames after the lie decode clean.
    assert!(out[LIAR * 8..]
        .iter()
        .any(|s| s.flag == SampleFlag::Concealed));
    assert!(out[7_500..].iter().all(|s| s.flag == SampleFlag::Clean));
    let snapshot = registry.snapshot();
    let length_rejects = snapshot
        .counters
        .iter()
        .find(|c| c.name == names::LINK_LENGTH_REJECTS)
        .map_or(0, |c| c.value);
    assert_eq!(length_rejects, stats.length_rejects);
}
