//! Hot-path throughput measurement — the numbers behind
//! `BENCH_hotpath.json`.
//!
//! Measures the zero-allocation packed-bit signal chain per stage and
//! end to end, and prints one JSON document:
//!
//! 1. Packed-bit (word-parallel CIC) vs legacy f64 decimation
//!    throughput, Mbit/s through the paper-default two-stage chain.
//! 2. Per-stage costs in ns: one modulator clock (block stepper), one
//!    banked clock-lane through the tiled K=16 kernel, the K=16 loop
//!    filter alone on the dispatched kernel and on the portable tile
//!    loop (same tiles, back to back), one CIC input bit (word kernel),
//!    one FIR input sample, and one settled readout frame — plus the
//!    `noise` block: ns/draw for serial `standard()`,
//!    the portable lockstep rows, and the dispatched (wide) fill, with
//!    the noise kernel name and in-run same-rep speedup gates.
//! 3. Single-thread monitoring-session throughput (sessions/s), the
//!    single-core lane-bank K sweep, and the W × K pool sweep
//!    (`BatchEngine` on the fleet worker pool: W workers, K lanes
//!    each). Scalar and banked runs are interleaved rep by rep so host
//!    drift hits both sides of every ratio equally.
//!
//! Every gate is a numeric `gate_*` field in the JSON `gates` block and
//! is asserted by this binary (exit nonzero on miss) — the CI
//! perf-smoke gate. Gate levels scale with the detected core count
//! (the 4x pool target assumes an 8-core host; single-core hosts only
//! sanity-check the pool) and `--quick` relaxes every gate to 60% for
//! noisy CI runners.
//!
//! Run with: `cargo run --release -p tonos-bench --bin hotpath_throughput`
//! (`--quick` shrinks the workload for CI smoke runs). The lane bank
//! picks its tile kernel from the host CPU at run time — AVX-512F or
//! AVX2 intrinsics on x86-64 hosts that have them, the portable scalar
//! tile loop otherwise — and the `kernel` JSON field records which one
//! ran; `TONOS_FORCE_KERNEL=scalar-tile` measures the portable loop on
//! any host.

use std::time::Instant;

use tonos_analog::bank::{kernel_name, SigmaDelta2Bank};
use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_analog::noise::{kernel_name as noise_kernel_name, LockstepFill, NoiseSource};
use tonos_analog::nonideal::NonIdealities;
use tonos_core::batch::run_batch;
use tonos_core::config::SystemConfig;
use tonos_core::monitor::BloodPressureMonitor;
use tonos_core::readout::ReadoutSystem;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::cic::CicDecimator;
use tonos_dsp::decimator::{DecimatorConfig, CIC_INPUT_FRAC_BITS};
use tonos_dsp::fir::FirDecimator;
use tonos_dsp::signal::sine_wave;
use tonos_fleet::{BatchConfig, BatchEngine, FleetConfig, FleetEngine, SessionSpec};
use tonos_mems::units::{MillimetersHg, Pascals};
use tonos_physio::patient::PatientProfile;

/// One real-time second of modulator clocks.
const CLOCKS: usize = 128_000;

/// The scalar single-thread figure recorded in `BENCH_hotpath.json`
/// before the lane bank landed (commit f5bd278, this host class,
/// 8 s sessions). Reported as data, not gated: absolute sessions/s
/// tracks the host's speed of the day as much as the code (observed
/// swinging ±40% on shared hosts), so every asserted gate is an
/// in-run ratio whose two sides are measured back to back instead.
const SEED_SCALAR_SESSIONS_PER_S: f64 = 18.203;

/// Best-of-N wall-clock seconds for a closure processing `items` items;
/// returns (items/s, ns/item).
fn rate(reps: usize, items: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (items as f64 / best, best * 1e9 / items as f64)
}

fn decimation_mbps(packed: bool, seconds: usize, reps: usize) -> f64 {
    let n = CLOCKS * seconds;
    let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let mut dec = DecimatorConfig::paper_default().build().unwrap();
    if packed {
        let bits: PackedBits = bools.iter().copied().collect();
        let mut out = Vec::with_capacity(n / 128 + 1);
        let (per_s, _) = rate(reps, n, || {
            out.clear();
            dec.process_packed_into(&bits, &mut out);
            assert!(!out.is_empty());
        });
        per_s / 1e6
    } else {
        let floats: Vec<f64> = bools.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let mut out = Vec::with_capacity(n / 128 + 1);
        let (per_s, _) = rate(reps, n, || {
            out.clear();
            dec.process_into(&floats, &mut out);
            assert!(!out.is_empty());
        });
        per_s / 1e6
    }
}

fn modulator_ns_per_clock(reps: usize) -> f64 {
    let stim = sine_wave(128_000.0, 100.0, 0.5, 0.0, CLOCKS);
    let mut dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
    let mut noise = Vec::with_capacity(CLOCKS);
    let mut bits = PackedBits::with_capacity(CLOCKS);
    let (_, ns) = rate(reps, CLOCKS, || {
        bits.clear();
        dsm.step_block(&stim, &mut noise, &mut bits);
        assert_eq!(bits.len(), CLOCKS);
    });
    ns
}

/// Banked modulator cost through the tiled chunk kernel: ns per
/// clock-lane for K lanes stepping one real-time second in lockstep.
/// The ratio against [`modulator_ns_per_clock`] is the clock-level
/// tiling win — the number the `gate_tiled_k16_clock_speedup_min` gate
/// tracks, independent of the scalar stages wrapped around a session.
fn bank_ns_per_clock_lane(reps: usize, k: usize) -> f64 {
    let mut bank = SigmaDelta2Bank::from_modulators((0..k).map(|i| {
        SigmaDelta2::new(NonIdealities::typical().with_seed(9000 + i as u64)).expect("valid config")
    }));
    let inputs = vec![0.2; k];
    let mut bits = vec![PackedBits::with_capacity(CLOCKS); k];
    // Step in cache-resident blocks, like the session path does (one
    // OSR frame per call): one giant block would grow the noise-tile
    // scratch past the cache and measure memory, not the kernel.
    let block = 5120; // 25 blocks of one real-time second, 64-clock aligned
    let (_, ns) = rate(reps, CLOCKS * k, || {
        for b in &mut bits {
            b.clear();
        }
        for _ in 0..CLOCKS / block {
            bank.step_block_constant(block, &inputs, &mut bits);
        }
        assert_eq!(bits[0].len(), CLOCKS);
    });
    ns
}

/// Loop-filter pass alone, K lanes: ns per clock-lane for the
/// dispatched chunk kernel and for the portable tile loop, re-run over
/// the same filled input and noise tiles and interleaved rep by rep.
/// Returns `(wide_ns, portable_ns, best same-rep wide speedup)` — the
/// ratio the loop-filter gate holds, so a codegen slide of the wide
/// kernel back to scalar code fails the run.
fn loop_filter_ns_per_clock_lane(reps: usize, k: usize) -> (f64, f64, f64) {
    const BLOCK: usize = 5120;
    const PASSES: usize = 25;
    let mut bank = SigmaDelta2Bank::from_modulators((0..k).map(|i| {
        SigmaDelta2::new(NonIdealities::typical().with_seed(9100 + i as u64)).expect("valid config")
    }));
    let mut bits = vec![PackedBits::with_capacity(BLOCK * PASSES); k];
    bank.step_block_constant(BLOCK, &vec![0.2; k], &mut bits);
    let clock_lanes = (BLOCK * PASSES * k) as f64;
    let mut time = |portable: bool| {
        for b in &mut bits {
            b.clear();
        }
        let t = Instant::now();
        for _ in 0..PASSES {
            if portable {
                bank.rerun_loop_filter_portable(BLOCK, &mut bits);
            } else {
                bank.rerun_loop_filter(BLOCK, &mut bits);
            }
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / clock_lanes;
        assert_eq!(std::hint::black_box(&bits)[0].len(), BLOCK * PASSES);
        ns
    };
    let (mut wide_best, mut portable_best, mut speedup) = (f64::INFINITY, f64::INFINITY, 0.0_f64);
    for _ in 0..reps.max(2) {
        let wide_ns = time(false);
        let portable_ns = time(true);
        wide_best = wide_best.min(wide_ns);
        portable_best = portable_best.min(portable_ns);
        speedup = speedup.max(portable_ns / wide_ns);
    }
    (wide_best, portable_best, speedup)
}

/// Noise-plane measurement: ns/draw for the serial per-stream
/// `standard()` loop, the portable lockstep rows, and the dispatched
/// fill (the explicit-SIMD wide kernel when the build and CPU provide
/// one — same body as portable otherwise). The three legs are
/// interleaved rep by rep, so the returned speedups are best *same-rep*
/// ratios (host drift cancels): `(serial_ns, lockstep_ns, wide_ns,
/// lockstep_vs_serial, wide_vs_lockstep)`.
fn noise_ns_per_draw(reps: usize) -> (f64, f64, f64, f64, f64) {
    const K: usize = 16;
    // Cache-resident tile (2048 x 16 x 8 B = 256 KiB), several passes
    // per timed leg so one leg is long enough to time.
    const TILE_CLOCKS: usize = 2048;
    const PASSES: usize = 8;
    let draws = K * TILE_CLOCKS * PASSES;
    let sigmas: Vec<f64> = (0..K).map(|j| 1e-3 + j as f64 * 1e-4).collect();
    let sources: Vec<NoiseSource> = (0..K)
        .map(|j| NoiseSource::from_seed(0x5EED + j as u64))
        .collect();
    let mut tile = vec![0.0_f64; K * TILE_CLOCKS];
    let mut serial_best = f64::INFINITY;
    let mut lockstep_best = f64::INFINITY;
    let mut wide_best = f64::INFINITY;
    let mut lockstep_vs_serial = 0.0_f64;
    let mut wide_vs_lockstep = 0.0_f64;
    for _ in 0..reps.max(2) {
        // Serial leg: per-draw scalar `standard()` calls, stream by
        // stream — the latency-bound baseline the lockstep fill beats.
        let mut srcs = sources.clone();
        let t = Instant::now();
        for _ in 0..PASSES {
            for n in 0..TILE_CLOCKS {
                for (j, src) in srcs.iter_mut().enumerate() {
                    tile[n * K + j] = src.standard() * sigmas[j];
                }
            }
        }
        let serial_ns = t.elapsed().as_secs_f64() * 1e9 / draws as f64;
        std::hint::black_box(&tile);

        // Portable lockstep rows, pinned (the always-compiled oracle).
        let mut fill = LockstepFill::new();
        fill.begin(K);
        for src in &sources {
            fill.load(src);
        }
        let t = Instant::now();
        for _ in 0..PASSES {
            fill.fill_scaled_portable(&sigmas, TILE_CLOCKS, &mut tile);
        }
        let lockstep_ns = t.elapsed().as_secs_f64() * 1e9 / draws as f64;
        std::hint::black_box(&tile);

        // Dispatched fill — the wide kernel when one is active.
        let mut fill = LockstepFill::new();
        fill.begin(K);
        for src in &sources {
            fill.load(src);
        }
        let t = Instant::now();
        for _ in 0..PASSES {
            fill.fill_scaled(&sigmas, TILE_CLOCKS, &mut tile);
        }
        let wide_ns = t.elapsed().as_secs_f64() * 1e9 / draws as f64;
        std::hint::black_box(&tile);

        serial_best = serial_best.min(serial_ns);
        lockstep_best = lockstep_best.min(lockstep_ns);
        wide_best = wide_best.min(wide_ns);
        lockstep_vs_serial = lockstep_vs_serial.max(serial_ns / lockstep_ns);
        wide_vs_lockstep = wide_vs_lockstep.max(lockstep_ns / wide_ns);
    }
    (
        serial_best,
        lockstep_best,
        wide_best,
        lockstep_vs_serial,
        wide_vs_lockstep,
    )
}

fn cic_ns_per_bit(reps: usize) -> f64 {
    let bits: PackedBits = (0..CLOCKS).map(|i| i % 3 == 0).collect();
    let scale = 1_i64 << CIC_INPUT_FRAC_BITS;
    let mut cic = CicDecimator::new(3, 32).unwrap();
    let mut out = Vec::with_capacity(CLOCKS / 32 + 1);
    let (_, ns) = rate(reps, CLOCKS, || {
        out.clear();
        cic.process_packed_into(&bits, scale, &mut out);
        assert!(!out.is_empty());
    });
    ns
}

fn fir_ns_per_sample(reps: usize) -> f64 {
    let n = CLOCKS / 32; // the CIC's 4 kS/s intermediate rate
    let xs = sine_wave(4_000.0, 100.0, 0.5, 0.0, n);
    let mut fir = FirDecimator::paper_default();
    let (_, ns) = rate(reps, n, || {
        let mut acc = 0.0;
        for &x in &xs {
            if let Some(y) = fir.push(x) {
                acc += y;
            }
        }
        std::hint::black_box(acc);
    });
    ns
}

fn frame_ns(reps: usize, frames: usize) -> f64 {
    let mut sys = ReadoutSystem::paper_default().unwrap();
    let frame = vec![Pascals::from_mmhg(MillimetersHg(100.0)); 4];
    for _ in 0..16 {
        sys.push_frame(&frame).unwrap();
    }
    let (_, ns) = rate(reps, frames, || {
        for _ in 0..frames {
            std::hint::black_box(sys.push_frame(&frame).unwrap());
        }
    });
    ns
}

fn single_thread_run(sessions: usize, duration_s: f64) -> f64 {
    let profiles = PatientProfile::all();
    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 1 });
    let t = Instant::now();
    for i in 0..sessions {
        fleet.push(
            SessionSpec::new(
                format!("hotpath-{i}"),
                profiles[i % profiles.len()].with_seed(1000 + i as u64),
            )
            .with_duration(duration_s)
            .with_scan_window(150),
        );
    }
    let report = fleet.drain();
    let dt = t.elapsed().as_secs_f64();
    assert!(report.failures().is_empty(), "bench sessions must complete");
    sessions as f64 / dt
}

/// Single-core sessions/s with K sessions banked on one SoA lane bank
/// (`tonos_core::batch::run_batch`). Monitor construction is inside the
/// timed region, matching the scalar measurement above.
fn banked_run(k: usize, duration_s: f64) -> f64 {
    let profiles = PatientProfile::all();
    let t = Instant::now();
    let mut monitors: Vec<BloodPressureMonitor> = (0..k)
        .map(|i| {
            BloodPressureMonitor::new(
                SystemConfig::paper_default(),
                profiles[i % profiles.len()].with_seed(2000 + i as u64),
            )
            .unwrap()
            .with_scan_window(150)
        })
        .collect();
    let sessions = run_batch(&mut monitors, duration_s).unwrap();
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(sessions.len(), k, "bench batch must complete");
    for s in &sessions {
        assert!(s.analysis.pulse_rate_bpm > 40.0, "bench lane degenerated");
    }
    k as f64 / dt
}

/// Sessions/s through a [`BatchEngine`] of W fleet workers with K-lane
/// banks — one full group per worker, so the pool sweep exercises the
/// shard queues, work stealing, and per-worker scratch reuse.
fn pool_run(w: usize, k: usize, duration_s: f64) -> f64 {
    let profiles = PatientProfile::all();
    let total = w * k;
    let mut engine = BatchEngine::spawn(BatchConfig {
        workers: w,
        lanes: k,
    });
    let t = Instant::now();
    for i in 0..total {
        engine.push(
            SessionSpec::new(
                format!("pool-{w}x{k}-{i}"),
                profiles[i % profiles.len()].with_seed(3000 + i as u64),
            )
            .with_duration(duration_s)
            .with_scan_window(150),
        );
    }
    let report = engine.drain();
    let dt = t.elapsed().as_secs_f64();
    assert!(report.failures().is_empty(), "bench sessions must complete");
    total as f64 / dt
}

struct GateCheck {
    name: &'static str,
    measured: f64,
    min: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = kernel_name();
    let wide = kernel.starts_with("wide");
    let (reps, dec_seconds, sessions, duration_s) = if quick {
        (2, 2, 2, 6.0)
    } else {
        (5, 8, 8, 8.0)
    };
    eprintln!(
        "measuring on {cores} hardware thread(s), kernel {kernel}{}...",
        if quick { " (quick)" } else { "" }
    );

    let f64_mbps = decimation_mbps(false, dec_seconds, reps);
    let packed_mbps = decimation_mbps(true, dec_seconds, reps);
    eprintln!("  decimation: f64 {f64_mbps:.2} Mbit/s, packed {packed_mbps:.2} Mbit/s");
    let mod_ns = modulator_ns_per_clock(reps);
    let bank16_ns = bank_ns_per_clock_lane(reps, 16);
    let tiled_k16_clock_speedup = mod_ns / bank16_ns;
    let (lf_wide_ns, lf_portable_ns, lf_speedup) = loop_filter_ns_per_clock_lane(reps, 16);
    let cic_ns = cic_ns_per_bit(reps);
    let fir_ns = fir_ns_per_sample(reps);
    let fr_ns = frame_ns(reps, if quick { 500 } else { 2000 });
    eprintln!(
        "  stages: modulator {mod_ns:.1} ns/clock, tiled K=16 {bank16_ns:.2} ns/clock-lane \
         ({tiled_k16_clock_speedup:.2}x), cic {cic_ns:.2} ns/bit, fir {fir_ns:.1} ns/sample, \
         frame {fr_ns:.0} ns"
    );
    eprintln!(
        "  loop filter K=16 ({kernel}): {lf_wide_ns:.2} ns/clock-lane, portable tile loop \
         {lf_portable_ns:.2} ns/clock-lane ({lf_speedup:.2}x)"
    );
    let noise_kernel = noise_kernel_name();
    let noise_wide = noise_kernel.starts_with("wide");
    let (
        noise_serial_ns,
        noise_lockstep_ns,
        noise_wide_ns,
        noise_lockstep_speedup,
        noise_wide_speedup,
    ) = noise_ns_per_draw(reps);
    eprintln!(
        "  noise ({noise_kernel}): serial {noise_serial_ns:.2} ns/draw, lockstep \
         {noise_lockstep_ns:.2} ns/draw ({noise_lockstep_speedup:.2}x), wide \
         {noise_wide_ns:.2} ns/draw ({noise_wide_speedup:.2}x lockstep)"
    );

    // Session-level sweep, interleaved: each rep measures the scalar
    // baseline, every banked K, and every W x K pool cell back to back,
    // so slow host drift moves every side of a ratio together instead
    // of biasing whichever leg ran last. Speedups are computed within a
    // rep (best rep wins); absolute sessions/s are best-of-reps.
    // K=5 and K=13 are batch_cohort's group shapes: a partial tile
    // alone and behind a full one.
    let lane_counts: &[usize] = &[1, 2, 4, 5, 8, 13, 16];
    let pool_ws: &[usize] = &[1, 2, 4];
    let pool_ks: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16] };
    let session_reps = if quick { 1 } else { 3 };
    let mut scalar_reps = vec![0.0_f64; session_reps];
    let mut banked_reps = vec![vec![0.0_f64; session_reps]; lane_counts.len()];
    let mut pool_reps = vec![vec![vec![0.0_f64; session_reps]; pool_ks.len()]; pool_ws.len()];
    for rep in 0..session_reps {
        eprintln!("  session sweep rep {}/{}...", rep + 1, session_reps);
        scalar_reps[rep] = single_thread_run(sessions, duration_s);
        for (j, &k) in lane_counts.iter().enumerate() {
            banked_reps[j][rep] = banked_run(k, duration_s);
        }
        for (wi, &w) in pool_ws.iter().enumerate() {
            for (ki, &k) in pool_ks.iter().enumerate() {
                pool_reps[wi][ki][rep] = pool_run(w, k, duration_s);
            }
        }
    }
    let best = |xs: &[f64]| xs.iter().cloned().fold(0.0_f64, f64::max);
    // Drift-robust speedup: best same-rep ratio against the scalar leg.
    let ratio = |xs: &[f64]| {
        xs.iter()
            .zip(&scalar_reps)
            .map(|(&x, &s)| x / s)
            .fold(0.0_f64, f64::max)
    };
    let sessions_per_s = best(&scalar_reps);
    eprintln!("  single-thread sessions/s: {sessions_per_s:.3}");
    let banked: Vec<(usize, f64, f64)> = lane_counts
        .iter()
        .zip(&banked_reps)
        .map(|(&k, reps)| (k, best(reps), ratio(reps)))
        .collect();
    for &(k, per_s, speedup) in &banked {
        eprintln!("  banked K={k}: {per_s:.3} sessions/s ({speedup:.2}x scalar)");
    }
    let mut best_wxk = (pool_ws[0], pool_ks[0], 0.0_f64, 0.0_f64);
    for (wi, &w) in pool_ws.iter().enumerate() {
        for (ki, &k) in pool_ks.iter().enumerate() {
            let per_s = best(&pool_reps[wi][ki]);
            let speedup = ratio(&pool_reps[wi][ki]);
            eprintln!("  pool W={w} K={k}: {per_s:.3} sessions/s ({speedup:.2}x scalar)");
            if speedup > best_wxk.3 {
                best_wxk = (w, k, per_s, speedup);
            }
        }
    }

    let (_, k8_per_s, k8_speedup) = *banked.iter().find(|(k, ..)| *k == 8).unwrap();
    let k8_vs_seed = k8_per_s / SEED_SCALAR_SESSIONS_PER_S;
    let (_, k16_per_s, k16_speedup) = *banked.iter().find(|(k, ..)| *k == 16).unwrap();
    // "Single-core K=16": the direct banked run or the one-worker
    // K=16 pool cell, whichever same-rep ratio is better — both step
    // sixteen lanes on one core.
    let k16_single_core_speedup = pool_ws
        .iter()
        .position(|&w| w == 1)
        .and_then(|wi| {
            pool_ks
                .iter()
                .position(|&k| k == 16)
                .map(|ki| ratio(&pool_reps[wi][ki]))
        })
        .unwrap_or(0.0)
        .max(k16_speedup);
    let best_wxk_speedup = best_wxk.3;

    // --- Gates: numeric, core-scaled, quick-relaxed, all asserted. ---
    // The pool target encodes "4x assumes an 8-core host": full 4.0
    // only with >= 8 cores, 2.5 on any multi-core host, and a bare
    // sanity floor on a single core (where W > 1 cannot speed anything
    // up). The K=16 session gate (1.6x on any host) rides the wide
    // kernel at the clock level too, with a "tiling must not lose"
    // floor when the portable scalar-tile kernel runs.
    let relax = if quick { 0.6 } else { 1.0 };
    let gate_packed = 1.0 * relax;
    let gate_tiled_clock = relax * if wide { 1.25 } else { 0.9 };
    // The loop filter alone, wide chunk kernel vs the portable tile
    // loop on the same tiles (must-not-lose floor when the portable
    // loop is what dispatch picked, so both legs run the same body).
    let gate_loop_filter = relax * if wide { 2.0 } else { 0.9 };
    // Noise-plane gates, both in-run same-rep ratios: the wide kernel
    // must beat the portable lockstep rows by 1.5x when a wide ISA is
    // active (must-not-lose floor otherwise, where both legs run the
    // same body), and going lockstep must never lose to the serial
    // per-draw loop.
    let gate_noise_wide = relax * if noise_wide { 1.5 } else { 0.9 };
    let gate_noise_lockstep = 1.0 * relax;
    let gate_k16 = 1.6 * relax;
    let gate_k8_scalar = 1.2 * relax;
    let gate_pool = relax
        * if cores >= 8 {
            4.0
        } else if cores >= 2 {
            2.5
        } else {
            0.9
        };

    println!("{{");
    println!("  \"bench\": \"hotpath_throughput\",");
    println!("  \"quick\": {quick},");
    println!("  \"host_hardware_threads\": {cores},");
    println!("  \"kernel\": \"{kernel}\",");
    println!("  \"decimation\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"f64_path_mbit_per_s\": {f64_mbps:.2},");
    println!("    \"packed_path_mbit_per_s\": {packed_mbps:.2},");
    println!("    \"packed_speedup\": {:.3}", packed_mbps / f64_mbps);
    println!("  }},");
    println!("  \"stages\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"modulator_ns_per_clock\": {mod_ns:.2},");
    println!("    \"tiled_k16_ns_per_clock_lane\": {bank16_ns:.2},");
    println!("    \"tiled_k16_clock_speedup\": {tiled_k16_clock_speedup:.3},");
    println!("    \"loop_filter_k16_ns_per_clock_lane\": {lf_wide_ns:.3},");
    println!("    \"loop_filter_k16_portable_ns_per_clock_lane\": {lf_portable_ns:.3},");
    println!("    \"loop_filter_k16_speedup_vs_portable\": {lf_speedup:.3},");
    println!("    \"cic_word_kernel_ns_per_bit\": {cic_ns:.3},");
    println!("    \"fir_ns_per_sample\": {fir_ns:.2},");
    println!("    \"settled_frame_ns\": {fr_ns:.0}");
    println!("  }},");
    println!("  \"noise\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"kernel\": \"{noise_kernel}\",");
    println!("    \"serial_standard_ns_per_draw\": {noise_serial_ns:.3},");
    println!("    \"lockstep_portable_ns_per_draw\": {noise_lockstep_ns:.3},");
    println!("    \"wide_fill_ns_per_draw\": {noise_wide_ns:.3},");
    println!("    \"lockstep_speedup_vs_serial\": {noise_lockstep_speedup:.3},");
    println!("    \"wide_speedup_vs_lockstep\": {noise_wide_speedup:.3}");
    println!("  }},");
    println!("  \"session_duration_s\": {duration_s},");
    println!("  \"sessions_per_measurement\": {sessions},");
    println!("  \"single_thread_sessions_per_s\": {sessions_per_s:.3},");
    println!("  \"batch\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!(
        "    \"description\": \"K whole sessions in lockstep on one SoA lane bank, single core; speedups are best same-rep ratios vs the interleaved scalar leg\","
    );
    println!("    \"lanes\": [");
    for (i, (k, per_s, speedup)) in banked.iter().enumerate() {
        let comma = if i + 1 < banked.len() { "," } else { "" };
        println!(
            "      {{ \"k\": {k}, \"sessions_per_s\": {per_s:.3}, \"speedup_vs_scalar\": {speedup:.3} }}{comma}"
        );
    }
    println!("    ],");
    println!("    \"k8_speedup_vs_in_run_scalar\": {k8_speedup:.3},");
    println!("    \"k16_speedup_vs_in_run_scalar\": {k16_speedup:.3},");
    println!("    \"k16_single_core_speedup\": {k16_single_core_speedup:.3},");
    println!("    \"seed_scalar_sessions_per_s\": {SEED_SCALAR_SESSIONS_PER_S},");
    println!("    \"k8_vs_seed_scalar\": {k8_vs_seed:.3},");
    println!("    \"k16_sessions_per_s\": {k16_per_s:.3}");
    println!("  }},");
    println!("  \"pool\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!(
        "    \"description\": \"W x K sweep: BatchEngine on the fleet pool, W workers with K-lane banks, one group per worker\","
    );
    println!("    \"sweep\": [");
    let cells = pool_ws.len() * pool_ks.len();
    let mut cell = 0;
    for (wi, &w) in pool_ws.iter().enumerate() {
        for (ki, &k) in pool_ks.iter().enumerate() {
            cell += 1;
            let per_s = best(&pool_reps[wi][ki]);
            let speedup = ratio(&pool_reps[wi][ki]);
            let comma = if cell < cells { "," } else { "" };
            println!(
                "      {{ \"workers\": {w}, \"k\": {k}, \"sessions_per_s\": {per_s:.3}, \"speedup_vs_scalar\": {speedup:.3} }}{comma}"
            );
        }
    }
    println!("    ],");
    println!(
        "    \"best\": {{ \"workers\": {}, \"k\": {}, \"sessions_per_s\": {:.3}, \"speedup_vs_scalar\": {best_wxk_speedup:.3} }}",
        best_wxk.0, best_wxk.1, best_wxk.2
    );
    println!("  }},");
    println!("  \"gates\": {{");
    println!("    \"host_hardware_threads\": {cores},");
    println!("    \"gate_packed_speedup_min\": {gate_packed:.3},");
    println!("    \"gate_tiled_k16_clock_speedup_min\": {gate_tiled_clock:.3},");
    println!("    \"gate_loop_filter_k16_vs_portable_min\": {gate_loop_filter:.3},");
    println!("    \"gate_noise_wide_vs_lockstep_min\": {gate_noise_wide:.3},");
    println!("    \"gate_noise_lockstep_vs_serial_min\": {gate_noise_lockstep:.3},");
    println!("    \"gate_k16_single_core_speedup_min\": {gate_k16:.3},");
    println!("    \"gate_k8_vs_in_run_scalar_min\": {gate_k8_scalar:.3},");
    println!("    \"gate_best_pool_speedup_min\": {gate_pool:.3},");
    println!(
        "    \"note\": \"all gates are in-run ratios measured back to back (host-speed drift cancels; the seed anchor is data only); core-scaled: the 4x pool target assumes an 8-core host (2.5x on any multi-core, sanity floor on one core); the 1.6x single-core K=16 session gate holds on any host; the clock-level gate tracks the wide tile kernel the CPU dispatch picks (tiling-must-not-lose floor when the portable scalar-tile kernel runs); the loop-filter gate demands the wide chunk kernel >= 2x the portable tile loop on the same K=16 tiles (same floor when the portable loop runs); the noise gates demand wide >= 1.5x the portable lockstep rows when a wide ISA is active and lockstep >= 1.0x the serial per-draw loop; --quick relaxes all gates to 60% for noisy CI runners\""
    );
    println!("  }},");
    println!(
        "  \"note\": \"pre-optimization baselines (BENCH_fleet.json, same host class): f64 157.65 Mbit/s, packed 217.56 Mbit/s, single-thread 9.147 sessions/s; targets were >= 2x packed (435.12) and >= 1.5x sessions/s (13.72)\""
    );
    println!("}}");

    let checks = [
        GateCheck {
            name: "packed decimation vs f64 baseline",
            measured: packed_mbps / f64_mbps,
            min: gate_packed,
        },
        GateCheck {
            name: "tiled K=16 clock-level speedup vs scalar modulator",
            measured: tiled_k16_clock_speedup,
            min: gate_tiled_clock,
        },
        GateCheck {
            name: "K=16 loop filter, dispatched kernel vs portable tile loop",
            measured: lf_speedup,
            min: gate_loop_filter,
        },
        GateCheck {
            name: "wide noise fill vs portable lockstep ns/draw",
            measured: noise_wide_speedup,
            min: gate_noise_wide,
        },
        GateCheck {
            name: "lockstep noise fill vs serial standard() ns/draw",
            measured: noise_lockstep_speedup,
            min: gate_noise_lockstep,
        },
        GateCheck {
            name: "single-core K=16 session speedup vs in-run scalar",
            measured: k16_single_core_speedup,
            min: gate_k16,
        },
        GateCheck {
            name: "banked K=8 vs in-run scalar sessions/s",
            measured: k8_speedup,
            min: gate_k8_scalar,
        },
        GateCheck {
            name: "best W x K pool speedup vs in-run scalar",
            measured: best_wxk_speedup,
            min: gate_pool,
        },
    ];
    let mut failed = false;
    for c in &checks {
        if c.measured < c.min {
            eprintln!(
                "FAIL: {} is {:.3}, below the gate of {:.3}",
                c.name, c.measured, c.min
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
