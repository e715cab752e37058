//! `batch_cohort`: seeded mixed cohorts through `BatchEngine`.
//!
//! Why: chip simulation (`analog`, `dsp`) does nearly all the work and
//! `link` and `historian` do none, so a fused chip kernel or a single
//! session driver shows here while IO-loop, HTTP or storage changes
//! should not. Loads `physio`, `mems`, `analog`, `dsp`, `core`,
//! `fleet`; bypasses `link` and `historian`.
//!
//! Each round submits one cohort of `lanes + lanes/2 + 1` sessions
//! (never a multiple of the lane count, so the partial-group path runs)
//! and drains it; rounds repeat until the run time is spent.
//! `sessions_per_s` is the median round's rate; the latency samples are
//! the rounds' submit-to-report times.

use std::time::Instant;

use tonos_core::config::SystemConfig;
use tonos_fleet::{BatchConfig, BatchEngine, FleetReport, SessionOutcome, SessionSpec};
use tonos_physio::patient::PatientProfile;
use tonos_telemetry::{names, TelemetrySnapshot};

use crate::layers;
use crate::report::{Metric, Outcome, Tally};
use crate::stats::{median, now, Dist, Rng};

/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Monitoring seconds per session.
    pub session_s: f64,
    /// Array-scan window in frames (400 is the monitor's default).
    pub scan_window: usize,
    /// Rounds whose sessions make up the accuracy figure — a fixed
    /// count, so `bp_mae_mmhg` depends on the seed and not on speed.
    pub mae_rounds: usize,
}

impl Size {
    pub const FULL: Size = Size {
        session_s: 6.0,
        scan_window: 400,
        mae_rounds: 2,
    };
    #[cfg(test)]
    pub const TINY: Size = Size {
        session_s: 4.0,
        scan_window: 100,
        mae_rounds: 1,
    };
}

fn cohort(rng: &mut Rng, round: u64, count: usize, size: Size) -> Vec<SessionSpec> {
    let profiles = PatientProfile::all();
    (0..count)
        .map(|i| {
            let profile = profiles[rng.below(profiles.len())].with_seed(rng.next_u64());
            SessionSpec::new(format!("r{round}-p{i}"), profile)
                .with_duration(size.session_s)
                .with_scan_window(size.scan_window)
        })
        .collect()
}

/// One measured window of rounds.
struct Window {
    wall_s: f64,
    sessions: usize,
    /// Per-session wall share (`SessionResult::wall_s`), ms.
    session_ms: Vec<f64>,
    /// Busy worker-seconds: the sum of every session's wall share.
    busy_s: f64,
    /// Sessions per second of each round.
    round_rates: Vec<f64>,
    /// Submit-to-report time of each round, ms.
    round_ms: Vec<f64>,
    mae: Vec<f64>,
    before: TelemetrySnapshot,
    after: TelemetrySnapshot,
}

fn check(report: &FleetReport, tally: &mut Tally) {
    for s in &report.sessions {
        match &s.outcome {
            SessionOutcome::Completed(sum) => {
                tally.check(sum.matched_beats > 0, || {
                    format!("{}: no beats matched to ground truth", s.label)
                });
                tally.check(
                    sum.systolic_mae_mmhg.is_finite() && sum.diastolic_mae_mmhg.is_finite(),
                    || format!("{}: non-finite MAE", s.label),
                );
            }
            other => tally.fail(format!("{}: {:?}", s.label, other.error())),
        }
    }
}

fn run_window(
    engine: &mut BatchEngine,
    rng: &mut Rng,
    size: Size,
    seconds: f64,
    tally: &mut Tally,
) -> Window {
    let count = engine.lanes() + engine.lanes() / 2 + 1;
    let before = engine.snapshot();
    let mut w = Window {
        wall_s: 0.0,
        sessions: 0,
        session_ms: Vec::new(),
        busy_s: 0.0,
        round_rates: Vec::new(),
        round_ms: Vec::new(),
        mae: Vec::new(),
        after: before.clone(),
        before,
    };
    let t0 = Instant::now();
    let mut round = 0u64;
    while round == 0 || t0.elapsed().as_secs_f64() < seconds {
        let started = Instant::now();
        for spec in cohort(rng, round, count, size) {
            engine.push(spec);
        }
        let report = engine.drain();
        let took = started.elapsed().as_secs_f64();
        w.round_rates.push(report.len() as f64 / took);
        w.round_ms.push(took * 1e3);
        check(&report, tally);
        for s in &report.sessions {
            w.sessions += 1;
            w.session_ms.push(s.wall_s * 1e3);
            w.busy_s += s.wall_s;
            if let (true, Some(sum)) = ((round as usize) < size.mae_rounds, s.outcome.summary()) {
                w.mae
                    .push((sum.systolic_mae_mmhg + sum.diastolic_mae_mmhg) / 2.0);
            }
        }
        round += 1;
    }
    w.wall_s = t0.elapsed().as_secs_f64();
    w.after = engine.snapshot();
    w
}

/// Setup: spawn the engine with default workers and lanes and run one
/// warm-up cohort, so the workers' noise tiles are grown before timing.
fn setup(seed: u64, size: Size, tally: &mut Tally) -> (BatchEngine, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = now();
        let mut engine = BatchEngine::spawn(BatchConfig::default());
        let count = engine.lanes() + engine.lanes() / 2 + 1;
        let mut rng = Rng::new(seed ^ 0xC0FFEE ^ rep as u64);
        for spec in cohort(&mut rng, u64::MAX, count, size) {
            engine.push(spec);
        }
        let report = engine.drain();
        times.push(now() - t);
        check(&report, tally);
        if let Some(old) = kept.replace(engine) {
            old.shutdown();
        }
    }
    (kept.expect("at least one setup"), median(&times))
}

fn hist_delta(before: &TelemetrySnapshot, after: &TelemetrySnapshot, name: &str) -> (u64, f64) {
    let get = |s: &TelemetrySnapshot| s.histogram(name).map_or((0, 0.0), |h| (h.count, h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1 - c0, s1 - s0)
}

fn counter_delta(before: &TelemetrySnapshot, after: &TelemetrySnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let mut tally = Tally::default();
    let (mut engine, setup_s) = setup(seed, size, &mut tally);
    let mut rng = Rng::new(seed);
    let w = run_window(&mut engine, &mut rng, size, seconds, &mut tally);
    // A session's wall share repeats across the lanes of its batch, so
    // the independent latency samples are the rounds: the time from
    // submitting a cohort to holding its report.
    let latency = Dist::of(&w.round_ms);
    let share = Dist::of(&w.session_ms);
    // The median round, so a host hiccup in one round does not move it.
    let throughput = median(&w.round_rates);
    let mae = if w.mae.is_empty() {
        f64::NAN
    } else {
        w.mae.iter().sum::<f64>() / w.mae.len() as f64
    };
    tally.check(mae.is_finite(), || "cohort MAE is not finite".to_string());

    let mut out = Outcome::new("batch_cohort", setup_s, throughput, latency);
    out.named = vec![
        Metric::new("sessions_per_s", throughput, "1/s"),
        Metric::new("bp_mae_mmhg", mae, "mmHg"),
        Metric::new("cohort_turnaround_p50_ms", latency.p50, "ms"),
        Metric::new(
            format!("cohort_turnaround_{}_ms", latency.hi_label()),
            latency.hi,
            "ms",
        ),
        Metric::new("session_share_p50_ms", share.p50, "ms"),
    ];
    out.layers
        .push(Metric::new("batch_cohort.bp_mae_mmhg", mae, "mmHg"));

    if trace {
        // The engine records its spans in every mode, so the traced
        // window differs only in what is read afterwards; a second
        // window keeps the comparison like for like.
        let t = run_window(&mut engine, &mut rng, size, seconds, &mut tally);
        let traced_tp = median(&t.round_rates);
        out.trace_overhead = Some((throughput - traced_tp) / throughput);
        attribute(&mut out, &t, engine.workers(), size, &mut tally);
    }
    engine.shutdown();
    out.finish(tally)
}

/// Splits the traced window's wall time into layer rows. Worker time is
/// what the sessions' wall shares sum to; each layer's part of it comes
/// from the engine's own spans (calibration, analysis) or from unit
/// cost times units converted (physio, mems, analog, dsp, and monitor
/// construction in core). Rows are
/// worker-seconds divided by the worker count, so they add up to the
/// window's wall time; idle workers are the `fleet` row.
fn attribute(out: &mut Outcome, w: &Window, workers: usize, size: Size, tally: &mut Tally) {
    let config = SystemConfig::paper_default();
    let fs = config.output_rate_hz();
    let settle = match config.decimator.build() {
        Ok(d) => d.settling_output_samples(),
        Err(e) => {
            tally.fail(format!("decimator: {e}"));
            return;
        }
    };
    let elements = config.chip.layout.len();
    // The ground truth a session records: scan, acquisition, margin —
    // every frame of it is converted through mems, analog and dsp.
    let scan_s = (elements as f64 + 1.0) * (settle + size.scan_window) as f64 / fs;
    let truth_s = size.session_s + scan_s + 1.0;
    let frames = (truth_s * fs).round();
    let clocks = frames * config.decimator.osr as f64;
    let costs = match layers::measure(&config, truth_s) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("unit costs: {e}"));
            return;
        }
    };
    let n = w.sessions as f64;
    let span = |name: &str| hist_delta(&w.before, &w.after, name);
    let (scan_n, scan_sum) = span(names::SPAN_SCAN);
    let (acq_n, acq_sum) = span(names::SPAN_ACQUISITION);
    let (cal_n, cal_sum) = span(names::SPAN_CALIBRATION);
    let (ana_n, ana_sum) = span(names::SPAN_ANALYSIS);
    let (occ_n, occ_sum) = hist_delta(&w.before, &w.after, names::FLEET_BATCH_OCCUPANCY);
    let per_session_ms = |count: u64, sum: f64| {
        if count == 0 {
            0.0
        } else {
            sum / count as f64 * 1e3
        }
    };

    let worker_s = [
        ("physio", costs.physio_ms_per_session * 1e-3 * n),
        ("mems", costs.mems_ns_per_frame * 1e-9 * frames * n),
        ("analog", costs.bank_ns_per_clock_lane * 1e-9 * clocks * n),
        ("dsp", costs.decimate_ns_per_bit * 1e-9 * clocks * n),
        ("core", costs.monitor_new_ms * 1e-3 * n + cal_sum + ana_sum),
    ];
    let wall = w.wall_s;
    let attributed: f64 = worker_s.iter().map(|(_, s)| s).sum();
    let scale = 1.0 / workers as f64;
    let mut rows: Vec<(String, f64)> = worker_s
        .iter()
        .map(|(l, s)| (l.to_string(), s * scale * 1e3))
        .collect();
    rows.push((
        "fleet".into(),
        (wall * workers as f64 - w.busy_s) * scale * 1e3,
    ));
    let unattributed = w.busy_s - attributed;
    rows.push(("unattributed".into(), unattributed * scale * 1e3));
    out.rows = rows;
    out.wall_ms = wall * 1e3;
    out.wall_label = format!(
        "traced window wall time ({workers} workers, {} sessions)",
        w.sessions
    );
    out.notes.push(format!(
        "acquisition span {:.1} ms/session; mems+analog+dsp estimate {:.1} ms/session",
        per_session_ms(acq_n, acq_sum),
        (costs.mems_ns_per_frame * frames
            + (costs.bank_ns_per_clock_lane + costs.decimate_ns_per_bit) * clocks)
            * 1e-6,
    ));

    out.layers.extend([
        Metric::new(
            "physio.record_ms_per_session",
            costs.physio_ms_per_session,
            "ms",
        ),
        Metric::new(
            "mems.capacitance_ns_per_frame",
            costs.mems_ns_per_frame,
            "ns",
        ),
        Metric::new(
            "analog.convert_ns_per_clock",
            costs.convert_ns_per_clock,
            "ns",
        ),
        Metric::new(
            "analog.bank_ns_per_clock_lane",
            costs.bank_ns_per_clock_lane,
            "ns",
        ),
        Metric::new("dsp.decimate_ns_per_bit", costs.decimate_ns_per_bit, "ns"),
        Metric::new("core.scan_ms", per_session_ms(scan_n, scan_sum), "ms"),
        Metric::new("core.calibration_ms", per_session_ms(cal_n, cal_sum), "ms"),
        Metric::new("core.analysis_ms", per_session_ms(ana_n, ana_sum), "ms"),
        Metric::new("core.monitor_new_ms", costs.monitor_new_ms, "ms"),
        Metric::new(
            "fleet.lane_occupancy",
            if occ_n == 0 {
                0.0
            } else {
                occ_sum / occ_n as f64
            },
            "lanes",
        ),
        Metric::new(
            "fleet.batches_scalar",
            counter_delta(&w.before, &w.after, names::FLEET_BATCHES_SCALAR) as f64,
            "count",
        ),
        Metric::new(
            "batch_cohort.unattributed_frac",
            unattributed / (wall * workers as f64),
            "fraction",
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cohort_has_no_errors() {
        let out = run(7, 0.0, true, Size::TINY);
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        crate::tests::assert_layers_listed(&out);
        assert!(out.attempted > 0);
        assert!(out.throughput_per_s > 0.0 && out.setup_s > 0.0);
        let total: f64 = out.rows.iter().map(|(_, ms)| ms).sum();
        assert!((total - out.wall_ms).abs() < 1e-6 * out.wall_ms.max(1.0));
    }

    #[test]
    fn cohort_inputs_repeat_per_seed() {
        let a = cohort(&mut Rng::new(5), 0, 13, Size::FULL);
        let b = cohort(&mut Rng::new(5), 0, 13, Size::FULL);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.len() % 8, 5);
    }
}
