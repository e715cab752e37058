//! Per-unit cost of each chip-simulation layer, timed from outside by
//! calling the layer's public function on the same kind of input the
//! session path feeds it. The cohort trace multiplies these by the
//! units a session converts (frames, clocks, bits) to split the banked
//! conversion, which the engine reports only as one span per session.

use std::hint::black_box;
use std::time::Instant;

use tonos_analog::bank::SigmaDelta2Bank;
use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_core::chip::SensorChip;
use tonos_core::config::SystemConfig;
use tonos_core::monitor::BloodPressureMonitor;
use tonos_dsp::bits::PackedBits;
use tonos_mems::units::{Farads, Pascals};
use tonos_physio::patient::PatientProfile;

/// Lanes in the bank measurement: the batch engine's default lane count.
const BANK_LANES: usize = 8;
/// Repetitions per measurement; the fastest is reported.
const REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// `PatientProfile::record` for one session's ground truth, ms.
    pub physio_ms_per_session: f64,
    /// `SensorChip::capacitances_into` (the MEMS capacitance model
    /// behind the chip's lookup tables) per pressure frame, ns.
    pub mems_ns_per_frame: f64,
    /// Scalar `SigmaDelta2::step_block` per modulator clock, ns.
    pub convert_ns_per_clock: f64,
    /// `SigmaDelta2Bank::step_block_constant` per clock per lane, ns.
    pub bank_ns_per_clock_lane: f64,
    /// `TwoStageDecimator::process_packed_into` per input bit, ns.
    pub decimate_ns_per_bit: f64,
    /// `BloodPressureMonitor::new` (chip construction and its lookup
    /// tables) per session, ms.
    pub monitor_new_ms: f64,
}

/// Fastest of [`REPS`] timed calls of `f`, in seconds: the layer's cost
/// with the least interference from other work on the host.
fn time_best(mut f: impl FnMut()) -> f64 {
    f();
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures every unit cost. `truth_s` is the ground-truth length a
/// session records (scan, acquisition and margin).
pub fn measure(config: &SystemConfig, truth_s: f64) -> Result<UnitCosts, String> {
    let fs = config.output_rate_hz();
    let osr = config.decimator.osr;
    let profiles = PatientProfile::all();

    let physio_s = time_best(|| {
        for p in &profiles {
            black_box(p.record(fs, truth_s).expect("cohort profiles synthesize"));
        }
    }) / profiles.len() as f64;

    let monitor_s = time_best(|| {
        for p in &profiles {
            black_box(BloodPressureMonitor::new(*config, *p).expect("paper configuration builds"));
        }
    }) / profiles.len() as f64;

    // Element pressures from a real pulse, as the session path sees them.
    let chip = SensorChip::new(config.chip).map_err(|e| e.to_string())?;
    let elements = config.chip.layout.len();
    let truth = profiles[0].record(fs, 2.0).map_err(|e| e.to_string())?;
    let frames: Vec<Vec<Pascals>> = truth
        .samples
        .iter()
        .map(|&mmhg| {
            vec![
                config
                    .contact
                    .net_element_pressure(Pascals::from_mmhg(mmhg));
                elements
            ]
        })
        .collect();
    let mut caps: Vec<Farads> = Vec::with_capacity(elements);
    let mems_s = time_best(|| {
        for f in &frames {
            chip.capacitances_into(f, &mut caps)
                .expect("in-range pressures");
            black_box(&caps);
        }
    }) / frames.len() as f64;

    // Modulator inputs across the pulse's range.
    let inputs: Vec<f64> = frames
        .iter()
        .map(|f| {
            chip.capacitances_into(f, &mut caps)
                .expect("in-range pressures");
            chip.frontend().input_fraction(caps[0])
        })
        .collect();

    let mut modulator = SigmaDelta2::new(config.chip.nonideal).map_err(|e| e.to_string())?;
    let mut held = Vec::with_capacity(osr);
    let mut noise = Vec::new();
    let mut bits = PackedBits::new();
    let mut stream: Vec<PackedBits> = Vec::with_capacity(inputs.len());
    let convert_s = time_best(|| {
        stream.clear();
        for &u in &inputs {
            held.clear();
            held.resize(osr, u);
            bits.clear();
            modulator.step_block(&held, &mut noise, &mut bits);
            stream.push(black_box(bits.clone()));
        }
    }) / (inputs.len() * osr) as f64;

    let mut bank = SigmaDelta2Bank::from_modulators((0..BANK_LANES as u64).map(|i| {
        SigmaDelta2::new(config.chip.nonideal.with_seed(i)).expect("valid nonidealities")
    }));
    let mut lane_bits = vec![PackedBits::new(); BANK_LANES];
    let mut lane_inputs = vec![0.0; BANK_LANES];
    let bank_s = time_best(|| {
        for (i, &u) in inputs.iter().enumerate() {
            for (lane, x) in lane_inputs.iter_mut().enumerate() {
                *x = u + 1e-3 * ((i + lane) % 7) as f64;
            }
            for b in &mut lane_bits {
                b.clear();
            }
            bank.step_block_constant(osr, &lane_inputs, &mut lane_bits);
            black_box(&lane_bits);
        }
    }) / (inputs.len() * osr * BANK_LANES) as f64;

    let mut decimator = config.decimator.build().map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(stream.len());
    let decimate_s = time_best(|| {
        out.clear();
        for b in &stream {
            decimator.process_packed_into(b, &mut out);
        }
        black_box(&out);
    }) / (stream.len() * osr) as f64;

    Ok(UnitCosts {
        physio_ms_per_session: physio_s * 1e3,
        mems_ns_per_frame: mems_s * 1e9,
        convert_ns_per_clock: convert_s * 1e9,
        bank_ns_per_clock_lane: bank_s * 1e9,
        decimate_ns_per_bit: decimate_s * 1e9,
        monitor_new_ms: monitor_s * 1e3,
    })
}
