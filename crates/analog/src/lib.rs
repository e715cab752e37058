//! # tonos-analog — switched-capacitor readout electronics substrate
//!
//! Behavioral model of the on-chip readout circuitry of the DATE'05
//! tactile blood-pressure sensor (paper §2.2, Fig. 3 and Fig. 6): a
//! fully-differential switched-capacitor **second-order single-bit
//! ΣΔ-modulator** whose first stage integrates the charge difference
//! between the selected sensing capacitor and the on-chip reference
//! capacitor, preceded by two synchronized 2:1 analog multiplexers for
//! row/column element selection (Fig. 4).
//!
//! The modulator additionally has a *differential voltage interface* "so a
//! full characterization of the analog to digital conversion of this
//! circuit can be accomplished, independent of the connected transducer"
//! (§3) — that input is what the Fig. 7 sine-wave test drives, and the
//! [`modulator::SigmaDelta2`] `step` method accepts exactly that normalized value.
//!
//! Modules:
//!
//! * [`frontend`] — capacitance-difference-to-input conversion with the
//!   adjustable first-stage feedback capacitors the paper's *future work*
//!   points at
//! * [`integrator`] — SC integrator with finite-gain leak, saturation and
//!   sampled kT/C noise
//! * [`quantizer`] — single-bit comparator with offset and hysteresis
//! * [`dac`] — the 1-bit feedback DAC with level mismatch, ISI and
//!   reference noise
//! * [`characterize`] — static (DC transfer / INL) converter
//!   characterization
//! * [`modulator`] — 2nd-order (and baseline 1st-order) single-bit ΣΔ
//! * [`bank`] — structure-of-arrays lane bank stepping K modulators per
//!   clock (bit-identical to the scalar path, which stays the oracle)
//! * [`tile`] — the fixed-width lane tiles and the chunk kernels the
//!   bank executes on: AVX-512F and AVX2 intrinsics and the portable
//!   scalar tile loop (the host CPU selects one at run time; a partial
//!   tile runs the same kernel under a live-lane mask)
//! * [`mux`] — the 2:1 row/column multiplexers with settling transients
//! * [`noise`] — seeded Gaussian noise sources and kT/C helpers; the
//!   lockstep tile fill dispatches to an explicit-SIMD `noise_wide`
//!   kernel (4/8 xoshiro streams per register, in-register ziggurat
//!   accept) on x86-64 hosts with AVX2 or AVX-512F
//! * [`power`] — supply/clock-scaled power model anchored at the measured
//!   11.5 mW @ 5 V, 128 kHz
//! * [`nonideal`] — aggregated non-ideality configuration
//!
//! ## Example: convert a DC input and check charge balance
//!
//! ```
//! use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
//! use tonos_analog::nonideal::NonIdealities;
//!
//! # fn main() -> Result<(), tonos_analog::AnalogError> {
//! let mut dsm = SigmaDelta2::new(NonIdealities::ideal())?;
//! let bits = dsm.process(&vec![0.25; 65_536]);
//! let mean: f64 = bits.iter().map(|&b| f64::from(b)).sum::<f64>() / bits.len() as f64;
//! assert!((mean - 0.25).abs() < 0.01, "bitstream mean tracks the input");
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod bank;
pub mod characterize;
pub mod dac;
pub mod frontend;
pub mod integrator;
pub mod modulator;
pub mod mux;
pub mod noise;
pub mod nonideal;
pub mod power;
pub mod quantizer;
pub mod tile;

mod error;
#[cfg(target_arch = "x86_64")]
mod kernel;
#[cfg(target_arch = "x86_64")]
mod noise_wide;

pub use error::AnalogError;
