//! Tiled structure-of-arrays **lane bank** for the 2nd-order ΣΔ
//! modulator: K independent converter sessions stepped per clock in
//! lockstep.
//!
//! Array-scale CMOS readout gets its throughput from running many
//! identical channels in parallel; the software analogue is data-level
//! parallelism. [`SigmaDelta2Bank`] holds the loop-filter state of K
//! independent [`SigmaDelta2`] instances as fixed-width **lane tiles**
//! — cache-line-aligned rows of [`TILE`] f64 lanes (see
//! [`crate::tile`]) — and converts blocks in 64-clock **chunks**:
//! within a chunk the loop runs tile-outer/clock-inner, so each tile's
//! integrator states, coefficient rows, and ±1 histories stay in
//! registers for 64 consecutive clocks instead of streaming through
//! memory once per clock.
//!
//! The 1-bit side is **bit-sliced**: comparator decisions and
//! feedback-DAC selects live as packed lane masks (a `u8` per tile in
//! flight, one `u64` word per 64 lanes at rest in the bank), and each
//! clock of a chunk deposits its per-lane comparator bits into one
//! `u64` *lane word* — quantize/feedback is word-parallel mask
//! arithmetic, the same trick [`PackedBits`]' `push_word` plays for
//! the CIC. At the chunk boundary a 64×64 bit transpose
//! ([`tonos_dsp::bits::transpose64`]) pivots the per-clock lane words
//! into per-lane time words, which flush straight into each lane's
//! [`PackedBits`].
//!
//! Every tile steps through one chunk kernel picked at run time from
//! the host CPU: explicit AVX-512F or AVX2 intrinsics on x86-64 hosts
//! that have them, the portable scalar tile loop otherwise (see
//! [`kernel_name`]; `TONOS_FORCE_KERNEL` pins the choice). The final
//! partial tile (K mod [`TILE`] lanes) runs the same kernel under a
//! live-lane mask: its padding lanes load `0.0`, never set a
//! comparator or saturation bit, and are never stored back. A
//! one-lane tile is the exception: it takes the portable lane loop,
//! whose predicted branches beat the vector compare-and-blend chain
//! when there is no second lane to overlap with.
//!
//! ## Scalar path as the oracle
//!
//! The bank is an *execution strategy*, never a different model: every
//! lane's bitstream, loop-filter state, and noise-stream positions are
//! **bit-identical** to a scalar [`SigmaDelta2`] with the same seed fed
//! the same inputs (property-tested across random K, seeds, and block
//! boundaries, under every forced kernel). This holds because every
//! noise consumer owns an independent split stream, so per-lane
//! pre-filling (batched ziggurat draws into a lanes×block noise tile
//! via [`NoiseSource::fill_standard`]) consumes each stream in exactly
//! the per-sample order of the scalar path, and the per-clock
//! arithmetic reproduces the scalar expressions
//! association-for-association.
//!
//! Lanes are absorbed from and released back to scalar modulators
//! ([`SigmaDelta2Bank::push_lane`] / [`SigmaDelta2Bank::retire_lane`]),
//! so sessions can join late, finish early, or be reset mid-run without
//! disturbing the neighbours' streams.

use tonos_dsp::bits::{transpose64, PackedBits};

use crate::dac::FeedbackDac;
use crate::integrator::ScIntegrator;
use crate::modulator::{Coefficients, SigmaDelta2};
use crate::noise::{LockstepFill, NoiseSource};
use crate::nonideal::NonIdealities;
use crate::quantizer::Comparator;
use crate::tile::{BitRow, ChunkKernel, ChunkSrc, RowSrc, TileConsts, TileRow, TileState, TILE};

/// One lane's input for a block conversion.
///
/// The settled readout mux holds a constant modulator input for a whole
/// output frame — the common case, and the one the bank's pre-fill fast
/// path exploits (jitter vanishes after the first clock because the
/// per-sample slew is zero). A still-settling mux produces a per-clock
/// transient, supplied as explicit samples.
#[derive(Debug, Clone, Copy)]
pub enum LaneInput<'a> {
    /// The input is held at this value for every clock of the block.
    Constant(f64),
    /// One explicit input sample per clock (length must equal the block
    /// size).
    Samples(&'a [f64]),
}

/// Per-lane cold state: the split noise streams and configuration that
/// the per-clock loop does not touch.
#[derive(Debug, Clone)]
struct LaneCold {
    n1: NoiseSource,
    n2: NoiseSource,
    nc: NoiseSource,
    nd: NoiseSource,
    input_noise: NoiseSource,
    coeffs: Coefficients,
    nonideal: NonIdealities,
}

/// Reusable block scratch for a [`SigmaDelta2Bank`]: the clock-major
/// noise/input tiles, the per-chunk lane-word buffer, and the lockstep
/// ziggurat fill state.
///
/// The scratch is allocation-free once warm, and it is *detachable*:
/// [`SigmaDelta2Bank::take_scratch`] /
/// [`SigmaDelta2Bank::adopt_scratch`] move it between banks so a fleet
/// worker can pre-fill once and reuse the grown tiles across every
/// batch it runs, instead of re-growing per session group.
#[derive(Debug, Clone, Default)]
pub struct BankScratch {
    /// Noisy modulator inputs `u[n]` per lane (clock-major: `n*K +
    /// lane`).
    u_tile: Vec<f64>,
    /// Pre-multiplied first-integrator noise (`standard * sigma`).
    z1_tile: Vec<f64>,
    /// Pre-multiplied second-integrator noise.
    z2_tile: Vec<f64>,
    /// Pre-multiplied comparator noise.
    zc_tile: Vec<f64>,
    /// Pre-multiplied DAC reference noise.
    zr_tile: Vec<f64>,
    /// Contiguous per-lane fill scratch.
    row: Vec<f64>,
    /// Per-chunk lane words: for each 64-lane group, 64 words — word
    /// `r` holds every lane's comparator bit for clock `r` of the
    /// chunk. Transposed in place to per-lane time words at the chunk
    /// boundary.
    clock_rows: Vec<u64>,
    /// One k-length row of exact 0.0 standing in for all-zero tiles.
    zero_row: Vec<f64>,
    /// Lockstep multi-stream ziggurat scratch: when every lane of a
    /// tile is noisy, all K streams advance side by side instead of one
    /// lane at a time (see [`LockstepFill`]).
    fill: LockstepFill,
}

/// The tile kernel this host steps every tile with (the partial final
/// tile included) — benchmarks record it next to their numbers:
/// `"wide-avx512f"` / `"wide-avx2"` by runtime CPU detection,
/// `"scalar-tile"` for the portable oracle loop (no AVX2, not x86-64,
/// or forced with `TONOS_FORCE_KERNEL=scalar-tile`).
pub fn kernel_name() -> &'static str {
    ChunkKernel::detect().name()
}

/// K second-order ΣΔ modulators in tiled structure-of-arrays form,
/// stepped in lockstep one clock at a time.
#[derive(Debug, Clone, Default)]
pub struct SigmaDelta2Bank {
    // --- Hot per-lane state the per-clock kernel touches, stored as
    // --- aligned 8-lane tiles. ---
    /// First integrator state.
    x1: TileRow,
    /// Second integrator state.
    x2: TileRow,
    /// Integrator pole `p = A/(A+1)` (shared by both stages).
    leak: TileRow,
    /// Integrator output clamp.
    sat: TileRow,
    comp_offset: TileRow,
    comp_hyst: TileRow,
    dac_mismatch: TileRow,
    dac_isi: TileRow,
    b1: TileRow,
    a1: TileRow,
    c1: TileRow,
    a2: TileRow,
    /// Previous comparator decisions, bit-sliced: bit set ⇔ last was
    /// +1.
    comp_last: BitRow,
    /// Previous DAC bits, bit-sliced likewise.
    dac_last: BitRow,
    // --- Per-lane state the fill passes touch (flat rows). ---
    /// First-stage per-sample noise sigma.
    int1_sigma: Vec<f64>,
    /// Second-stage per-sample noise sigma.
    int2_sigma: Vec<f64>,
    comp_sigma: Vec<f64>,
    dac_sigma: Vec<f64>,
    prev_input: Vec<f64>,
    input_sigma: Vec<f64>,
    jitter_gain: Vec<f64>,
    steps: Vec<u64>,
    saturation_events: Vec<u64>,
    // --- Cold per-lane state. ---
    cold: Vec<LaneCold>,
    /// Per noise tile (z1, z2, zc, zr): clock count through which every
    /// zero-sigma lane column is known to hold 0.0 for the current lane
    /// layout. Zero-sigma columns never change once written, so the
    /// per-block zero fill can be skipped while the layout is stable;
    /// any lane add/remove (or scratch swap) invalidates the markers.
    zero_clean: [usize; 4],
    /// Per noise tile: true when *every* lane's sigma is zero. Such a
    /// tile is neither filled nor read — the loop filter substitutes
    /// the shared zero row, keeping the per-block working set to the
    /// tiles that actually carry noise (the difference between staying
    /// in L1 and spilling at K=8).
    all_zero: [bool; 4],
    /// Detachable block scratch (see [`BankScratch`]).
    scratch: BankScratch,
}

impl SigmaDelta2Bank {
    /// An empty bank; add lanes with [`SigmaDelta2Bank::push_lane`].
    pub fn new() -> Self {
        SigmaDelta2Bank::default()
    }

    /// Builds a bank by absorbing a set of scalar modulators, one lane
    /// each (lane index = position in `mods`).
    pub fn from_modulators(mods: impl IntoIterator<Item = SigmaDelta2>) -> Self {
        let mut bank = SigmaDelta2Bank::new();
        for m in mods {
            bank.push_lane(m);
        }
        bank
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.prev_input.len()
    }

    /// True when the bank holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.prev_input.is_empty()
    }

    /// Hands this bank a pre-grown scratch (typically taken from a
    /// retired bank on the same worker), replacing its own. The
    /// zero-column markers are invalidated because the adopted tiles'
    /// contents are unknown.
    pub fn adopt_scratch(&mut self, scratch: BankScratch) {
        self.scratch = scratch;
        self.zero_clean = [0; 4];
    }

    /// Detaches the bank's block scratch for reuse elsewhere, leaving a
    /// fresh (empty) one behind.
    pub fn take_scratch(&mut self) -> BankScratch {
        self.zero_clean = [0; 4];
        std::mem::take(&mut self.scratch)
    }

    /// Absorbs a scalar modulator as a new lane (appended last) and
    /// returns its lane index. The modulator's exact state — loop
    /// filter, histories, counters, and the positions of all five split
    /// noise streams — carries over, so a lane behaves as if the scalar
    /// modulator had simply kept stepping.
    pub fn push_lane(&mut self, m: SigmaDelta2) -> usize {
        let lane = self.lanes();
        self.x1.push(m.int1.state);
        self.x2.push(m.int2.state);
        self.leak.push(m.int1.leak);
        self.sat.push(m.int1.saturation);
        self.int1_sigma.push(m.int1.noise_sigma);
        self.int2_sigma.push(m.int2.noise_sigma);
        self.comp_offset.push(m.comparator.offset);
        self.comp_hyst.push(m.comparator.hysteresis);
        self.comp_sigma.push(m.comparator.noise_sigma);
        self.comp_last.push(m.comparator.last > 0);
        self.dac_mismatch.push(m.dac.level_mismatch);
        self.dac_isi.push(m.dac.isi);
        self.dac_sigma.push(m.dac.reference_noise_sigma);
        self.dac_last.push(m.dac.last_bit > 0);
        self.b1.push(m.coeffs.b1);
        self.a1.push(m.coeffs.a1);
        self.c1.push(m.coeffs.c1);
        self.a2.push(m.coeffs.a2);
        self.prev_input.push(m.prev_input);
        self.input_sigma.push(m.nonideal.input_noise_sigma);
        self.jitter_gain.push(m.nonideal.jitter_slew_gain);
        self.steps.push(m.steps);
        self.saturation_events.push(m.saturation_events);
        self.cold.push(LaneCold {
            n1: m.int1.noise,
            n2: m.int2.noise,
            nc: m.comparator.noise,
            nd: m.dac.noise,
            input_noise: m.input_noise,
            coeffs: m.coeffs,
            nonideal: m.nonideal,
        });
        self.zero_clean = [0; 4];
        self.refresh_zero_tiles();
        lane
    }

    /// Removes a lane and reconstitutes it as a scalar modulator with
    /// the lane's exact state, including noise-stream positions. Lanes
    /// after `lane` shift down by one — across tile and word boundaries
    /// — and their streams are untouched, so surviving lanes stay
    /// bit-identical to their scalar references.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn retire_lane(&mut self, lane: usize) -> SigmaDelta2 {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        let cold = self.cold.remove(lane);
        // The comparator decision doubles as the modulator's last output
        // bit (scalar `step` sets both from the same `v`).
        let comp_last = if self.comp_last.remove(lane) { 1 } else { -1 };
        let m = SigmaDelta2 {
            coeffs: cold.coeffs,
            int1: ScIntegrator {
                state: self.x1.remove(lane),
                leak: self.leak.get(lane),
                saturation: self.sat.get(lane),
                noise_sigma: self.int1_sigma.remove(lane),
                noise: cold.n1,
                saturated: false,
            },
            int2: ScIntegrator {
                state: self.x2.remove(lane),
                leak: self.leak.remove(lane),
                saturation: self.sat.remove(lane),
                noise_sigma: self.int2_sigma.remove(lane),
                noise: cold.n2,
                saturated: false,
            },
            comparator: Comparator {
                offset: self.comp_offset.remove(lane),
                hysteresis: self.comp_hyst.remove(lane),
                noise_sigma: self.comp_sigma.remove(lane),
                noise: cold.nc,
                last: comp_last,
            },
            dac: FeedbackDac {
                level_mismatch: self.dac_mismatch.remove(lane),
                isi: self.dac_isi.remove(lane),
                reference_noise_sigma: self.dac_sigma.remove(lane),
                noise: cold.nd,
                last_bit: if self.dac_last.remove(lane) { 1 } else { -1 },
            },
            input_noise: cold.input_noise,
            nonideal: cold.nonideal,
            prev_input: self.prev_input.remove(lane),
            last_bit: comp_last,
            saturation_events: self.saturation_events.remove(lane),
            steps: self.steps.remove(lane),
        };
        self.b1.remove(lane);
        self.a1.remove(lane);
        self.c1.remove(lane);
        self.a2.remove(lane);
        self.input_sigma.remove(lane);
        self.jitter_gain.remove(lane);
        self.zero_clean = [0; 4];
        self.refresh_zero_tiles();
        m
    }

    /// Recomputes the all-zero tile markers for the current lane layout.
    fn refresh_zero_tiles(&mut self) {
        self.all_zero = [
            self.int1_sigma.iter().all(|&s| s == 0.0),
            self.int2_sigma.iter().all(|&s| s == 0.0),
            self.comp_sigma.iter().all(|&s| s == 0.0),
            self.dac_sigma.iter().all(|&s| s == 0.0),
        ];
    }

    /// Resets one lane's loop state exactly like
    /// [`crate::modulator::DeltaSigmaModulator::reset`] on the scalar
    /// modulator: integrators and histories clear, counters zero, noise
    /// stream positions are *kept*.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn reset_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        self.x1.set(lane, 0.0);
        self.x2.set(lane, 0.0);
        self.comp_last.set(lane, true);
        self.dac_last.set(lane, true);
        self.prev_input[lane] = 0.0;
        self.steps[lane] = 0;
        self.saturation_events[lane] = 0;
    }

    /// Total converted clocks on a lane since construction/reset.
    pub fn steps(&self, lane: usize) -> u64 {
        self.steps[lane]
    }

    /// Integrator saturation events on a lane since construction/reset.
    pub fn saturation_events(&self, lane: usize) -> u64 {
        self.saturation_events[lane]
    }

    /// Converts `clocks` modulator cycles on every lane in lockstep,
    /// appending each lane's packed bitstream to the matching entry of
    /// `bits` (not cleared first).
    ///
    /// Per lane, the produced bits and the post-block state are
    /// bit-identical to the scalar path. Allocation-free once the
    /// internal tiles have grown to the block size (the scratch is
    /// reused across calls).
    ///
    /// # Panics
    ///
    /// Panics when `inputs` or `bits` length differs from the lane
    /// count, or a [`LaneInput::Samples`] length differs from `clocks`.
    pub fn step_block(&mut self, clocks: usize, inputs: &[LaneInput], bits: &mut [PackedBits]) {
        let k = self.lanes();
        assert_eq!(inputs.len(), k, "one input per lane");
        assert_eq!(bits.len(), k, "one bit sink per lane");
        if clocks == 0 || k == 0 {
            return;
        }
        self.grow_scratch(clocks);
        self.fill_input_tile(clocks, inputs);
        self.fill_noise_tiles(clocks);
        self.run_loop_filter(ChunkKernel::detect(), clocks, bits);
    }

    /// Converts `clocks` modulator cycles on every lane in lockstep with
    /// every lane held at a constant input for the whole block — the
    /// settled-mux frame case. Semantically identical to
    /// [`SigmaDelta2Bank::step_block`] with all-[`LaneInput::Constant`]
    /// inputs, but takes a plain `&[f64]` so callers converting settled
    /// frames need no per-frame `LaneInput` buffer at all.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` or `bits` length differs from the lane count.
    pub fn step_block_constant(&mut self, clocks: usize, inputs: &[f64], bits: &mut [PackedBits]) {
        let k = self.lanes();
        assert_eq!(inputs.len(), k, "one input per lane");
        assert_eq!(bits.len(), k, "one bit sink per lane");
        if clocks == 0 || k == 0 {
            return;
        }
        self.grow_scratch(clocks);
        self.fill_input_tile_constant(clocks, inputs);
        self.fill_noise_tiles(clocks);
        self.run_loop_filter(ChunkKernel::detect(), clocks, bits);
    }

    /// Re-runs only the loop-filter pass, with the dispatched kernel,
    /// over the input and noise tiles an earlier block of at least
    /// `clocks` clocks filled — for benchmarks that time the kernel
    /// apart from the noise fill. The loop state advances but no noise
    /// stream does, so afterwards the lanes match no scalar modulator:
    /// time it on a throwaway bank.
    ///
    /// # Panics
    ///
    /// Panics when `bits` length differs from the lane count, or no
    /// earlier block filled `clocks` clocks.
    pub fn rerun_loop_filter(&mut self, clocks: usize, bits: &mut [PackedBits]) {
        assert_eq!(bits.len(), self.lanes(), "one bit sink per lane");
        self.run_loop_filter(ChunkKernel::detect(), clocks, bits);
    }

    /// [`SigmaDelta2Bank::rerun_loop_filter`] pinned to the portable
    /// tile loop — the oracle the wide kernels are benchmarked against.
    pub fn rerun_loop_filter_portable(&mut self, clocks: usize, bits: &mut [PackedBits]) {
        assert_eq!(bits.len(), self.lanes(), "one bit sink per lane");
        self.run_loop_filter(ChunkKernel::PORTABLE, clocks, bits);
    }

    /// Grows the block scratch to `clocks` (no-op once warm).
    fn grow_scratch(&mut self, clocks: usize) {
        let k = self.lanes();
        let tile = clocks * k;
        let s = &mut self.scratch;
        for t in [
            &mut s.u_tile,
            &mut s.z1_tile,
            &mut s.z2_tile,
            &mut s.zc_tile,
            &mut s.zr_tile,
        ] {
            if t.len() < tile {
                t.resize(tile, 0.0);
            }
        }
        if s.row.len() < clocks {
            s.row.resize(clocks, 0.0);
        }
        let words = k.div_ceil(64) * 64;
        if s.clock_rows.len() < words {
            s.clock_rows.resize(words, 0);
        }
        if s.zero_row.len() < k {
            s.zero_row.resize(k, 0.0);
        }
    }

    /// Pass 1: per-lane sampled-input impairments into the clock-major
    /// input tile — the same draws, in the same order, as the scalar
    /// `step_block` input pass.
    fn fill_input_tile(&mut self, clocks: usize, inputs: &[LaneInput]) {
        for (lane, input) in inputs.iter().enumerate() {
            match *input {
                LaneInput::Constant(x) => self.fill_lane_constant(lane, clocks, x),
                LaneInput::Samples(xs) => self.fill_lane_samples(lane, clocks, xs),
            }
        }
    }

    /// Fills the whole input tile for an all-constant block. Clock 0 is
    /// per-lane scalar (it carries the frame-boundary slew and its
    /// conditional jitter draw); when every lane has input noise, clocks
    /// `1..` advance all K input streams in lockstep through one biased
    /// tile fill instead of lane-at-a-time rows.
    fn fill_input_tile_constant(&mut self, clocks: usize, inputs: &[f64]) {
        let k = self.lanes();
        if clocks > 1 && self.input_sigma[..k].iter().all(|&s| s != 0.0) {
            for (lane, &x) in inputs.iter().enumerate() {
                let sigma = self.input_sigma[lane];
                let gain = self.jitter_gain[lane];
                let src = &mut self.cold[lane].input_noise;
                let jitter = gain * (x - self.prev_input[lane]);
                self.scratch.u_tile[lane] = x + src.gaussian(sigma) + src.gaussian(jitter.abs());
                self.prev_input[lane] = x;
            }
            self.scratch.fill.begin(k);
            for c in self.cold.iter() {
                self.scratch.fill.load(&c.input_noise);
            }
            let s = &mut self.scratch;
            s.fill.fill_biased(
                inputs,
                &self.input_sigma[..k],
                clocks - 1,
                &mut s.u_tile[k..clocks * k],
            );
            for (j, c) in self.cold.iter_mut().enumerate() {
                self.scratch.fill.store(j, &mut c.input_noise);
            }
        } else {
            for (lane, &x) in inputs.iter().enumerate() {
                self.fill_lane_constant(lane, clocks, x);
            }
        }
    }

    /// Fills one lane's input-tile column for a constant-input block.
    fn fill_lane_constant(&mut self, lane: usize, clocks: usize, x: f64) {
        let k = self.lanes();
        let sigma = self.input_sigma[lane];
        let gain = self.jitter_gain[lane];
        let src = &mut self.cold[lane].input_noise;
        // Clock 0 sees the frame-boundary slew (scalar semantics,
        // including the conditional jitter draw); every later clock has
        // zero slew, so the jitter term is exactly `+ 0.0` and consumes
        // nothing.
        let jitter = gain * (x - self.prev_input[lane]);
        self.scratch.u_tile[lane] = x + src.gaussian(sigma) + src.gaussian(jitter.abs());
        self.prev_input[lane] = x;
        if sigma != 0.0 {
            let row = &mut self.scratch.row[..clocks - 1];
            src.fill_standard(row);
            for (n, &z) in row.iter().enumerate() {
                self.scratch.u_tile[(n + 1) * k + lane] = x + z * sigma + 0.0;
            }
        } else {
            for n in 1..clocks {
                self.scratch.u_tile[n * k + lane] = x + 0.0 + 0.0;
            }
        }
    }

    /// Fills one lane's input-tile column from explicit per-clock
    /// samples (the still-settling mux transient).
    fn fill_lane_samples(&mut self, lane: usize, clocks: usize, xs: &[f64]) {
        let k = self.lanes();
        assert_eq!(xs.len(), clocks, "one sample per clock");
        let sigma = self.input_sigma[lane];
        let gain = self.jitter_gain[lane];
        let src = &mut self.cold[lane].input_noise;
        for (n, &x) in xs.iter().enumerate() {
            let jitter = gain * (x - self.prev_input[lane]);
            self.prev_input[lane] = x;
            self.scratch.u_tile[n * k + lane] =
                x + src.gaussian(sigma) + src.gaussian(jitter.abs());
        }
    }

    /// Pass 2: pre-draw every unconditional per-clock noise stream into
    /// pre-multiplied clock-major tiles. A zero-sigma stream draws
    /// nothing (its tile entries are exactly `0.0`, matching the scalar
    /// `gaussian(0.0)` short-circuit). Three tile classes, cheapest
    /// first: all lanes zero-sigma → the tile is dead (the loop filter
    /// reads the zero row); all lanes noisy → one lockstep fill advances
    /// every stream side by side; mixed → lane-at-a-time rows.
    fn fill_noise_tiles(&mut self, clocks: usize) {
        let k = self.lanes();
        let clean = self.zero_clean;
        let all_zero = self.all_zero;
        let SigmaDelta2Bank {
            int1_sigma,
            int2_sigma,
            comp_sigma,
            dac_sigma,
            cold,
            scratch,
            ..
        } = self;
        let BankScratch {
            z1_tile,
            z2_tile,
            zc_tile,
            zr_tile,
            row,
            fill,
            ..
        } = scratch;
        type Pick = fn(&mut LaneCold) -> &mut NoiseSource;
        let tiles: [(&mut Vec<f64>, &Vec<f64>, Pick); 4] = [
            (z1_tile, int1_sigma, |c| &mut c.n1),
            (z2_tile, int2_sigma, |c| &mut c.n2),
            (zc_tile, comp_sigma, |c| &mut c.nc),
            (zr_tile, dac_sigma, |c| &mut c.nd),
        ];
        for (t, (tile, sigmas, pick)) in tiles.into_iter().enumerate() {
            if all_zero[t] {
                continue;
            }
            if sigmas[..k].iter().all(|&s| s != 0.0) {
                fill.begin(k);
                for c in cold.iter_mut() {
                    fill.load(pick(c));
                }
                fill.fill_scaled(&sigmas[..k], clocks, &mut tile[..clocks * k]);
                for (j, c) in cold.iter_mut().enumerate() {
                    fill.store(j, pick(c));
                }
                continue;
            }
            for (lane, c) in cold.iter_mut().enumerate() {
                let sigma = sigmas[lane];
                if sigma == 0.0 {
                    // Once zeroed for this layout, the column stays
                    // zero — the loop filter only reads the tiles.
                    if clean[t] < clocks {
                        for n in 0..clocks {
                            tile[n * k + lane] = 0.0;
                        }
                    }
                } else {
                    let r = &mut row[..clocks];
                    pick(c).fill_standard(r);
                    for (n, &z) in r.iter().enumerate() {
                        tile[n * k + lane] = z * sigma;
                    }
                }
            }
        }
        for (t, c) in self.zero_clean.iter_mut().enumerate() {
            if !all_zero[t] {
                *c = clean[t].max(clocks);
            }
        }
    }

    /// Pass 3: the tiled lockstep loop filter.
    ///
    /// The block is converted in chunks of ≤ 64 clocks. Within a chunk
    /// the loop runs **tile-outer, clock-inner**: each tile's
    /// integrator states, coefficients, and packed ±1 history bytes are
    /// pulled into registers once and stepped through the whole chunk
    /// by `kernel` — 64 clocks of register-resident state per memory
    /// round trip. The final partial tile takes the same kernel with
    /// its live-lane count (a one-lane tile, the portable lane loop). Each clock deposits its comparator byte
    /// into the chunk's per-clock `u64` lane word; at the chunk
    /// boundary [`transpose64`] pivots each 64-lane group's words into
    /// per-lane time words, which flush into the lanes'
    /// [`PackedBits`]. Chunk boundaries land exactly on the 64-clock
    /// flush points of the per-clock formulation, so packed output is
    /// bit-identical.
    fn run_loop_filter(&mut self, kernel: ChunkKernel, clocks: usize, bits: &mut [PackedBits]) {
        let k = self.lanes();
        let groups = k.div_ceil(64);
        let [z1_zero, z2_zero, zc_zero, zr_zero] = self.all_zero;
        let SigmaDelta2Bank {
            x1,
            x2,
            leak,
            sat,
            comp_offset,
            comp_hyst,
            dac_mismatch,
            dac_isi,
            b1,
            a1,
            c1,
            a2,
            comp_last,
            dac_last,
            steps,
            saturation_events,
            scratch,
            ..
        } = self;
        let BankScratch {
            u_tile,
            z1_tile,
            z2_tile,
            zc_tile,
            zr_tile,
            clock_rows,
            zero_row,
            ..
        } = scratch;
        let zero_row = &zero_row[..k];
        let u = RowSrc::new(u_tile, zero_row, false, k);
        let z1 = RowSrc::new(z1_tile, zero_row, z1_zero, k);
        let z2 = RowSrc::new(z2_tile, zero_row, z2_zero, k);
        let zc = RowSrc::new(zc_tile, zero_row, zc_zero, k);
        let zr = RowSrc::new(zr_tile, zero_row, zr_zero, k);
        let clock_rows = &mut clock_rows[..groups * 64];
        let mut start = 0usize;
        while start < clocks {
            let nb = (clocks - start).min(64);
            clock_rows.fill(0);
            let src = ChunkSrc {
                u,
                z1,
                z2,
                zc,
                zr,
                start,
            };
            for t in 0..k.div_ceil(TILE) {
                let lane0 = t * TILE;
                let live = (k - lane0).min(TILE);
                let consts = TileConsts {
                    leak: *leak.tile(t),
                    sat: *sat.tile(t),
                    off: *comp_offset.tile(t),
                    hyst: *comp_hyst.tile(t),
                    mis: *dac_mismatch.tile(t),
                    isi: *dac_isi.tile(t),
                    b1: *b1.tile(t),
                    a1: *a1.tile(t),
                    c1: *c1.tile(t),
                    a2: *a2.tile(t),
                };
                let mut st = TileState {
                    x1: *x1.tile(t),
                    x2: *x2.tile(t),
                    cl: comp_last.byte(t),
                    dl: dac_last.byte(t),
                    sat: [0; TILE],
                };
                let shift = 8 * (t % 8) as u32;
                let rows_out = &mut clock_rows[(lane0 / 64) * 64..(lane0 / 64) * 64 + nb];
                // A lone lane has nothing to run in parallel with, and the
                // scalar lane loop's predicted branches beat the vector
                // compare-and-blend chain on it.
                let kernel = if live == 1 {
                    ChunkKernel::PORTABLE
                } else {
                    kernel
                };
                kernel.run(&mut st, &consts, &src, lane0, live, shift, rows_out);
                x1.set_tile(t, st.x1);
                x2.set_tile(t, st.x2);
                comp_last.set_byte(t, st.cl);
                dac_last.set_byte(t, st.dl);
                for (events, &n) in saturation_events[lane0..lane0 + live]
                    .iter_mut()
                    .zip(&st.sat)
                {
                    *events += n;
                }
            }
            // Pivot per-clock lane words into per-lane time words and
            // flush — same boundaries as a per-clock `n & 63 == 63`
            // flush, so the packed streams are bit-identical.
            for g in 0..groups {
                let block: &mut [u64; 64] = (&mut clock_rows[g * 64..(g + 1) * 64])
                    .try_into()
                    .expect("64-word group block");
                transpose64(block);
                let lanes_here = (k - g * 64).min(64);
                for (l, word) in block[..lanes_here].iter().enumerate() {
                    bits[g * 64 + l].push_bits(*word, nb);
                }
            }
            start += nb;
        }
        for s in steps[..k].iter_mut() {
            *s += clocks as u64;
        }
    }
}
