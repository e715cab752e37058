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
//! Full tiles step through one chunk kernel picked at run time from
//! the host CPU: the explicit wide-ops tile body compiled for AVX-512F
//! or AVX2 on x86-64 hosts that have them, the portable scalar tile
//! loop otherwise (see [`kernel_name`]; `TONOS_FORCE_KERNEL` pins the
//! choice). The final partial tile (K mod [`TILE`] lanes) always steps
//! scalar, so padding lanes never execute.
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
use crate::tile::{
    step_lane, step_tile_scalar, step_tile_wide, BitRow, F64Tile, TileConsts, TileRow, TileRows,
    TILE,
};

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

/// Strided reader over a clock-major tile: row `n` starts at
/// `n * stride`. An all-zero noise tile aliases the shared zero row
/// with stride 0, so dead tiles cost one cache line regardless of the
/// block length.
#[derive(Clone, Copy)]
struct RowSrc<'a> {
    data: &'a [f64],
    stride: usize,
}

impl<'a> RowSrc<'a> {
    fn new(tile: &'a [f64], zero_row: &'a [f64], dead: bool, stride: usize) -> Self {
        if dead {
            RowSrc {
                data: zero_row,
                stride: 0,
            }
        } else {
            RowSrc { data: tile, stride }
        }
    }

    /// The aligned copy of lanes `lane0..lane0+TILE` at clock `n`.
    #[inline(always)]
    fn tile(&self, n: usize, lane0: usize) -> F64Tile {
        let base = n * self.stride + lane0;
        F64Tile::from_row(self.data[base..base + TILE].try_into().expect("full tile"))
    }

    /// One lane's value at clock `n`.
    #[inline(always)]
    fn at(&self, n: usize, lane: usize) -> f64 {
        self.data[n * self.stride + lane]
    }
}

/// The per-chunk row sources shared by every tile of a chunk.
#[derive(Clone, Copy)]
struct ChunkSrc<'a> {
    u: RowSrc<'a>,
    z1: RowSrc<'a>,
    z2: RowSrc<'a>,
    zc: RowSrc<'a>,
    zr: RowSrc<'a>,
    /// First clock of the chunk.
    start: usize,
}

/// One full tile through one ≤64-clock chunk: state stays in the caller
/// provided locals (registers), each clock's comparator byte lands in
/// the chunk's per-clock lane word at `shift`. `WIDE` picks the tile
/// body: the explicit wide-ops kernel or the portable scalar oracle.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_chunk_body<const WIDE: bool>(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    cl: &mut u8,
    dl: &mut u8,
    sat: &mut [u64; TILE],
    consts: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    shift: u32,
    out: &mut [u64],
) {
    for (r, out_word) in out.iter_mut().enumerate() {
        let n = src.start + r;
        let rows = TileRows {
            u: src.u.tile(n, lane0),
            z1: src.z1.tile(n, lane0),
            z2: src.z2.tile(n, lane0),
            zc: src.zc.tile(n, lane0),
            zr: src.zr.tile(n, lane0),
        };
        let (vpos8, sat8) = if WIDE {
            step_tile_wide(x1, x2, consts, &rows, *cl, *dl)
        } else {
            step_tile_scalar(x1, x2, consts, &rows, *cl, *dl)
        };
        *cl = vpos8;
        *dl = vpos8;
        *out_word |= u64::from(vpos8) << shift;
        for (i, acc) in sat.iter_mut().enumerate() {
            *acc += u64::from(sat8 >> i & 1);
        }
    }
}

/// Portable instantiation of the chunk kernel: the scalar tile loop at
/// the baseline ISA (the only one off x86-64, and the oracle on it).
#[allow(clippy::too_many_arguments)]
fn tile_chunk_portable(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    cl: &mut u8,
    dl: &mut u8,
    sat: &mut [u64; TILE],
    consts: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    shift: u32,
    out: &mut [u64],
) {
    tile_chunk_body::<false>(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
}

/// AVX2 instantiation: the wide-ops tile body compiled with 256-bit
/// vector codegen. Bit-identical results — the body is plain IEEE
/// adds/muls/compares/selects and Rust never contracts them into FMAs,
/// so wider registers change scheduling only, never values.
///
/// # Safety
///
/// Caller must have verified AVX2 support (the [`Isa`] dispatch does).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_chunk_avx2(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    cl: &mut u8,
    dl: &mut u8,
    sat: &mut [u64; TILE],
    consts: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    shift: u32,
    out: &mut [u64],
) {
    tile_chunk_body::<true>(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
}

/// AVX-512F instantiation of the wide-ops tile body: one 8-lane tile
/// per zmm register.
///
/// # Safety
///
/// Caller must have verified AVX-512F support (the [`Isa`] dispatch
/// does).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_chunk_avx512(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    cl: &mut u8,
    dl: &mut u8,
    sat: &mut [u64; TILE],
    consts: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    shift: u32,
    out: &mut [u64],
) {
    tile_chunk_body::<true>(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
}

/// Which instantiation of the chunk kernel this process runs, resolved
/// from runtime CPU detection on x86-64 (overridable with
/// `TONOS_FORCE_KERNEL`, see [`crate::kernel`]) and fixed to the
/// portable body elsewhere.
#[derive(Clone, Copy, Debug)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        match crate::kernel::active() {
            Some(crate::kernel::WideIsa::Avx512) => return Isa::Avx512,
            Some(crate::kernel::WideIsa::Avx2) => return Isa::Avx2,
            None => {}
        }
        Isa::Portable
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run_tile_chunk(
        self,
        x1: &mut F64Tile,
        x2: &mut F64Tile,
        cl: &mut u8,
        dl: &mut u8,
        sat: &mut [u64; TILE],
        consts: &TileConsts,
        src: &ChunkSrc,
        lane0: usize,
        shift: u32,
        out: &mut [u64],
    ) {
        match self {
            Isa::Portable => {
                tile_chunk_portable(x1, x2, cl, dl, sat, consts, src, lane0, shift, out)
            }
            // SAFETY: the variant only exists when `detect` confirmed
            // the feature on this CPU.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe {
                tile_chunk_avx2(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
            },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe {
                tile_chunk_avx512(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
            },
        }
    }
}

/// The tile kernel this host actually steps full tiles with —
/// benchmarks record it next to their numbers: `"wide-avx512f"` /
/// `"wide-avx2"` by runtime CPU detection, `"scalar-tile"` for the
/// portable oracle loop (no AVX2, not x86-64, or forced with
/// `TONOS_FORCE_KERNEL=scalar-tile`).
pub fn kernel_name() -> &'static str {
    match Isa::detect() {
        Isa::Portable => "scalar-tile",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "wide-avx2",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "wide-avx512f",
    }
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
        self.run_loop_filter(clocks, bits);
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
        self.run_loop_filter(clocks, bits);
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
    /// the loop runs **tile-outer, clock-inner**: each full tile's
    /// integrator states, coefficients, and packed ±1 history bytes are
    /// pulled into locals once and stepped through
    /// `step_tile` for the whole chunk — 64 clocks of
    /// register-resident state per memory round trip. Each clock
    /// deposits its comparator byte into the chunk's per-clock `u64`
    /// lane word; at the chunk boundary [`transpose64`] pivots each
    /// 64-lane group's words into per-lane time words, which flush into
    /// the lanes' [`PackedBits`]. Chunk boundaries land exactly on the
    /// 64-clock flush points of the per-clock formulation, so packed
    /// output is bit-identical.
    ///
    /// Lanes past the last full tile (K mod [`TILE`]) step scalar
    /// through [`step_lane`] with the same chunk structure, so padding
    /// lanes never execute.
    fn run_loop_filter(&mut self, clocks: usize, bits: &mut [PackedBits]) {
        let k = self.lanes();
        let groups = k.div_ceil(64);
        let full_tiles = k / TILE;
        let tail = full_tiles * TILE;
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
        let u = RowSrc {
            data: u_tile,
            stride: k,
        };
        let z1 = RowSrc::new(z1_tile, zero_row, z1_zero, k);
        let z2 = RowSrc::new(z2_tile, zero_row, z2_zero, k);
        let zc = RowSrc::new(zc_tile, zero_row, zc_zero, k);
        let zr = RowSrc::new(zr_tile, zero_row, zr_zero, k);
        let clock_rows = &mut clock_rows[..groups * 64];
        let isa = Isa::detect();
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
            // Full tiles: state stays in registers for the whole chunk.
            for t in 0..full_tiles {
                let lane0 = t * TILE;
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
                let mut x1t = *x1.tile(t);
                let mut x2t = *x2.tile(t);
                let mut cl = comp_last.byte(t);
                let mut dl = dac_last.byte(t);
                let mut sat8_acc = [0u64; TILE];
                let shift = 8 * (t % 8) as u32;
                let rows_out = &mut clock_rows[(lane0 / 64) * 64..(lane0 / 64) * 64 + nb];
                isa.run_tile_chunk(
                    &mut x1t,
                    &mut x2t,
                    &mut cl,
                    &mut dl,
                    &mut sat8_acc,
                    &consts,
                    &src,
                    lane0,
                    shift,
                    rows_out,
                );
                x1.set_tile(t, x1t);
                x2.set_tile(t, x2t);
                comp_last.set_byte(t, cl);
                dac_last.set_byte(t, dl);
                for (i, &acc) in sat8_acc.iter().enumerate() {
                    saturation_events[lane0 + i] += acc;
                }
            }
            // Tail lanes (< TILE of them): plain scalar chunk.
            for lane in tail..k {
                let (leak, sat) = (leak.get(lane), sat.get(lane));
                let (off, hyst) = (comp_offset.get(lane), comp_hyst.get(lane));
                let (mis, isi) = (dac_mismatch.get(lane), dac_isi.get(lane));
                let (b1, a1) = (b1.get(lane), a1.get(lane));
                let (c1, a2) = (c1.get(lane), a2.get(lane));
                let mut x1s = x1.get(lane);
                let mut x2s = x2.get(lane);
                let mut cl = comp_last.get(lane);
                let mut dl = dac_last.get(lane);
                let mut sat_acc = 0u64;
                let bit = lane % 64;
                let rows_out = &mut clock_rows[(lane / 64) * 64..(lane / 64) * 64 + nb];
                for (r, out_word) in rows_out.iter_mut().enumerate() {
                    let n = start + r;
                    let (vpos, satd) = step_lane(
                        &mut x1s,
                        &mut x2s,
                        leak,
                        sat,
                        off,
                        hyst,
                        mis,
                        isi,
                        b1,
                        a1,
                        c1,
                        a2,
                        u.at(n, lane),
                        z1.at(n, lane),
                        z2.at(n, lane),
                        zc.at(n, lane),
                        zr.at(n, lane),
                        cl,
                        dl,
                    );
                    cl = vpos;
                    dl = vpos;
                    *out_word |= u64::from(vpos) << bit;
                    sat_acc += u64::from(satd);
                }
                x1.set(lane, x1s);
                x2.set(lane, x2s);
                comp_last.set(lane, cl);
                dac_last.set(lane, dl);
                saturation_events[lane] += sat_acc;
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
