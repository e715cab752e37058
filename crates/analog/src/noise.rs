//! Seeded noise sources for the switched-capacitor circuit models.
//!
//! Every stochastic impairment in the readout chain draws from a
//! [`NoiseSource`] seeded explicitly, so each experiment in the repository
//! is bit-reproducible. The physical anchors are the classic
//! switched-capacitor relations:
//!
//! * sampled thermal noise on a capacitor: `v_rms = sqrt(kT / C)`;
//! * aperture jitter on a sampled waveform: `v_err ≈ slope · t_jitter`.

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Default junction temperature for noise budgets, in kelvin (body-contact
/// operation sits near 310 K, but electrical characterization is at room
/// temperature).
pub const ROOM_TEMPERATURE_K: f64 = 300.0;

/// RMS voltage of kT/C sampling noise for a capacitance in farads at a
/// temperature in kelvin.
///
/// # Panics
///
/// Panics if `capacitance` or `temperature` is not positive (a static
/// sizing error in circuit construction).
pub fn ktc_noise_rms(capacitance: f64, temperature: f64) -> f64 {
    assert!(
        capacitance > 0.0 && temperature > 0.0,
        "kT/C noise needs positive C and T"
    );
    (BOLTZMANN * temperature / capacitance).sqrt()
}

/// Number of ziggurat layers (a power of two so the layer index is a
/// mask of the entropy word).
pub(crate) const ZIGGURAT_LAYERS: usize = 128;
/// Right edge of the base layer for the 128-layer standard-normal
/// ziggurat (Marsaglia & Tsang).
const ZIGGURAT_R: f64 = 3.442_619_855_899;
/// Area of each layer (including the base layer's tail).
const ZIGGURAT_V: f64 = 9.912_563_035_262_17e-3;

/// `x` and `y = exp(-x²/2)` at the layer boundaries. `x[0]` is the base
/// layer's *virtual* width `V / f(R)` (> R, so the base rectangle has the
/// same area as every other layer once the tail is folded in);
/// `x[LAYERS] = 0`, `y[LAYERS] = 1`.
fn ziggurat_tables() -> &'static ([f64; ZIGGURAT_LAYERS + 1], [f64; ZIGGURAT_LAYERS + 1]) {
    use std::sync::OnceLock;
    static TABLES: OnceLock<([f64; ZIGGURAT_LAYERS + 1], [f64; ZIGGURAT_LAYERS + 1])> =
        OnceLock::new();
    TABLES.get_or_init(|| {
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        let mut y = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = ZIGGURAT_V / f(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 2..ZIGGURAT_LAYERS {
            // Each layer has area V: f(x[i]) = f(x[i-1]) + V / x[i-1].
            x[i] = (-2.0 * (f(x[i - 1]) + ZIGGURAT_V / x[i - 1]).ln()).sqrt();
        }
        x[ZIGGURAT_LAYERS] = 0.0;
        for i in 0..=ZIGGURAT_LAYERS {
            y[i] = f(x[i]);
        }
        (x, y)
    })
}

/// xoshiro256++ (Blackman & Vigna, public domain): the entropy engine
/// behind every noise draw in the signal chain.
///
/// Chosen over a cryptographic generator because the modulator draws
/// several 64-bit words *per clock per lane* — at 128 kHz × K lanes the
/// generator is a first-order term in the conversion budget, and
/// xoshiro256++ costs a handful of ALU ops per word (~4× cheaper than
/// the ChaCha-class generator it replaced; see `BENCH_hotpath.json`).
/// Statistical quality (passes BigCrush) is far beyond what a noise
/// model needs, and streams stay fully determined by their seed.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the four state words through SplitMix64 — the reference
    /// seeding procedure, which also guarantees a non-zero state.
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// The `x` boundary table alone — the only table the speculative
/// accept needs (the wide noise kernels gather from it per register).
pub(crate) fn ziggurat_xs() -> &'static [f64; ZIGGURAT_LAYERS + 1] {
    &ziggurat_tables().0
}

/// Applies the ziggurat sign bit (bit 7 of the entropy word) to a
/// non-negative sample by OR-ing it into the IEEE sign position —
/// bit-identical to multiplying by ±1.0, with no branch.
#[inline]
fn apply_sign(bits: u64, x: f64) -> f64 {
    f64::from_bits(x.to_bits() | ((bits & ZIGGURAT_LAYERS as u64) << 56))
}

/// Speculative ziggurat accept for one entropy word — the layer
/// lookup, single multiply, and branchless sign of
/// [`NoiseSource::standard`]'s hot path. Returns the signed candidate
/// and whether it is accepted without a density evaluation.
///
/// This is the one place the accept test lives: the lockstep scalar
/// rows call it in both the speculative pass and the rejection-replay
/// pass, and it is the scalar statement of what the wide kernels
/// (`noise_wide`) evaluate in-register.
#[inline(always)]
pub(crate) fn speculate(bits: u64, xs: &[f64; ZIGGURAT_LAYERS + 1]) -> (f64, bool) {
    let i = (bits & (ZIGGURAT_LAYERS as u64 - 1)) as usize;
    let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let x = u * xs[i];
    (apply_sign(bits, x), x < xs[i + 1])
}

/// Replays one rejected speculative draw through the exact scalar
/// rejection path (layer edge or Marsaglia tail) on a stream rebuilt
/// from its slot's state words, leaving the advanced words back in the
/// slot. Shared by the lockstep scalar rows and the wide kernels'
/// lane-mask replay — either caller consumes exactly the words
/// [`NoiseSource::standard`] would.
pub(crate) fn replay_slot(
    s0: &mut u64,
    s1: &mut u64,
    s2: &mut u64,
    s3: &mut u64,
    bits: u64,
) -> f64 {
    let mut src = NoiseSource {
        rng: Xoshiro256 {
            s: [*s0, *s1, *s2, *s3],
        },
    };
    let z = src.finish_standard(ziggurat_tables(), bits);
    [*s0, *s1, *s2, *s3] = src.rng.s;
    z
}

/// The per-draw scale applied on top of a standard-normal sample — the
/// two shapes the lane bank's noise tiles need, written so the scalar
/// and wide paths evaluate the identical expression per lane.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// `z * sigmas[j]` — the pre-multiplied noise tiles.
    Scaled {
        /// Per-lane standard deviations.
        sigmas: &'a [f64],
    },
    /// `biases[j] + z * sigmas[j] + 0.0` — the noisy constant-input
    /// tile (the trailing `+ 0.0` mirrors the scalar path's vanished
    /// jitter term exactly).
    Biased {
        /// Per-lane constant inputs.
        biases: &'a [f64],
        /// Per-lane standard deviations.
        sigmas: &'a [f64],
    },
}

impl Epilogue<'_> {
    /// Applies the scale for lane `j` — the scalar statement of the
    /// wide kernels' vector epilogue.
    #[inline(always)]
    pub(crate) fn apply(self, j: usize, z: f64) -> f64 {
        match self {
            Epilogue::Scaled { sigmas } => z * sigmas[j],
            Epilogue::Biased { biases, sigmas } => biases[j] + z * sigmas[j] + 0.0,
        }
    }
}

/// A deterministic Gaussian noise stream.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    rng: Xoshiro256,
}

impl NoiseSource {
    /// Creates a source from an explicit seed.
    pub fn from_seed(seed: u64) -> Self {
        NoiseSource {
            rng: Xoshiro256::from_seed(seed),
        }
    }

    /// Uniform in `(0, 1]` — safe as a logarithm argument.
    #[inline]
    fn unit_open(&mut self) -> f64 {
        ((self.rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a standard-normal sample.
    ///
    /// Uses a 128-layer ziggurat (an *exact* sampler, not an
    /// approximation): ~98 % of draws cost one 64-bit word and one
    /// multiply; the rest fall through to the layer-edge rejection test
    /// or the Marsaglia tail. The noise-path share of a ΣΔ modulator
    /// clock dropped ~3× when this replaced the Box–Muller transform —
    /// see `BENCH_hotpath.json`.
    pub fn standard(&mut self) -> f64 {
        let tables = ziggurat_tables();
        self.one_standard(tables)
    }

    /// One full ziggurat draw against pre-resolved tables (hot path,
    /// rejection loop, and tail).
    #[inline]
    fn one_standard(
        &mut self,
        tables: &([f64; ZIGGURAT_LAYERS + 1], [f64; ZIGGURAT_LAYERS + 1]),
    ) -> f64 {
        let bits = self.rng.next_u64();
        self.finish_standard(tables, bits)
    }

    /// Completes a ziggurat draw whose first entropy word has already
    /// been consumed from this stream — the continuation shared by the
    /// per-draw path and the lockstep tile fill's rejection handling.
    /// Word-for-word identical to the historical single-loop sampler.
    #[inline]
    fn finish_standard(
        &mut self,
        (xs, ys): &([f64; ZIGGURAT_LAYERS + 1], [f64; ZIGGURAT_LAYERS + 1]),
        mut bits: u64,
    ) -> f64 {
        loop {
            let i = (bits & (ZIGGURAT_LAYERS as u64 - 1)) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let x = u * xs[i];
            if x < xs[i + 1] {
                // Strictly inside the next layer's rectangle: accept
                // without evaluating the density (the hot path).
                return apply_sign(bits, x);
            }
            if i == 0 {
                // Base layer overflow: sample the tail beyond R.
                return apply_sign(bits, self.tail_beyond_r());
            }
            // Layer edge: accept with probability proportional to the
            // density between the layer's bounding heights.
            let y = ys[i] + (ys[i + 1] - ys[i]) * self.unit_open();
            if y < (-0.5 * x * x).exp() {
                return apply_sign(bits, x);
            }
            bits = self.rng.next_u64();
        }
    }

    /// Fills `out` with standard-normal samples, exactly as if each had
    /// been drawn by [`NoiseSource::standard`] in sequence.
    ///
    /// This is the batched ziggurat fill the lane bank uses to pre-draw
    /// a block of per-clock noise per lane. Four draws are speculated at
    /// a time entirely branch-free (generator step, layer lookup, accept
    /// test, branchless sign via a bit OR); when all four land in the
    /// accept-without-density region (~94 % of chunks) they commit as a
    /// straight-line store. A chunk with any rejection rolls the
    /// generator back (its state is four words) and replays the chunk
    /// through the full per-draw path. The sample *sequence* is
    /// bit-identical to repeated `standard()` calls, so pre-filling
    /// never shifts a stream.
    pub fn fill_standard(&mut self, out: &mut [f64]) {
        let tables = ziggurat_tables();
        let (xs, _) = tables;
        let mut chunks = out.chunks_exact_mut(4);
        for chunk in &mut chunks {
            let rolled_back = self.rng.clone();
            let mut accept = true;
            for slot in chunk.iter_mut() {
                let bits = self.rng.next_u64();
                let i = (bits & (ZIGGURAT_LAYERS as u64 - 1)) as usize;
                let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let x = u * xs[i];
                accept &= x < xs[i + 1];
                *slot = apply_sign(bits, x);
            }
            if !accept {
                // Replay the whole chunk through the exact per-draw
                // path, so rejection handling consumes words in the
                // same order as `standard()`.
                self.rng = rolled_back;
                for slot in chunk.iter_mut() {
                    *slot = self.one_standard(tables);
                }
            }
        }
        for slot in chunks.into_remainder() {
            *slot = self.one_standard(tables);
        }
    }

    /// Marsaglia tail sample beyond the base-layer edge `R` (the rare
    /// fallback shared by [`NoiseSource::standard`] and
    /// [`NoiseSource::fill_standard`]).
    #[cold]
    fn tail_beyond_r(&mut self) -> f64 {
        loop {
            let e1 = -self.unit_open().ln() / ZIGGURAT_R;
            let e2 = -self.unit_open().ln();
            if e2 + e2 > e1 * e1 {
                return ZIGGURAT_R + e1;
            }
        }
    }

    /// Draws a zero-mean Gaussian sample with the given standard
    /// deviation. A sigma of exactly zero short-circuits to 0.0 without
    /// consuming randomness, so disabling a noise source does not shift
    /// the sequence of the others.
    #[inline]
    pub fn gaussian(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 0.0;
        }
        self.standard() * sigma
    }

    /// Derives an independent child source (splitting streams for the two
    /// integrators, the comparator, etc.).
    pub fn split(&mut self) -> NoiseSource {
        NoiseSource::from_seed(self.rng.next_u64())
    }
}

/// Lockstep multi-stream ziggurat fill: K independent [`NoiseSource`]
/// streams advanced one draw per step, side by side.
///
/// A single stream's generator is a serial dependency chain — each word
/// waits on the last — so per-stream fills are latency-bound no matter
/// how they are batched. Holding K streams' state words in
/// structure-of-arrays form and stepping all K per clock turns that
/// latency into throughput: the K chains interleave in the pipeline and
/// the pure-integer generator loop autovectorizes. On x86-64 hosts with
/// AVX2 or AVX-512F the fill goes further: an explicit-SIMD kernel
/// (`noise_wide`, picked at runtime like the tile kernels — see
/// [`kernel_name`]) steps 4 (AVX2) or 8 (AVX-512F) streams per vector
/// register and performs the speculative ziggurat accept branchlessly
/// in-register, with rejections collected as a lane mask and replayed
/// through the exact scalar path. This is the noise engine behind the
/// lane bank's clock-major tiles.
///
/// Each stream's draw *sequence* stays bit-identical to scalar
/// [`NoiseSource::standard`] calls: the lockstep step consumes exactly
/// the word `standard()` would, and the ~1 % of draws that miss the
/// accept-without-density region replay through the exact scalar
/// rejection path on their own stream.
#[derive(Debug, Clone, Default)]
pub struct LockstepFill {
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
    bits: Vec<u64>,
}

impl LockstepFill {
    /// An empty fill scratch; reusable across blocks without
    /// reallocating once warm.
    pub fn new() -> Self {
        LockstepFill::default()
    }

    /// Starts a new lockstep group; follow with one
    /// [`LockstepFill::load`] per stream.
    pub fn begin(&mut self, k: usize) {
        for v in [&mut self.s0, &mut self.s1, &mut self.s2, &mut self.s3] {
            v.clear();
            v.reserve(k);
        }
        self.bits.clear();
        self.bits.resize(k, 0);
    }

    /// Adds one stream to the group (slot index = call order).
    pub fn load(&mut self, src: &NoiseSource) {
        let [a, b, c, d] = src.rng.s;
        self.s0.push(a);
        self.s1.push(b);
        self.s2.push(c);
        self.s3.push(d);
    }

    /// Writes slot `j`'s advanced generator state back to its stream.
    pub fn store(&self, j: usize, src: &mut NoiseSource) {
        src.rng.s = [self.s0[j], self.s1[j], self.s2[j], self.s3[j]];
    }

    /// Fills a clock-major tile with scaled draws:
    /// `out[n*k + j] = stream_j.standard() * sigmas[j]` for each clock
    /// `n` — the lane bank's pre-multiplied noise tiles.
    ///
    /// Dispatches to the explicit-SIMD wide kernel when the host CPU
    /// supports one (see [`kernel_name`]); the portable lockstep rows
    /// otherwise. Either path is bit-identical.
    pub fn fill_scaled(&mut self, sigmas: &[f64], clocks: usize, out: &mut [f64]) {
        self.fill_dispatch(Epilogue::Scaled { sigmas }, clocks, out);
    }

    /// Fills a clock-major tile with biased scaled draws:
    /// `out[n*k + j] = biases[j] + stream_j.standard() * sigmas[j] + 0.0`
    /// — the lane bank's noisy constant-input tile (the trailing `+ 0.0`
    /// mirrors the scalar path's vanished jitter term exactly).
    /// Dispatched like [`LockstepFill::fill_scaled`].
    pub fn fill_biased(&mut self, biases: &[f64], sigmas: &[f64], clocks: usize, out: &mut [f64]) {
        self.fill_dispatch(Epilogue::Biased { biases, sigmas }, clocks, out);
    }

    /// [`LockstepFill::fill_scaled`] pinned to the portable lockstep
    /// rows — the always-compiled oracle the wide kernel is
    /// property-tested (and benchmarked) against.
    pub fn fill_scaled_portable(&mut self, sigmas: &[f64], clocks: usize, out: &mut [f64]) {
        let ep = Epilogue::Scaled { sigmas };
        self.fill_lanes(clocks, out, move |j, z| ep.apply(j, z));
    }

    /// [`LockstepFill::fill_biased`] pinned to the portable lockstep
    /// rows.
    pub fn fill_biased_portable(
        &mut self,
        biases: &[f64],
        sigmas: &[f64],
        clocks: usize,
        out: &mut [f64],
    ) {
        let ep = Epilogue::Biased { biases, sigmas };
        self.fill_lanes(clocks, out, move |j, z| ep.apply(j, z));
    }

    /// Kernel dispatch: the wide kernel takes every lane (the trailing
    /// partial vector group under a live-lane mask) when the host has
    /// one; the portable rows run otherwise.
    fn fill_dispatch(&mut self, ep: Epilogue<'_>, clocks: usize, out: &mut [f64]) {
        let k = self.bits.len();
        if k == 0 || clocks == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = crate::kernel::active() {
            crate::noise_wide::fill(
                isa,
                &mut self.s0[..k],
                &mut self.s1[..k],
                &mut self.s2[..k],
                &mut self.s3[..k],
                ep,
                clocks,
                k,
                k,
                &mut out[..clocks * k],
            );
            return;
        }
        self.fill_lanes(clocks, out, move |j, z| ep.apply(j, z));
    }

    /// The portable lockstep core: one generator step per stream per
    /// clock, then the shared [`speculate`] accept test; rejected draws
    /// (rare) replay through the exact scalar path via [`replay_slot`].
    fn fill_lanes(&mut self, clocks: usize, out: &mut [f64], f: impl Fn(usize, f64) -> f64) {
        let k = self.bits.len();
        if k == 0 || clocks == 0 {
            return;
        }
        let xs = ziggurat_xs();
        let s0 = &mut self.s0[..k];
        let s1 = &mut self.s1[..k];
        let s2 = &mut self.s2[..k];
        let s3 = &mut self.s3[..k];
        let bits = &mut self.bits[..k];
        for row in out[..clocks * k].chunks_exact_mut(k) {
            // One xoshiro256++ step per stream, all streams in lockstep
            // (pure integer, unit stride: the autovectorized half).
            for j in 0..k {
                let r = s0[j]
                    .wrapping_add(s3[j])
                    .rotate_left(23)
                    .wrapping_add(s0[j]);
                let t = s1[j] << 17;
                s2[j] ^= s0[j];
                s3[j] ^= s1[j];
                s1[j] ^= s2[j];
                s0[j] ^= s3[j];
                s2[j] ^= t;
                s3[j] = s3[j].rotate_left(45);
                bits[j] = r;
            }
            // Speculative accept for every stream — `standard()`'s hot
            // path, stated once in `speculate`.
            let mut any_reject = false;
            for j in 0..k {
                let (z, accepted) = speculate(bits[j], xs);
                any_reject |= !accepted;
                row[j] = f(j, z);
            }
            if any_reject {
                // Re-test each slot (same shared helper — no second
                // statement of the accept condition) and replay the
                // misses on their own stream; accepted slots are
                // untouched.
                for j in 0..k {
                    let b = bits[j];
                    if speculate(b, xs).1 {
                        continue;
                    }
                    let z = replay_slot(&mut s0[j], &mut s1[j], &mut s2[j], &mut s3[j], b);
                    row[j] = f(j, z);
                }
            }
        }
    }
}

/// The lockstep-fill kernel this host actually runs — benchmarks
/// record it next to their ns/draw numbers: `"wide-avx2"` /
/// `"wide-avx512f"` by runtime CPU detection, `"scalar-lockstep"` when
/// no wide ISA is available (or off x86-64, or when
/// `TONOS_FORCE_KERNEL=scalar-tile` pins the portable bodies).
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        use crate::kernel::WideIsa;
        if let Some(isa) = crate::kernel::active() {
            return match isa {
                WideIsa::Avx2 => "wide-avx2",
                WideIsa::Avx512 => "wide-avx512f",
            };
        }
    }
    "scalar-lockstep"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seed whose first draw misses the speculative accept, so its
    /// lane must take the rejection replay on clock 0.
    fn rejecting_seed() -> u64 {
        let xs = ziggurat_xs();
        (1u64..)
            .find(|&seed| {
                let mut rng = Xoshiro256::from_seed(seed);
                !speculate(rng.next_u64(), xs).1
            })
            .expect("some seed rejects first")
    }

    /// The wide fill on every partial vector group (K mod width in
    /// 1..width, both below and above one full group) against
    /// per-stream `standard()` draws, with a forced rejection on the
    /// partial group's last live lane, and guard values after lane K in
    /// every tile row and in the padding state slots that must never be
    /// written.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_fill_partial_groups_match_streams_and_spare_guards() {
        use crate::kernel::WideIsa;
        const PAD: usize = 8;
        const STATE_GUARD: u64 = 0xDEAD_BEEF_0BAD_F00D;
        let guard = f64::from_bits(0x7FF4_DEAD_0000_0001);
        let mut isas = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            isas.push((WideIsa::Avx2, 4));
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            isas.push((WideIsa::Avx512, 8));
        }
        let reject_seed = rejecting_seed();
        for (isa, width) in isas {
            for k in (1..width).chain(width + 1..2 * width) {
                for biased in [false, true] {
                    let clocks = 300;
                    let stride = k + 3;
                    let mut seeds: Vec<u64> = (0..k as u64).map(|j| 0x5EED + 977 * j).collect();
                    seeds[k - 1] = reject_seed;
                    let mut streams: Vec<NoiseSource> =
                        seeds.iter().map(|&s| NoiseSource::from_seed(s)).collect();
                    let mut words = [(); 4].map(|_| vec![STATE_GUARD; k + PAD]);
                    for (j, src) in streams.iter().enumerate() {
                        for (w, row) in words.iter_mut().enumerate() {
                            row[j] = src.rng.s[w];
                        }
                    }
                    let sigmas: Vec<f64> = (0..k + PAD).map(|j| 0.5 + j as f64 * 0.125).collect();
                    let biases: Vec<f64> = (0..k + PAD).map(|j| j as f64 - 2.0).collect();
                    let ep = if biased {
                        Epilogue::Biased {
                            biases: &biases,
                            sigmas: &sigmas,
                        }
                    } else {
                        Epilogue::Scaled { sigmas: &sigmas }
                    };
                    let mut out = vec![guard; clocks * stride + PAD];
                    let [s0, s1, s2, s3] = &mut words;
                    crate::noise_wide::fill(isa, s0, s1, s2, s3, ep, clocks, k, stride, &mut out);
                    let what = format!("{isa:?} k={k} biased={biased}");
                    for n in 0..clocks {
                        for (j, src) in streams.iter_mut().enumerate() {
                            let want = ep.apply(j, src.standard());
                            let got = out[n * stride + j];
                            assert_eq!(got.to_bits(), want.to_bits(), "{what}: clock {n} lane {j}");
                        }
                        for slot in k..stride {
                            let got = out[n * stride + slot].to_bits();
                            assert_eq!(got, guard.to_bits(), "{what}: clock {n} slot {slot}");
                        }
                    }
                    assert!(out[clocks * stride..]
                        .iter()
                        .all(|g| g.to_bits() == guard.to_bits()));
                    for (w, row) in words.iter().enumerate() {
                        for (j, src) in streams.iter().enumerate() {
                            assert_eq!(row[j], src.rng.s[w], "{what}: state word {w} lane {j}");
                        }
                        assert!(
                            row[k..].iter().all(|&g| g == STATE_GUARD),
                            "{what}: padding state word {w} written"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ktc_matches_hand_calculation() {
        // 1 pF at 300 K: sqrt(1.38e-23 * 300 / 1e-12) ≈ 64.4 µV.
        let v = ktc_noise_rms(1e-12, 300.0);
        assert!((v - 64.4e-6).abs() < 1e-6, "{v}");
        // Bigger cap, less noise.
        assert!(ktc_noise_rms(4e-12, 300.0) < v);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ktc_rejects_zero_cap() {
        let _ = ktc_noise_rms(0.0, 300.0);
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = NoiseSource::from_seed(11);
        let mut b = NoiseSource::from_seed(11);
        for _ in 0..100 {
            assert_eq!(a.standard(), b.standard());
        }
        let mut c = NoiseSource::from_seed(12);
        assert_ne!(a.standard(), c.standard());
    }

    #[test]
    fn gaussian_statistics_are_plausible() {
        let mut src = NoiseSource::from_seed(5);
        let n = 100_000;
        let sigma = 2.5;
        let samples: Vec<f64> = (0..n).map(|_| src.gaussian(sigma)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.03, "std {}", var.sqrt());
    }

    #[test]
    fn fill_standard_matches_sequential_draws() {
        // The batched fill must be sequence-identical to repeated
        // standard() calls — across block boundaries and for enough
        // draws to hit the rejection paths (layer edges, tail).
        let mut batched = NoiseSource::from_seed(0xBA7C);
        let mut scalar = NoiseSource::from_seed(0xBA7C);
        let mut buf = vec![0.0; 1024];
        for len in [1usize, 7, 64, 127, 128, 500, 1024] {
            batched.fill_standard(&mut buf[..len]);
            for (i, &b) in buf[..len].iter().enumerate() {
                assert_eq!(b, scalar.standard(), "draw {i} of block {len}");
            }
        }
        // Interleaving fills and scalar draws must also stay aligned.
        batched.fill_standard(&mut buf[..33]);
        for &b in &buf[..33] {
            assert_eq!(b, scalar.standard());
        }
        assert_eq!(batched.standard(), scalar.standard());
    }

    #[test]
    fn lockstep_fill_matches_scalar_draws_per_stream() {
        // Enough draws per stream to exercise the rejection paths, plus
        // re-loading the same group for a second block: every stream
        // must stay sequence-identical to scalar draws, and the bias /
        // scale application must match the scalar expressions exactly.
        let k = 7;
        let clocks = 600;
        let sigmas: Vec<f64> = (0..k).map(|j| 0.5 + j as f64).collect();
        let biases: Vec<f64> = (0..k).map(|j| -3.0 + j as f64).collect();
        let mut streams: Vec<NoiseSource> = (0..k)
            .map(|j| NoiseSource::from_seed(900 + j as u64))
            .collect();
        let mut oracle: Vec<NoiseSource> = streams.clone();
        let mut fill = LockstepFill::new();
        let mut tile = vec![0.0; clocks * k];

        fill.begin(k);
        for s in &streams {
            fill.load(s);
        }
        fill.fill_scaled(&sigmas, clocks, &mut tile);
        for (j, s) in streams.iter_mut().enumerate() {
            fill.store(j, s);
        }
        for n in 0..clocks {
            for (j, o) in oracle.iter_mut().enumerate() {
                assert_eq!(
                    tile[n * k + j],
                    o.standard() * sigmas[j],
                    "clock {n} slot {j}"
                );
            }
        }

        // Second block through the biased fill: the stored-back states
        // must resume exactly where the oracle streams are.
        fill.begin(k);
        for s in &streams {
            fill.load(s);
        }
        fill.fill_biased(&biases, &sigmas, clocks, &mut tile);
        for (j, s) in streams.iter_mut().enumerate() {
            fill.store(j, s);
        }
        for n in 0..clocks {
            for (j, o) in oracle.iter_mut().enumerate() {
                assert_eq!(
                    tile[n * k + j],
                    biases[j] + o.standard() * sigmas[j] + 0.0,
                    "clock {n} slot {j}"
                );
            }
        }
        for (s, o) in streams.iter_mut().zip(&mut oracle) {
            assert_eq!(s.standard(), o.standard());
        }
    }

    #[test]
    fn zero_sigma_consumes_no_randomness() {
        let mut a = NoiseSource::from_seed(77);
        let mut b = NoiseSource::from_seed(77);
        let _ = a.gaussian(0.0);
        let _ = a.gaussian(0.0);
        // b never drew; subsequent samples must still match.
        assert_eq!(a.standard(), b.standard());
    }

    #[test]
    fn split_streams_are_independent_but_deterministic() {
        let mut parent_a = NoiseSource::from_seed(3);
        let mut parent_b = NoiseSource::from_seed(3);
        let mut child_a = parent_a.split();
        let mut child_b = parent_b.split();
        for _ in 0..10 {
            assert_eq!(child_a.standard(), child_b.standard());
        }
        // Child differs from parent's continued stream.
        assert_ne!(child_a.standard(), parent_a.standard());
    }
}
