//! Fixed-width lane **tiles**: the data layout and chunk kernels behind
//! the bank's tiled execution (see [`crate::bank`]).
//!
//! A tile is [`TILE`] (= 8) f64 lanes in one cache-line-aligned row
//! ([`F64Tile`]). The bank stores every kernel-touched state and
//! coefficient row as a sequence of tiles and steps each tile through
//! one ≤64-clock chunk at a time with one of three bit-identical chunk
//! kernels, picked per process by `ChunkKernel::detect`:
//!
//! * the **portable scalar tile loop** (`chunk_portable`): `step_lane`
//!   per lane — the oracle, and the body every non-x86-64 host and
//!   every x86-64 host without AVX2 runs;
//! * the **AVX-512F kernel** (`chunk_avx512`): one tile per zmm
//!   register, compares into `__mmask8` lane masks, mask blends for
//!   every select, and the ±1 history multiply as a masked XOR of the
//!   sign bit; and
//! * the **AVX2 kernel** (`chunk_avx2`): the same passes over two
//!   4-lane ymm halves, with cmp / `blendv` / `movemask`.
//!
//! Every kernel takes the tile's live-lane count, so the final partial
//! tile (K mod [`TILE`] lanes) runs the same kernel as the full ones.
//! The portable loop steps only the live lanes. The wide kernels load
//! rows under a live-lane mask (padding lanes read `0.0`), AND every
//! comparator and saturation mask with it, and store state back under
//! it. Either way `TileRow` slack lanes stay `0.0` and `BitRow`
//! bits above the length stay 0. (The bank sends a one-lane tile to the
//! portable loop on every host: with no second lane to overlap, its
//! predicted branches beat the vector compare-and-blend chain.)
//!
//! All three evaluate every floating-point expression with the exact
//! association of the scalar `SigmaDelta2::step` and no FMA (the
//! intrinsics pin the instruction selection), so each kernel is
//! bit-identical to the scalar modulator — the property
//! `tests/bank_oracle.rs` proves under every forced kernel, and the
//! kernel-level tests below prove for every live-lane count.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Lanes per tile: one 64-byte cache line of f64s, one AVX-512
/// register.
pub const TILE: usize = 8;

/// One cache-line-aligned row of [`TILE`] f64 lanes — the vector type of
/// the tiled bank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(align(64))]
pub struct F64Tile(pub [f64; TILE]);

impl F64Tile {
    /// All lanes exactly `0.0`.
    pub const ZERO: F64Tile = F64Tile([0.0; TILE]);
}

/// The per-tile loop-filter constants, hoisted out of the clock loop
/// once per chunk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileConsts {
    pub leak: F64Tile,
    pub sat: F64Tile,
    pub off: F64Tile,
    pub hyst: F64Tile,
    pub mis: F64Tile,
    pub isi: F64Tile,
    pub b1: F64Tile,
    pub a1: F64Tile,
    pub c1: F64Tile,
    pub a2: F64Tile,
}

/// One tile's carried loop-filter state through a chunk: both
/// integrators, the packed ±1 comparator and DAC histories (bit `i` =
/// lane `i` was +1), and the per-lane saturation-event counts the
/// chunk adds to.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TileState {
    pub x1: F64Tile,
    pub x2: F64Tile,
    pub cl: u8,
    pub dl: u8,
    pub sat: [u64; TILE],
}

/// The per-clock rows a portable tile step consumes: the impaired input
/// and the four pre-multiplied noise rows.
#[derive(Debug, Clone, Copy)]
struct TileRows {
    u: F64Tile,
    z1: F64Tile,
    z2: F64Tile,
    zc: F64Tile,
    zr: F64Tile,
}

/// Strided reader over a clock-major tile: row `n` starts at
/// `n * stride`. An all-zero noise tile aliases the shared zero row
/// with stride 0, so dead tiles cost one cache line regardless of the
/// block length.
#[derive(Clone, Copy)]
pub(crate) struct RowSrc<'a> {
    data: &'a [f64],
    stride: usize,
}

impl<'a> RowSrc<'a> {
    /// Reads `tile` at `stride`, or the shared zero row when the tile is
    /// `dead`.
    pub fn new(tile: &'a [f64], zero_row: &'a [f64], dead: bool, stride: usize) -> Self {
        if dead {
            RowSrc {
                data: zero_row,
                stride: 0,
            }
        } else {
            RowSrc { data: tile, stride }
        }
    }

    /// The aligned copy of lanes `lane0..lane0 + TILE` at clock `n`.
    #[inline(always)]
    fn tile(&self, n: usize, lane0: usize) -> F64Tile {
        let base = n * self.stride + lane0;
        F64Tile(self.data[base..base + TILE].try_into().expect("full tile"))
    }

    /// One lane's value at clock `n`.
    #[inline(always)]
    fn at(&self, n: usize, lane: usize) -> f64 {
        self.data[n * self.stride + lane]
    }

    /// Address of lane `lane` at clock `n` (dereferenced only by the
    /// wide kernels, under [`ChunkSrc::assert_covers`]).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn ptr(&self, n: usize, lane: usize) -> *const f64 {
        self.data.as_ptr().wrapping_add(n * self.stride + lane)
    }
}

/// The per-chunk row sources shared by every tile of a chunk.
#[derive(Clone, Copy)]
pub(crate) struct ChunkSrc<'a> {
    pub u: RowSrc<'a>,
    pub z1: RowSrc<'a>,
    pub z2: RowSrc<'a>,
    pub zc: RowSrc<'a>,
    pub zr: RowSrc<'a>,
    /// First clock of the chunk.
    pub start: usize,
}

impl ChunkSrc<'_> {
    /// Asserts, once per row source, that every clock
    /// `start..start + clocks` holds lanes `lane0..lane0 + live` — the
    /// bound every unchecked row load of the wide kernels relies on.
    fn assert_covers(&self, lane0: usize, live: usize, clocks: usize) {
        let last = self.start + clocks.max(1) - 1;
        for (name, r) in [
            ("u", self.u),
            ("z1", self.z1),
            ("z2", self.z2),
            ("zc", self.zc),
            ("zr", self.zr),
        ] {
            assert!(
                last * r.stride + lane0 + live <= r.data.len(),
                "{name} rows must cover lanes {lane0}..{} through clock {last}",
                lane0 + live
            );
        }
    }
}

/// One scalar lane through one modulator clock — the exact expression
/// tree of `SigmaDelta2::step` (and therefore of every tile kernel).
/// Returns `(comparator_positive, saturated_either_stage)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_lane(
    x1: &mut f64,
    x2: &mut f64,
    leak: f64,
    sat: f64,
    off: f64,
    hyst: f64,
    mis: f64,
    isi: f64,
    b1: f64,
    a1: f64,
    c1: f64,
    a2: f64,
    u: f64,
    z1: f64,
    z2: f64,
    zc: f64,
    zr: f64,
    comp_last_pos: bool,
    dac_last_pos: bool,
) -> (bool, bool) {
    // Comparator decision from the previous x2 (delaying loop):
    // threshold = offset − h·last + noise, with last = ±1.0.
    let last = if comp_last_pos { 1.0 } else { -1.0 };
    let threshold = off - hyst * last + zc;
    let vpos = *x2 >= threshold;
    // 1-bit DAC: positive-level mismatch, rising-edge ISI,
    // multiplicative reference noise.
    let level = if vpos { 1.0 + mis } else { -1.0 };
    let rising = vpos && !dac_last_pos;
    let level = if rising { level * (1.0 - isi) } else { level };
    let vf = level * (1.0 + zr);
    // Both integrators, saturating exactly like ScIntegrator::update.
    let x1_old = *x1;
    let next1 = leak * x1_old + (b1 * u - a1 * vf) + z1;
    let sat1 = next1 > sat || next1 < -sat;
    *x1 = next1.clamp(-sat, sat);
    let next2 = leak * *x2 + (c1 * x1_old - a2 * vf) + z2;
    let sat2 = next2 > sat || next2 < -sat;
    *x2 = next2.clamp(-sat, sat);
    (vpos, sat1 || sat2)
}

/// The portable scalar tile body: [`TILE`] lanes through [`step_lane`]
/// in lane order.
#[inline(always)]
fn step_tile_scalar(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    c: &TileConsts,
    rows: &TileRows,
    comp_last: u8,
    dac_last: u8,
) -> (u8, u8) {
    let mut vpos8 = 0u8;
    let mut sat8 = 0u8;
    for i in 0..TILE {
        let (vpos, satd) = step_lane(
            &mut x1.0[i],
            &mut x2.0[i],
            c.leak.0[i],
            c.sat.0[i],
            c.off.0[i],
            c.hyst.0[i],
            c.mis.0[i],
            c.isi.0[i],
            c.b1.0[i],
            c.a1.0[i],
            c.c1.0[i],
            c.a2.0[i],
            rows.u.0[i],
            rows.z1.0[i],
            rows.z2.0[i],
            rows.zc.0[i],
            rows.zr.0[i],
            comp_last >> i & 1 == 1,
            dac_last >> i & 1 == 1,
        );
        vpos8 |= u8::from(vpos) << i;
        sat8 |= u8::from(satd) << i;
    }
    (vpos8, sat8)
}

/// The chunk kernel a process steps tiles with. Only
/// [`ChunkKernel::detect`] (and this module's tests, after their own
/// CPUID check) can name a wide body, so holding one proves the CPU
/// runs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChunkKernel(Body);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl ChunkKernel {
    /// The portable scalar tile loop.
    pub const PORTABLE: ChunkKernel = ChunkKernel(Body::Portable);

    /// The widest kernel this host runs: the shared CPUID probe of
    /// [`crate::kernel`] on x86-64 (pinned by `TONOS_FORCE_KERNEL`),
    /// the portable loop elsewhere.
    pub fn detect() -> ChunkKernel {
        #[cfg(target_arch = "x86_64")]
        match crate::kernel::active() {
            Some(crate::kernel::WideIsa::Avx512) => return ChunkKernel(Body::Avx512),
            Some(crate::kernel::WideIsa::Avx2) => return ChunkKernel(Body::Avx2),
            None => {}
        }
        ChunkKernel::PORTABLE
    }

    /// The name benchmarks record: `"wide-avx512f"`, `"wide-avx2"` or
    /// `"scalar-tile"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Body::Portable => "scalar-tile",
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => "wide-avx2",
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => "wide-avx512f",
        }
    }

    /// Steps lanes `lane0..lane0 + live` of one tile through
    /// `out.len()` clocks starting at `src.start`: state stays in
    /// registers for the whole chunk, and each clock ORs its comparator
    /// byte into `out[r]` at bit `shift`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= live <= TILE` and every row source covers the
    /// lanes for every clock of the chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        self,
        st: &mut TileState,
        c: &TileConsts,
        src: &ChunkSrc,
        lane0: usize,
        live: usize,
        shift: u32,
        out: &mut [u64],
    ) {
        assert!(
            (1..=TILE).contains(&live),
            "a tile has 1..={TILE} live lanes"
        );
        src.assert_covers(lane0, live, out.len());
        match self.0 {
            Body::Portable => chunk_portable(st, c, src, lane0, live, shift, out),
            // SAFETY: a wide `Body` exists only once the CPU was probed
            // for its feature (see the type docs), and the asserts
            // above are the row-source bounds the kernel requires.
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => unsafe { chunk_avx2(st, c, src, lane0, live, shift, out) },
            // SAFETY: as for `Avx2`.
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => unsafe { chunk_avx512(st, c, src, lane0, live, shift, out) },
        }
    }
}

/// The portable chunk. A full tile steps clock by clock through
/// [`step_tile_scalar`]; a partial tile steps only its live lanes, one
/// lane at a time through the whole chunk with [`step_lane`], so slack
/// lanes never execute.
fn chunk_portable(
    st: &mut TileState,
    c: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    live: usize,
    shift: u32,
    out: &mut [u64],
) {
    if live < TILE {
        for i in 0..live {
            chunk_lane(st, c, src, lane0, i, shift, out);
        }
        return;
    }
    for (r, word) in out.iter_mut().enumerate() {
        let n = src.start + r;
        let rows = TileRows {
            u: src.u.tile(n, lane0),
            z1: src.z1.tile(n, lane0),
            z2: src.z2.tile(n, lane0),
            zc: src.zc.tile(n, lane0),
            zr: src.zr.tile(n, lane0),
        };
        let (vpos8, sat8) = step_tile_scalar(&mut st.x1, &mut st.x2, c, &rows, st.cl, st.dl);
        st.cl = vpos8;
        st.dl = vpos8;
        *word |= u64::from(vpos8) << shift;
        for (i, acc) in st.sat.iter_mut().enumerate() {
            *acc += u64::from(sat8 >> i & 1);
        }
    }
}

/// Lane `i` of a tile through a whole chunk with [`step_lane`], its
/// state in locals.
fn chunk_lane(
    st: &mut TileState,
    c: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    i: usize,
    shift: u32,
    out: &mut [u64],
) {
    let lane = lane0 + i;
    let (mut x1, mut x2) = (st.x1.0[i], st.x2.0[i]);
    let mut cl = st.cl >> i & 1 == 1;
    let mut dl = st.dl >> i & 1 == 1;
    let mut sat = 0u64;
    for (r, word) in out.iter_mut().enumerate() {
        let n = src.start + r;
        let (vpos, satd) = step_lane(
            &mut x1,
            &mut x2,
            c.leak.0[i],
            c.sat.0[i],
            c.off.0[i],
            c.hyst.0[i],
            c.mis.0[i],
            c.isi.0[i],
            c.b1.0[i],
            c.a1.0[i],
            c.c1.0[i],
            c.a2.0[i],
            src.u.at(n, lane),
            src.z1.at(n, lane),
            src.z2.at(n, lane),
            src.zc.at(n, lane),
            src.zr.at(n, lane),
            cl,
            dl,
        );
        cl = vpos;
        dl = vpos;
        *word |= u64::from(vpos) << (shift + i as u32);
        sat += u64::from(satd);
    }
    let bit = 1u8 << i;
    st.x1.0[i] = x1;
    st.x2.0[i] = x2;
    st.cl = st.cl & !bit | if cl { bit } else { 0 };
    st.dl = st.dl & !bit | if dl { bit } else { 0 };
    st.sat[i] += sat;
}

/// Bit `i` set for every live lane `i < live`.
#[inline(always)]
fn live_bits(live: usize) -> u8 {
    (0xFFu16 >> (TILE - live)) as u8
}

/// A whole tile in one zmm register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn tile512(t: &F64Tile) -> __m512d {
    // SAFETY: `F64Tile` is 8 f64s aligned to 64 bytes, exactly one
    // aligned zmm load.
    unsafe { _mm512_load_pd(t.0.as_ptr()) }
}

/// Lanes `lane0..` of clock `n`, loaded under the live-lane mask `m`;
/// masked-off lanes read `0.0` and touch no memory.
///
/// # Safety
///
/// AVX-512F, and `r` holds every lane of `m` at clock `n`
/// ([`ChunkSrc::assert_covers`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn row512(r: &RowSrc, n: usize, lane0: usize, m: __mmask8) -> __m512d {
    // SAFETY: the caller's coverage guarantee; masked-off lanes are
    // never accessed.
    unsafe { _mm512_maskz_loadu_pd(m, r.ptr(n, lane0)) }
}

/// The AVX-512F chunk: one tile per zmm register, lane masks in
/// `__mmask8`.
///
/// # Safety
///
/// The CPU must support AVX-512F, `1 <= live <= TILE`, and `src` must
/// cover lanes `lane0..lane0 + live` for every clock of the chunk
/// ([`ChunkKernel::run`] asserts both).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn chunk_avx512(
    st: &mut TileState,
    c: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    live: usize,
    shift: u32,
    out: &mut [u64],
) {
    let m: __mmask8 = live_bits(live);
    let sign = _mm512_set1_epi64(i64::MIN);
    let one = _mm512_set1_pd(1.0);
    let neg_one = _mm512_set1_pd(-1.0);
    let count_one = _mm512_set1_epi64(1);
    let (leak, sat, off) = (tile512(&c.leak), tile512(&c.sat), tile512(&c.off));
    let (b1, a1, c1, a2) = (
        tile512(&c.b1),
        tile512(&c.a1),
        tile512(&c.c1),
        tile512(&c.a2),
    );
    let hyst = _mm512_castpd_si512(tile512(&c.hyst));
    let neg_sat = _mm512_castsi512_pd(_mm512_xor_epi64(_mm512_castpd_si512(sat), sign));
    // The two DAC levels a positive decision can take: 1 + mismatch,
    // and on a rising edge that times 1 − isi (`step_lane`'s operands,
    // so the same roundings).
    let lvl_pos = _mm512_add_pd(one, tile512(&c.mis));
    let lvl_rise = _mm512_mul_pd(lvl_pos, _mm512_sub_pd(one, tile512(&c.isi)));
    let mut x1 = tile512(&st.x1);
    let mut x2 = tile512(&st.x2);
    let (mut cl, mut dl): (__mmask8, __mmask8) = (st.cl, st.dl);
    // SAFETY: `st.sat` is 8 u64s, one unaligned zmm.
    let mut counts = unsafe { _mm512_loadu_epi64(st.sat.as_ptr().cast()) };
    for (r, word) in out.iter_mut().enumerate() {
        let n = src.start + r;
        // SAFETY: the caller's coverage guarantee, for clock `n` of
        // this chunk.
        let (u, z1, z2, zc, zr) = unsafe {
            (
                row512(&src.u, n, lane0, m),
                row512(&src.z1, n, lane0, m),
                row512(&src.z2, n, lane0, m),
                row512(&src.zc, n, lane0, m),
                row512(&src.zr, n, lane0, m),
            )
        };
        // threshold = off − hyst·(±1) + zc: the ±1 multiply is an exact
        // sign flip on the lanes whose history bit is clear.
        let h = _mm512_castsi512_pd(_mm512_mask_xor_epi64(hyst, !cl, hyst, sign));
        let threshold = _mm512_add_pd(_mm512_sub_pd(off, h), zc);
        let vpos = _mm512_mask_cmp_pd_mask::<_CMP_GE_OQ>(m, x2, threshold);
        let rising = vpos & !dl;
        let level = _mm512_mask_blend_pd(vpos, neg_one, lvl_pos);
        let level = _mm512_mask_blend_pd(rising, level, lvl_rise);
        let vf = _mm512_mul_pd(level, _mm512_add_pd(one, zr));
        // next1 = leak·x1 + (b1·u − a1·vf) + z1, clamped as
        // compare + blend (f64::clamp for every finite and NaN input).
        let x1_old = x1;
        let fb1 = _mm512_sub_pd(_mm512_mul_pd(b1, u), _mm512_mul_pd(a1, vf));
        let next1 = _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(leak, x1_old), fb1), z1);
        let hi1 = _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(m, next1, sat);
        let lo1 = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(m, next1, neg_sat);
        x1 = _mm512_mask_blend_pd(hi1, _mm512_mask_blend_pd(lo1, next1, neg_sat), sat);
        // Second integrator, fed by the *previous* first-stage output.
        let fb2 = _mm512_sub_pd(_mm512_mul_pd(c1, x1_old), _mm512_mul_pd(a2, vf));
        let next2 = _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(leak, x2), fb2), z2);
        let hi2 = _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(m, next2, sat);
        let lo2 = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(m, next2, neg_sat);
        x2 = _mm512_mask_blend_pd(hi2, _mm512_mask_blend_pd(lo2, next2, neg_sat), sat);
        counts = _mm512_mask_add_epi64(counts, hi1 | lo1 | hi2 | lo2, counts, count_one);
        cl = vpos;
        dl = vpos;
        *word |= u64::from(vpos) << shift;
    }
    // SAFETY: aligned tiles and the 8-u64 count array; only live lanes
    // are written, so slack lanes keep their 0.0.
    unsafe {
        _mm512_mask_store_pd(st.x1.0.as_mut_ptr(), m, x1);
        _mm512_mask_store_pd(st.x2.0.as_mut_ptr(), m, x2);
        _mm512_mask_storeu_epi64(st.sat.as_mut_ptr().cast(), m, counts);
    }
    st.cl = cl;
    st.dl = dl;
}

/// One 4-lane half of a tile's chunk constants in ymm registers; `live`
/// is all-ones on live lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Half {
    leak: __m256d,
    sat: __m256d,
    neg_sat: __m256d,
    off: __m256d,
    hyst: __m256d,
    lvl_pos: __m256d,
    lvl_rise: __m256d,
    b1: __m256d,
    a1: __m256d,
    c1: __m256d,
    a2: __m256d,
    live: __m256d,
}

/// One 4-lane half's carried state; the histories are all-ones lane
/// masks.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct HalfState {
    x1: __m256d,
    x2: __m256d,
    cl: __m256d,
    dl: __m256d,
    counts: __m256i,
}

/// Lanes `o..o + 4` of a tile (`o` is 0 or 4).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn half256(t: &F64Tile, o: usize) -> __m256d {
    debug_assert!(o == 0 || o == 4);
    // SAFETY: `o` is 0 or 4, so this is the 32-byte-aligned first or
    // second half of a 64-byte-aligned 8-f64 tile.
    unsafe { _mm256_load_pd(t.0.as_ptr().add(o)) }
}

/// Bits `o..o + 4` of a lane byte as an all-ones lane mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn mask256(bits: u8, o: usize) -> __m256d {
    let sel = _mm256_set_epi64x(8, 4, 2, 1);
    let b = _mm256_set1_epi64x(i64::from(bits >> o & 0xF));
    _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(b, sel), sel))
}

/// One clock of one 4-lane half — `chunk_avx512`'s passes with
/// all-ones lane masks; returns the comparator `movemask` nibble.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn step_half(s: &mut HalfState, c: &Half, rows: [__m256d; 5]) -> u8 {
    let [u, z1, z2, zc, zr] = rows;
    let sign = _mm256_set1_pd(-0.0);
    let one = _mm256_set1_pd(1.0);
    // Sign flip of hyst on lanes whose history is clear.
    let h = _mm256_xor_pd(c.hyst, _mm256_andnot_pd(s.cl, sign));
    let threshold = _mm256_add_pd(_mm256_sub_pd(c.off, h), zc);
    let vpos = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(s.x2, threshold), c.live);
    let rising = _mm256_andnot_pd(s.dl, vpos);
    let level = _mm256_blendv_pd(_mm256_set1_pd(-1.0), c.lvl_pos, vpos);
    let level = _mm256_blendv_pd(level, c.lvl_rise, rising);
    let vf = _mm256_mul_pd(level, _mm256_add_pd(one, zr));
    let x1_old = s.x1;
    let fb1 = _mm256_sub_pd(_mm256_mul_pd(c.b1, u), _mm256_mul_pd(c.a1, vf));
    let next1 = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(c.leak, x1_old), fb1), z1);
    let hi1 = _mm256_cmp_pd::<_CMP_GT_OQ>(next1, c.sat);
    let lo1 = _mm256_cmp_pd::<_CMP_LT_OQ>(next1, c.neg_sat);
    s.x1 = _mm256_blendv_pd(_mm256_blendv_pd(next1, c.neg_sat, lo1), c.sat, hi1);
    let fb2 = _mm256_sub_pd(_mm256_mul_pd(c.c1, x1_old), _mm256_mul_pd(c.a2, vf));
    let next2 = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(c.leak, s.x2), fb2), z2);
    let hi2 = _mm256_cmp_pd::<_CMP_GT_OQ>(next2, c.sat);
    let lo2 = _mm256_cmp_pd::<_CMP_LT_OQ>(next2, c.neg_sat);
    s.x2 = _mm256_blendv_pd(_mm256_blendv_pd(next2, c.neg_sat, lo2), c.sat, hi2);
    let satd = _mm256_or_pd(_mm256_or_pd(hi1, lo1), _mm256_or_pd(hi2, lo2));
    // An all-ones lane is −1 as an integer: subtracting counts it.
    s.counts = _mm256_sub_epi64(s.counts, _mm256_castpd_si256(_mm256_and_pd(satd, c.live)));
    s.cl = vpos;
    s.dl = vpos;
    _mm256_movemask_pd(vpos) as u8
}

/// The AVX2 chunk: the tile as two 4-lane ymm halves.
///
/// # Safety
///
/// The CPU must support AVX2, `1 <= live <= TILE`, and `src` must cover
/// lanes `lane0..lane0 + live` for every clock of the chunk
/// ([`ChunkKernel::run`] asserts both).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunk_avx2(
    st: &mut TileState,
    c: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    live: usize,
    shift: u32,
    out: &mut [u64],
) {
    let one = _mm256_set1_pd(1.0);
    let sign = _mm256_set1_pd(-0.0);
    let live_v = _mm256_set1_epi64x(live as i64);
    let half = |o: usize| -> (Half, HalfState) {
        // Lanes o..o+4 that are below `live`.
        let idx = _mm256_set_epi64x(o as i64 + 3, o as i64 + 2, o as i64 + 1, o as i64);
        let lvl_pos = _mm256_add_pd(one, half256(&c.mis, o));
        let sat = half256(&c.sat, o);
        let consts = Half {
            leak: half256(&c.leak, o),
            sat,
            neg_sat: _mm256_xor_pd(sat, sign),
            off: half256(&c.off, o),
            hyst: half256(&c.hyst, o),
            lvl_pos,
            lvl_rise: _mm256_mul_pd(lvl_pos, _mm256_sub_pd(one, half256(&c.isi, o))),
            b1: half256(&c.b1, o),
            a1: half256(&c.a1, o),
            c1: half256(&c.c1, o),
            a2: half256(&c.a2, o),
            live: _mm256_castsi256_pd(_mm256_cmpgt_epi64(live_v, idx)),
        };
        // SAFETY: `st.sat[o..o + 4]` is 4 u64s, one unaligned ymm.
        let counts = unsafe { _mm256_loadu_si256(st.sat.as_ptr().add(o).cast()) };
        let state = HalfState {
            x1: half256(&st.x1, o),
            x2: half256(&st.x2, o),
            cl: mask256(st.cl, o),
            dl: mask256(st.dl, o),
            counts,
        };
        (consts, state)
    };
    let (c_lo, mut s_lo) = half(0);
    let (c_hi, mut s_hi) = half(4);
    let m_lo = _mm256_castpd_si256(c_lo.live);
    let m_hi = _mm256_castpd_si256(c_hi.live);
    // With no live lane above 3 the upper half reads nothing: point it
    // at the lower half's (in-bounds) address.
    let hi_lane = lane0 + if live > 4 { 4 } else { 0 };
    for (r, word) in out.iter_mut().enumerate() {
        let n = src.start + r;
        // SAFETY: the caller's coverage guarantee, for clock `n` of
        // this chunk; each half reads only its live lanes.
        let (lo, hi) = unsafe {
            let load = |s: &RowSrc, lane: usize, m: __m256i| _mm256_maskload_pd(s.ptr(n, lane), m);
            (
                [
                    load(&src.u, lane0, m_lo),
                    load(&src.z1, lane0, m_lo),
                    load(&src.z2, lane0, m_lo),
                    load(&src.zc, lane0, m_lo),
                    load(&src.zr, lane0, m_lo),
                ],
                [
                    load(&src.u, hi_lane, m_hi),
                    load(&src.z1, hi_lane, m_hi),
                    load(&src.z2, hi_lane, m_hi),
                    load(&src.zc, hi_lane, m_hi),
                    load(&src.zr, hi_lane, m_hi),
                ],
            )
        };
        let vpos = step_half(&mut s_lo, &c_lo, lo) | step_half(&mut s_hi, &c_hi, hi) << 4;
        *word |= u64::from(vpos) << shift;
    }
    // SAFETY: aligned tile halves and the 8-u64 count array; only live
    // lanes are written, so slack lanes keep their 0.0.
    unsafe {
        for (o, s, m) in [(0, s_lo, m_lo), (4, s_hi, m_hi)] {
            _mm256_maskstore_pd(st.x1.0.as_mut_ptr().add(o), m, s.x1);
            _mm256_maskstore_pd(st.x2.0.as_mut_ptr().add(o), m, s.x2);
            _mm256_storeu_si256(st.sat.as_mut_ptr().add(o).cast(), s.counts);
        }
    }
    st.cl = (_mm256_movemask_pd(s_lo.cl) | _mm256_movemask_pd(s_hi.cl) << 4) as u8;
    st.dl = (_mm256_movemask_pd(s_lo.dl) | _mm256_movemask_pd(s_hi.dl) << 4) as u8;
}

/// One hot state or coefficient row stored as aligned tiles. Logical
/// length is the bank's lane count; the slack lanes of a partial final
/// tile hold `0.0` (every chunk kernel stores state back under the
/// live-lane mask, so stepping never writes them).
#[derive(Debug, Clone, Default)]
pub(crate) struct TileRow {
    tiles: Vec<F64Tile>,
    len: usize,
}

impl TileRow {
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.len, "lane {i} out of range ({} lanes)", self.len);
        self.tiles[i / TILE].0[i % TILE]
    }

    pub fn set(&mut self, i: usize, v: f64) {
        assert!(i < self.len, "lane {i} out of range ({} lanes)", self.len);
        self.tiles[i / TILE].0[i % TILE] = v;
    }

    pub fn push(&mut self, v: f64) {
        if self.len.is_multiple_of(TILE) {
            self.tiles.push(F64Tile::ZERO);
        }
        self.tiles[self.len / TILE].0[self.len % TILE] = v;
        self.len += 1;
    }

    /// Removes lane `i`, shifting every later lane down by one (exactly
    /// `Vec::remove` on the flattened row) and re-padding the vacated
    /// slot with `0.0`.
    pub fn remove(&mut self, i: usize) -> f64 {
        let out = self.get(i);
        for j in i..self.len - 1 {
            let next = self.tiles[(j + 1) / TILE].0[(j + 1) % TILE];
            self.tiles[j / TILE].0[j % TILE] = next;
        }
        self.len -= 1;
        if self.len.is_multiple_of(TILE) {
            self.tiles.pop();
        } else {
            self.tiles[self.len / TILE].0[self.len % TILE] = 0.0;
        }
        out
    }

    /// Tile `t` (lanes `t*TILE .. (t+1)*TILE`).
    #[inline(always)]
    pub fn tile(&self, t: usize) -> &F64Tile {
        &self.tiles[t]
    }

    /// Stores a whole tile back (the chunk loop's register write-back).
    #[inline(always)]
    pub fn set_tile(&mut self, t: usize, v: F64Tile) {
        self.tiles[t] = v;
    }
}

/// One bit-sliced ±1 history row: bit `lane % 64` of word `lane / 64`
/// is set when that lane's last value was +1. Bits at or above the
/// logical length are always zero.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitRow {
    words: Vec<u64>,
    len: usize,
}

impl BitRow {
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "lane {i} out of range ({} lanes)", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "lane {i} out of range ({} lanes)", self.len);
        let bit = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if v {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Removes lane `i`: every higher lane's bit shifts down one
    /// position, across word boundaries.
    pub fn remove(&mut self, i: usize) -> bool {
        let out = self.get(i);
        let w = i / 64;
        let b = i % 64;
        let low = self.words[w] & ((1u64 << b) - 1);
        let high = if b < 63 {
            (self.words[w] >> (b + 1)) << b
        } else {
            0
        };
        self.words[w] = low | high;
        for j in w + 1..self.words.len() {
            self.words[j - 1] |= (self.words[j] & 1) << 63;
            self.words[j] >>= 1;
        }
        self.len -= 1;
        if self.words.len() > self.len.div_ceil(64) {
            self.words.pop();
        }
        out
    }

    /// The 8-lane mask byte of tile `t`; bits of slack lanes in a
    /// partial final tile are 0.
    #[inline(always)]
    pub fn byte(&self, t: usize) -> u8 {
        (self.words[t / 8] >> (8 * (t % 8))) as u8
    }

    /// Stores tile `t`'s 8-lane mask byte. In a partial final tile the
    /// bits of slack lanes must be 0 in `v` (the chunk kernels AND
    /// every comparator mask with the live lanes), so bits above the
    /// length stay 0.
    #[inline(always)]
    pub fn set_byte(&mut self, t: usize, v: u8) {
        assert!(
            8 * t + (8 - v.leading_zeros() as usize) <= self.len,
            "tile {t} byte {v:#010b} sets bits past {} lanes",
            self.len
        );
        let w = t / 8;
        let shift = 8 * (t % 8);
        self.words[w] = self.words[w] & !(0xffu64 << shift) | (u64::from(v) << shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value stream for kernel cross-checks.
    struct Lcg(u64);
    impl Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        /// Uniform in [-1, 1): small magnitudes around zero, the loop
        /// filter's regime.
        fn next_f64(&mut self) -> f64 {
            (self.next_u64() as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
        /// A tile with lanes `..live` drawn around `base`, slack `0.0`
        /// (the [`TileRow`] invariant).
        fn tile(&mut self, live: usize, base: f64, scale: f64) -> F64Tile {
            let mut t = F64Tile::ZERO;
            for v in &mut t.0[..live] {
                *v = base + self.next_f64() * scale;
            }
            t
        }
    }

    /// Every wide chunk kernel this host can run, named directly so
    /// each instantiation is checked whatever dispatch would pick.
    fn wide_kernels() -> Vec<ChunkKernel> {
        #[allow(unused_mut)]
        let mut kernels = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(ChunkKernel(Body::Avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                kernels.push(ChunkKernel(Body::Avx512));
            }
        }
        kernels
    }

    /// Guard value in row slots outside the tile: a lane that read one
    /// would go NaN.
    const GUARD: f64 = f64::NAN;

    /// One input sample at clock `n`: mostly in-range values, with the
    /// edge cases every kernel must treat like `step_lane` mixed in.
    /// NaN is absorbing in the loop filter, so it is held back to the
    /// last chunk.
    fn input(rng: &mut Lcg, sat: f64, n: usize) -> f64 {
        match rng.next_u64() % 32 {
            0 => sat,
            1 => -sat,
            2 => sat * 1.5,
            3 => -sat * 3.0,
            4 => -0.0,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            7 if n >= 128 => f64::NAN,
            _ => rng.next_f64() * 1.5 * sat,
        }
    }

    /// Checks `kernel` against the portable tile loop for one tile of
    /// `live` lanes over three chunks: bit-equal comparator words,
    /// states and saturation counts, with slack lanes and bits zero.
    /// Odd seeds break the zero-slack invariant on purpose (slack
    /// coefficients 2.0, slack state 3.0, so padding lanes would
    /// saturate): those values must survive untouched, which only
    /// masked stores and masked saturation counts achieve.
    fn check_kernel(kernel: ChunkKernel, live: usize, seed: u64) {
        let mut rng = Lcg(seed);
        // Tile rows sit mid-row: guards before lane0 and after the last
        // live lane of every clock row.
        let lane0 = 3;
        let stride = lane0 + live + 2;
        let clocks = 64 + 64 + 9;
        let sat_base = 1.0 + rng.next_f64() * 0.2;
        let mut consts = TileConsts {
            leak: rng.tile(live, 0.97, 0.03),
            sat: rng.tile(live, sat_base, 0.0),
            off: rng.tile(live, 0.0, 0.01),
            hyst: rng.tile(live, 0.0, 0.01),
            mis: rng.tile(live, 0.0, 0.01),
            isi: rng.tile(live, 0.0, 0.01),
            b1: rng.tile(live, 0.0, 0.8),
            a1: rng.tile(live, 0.0, 0.8),
            c1: rng.tile(live, 0.0, 0.8),
            a2: rng.tile(live, 0.0, 0.8),
        };
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for r in 0..5 {
            let mut row = vec![GUARD; clocks * stride];
            for n in 0..clocks {
                for lane in lane0..lane0 + live {
                    row[n * stride + lane] = match r {
                        0 => input(&mut rng, sat_base, n),
                        _ if rng.next_u64().is_multiple_of(16) => -0.0,
                        _ => rng.next_f64() * 0.01,
                    };
                }
            }
            rows.push(row);
        }
        let mut st = TileState {
            x1: rng.tile(live, 0.0, 2.0 * sat_base),
            x2: rng.tile(live, 0.0, 2.0 * sat_base),
            cl: rng.next_u64() as u8 & live_bits(live),
            dl: rng.next_u64() as u8 & live_bits(live),
            sat: [0; TILE],
        };
        // Edge-case starting states on the first lanes. Lane 0 of
        // every other case starts exactly on its comparator threshold
        // (0 - 0 + -0.0), where `>=` and `>` part ways.
        st.x1.0[0] = consts.sat.0[0];
        st.x2.0[0] = -0.0;
        if seed % 4 < 2 {
            consts.off.0[0] = 0.0;
            consts.hyst.0[0] = 0.0;
            rows[3][lane0] = -0.0;
        }
        if live > 1 {
            st.x1.0[1] = -consts.sat.0[1];
            st.x2.0[1] = consts.sat.0[1];
        }
        for (i, count) in st.sat[..live].iter_mut().enumerate() {
            *count = 3 * i as u64;
        }
        let (slack_coeff, slack_state) = if seed % 2 == 1 {
            (2.0, 3.0)
        } else {
            (0.0, 0.0)
        };
        for i in live..TILE {
            for t in [
                &mut consts.leak,
                &mut consts.sat,
                &mut consts.off,
                &mut consts.hyst,
                &mut consts.mis,
                &mut consts.isi,
                &mut consts.b1,
                &mut consts.a1,
                &mut consts.c1,
                &mut consts.a2,
            ] {
                t.0[i] = slack_coeff;
            }
            st.x1.0[i] = slack_state;
            st.x2.0[i] = slack_state;
        }
        let mut wide = st;
        let mut port = st;
        let shift = 8 * (seed % 8) as u32;
        let slack = u64::from(!live_bits(live)) << shift;
        let mut start = 0;
        while start < clocks {
            let nb = (clocks - start).min(64);
            let row = |i: usize| RowSrc::new(&rows[i], &[], false, stride);
            let src = ChunkSrc {
                u: row(0),
                z1: row(1),
                z2: row(2),
                zc: row(3),
                zr: row(4),
                start,
            };
            // Other tiles' bytes of the lane words hold stray bits the
            // kernels must leave alone.
            let words: Vec<u64> = (0..nb)
                .map(|_| rng.next_u64() & !(0xFFu64 << shift))
                .collect();
            let mut out_w = words.clone();
            let mut out_p = words.clone();
            kernel.run(&mut wide, &consts, &src, lane0, live, shift, &mut out_w);
            ChunkKernel::PORTABLE.run(&mut port, &consts, &src, lane0, live, shift, &mut out_p);
            let what = format!("{} live={live} seed={seed} chunk@{start}", kernel.name());
            assert_eq!(out_w, out_p, "{what}: comparator words");
            for (w, orig) in out_w.iter().zip(&words) {
                assert_eq!(w & slack, 0, "{what}: slack comparator bits set");
                assert_eq!(w & !(0xFFu64 << shift), *orig, "{what}: other tiles' bits");
            }
            for i in 0..TILE {
                let (xw, xp) = (wide.x1.0[i].to_bits(), port.x1.0[i].to_bits());
                assert_eq!(xw, xp, "{what}: x1 lane {i}");
                let (xw, xp) = (wide.x2.0[i].to_bits(), port.x2.0[i].to_bits());
                assert_eq!(xw, xp, "{what}: x2 lane {i}");
            }
            assert_eq!(wide.sat, port.sat, "{what}: saturation counts");
            assert_eq!((wide.cl, wide.dl), (port.cl, port.dl), "{what}: histories");
            for i in live..TILE {
                assert_eq!(
                    wide.x1.0[i].to_bits(),
                    slack_state.to_bits(),
                    "{what}: x1 slack lane {i}"
                );
                assert_eq!(
                    wide.x2.0[i].to_bits(),
                    slack_state.to_bits(),
                    "{what}: x2 slack lane {i}"
                );
                assert_eq!(wide.sat[i], 0, "{what}: slack count {i}");
            }
            assert_eq!(wide.cl & !live_bits(live), 0, "{what}: slack history bits");
            start += nb;
        }
    }

    #[test]
    fn wide_chunk_kernels_match_the_portable_loop_for_every_live_count() {
        for kernel in wide_kernels() {
            for live in 1..=TILE {
                for case in 0..24 {
                    check_kernel(kernel, live, 0xfeed_0000 + (live * 97 + case) as u64);
                }
            }
        }
    }

    #[test]
    fn wide_and_scalar_tile_kernels_are_bit_identical() {
        // Full tiles with per-lane random constants: every chunk kernel
        // against `step_tile_scalar` stepped clock by clock.
        const CLOCKS: usize = 32;
        let mut kernels = vec![ChunkKernel::PORTABLE];
        kernels.extend(wide_kernels());
        let mut rng = Lcg(0xfeed_beef);
        for case in 0..200 {
            let consts = TileConsts {
                leak: rng.tile(TILE, 0.95, 0.05),
                sat: rng.tile(TILE, 1.0, 0.2),
                off: rng.tile(TILE, 0.0, 0.01),
                hyst: rng.tile(TILE, 0.0, 0.01),
                mis: rng.tile(TILE, 0.0, 0.01),
                isi: rng.tile(TILE, 0.0, 0.01),
                b1: rng.tile(TILE, 0.0, 0.5),
                a1: rng.tile(TILE, 0.0, 0.5),
                c1: rng.tile(TILE, 0.0, 0.5),
                a2: rng.tile(TILE, 0.0, 0.5),
            };
            let start = TileState {
                x1: rng.tile(TILE, 0.0, 2.0),
                x2: rng.tile(TILE, 0.0, 2.0),
                cl: (case % 251) as u8,
                dl: (case % 241) as u8,
                sat: [0; TILE],
            };
            let mut rows = vec![vec![0.0; CLOCKS * TILE]; 5];
            for n in 0..CLOCKS {
                for (r, scale) in [0.8, 0.001, 0.001, 0.001, 0.001].into_iter().enumerate() {
                    let t = rng.tile(TILE, 0.0, scale);
                    rows[r][n * TILE..(n + 1) * TILE].copy_from_slice(&t.0);
                }
            }
            let mut want = start;
            let mut want_out = [0u64; CLOCKS];
            for (n, word) in want_out.iter_mut().enumerate() {
                let at = |r: usize| RowSrc::new(&rows[r], &[], false, TILE).tile(n, 0);
                let tile_rows = TileRows {
                    u: at(0),
                    z1: at(1),
                    z2: at(2),
                    zc: at(3),
                    zr: at(4),
                };
                let (v, s) = step_tile_scalar(
                    &mut want.x1,
                    &mut want.x2,
                    &consts,
                    &tile_rows,
                    want.cl,
                    want.dl,
                );
                want.cl = v;
                want.dl = v;
                *word = u64::from(v);
                for (i, acc) in want.sat.iter_mut().enumerate() {
                    *acc += u64::from(s >> i & 1);
                }
            }
            for &kernel in &kernels {
                let row = |r: usize| RowSrc::new(&rows[r], &[], false, TILE);
                let src = ChunkSrc {
                    u: row(0),
                    z1: row(1),
                    z2: row(2),
                    zc: row(3),
                    zr: row(4),
                    start: 0,
                };
                let mut got = start;
                let mut out = [0u64; CLOCKS];
                kernel.run(&mut got, &consts, &src, 0, TILE, 0, &mut out);
                let what = format!("{} case {case}", kernel.name());
                assert_eq!(out, want_out, "{what}: comparator masks diverged");
                assert_eq!(got.sat, want.sat, "{what}: saturation counts diverged");
                assert_eq!((got.cl, got.dl), (want.cl, want.dl), "{what}: histories");
                for i in 0..TILE {
                    let (a, b) = (got.x1.0[i].to_bits(), want.x1.0[i].to_bits());
                    assert_eq!(a, b, "{what}: x1 lane {i}");
                    let (a, b) = (got.x2.0[i].to_bits(), want.x2.0[i].to_bits());
                    assert_eq!(a, b, "{what}: x2 lane {i}");
                }
            }
        }
    }

    #[test]
    fn portable_loop_leaves_slack_lanes_untouched() {
        for live in 1..=TILE {
            check_kernel(ChunkKernel::PORTABLE, live, 42 + live as u64);
        }
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn a_row_source_short_of_the_tile_is_refused() {
        let row = vec![0.0; 2 * 8 + 4];
        let r = RowSrc::new(&row, &[], false, 8);
        let src = ChunkSrc {
            u: r,
            z1: r,
            z2: r,
            zc: r,
            zr: r,
            start: 0,
        };
        let consts = TileConsts {
            leak: F64Tile::ZERO,
            sat: F64Tile::ZERO,
            off: F64Tile::ZERO,
            hyst: F64Tile::ZERO,
            mis: F64Tile::ZERO,
            isi: F64Tile::ZERO,
            b1: F64Tile::ZERO,
            a1: F64Tile::ZERO,
            c1: F64Tile::ZERO,
            a2: F64Tile::ZERO,
        };
        // Clock 2 holds only 4 of the tile's 5 lanes.
        let mut out = [0u64; 3];
        ChunkKernel::detect().run(&mut TileState::default(), &consts, &src, 0, 5, 0, &mut out);
    }

    #[test]
    fn tile_row_push_remove_matches_vec_semantics() {
        let mut row = TileRow::default();
        let mut model: Vec<f64> = Vec::new();
        for i in 0..23 {
            row.push(i as f64);
            model.push(i as f64);
        }
        for &at in &[22usize, 0, 7, 8, 10, 3] {
            assert_eq!(row.remove(at), model.remove(at));
            for (i, &v) in model.iter().enumerate() {
                assert_eq!(row.get(i), v, "lane {i} after removing {at}");
            }
        }
        // Slack lanes of the final partial tile stay zero-padded.
        let tiles = model.len().div_ceil(TILE);
        for slack in model.len()..tiles * TILE {
            assert_eq!(row.tile(slack / TILE).0[slack % TILE], 0.0);
        }
    }

    #[test]
    fn bit_row_remove_shifts_across_word_boundaries() {
        let mut row = BitRow::default();
        let mut model: Vec<bool> = Vec::new();
        for i in 0..150 {
            let v = i % 3 == 0 || i % 7 == 0;
            row.push(v);
            model.push(v);
        }
        for &at in &[149usize, 0, 63, 64, 65, 100, 1] {
            assert_eq!(row.remove(at), model.remove(at));
            for (i, &v) in model.iter().enumerate() {
                assert_eq!(row.get(i), v, "lane {i} after removing {at}");
            }
        }
        // The invariant the loop filter relies on: bits above the
        // logical length are zero, so tile byte extraction needs no
        // masking.
        for (w, &word) in row.words.iter().enumerate() {
            let valid = model.len().saturating_sub(w * 64).min(64);
            if valid < 64 {
                assert_eq!(word >> valid, 0, "stray bits above the length");
            }
        }
    }
}
