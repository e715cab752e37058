//! The **wide noise plane**: explicit-SIMD lockstep ziggurat fill for
//! the lane bank (x86-64 only; picked at run time from CPUID).
//!
//! The portable [`LockstepFill`](crate::noise::LockstepFill) rows are
//! already structure-of-arrays — K xoshiro256++ streams side by side —
//! but they lean on autovectorization, and the ziggurat accept
//! (layer-table lookup, compare, sign OR) never vectorizes on its own.
//! This module states the whole draw explicitly, one vector register
//! at a time:
//!
//! * **4 (AVX2) or 8 (AVX-512F) generator streams per register.** A
//!   group's four state words live in four vector registers for the
//!   *entire block* — the only per-clock memory traffic is the two
//!   layer-table gathers and the tile-row store.
//! * **Speculative accept in-register.** Layer index = `bits & 127`
//!   feeds a `vgatherqpd` into the boundary table `xs` (and `xs[i+1]`),
//!   the uniform mantissa converts exactly via the split-word
//!   magic-number trick (`bits >> 11` is 53 bits — one `u32` half plus
//!   a 21-bit high part, both exact), one multiply forms the
//!   candidate, and the sign is OR-ed into the IEEE sign bit — the
//!   same branchless expressions as the scalar
//!   [`speculate`](crate::noise::speculate), evaluated lane-parallel.
//! * **The trailing partial group runs the same kernel.** When K is
//!   not a multiple of the vector width, the last group's state, sigma
//!   and bias loads, its tile-row stores and its state spills all go
//!   under a live-lane mask, and the rejection mask is ANDed with it,
//!   so padding lanes never touch memory.
//! * **Rejections are a lane mask.** The `x < xs[i+1]` compare yields
//!   a mask; a zero mask (≈ 92 % of clock-rows at 8 lanes) costs one
//!   test-and-branch. A nonzero mask spills the group's state words,
//!   replays exactly the masked lanes through the shared scalar
//!   [`replay_slot`](crate::noise::replay_slot) — consuming precisely
//!   the words `NoiseSource::standard` would — and reloads.
//! * **The per-lane scale is fused.** The `bias + z * sigma` epilogue
//!   happens in the same registers and stores straight into the
//!   clock-major noise tile the loop filter reads, so the draw never
//!   round-trips through an unscaled buffer.
//!
//! Every floating-point expression matches the scalar path
//! operation-for-operation (no FMA contraction — intrinsics pin the
//! instruction selection), so each stream's draw sequence is
//! **bit-identical** to per-stream `standard()` calls — the property
//! `tests/noise_oracle.rs` proves across vector-width boundaries,
//! partial tails, and rejection replay, and the reason the portable
//! rows can stay the always-compiled oracle (ARCHITECTURE §4's
//! scalar-as-oracle rule).
//!
//! Dispatch is shared with the tile kernels in [`crate::bank`]: one
//! runtime CPUID probe, AVX-512F preferred over AVX2, overridable via
//! `TONOS_FORCE_KERNEL` (see [`crate::kernel`]). The kernels cover all
//! K lanes; the portable rows run only on hosts with no wide ISA.

use std::arch::x86_64::*;

use crate::kernel::WideIsa;
use crate::noise::{replay_slot, ziggurat_xs, Epilogue, ZIGGURAT_LAYERS};

/// Fills a clock-major `clocks × k` tile (row `n` at `n * stride`) with
/// scaled standard-normal draws for all `k` lanes, advancing the
/// lockstep state words in place. Slots `k..stride` of each row are
/// never written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill(
    isa: WideIsa,
    s0: &mut [u64],
    s1: &mut [u64],
    s2: &mut [u64],
    s3: &mut [u64],
    ep: Epilogue<'_>,
    clocks: usize,
    k: usize,
    stride: usize,
    out: &mut [f64],
) {
    assert!(
        s0.len() >= k && s1.len() >= k && s2.len() >= k && s3.len() >= k,
        "state rows must cover all {k} lanes"
    );
    assert!(stride >= k, "rows of {stride} cannot hold {k} lanes");
    if clocks == 0 || k == 0 {
        return;
    }
    assert!(
        out.len() >= (clocks - 1) * stride + k,
        "tile must cover clocks x lanes"
    );
    let (biases, sigmas) = match ep {
        Epilogue::Scaled { sigmas } => (&[][..], sigmas),
        Epilogue::Biased { biases, sigmas } => (biases, sigmas),
    };
    assert!(sigmas.len() >= k, "one sigma per lane");
    let biased = matches!(ep, Epilogue::Biased { .. });
    if biased {
        assert!(biases.len() >= k, "one bias per lane");
    }
    let rows = Rows {
        biases,
        sigmas,
        clocks,
        stride,
    };
    let width = match isa {
        WideIsa::Avx2 => 4,
        WideIsa::Avx512 => 8,
    };
    for lane0 in (0..k).step_by(width) {
        let live = (k - lane0).min(width);
        let g = Group {
            s: [&mut *s0, &mut *s1, &mut *s2, &mut *s3],
            rows: &rows,
            out: &mut *out,
            lane0,
            live,
        };
        // SAFETY: `kernel::active()` (the only producer of `WideIsa`)
        // confirmed the matching CPU feature at runtime, and the
        // asserts above cover lanes `lane0..lane0 + live <= k` of every
        // state, epilogue and tile row.
        unsafe {
            match (isa, biased) {
                (WideIsa::Avx2, false) => fill_avx2_group::<false>(g),
                (WideIsa::Avx2, true) => fill_avx2_group::<true>(g),
                (WideIsa::Avx512, false) => fill_avx512_group::<false>(g),
                (WideIsa::Avx512, true) => fill_avx512_group::<true>(g),
            }
        }
    }
}

/// The epilogue rows and tile shape shared by every group of a fill.
struct Rows<'a> {
    biases: &'a [f64],
    sigmas: &'a [f64],
    clocks: usize,
    stride: usize,
}

/// One vector group's view of a fill: the four state-word rows, the
/// tile, and the group's `live` lanes starting at `lane0`.
struct Group<'a> {
    s: [&'a mut [u64]; 4],
    rows: &'a Rows<'a>,
    out: &'a mut [f64],
    lane0: usize,
    live: usize,
}

impl Group<'_> {
    /// Replays the rejected lanes (bit `j` = lane `lane0 + j`) of the
    /// tile row starting at `row` through the shared scalar path; the
    /// state words must already be spilled, and `rbuf` holds the
    /// clock's raw generator words.
    fn replay<const BIASED: bool>(&mut self, row: usize, rbuf: &[u64], mut reject: u32) {
        let [s0, s1, s2, s3] = &mut self.s;
        while reject != 0 {
            let j = reject.trailing_zeros() as usize;
            reject &= reject - 1;
            let lane = self.lane0 + j;
            let z = replay_slot(
                &mut s0[lane],
                &mut s1[lane],
                &mut s2[lane],
                &mut s3[lane],
                rbuf[j],
            );
            // The scalar epilogue — `Epilogue::apply` expression for
            // expression.
            let (biases, sigmas) = (self.rows.biases, self.rows.sigmas);
            self.out[row + lane] = if BIASED {
                biases[lane] + z * sigmas[lane] + 0.0
            } else {
                z * sigmas[lane]
            };
        }
    }
}

/// `2^84 + 2^52` — the folding constant of the split-word u64→f64
/// conversion (both powers and their sum are exactly representable).
const HI_FOLD: f64 = ((1u128 << 84) as f64) + ((1u64 << 52) as f64);

/// The AVX-512F clock loop for one group of 1..=8 streams: 8 streams
/// per 512-bit register, mask-register accept, and every memory access
/// under the live-lane mask.
///
/// The whole block's clock loop runs with the group's state words
/// pinned in registers. (Interleaving two groups' chains in one clock
/// loop was tried and measured slightly slower — out-of-order
/// execution already overlaps consecutive clocks' gathers, so the
/// extra live state buys nothing.)
///
/// # Safety
///
/// Caller must have verified AVX-512F support, `1 <= g.live <= 8`, and
/// that the state rows and `sigmas` (and `biases` when `BIASED`) cover
/// `g.lane0 + g.live` lanes and `g.out` covers `(clocks - 1) * stride +
/// g.lane0 + g.live` entries ([`fill`] asserts these).
#[target_feature(enable = "avx512f")]
unsafe fn fill_avx512_group<const BIASED: bool>(mut g: Group) {
    const W: usize = 8;
    let m: __mmask8 = (0xFFu16 >> (W - g.live)) as u8;
    let lane0 = g.lane0;
    let xs = ziggurat_xs();
    let xs_ptr: *const f64 = xs.as_ptr();
    let m_layer = _mm512_set1_epi64(ZIGGURAT_LAYERS as i64 - 1);
    let m_sign = _mm512_set1_epi64(ZIGGURAT_LAYERS as i64);
    let m_lo32 = _mm512_set1_epi64(0xFFFF_FFFF);
    let exp52 = _mm512_set1_epi64(0x4330_0000_0000_0000_u64 as i64);
    let exp84 = _mm512_set1_epi64(0x4530_0000_0000_0000_u64 as i64);
    let hi_fold = _mm512_set1_pd(HI_FOLD);
    let scale53 = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
    let zero = _mm512_setzero_pd();
    let mut rbuf = [0u64; W];
    // SAFETY (both closures): the live lanes `lane0..lane0 + live` lie
    // inside each state row; masked-off lanes are never accessed.
    let load = |s: &[u64]| unsafe { _mm512_maskz_loadu_epi64(m, s.as_ptr().add(lane0).cast()) };
    let spill = |s: &mut [&mut [u64]; 4], v: [__m512i; 4]| {
        for (row, v) in s.iter_mut().zip(v) {
            // SAFETY: as for `load`, on the same live lanes.
            unsafe { _mm512_mask_storeu_epi64(row.as_mut_ptr().add(lane0).cast(), m, v) };
        }
    };
    let [mut v0, mut v1, mut v2, mut v3] = g.s.each_ref().map(|s| load(s));
    // SAFETY: sigmas (and biases when BIASED) cover the live lanes.
    let sig = unsafe { _mm512_maskz_loadu_pd(m, g.rows.sigmas.as_ptr().add(lane0)) };
    let bias = if BIASED {
        unsafe { _mm512_maskz_loadu_pd(m, g.rows.biases.as_ptr().add(lane0)) }
    } else {
        zero
    };
    for n in 0..g.rows.clocks {
        // xoshiro256++: result = rotl(s0 + s3, 23) + s0, then the
        // state permutation -- all 8 streams per operation.
        let r = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(v0, v3)), v0);
        let t = _mm512_slli_epi64::<17>(v1);
        v2 = _mm512_xor_epi64(v2, v0);
        v3 = _mm512_xor_epi64(v3, v1);
        v1 = _mm512_xor_epi64(v1, v2);
        v0 = _mm512_xor_epi64(v0, v3);
        v2 = _mm512_xor_epi64(v2, t);
        v3 = _mm512_rol_epi64::<45>(v3);
        // Layer lookup: i = bits & 127 indexes the 129-entry boundary
        // table, so both gathers stay in bounds.
        let i = _mm512_and_epi64(r, m_layer);
        // SAFETY: every index is masked to 0..=127, inside the static
        // 129-entry `xs` table; the `xi1` gather reads the same indices
        // off a one-entry-shifted base (i.e. `xs[i + 1]`, at most entry
        // 128).
        let xi = unsafe { _mm512_i64gather_pd::<8>(i, xs_ptr) };
        let xi1 = unsafe { _mm512_i64gather_pd::<8>(i, xs_ptr.add(1)) };
        // u = (bits >> 11) as f64 * 2^-53, conversion exact via the
        // split-word trick: lo 32 bits and hi 21 bits each convert
        // exactly, and their recombination is exact because the sum
        // (< 2^53) is representable.
        let mant = _mm512_srli_epi64::<11>(r);
        let lo = _mm512_and_epi64(mant, m_lo32);
        let hi = _mm512_srli_epi64::<32>(mant);
        let lo_d = _mm512_castsi512_pd(_mm512_or_epi64(lo, exp52));
        let hi_d = _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_epi64(hi, exp84)), hi_fold);
        let u = _mm512_mul_pd(_mm512_add_pd(hi_d, lo_d), scale53);
        // Candidate, accept mask, branchless sign -- `speculate`
        // lane-parallel.
        let x = _mm512_mul_pd(u, xi);
        let accept = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, xi1);
        let sign = _mm512_slli_epi64::<56>(_mm512_and_epi64(r, m_sign));
        let z = _mm512_castsi512_pd(_mm512_or_epi64(_mm512_castpd_si512(x), sign));
        // Fused per-lane scale, stored straight into the tile row.
        let v = if BIASED {
            _mm512_add_pd(_mm512_add_pd(bias, _mm512_mul_pd(z, sig)), zero)
        } else {
            _mm512_mul_pd(z, sig)
        };
        let row = n * g.rows.stride;
        // SAFETY: n < clocks, so the live lanes end at or before
        // (clocks - 1) * stride + lane0 + live <= out.len().
        unsafe { _mm512_mask_storeu_pd(g.out.as_mut_ptr().add(row + lane0), m, v) };
        let reject = !accept & m;
        if reject != 0 {
            // Spill the group state, replay exactly the masked lanes
            // through the shared scalar path, reload.
            spill(&mut g.s, [v0, v1, v2, v3]);
            // SAFETY: `rbuf` is 8 u64s, one unaligned zmm.
            unsafe { _mm512_storeu_epi64(rbuf.as_mut_ptr().cast(), r) };
            g.replay::<BIASED>(row, &rbuf, u32::from(reject));
            [v0, v1, v2, v3] = g.s.each_ref().map(|s| load(s));
        }
    }
    spill(&mut g.s, [v0, v1, v2, v3]);
}

/// The AVX2 clock loop for one group of 1..=4 streams: 4 streams per
/// 256-bit register, `movemask` accept, and a partial group's memory
/// accesses under a live-lane mask.
///
/// # Safety
///
/// As [`fill_avx512_group`], with AVX2 and `1 <= g.live <= 4`.
#[target_feature(enable = "avx2")]
unsafe fn fill_avx2_group<const BIASED: bool>(mut g: Group) {
    const W: usize = 4;
    let lane0 = g.lane0;
    let full = g.live == W;
    let m = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(g.live as i64),
        _mm256_set_epi64x(3, 2, 1, 0),
    );
    let live_bits = (1u32 << g.live) - 1;
    let xs = ziggurat_xs();
    let m_layer = _mm256_set1_epi64x(ZIGGURAT_LAYERS as i64 - 1);
    let m_sign = _mm256_set1_epi64x(ZIGGURAT_LAYERS as i64);
    let m_lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
    let exp52 = _mm256_set1_epi64x(0x4330_0000_0000_0000_u64 as i64);
    let exp84 = _mm256_set1_epi64x(0x4530_0000_0000_0000_u64 as i64);
    let hi_fold = _mm256_set1_pd(HI_FOLD);
    let scale53 = _mm256_set1_pd(1.0 / (1u64 << 53) as f64);
    let zero = _mm256_setzero_pd();
    // AVX2 has no vector rotate: rotl(x, N) = (x << N) | (x >> 64-N).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const N: i32, const INV: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<N>(x), _mm256_srli_epi64::<INV>(x))
    }
    let mut rbuf = [0u64; W];
    // SAFETY (both closures): the live lanes `lane0..lane0 + live` lie
    // inside each state row; masked-off lanes are never accessed.
    let load = |s: &[u64]| unsafe { _mm256_maskload_epi64(s.as_ptr().add(lane0).cast(), m) };
    let spill = |s: &mut [&mut [u64]; 4], v: [__m256i; 4]| {
        for (row, v) in s.iter_mut().zip(v) {
            // SAFETY: as for `load`, on the same live lanes.
            unsafe { _mm256_maskstore_epi64(row.as_mut_ptr().add(lane0).cast(), m, v) };
        }
    };
    let [mut v0, mut v1, mut v2, mut v3] = g.s.each_ref().map(|s| load(s));
    // SAFETY: sigmas (and biases when BIASED) cover the live lanes.
    let sig = unsafe { _mm256_maskload_pd(g.rows.sigmas.as_ptr().add(lane0), m) };
    let bias = if BIASED {
        unsafe { _mm256_maskload_pd(g.rows.biases.as_ptr().add(lane0), m) }
    } else {
        zero
    };
    for n in 0..g.rows.clocks {
        let r = _mm256_add_epi64(rotl::<23, 41>(_mm256_add_epi64(v0, v3)), v0);
        let t = _mm256_slli_epi64::<17>(v1);
        v2 = _mm256_xor_si256(v2, v0);
        v3 = _mm256_xor_si256(v3, v1);
        v1 = _mm256_xor_si256(v1, v2);
        v0 = _mm256_xor_si256(v0, v3);
        v2 = _mm256_xor_si256(v2, t);
        v3 = rotl::<45, 19>(v3);
        let i = _mm256_and_si256(r, m_layer);
        // SAFETY: every index is masked to 0..=127, inside the static
        // 129-entry `xs` table; the `xi1` gather reads the same indices
        // off a one-entry-shifted base (`xs[i + 1]`, at most entry 128).
        let xi = unsafe { _mm256_i64gather_pd::<8>(xs.as_ptr(), i) };
        let xi1 = unsafe { _mm256_i64gather_pd::<8>(xs.as_ptr().add(1), i) };
        let mant = _mm256_srli_epi64::<11>(r);
        let lo = _mm256_and_si256(mant, m_lo32);
        let hi = _mm256_srli_epi64::<32>(mant);
        let lo_d = _mm256_castsi256_pd(_mm256_or_si256(lo, exp52));
        let hi_d = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi, exp84)), hi_fold);
        let u = _mm256_mul_pd(_mm256_add_pd(hi_d, lo_d), scale53);
        let x = _mm256_mul_pd(u, xi);
        let accept = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(x, xi1)) as u32;
        let sign = _mm256_slli_epi64::<56>(_mm256_and_si256(r, m_sign));
        let z = _mm256_castsi256_pd(_mm256_or_si256(_mm256_castpd_si256(x), sign));
        let v = if BIASED {
            _mm256_add_pd(_mm256_add_pd(bias, _mm256_mul_pd(z, sig)), zero)
        } else {
            _mm256_mul_pd(z, sig)
        };
        let row = n * g.rows.stride;
        // SAFETY: n < clocks, so the live lanes end at or before
        // (clocks - 1) * stride + lane0 + live <= out.len(); a full
        // group's plain store writes exactly its four live lanes.
        unsafe {
            let dst = g.out.as_mut_ptr().add(row + lane0);
            if full {
                _mm256_storeu_pd(dst, v);
            } else {
                _mm256_maskstore_pd(dst, m, v);
            }
        }
        let reject = !accept & live_bits;
        if reject != 0 {
            spill(&mut g.s, [v0, v1, v2, v3]);
            // SAFETY: `rbuf` is 4 u64s, one unaligned ymm.
            unsafe { _mm256_storeu_si256(rbuf.as_mut_ptr().cast(), r) };
            g.replay::<BIASED>(row, &rbuf, reject);
            [v0, v1, v2, v3] = g.s.each_ref().map(|s| load(s));
        }
    }
    spill(&mut g.s, [v0, v1, v2, v3]);
}
