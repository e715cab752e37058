//! Fixed-width lane **tiles**: the data layout and per-clock kernels
//! behind the bank's tiled execution (see [`crate::bank`]).
//!
//! A tile is [`TILE`] (= 8) f64 lanes in one cache-line-aligned row
//! ([`F64Tile`]). The bank stores every kernel-touched state and
//! coefficient row as a sequence of tiles and steps full tiles with one
//! of two bit-identical bodies, picked per process by the bank's
//! run-time CPU dispatch:
//!
//! * the **portable scalar tile loop** (`step_tile_scalar`), eight
//!   `step_lane` calls in lane order — the oracle, and the body every
//!   non-x86-64 host and every x86-64 host without AVX2 runs; and
//! * the **explicit wide-ops kernel** (`step_tile_wide`), which the
//!   AVX2 and AVX-512F chunk instantiations run: straight-line
//!   `core::simd`-style passes over whole tiles (splat / blend /
//!   lane-mask compares / sign-bit selects), with the comparator and
//!   DAC histories carried as packed `u8` lane masks so
//!   quantize/feedback is mask arithmetic, not per-lane branches.
//!
//! Both bodies evaluate every floating-point expression with the exact
//! association of the scalar `SigmaDelta2::step`,
//! so either kernel is bit-identical to the scalar modulator — the
//! property `tests/bank_oracle.rs` proves under every forced kernel.

/// Lanes per tile: one 64-byte cache line of f64s, and the unroll width
/// of the wide kernel.
pub const TILE: usize = 8;

/// One cache-line-aligned row of [`TILE`] f64 lanes — the vector type of
/// the tiled bank, with the handful of `core::simd`-style wide ops the
/// loop filter needs.
///
/// Arithmetic helpers are plain lane-wise loops: on the scalar path they
/// document the semantics, in the wide kernel their fixed width and
/// branch-free bodies are the shape LLVM turns into vector
/// instructions. Lane masks are `u8` words, bit `i` = lane `i`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(align(64))]
pub struct F64Tile(pub [f64; TILE]);

impl F64Tile {
    /// All lanes exactly `0.0`.
    pub const ZERO: F64Tile = F64Tile([0.0; TILE]);

    /// Every lane set to `v`.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: f64) -> Self {
        F64Tile([v; TILE])
    }

    /// Copies a possibly-unaligned row into an aligned tile.
    #[inline(always)]
    #[must_use]
    pub fn from_row(row: &[f64; TILE]) -> Self {
        F64Tile(*row)
    }

    /// Lane mask of `self > o` (strict).
    #[inline(always)]
    #[must_use]
    pub fn gt_mask(self, o: Self) -> u8 {
        let mut m = 0u8;
        for i in 0..TILE {
            m |= u8::from(self.0[i] > o.0[i]) << i;
        }
        m
    }

    /// Lane mask of `self < o` (strict).
    #[inline(always)]
    #[must_use]
    pub fn lt_mask(self, o: Self) -> u8 {
        let mut m = 0u8;
        for i in 0..TILE {
            m |= u8::from(self.0[i] < o.0[i]) << i;
        }
        m
    }

    /// Lane mask of `self >= o`.
    #[inline(always)]
    #[must_use]
    pub fn ge_mask(self, o: Self) -> u8 {
        let mut m = 0u8;
        for i in 0..TILE {
            m |= u8::from(self.0[i] >= o.0[i]) << i;
        }
        m
    }

    /// Per-lane select: `on` where the mask bit is set, `off` elsewhere.
    #[inline(always)]
    #[must_use]
    pub fn blend(mask: u8, on: Self, off: Self) -> Self {
        let mut out = off;
        for i in 0..TILE {
            if mask >> i & 1 == 1 {
                out.0[i] = on.0[i];
            }
        }
        out
    }

    /// Exact sign flip (bitwise, so `-0.0` and infinities behave like
    /// IEEE negation) on every lane whose mask bit is **clear** — the
    /// wide form of multiplying by a ±1 history word.
    #[inline(always)]
    #[must_use]
    pub fn neg_where_clear(self, mask: u8) -> Self {
        let mut out = self;
        for i in 0..TILE {
            let sign = u64::from(!mask >> i & 1) << 63;
            out.0[i] = f64::from_bits(out.0[i].to_bits() ^ sign);
        }
        out
    }
}

// Lane-wise arithmetic. Operator association in the wide kernel is
// chosen to mirror the scalar loop-filter expressions exactly, so the
// elementwise semantics here must stay plain `a ⊕ b` per lane.
impl std::ops::Add for F64Tile {
    type Output = Self;
    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            *a += b;
        }
        self
    }
}

impl std::ops::Sub for F64Tile {
    type Output = Self;
    #[inline(always)]
    fn sub(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            *a -= b;
        }
        self
    }
}

impl std::ops::Mul for F64Tile {
    type Output = Self;
    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            *a *= b;
        }
        self
    }
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

/// The per-clock rows a tile step consumes: the impaired input and the
/// four pre-multiplied noise rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileRows {
    pub u: F64Tile,
    pub z1: F64Tile,
    pub z2: F64Tile,
    pub zc: F64Tile,
    pub zr: F64Tile,
}

/// One scalar lane through one modulator clock — the exact expression
/// tree of `SigmaDelta2::step` (and therefore of both tile kernels).
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
/// in lane order — the oracle the wide kernel is tested against, and
/// the body the bank's portable dispatch target runs.
pub(crate) fn step_tile_scalar(
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

/// The explicit wide-ops tile body the AVX2 and AVX-512F chunk
/// instantiations run: branch-free whole-tile passes, with the ±1 histories and comparator decisions as
/// packed `u8` lane masks. Bit-identical to [`step_tile_scalar`] —
/// every select is a mask blend over values computed with the same
/// association, and the ±1 multiplies become exact sign flips.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
pub(crate) fn step_tile_wide(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    c: &TileConsts,
    rows: &TileRows,
    comp_last: u8,
    dac_last: u8,
) -> (u8, u8) {
    let one = F64Tile::splat(1.0);
    // threshold = off − hyst·(±1) + zc: the ±1 multiply is an exact
    // sign flip on the lanes whose history bit is clear.
    let h = c.hyst.neg_where_clear(comp_last);
    let threshold = c.off - h + rows.zc;
    let vpos8 = x2.ge_mask(threshold);
    // DAC level: +1+mismatch on positive lanes, −1 elsewhere; rising
    // edges (positive now, negative last) additionally scale by 1−isi.
    let rising = vpos8 & !dac_last;
    let level = F64Tile::blend(vpos8, one + c.mis, F64Tile::splat(-1.0));
    let level = F64Tile::blend(rising, level * (one - c.isi), level);
    let vf = level * (one + rows.zr);
    // First integrator: next = leak·x1 + (b1·u − a1·vf) + z1, then the
    // clamp written as compare+blend (identical to f64::clamp for every
    // finite and NaN input).
    let x1_old = *x1;
    let next1 = c.leak * x1_old + (c.b1 * rows.u - c.a1 * vf) + rows.z1;
    let neg_sat = c.sat.neg_where_clear(0);
    let hi1 = next1.gt_mask(c.sat);
    let lo1 = next1.lt_mask(neg_sat);
    *x1 = F64Tile::blend(hi1, c.sat, F64Tile::blend(lo1, neg_sat, next1));
    // Second integrator, fed by the *previous* first-stage output.
    let next2 = c.leak * *x2 + (c.c1 * x1_old - c.a2 * vf) + rows.z2;
    let hi2 = next2.gt_mask(c.sat);
    let lo2 = next2.lt_mask(neg_sat);
    *x2 = F64Tile::blend(hi2, c.sat, F64Tile::blend(lo2, neg_sat, next2));
    (vpos8, hi1 | lo1 | hi2 | lo2)
}

/// One hot state or coefficient row stored as aligned tiles. Logical
/// length is the bank's lane count; the slack lanes of a partial final
/// tile hold `0.0` and are never stepped (the loop filter handles them
/// with scalar [`step_lane`] calls on the real lanes only).
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

    /// The 8-lane mask byte of tile `t` (only meaningful for full
    /// tiles).
    #[inline(always)]
    pub fn byte(&self, t: usize) -> u8 {
        (self.words[t / 8] >> (8 * (t % 8))) as u8
    }

    /// Stores tile `t`'s 8-lane mask byte (full tiles only: all eight
    /// bits must be real lanes, or zero bits above the length would be
    /// clobbered).
    #[inline(always)]
    pub fn set_byte(&mut self, t: usize, v: u8) {
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
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Small magnitudes around zero, the loop filter's regime.
            ((self.0 >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
        fn tile(&mut self, scale: f64) -> F64Tile {
            let mut t = F64Tile::ZERO;
            for v in &mut t.0 {
                *v = self.next_f64() * scale;
            }
            t
        }
    }

    #[test]
    fn wide_and_scalar_tile_kernels_are_bit_identical() {
        let mut rng = Lcg(0xfeed_beef);
        for case in 0..200 {
            let consts = TileConsts {
                leak: rng.tile(0.05) + F64Tile::splat(0.95),
                sat: rng.tile(0.2) + F64Tile::splat(1.0),
                off: rng.tile(0.01),
                hyst: rng.tile(0.01),
                mis: rng.tile(0.01),
                isi: rng.tile(0.01),
                b1: rng.tile(0.5),
                a1: rng.tile(0.5),
                c1: rng.tile(0.5),
                a2: rng.tile(0.5),
            };
            let mut x1a = rng.tile(2.0);
            let mut x2a = rng.tile(2.0);
            let mut x1b = x1a;
            let mut x2b = x2a;
            let mut cl = (case % 251) as u8;
            let mut dl = (case % 241) as u8;
            for _ in 0..32 {
                let rows = TileRows {
                    u: rng.tile(0.8),
                    z1: rng.tile(0.001),
                    z2: rng.tile(0.001),
                    zc: rng.tile(0.001),
                    zr: rng.tile(0.001),
                };
                let (va, sa) = step_tile_scalar(&mut x1a, &mut x2a, &consts, &rows, cl, dl);
                let (vb, sb) = step_tile_wide(&mut x1b, &mut x2b, &consts, &rows, cl, dl);
                assert_eq!(va, vb, "comparator masks diverged");
                assert_eq!(sa, sb, "saturation masks diverged");
                for i in 0..TILE {
                    assert_eq!(x1a.0[i].to_bits(), x1b.0[i].to_bits(), "x1 lane {i}");
                    assert_eq!(x2a.0[i].to_bits(), x2b.0[i].to_bits(), "x2 lane {i}");
                }
                cl = va;
                dl = va;
            }
        }
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
