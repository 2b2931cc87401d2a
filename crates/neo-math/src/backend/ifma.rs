//! AVX-512 IFMA kernels behind [`SimdBackend`](super::SimdBackend).
//!
//! `vpmadd52luq`/`vpmadd52huq` multiply the low 52 bits of two 64-bit
//! lanes into a 104-bit product and add its low or high 52-bit half to a
//! 64-bit accumulator — eight 52-bit multiply-accumulates per instruction,
//! the widest integer MAC unit a CPU offers (Neo's FP64 tensor core plays
//! the same role on the A100). Every kernel here needs `4q < 2^52`, so
//! that the NTT's lazy `[0, 4q)` operands and every residue fit one
//! multiplier input; callers check that with [`Ifma::for_modulus`] and
//! otherwise run the scalar or `std::simd` kernels.
//!
//! # Exact Shoup quotients
//!
//! The scalar `Modulus::mul_shoup_lazy` takes the quotient
//! `⌊a·w'/2^64⌋` with the 64-bit Shoup constant `w' = ⌊w·2^64/q⌋`. The
//! 52-bit multiplier cannot take `w'` in one piece, so split it as
//! `w' = h·2^12 + e` — `h = w' >> 12` is the 52-bit Shoup constant
//! `⌊w·2^52/q⌋` and `e < 2^12`:
//!
//! ```text
//!   a·w' = ⌊a·h/2^52⌋·2^64 + (a·h mod 2^52)·2^12 + a·e
//! ```
//!
//! The last two terms sum below `2^65`, so the quotient is `⌊a·h/2^52⌋`
//! plus a carry of 0 or 1, set exactly when
//! `(a·h mod 2^52) + ⌊a·e/2^12⌋ ≥ 2^52` — one more `vpmadd52huq` against
//! `e·2^40`, which is just `w' << 40` because IFMA reads only the low 52
//! bits of each operand. With the exact quotient the remainder
//! `a·w − quot·q` lies in `[0, 2q) ⊂ [0, 2^52)`, so computing it modulo
//! `2^52` reproduces the scalar lazy value bit for bit — lazy
//! representatives included, which the inverse NTT stages are pinned to.
//! The cheaper 52-bit estimate `⌊a·h/2^52⌋` alone can undershoot by one
//! and lands in `[0, 3q)` instead. Both halves of `w'` come from the
//! plans' existing Shoup tables with two shifts, so no table grows.
//!
//! # Exact sums
//!
//! The inner products (`bconv_ip`, `mul_sum`) accumulate each 104-bit
//! product as separate low and high 52-bit halves, exactly, for up to
//! [`MAX_TERMS`] terms, then reduce `hi·2^52 + lo` once to the canonical
//! residue — the same value the scalar `u128` sum reduces to.

use super::{ComputeBackend, PortableBackend};
use crate::{Modulus, ShoupMul};
use core::arch::x86_64::*;
use std::sync::LazyLock;

const LANES: usize = 8;
const MASK52: u64 = (1 << 52) - 1;

/// Most inner-product terms a 64-bit lane accumulates without wrapping:
/// each term adds less than `2^52` to either half.
pub(super) const MAX_TERMS: usize = 1 << 12;

/// Proof that the CPU runs AVX-512F and AVX-512 IFMA: only
/// [`Ifma::detect`] creates one, so holding it is what makes the
/// `#[target_feature]` kernels sound to call.
#[derive(Debug, Clone, Copy)]
pub(super) struct Ifma(());

impl Ifma {
    /// The IFMA token when the CPU has the instructions, probed once.
    pub fn detect() -> Option<Self> {
        static HAS: LazyLock<bool> = LazyLock::new(|| {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
        });
        HAS.then_some(Ifma(()))
    }

    /// The IFMA token when the CPU has the instructions and `m` fits
    /// them: `4q < 2^52`.
    pub fn for_modulus(m: &Modulus) -> Option<Self> {
        if m.value() < 1 << 50 {
            Self::detect()
        } else {
            None
        }
    }

    /// Merged ψ-twist and first butterfly stage (see the trait method).
    pub fn twist(self, m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64 {
        // SAFETY: `self` proves avx512f + avx512ifma.
        unsafe { twist(m, x, psi_rev) }
    }

    /// One lazy butterfly stage of span `size`, forward or inverse.
    pub fn stage(self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64 {
        let half = size / 2;
        if !matches!(half, 1 | 2 | 4) && !half.is_multiple_of(LANES) {
            // Not a power-of-two span: no NTT plan makes one.
            return PortableBackend.ntt_inv_stage(m, x, size, stage);
        }
        // SAFETY: `self` proves avx512f + avx512ifma.
        unsafe {
            match half {
                1 => stage_narrow::<1>(m, x, stage),
                2 => stage_narrow::<2>(m, x, stage),
                4 => stage_narrow::<4>(m, x, stage),
                _ => stage_wide(m, x, size, stage),
            }
        }
    }

    /// The last forward stage with the final reduction folded in.
    pub fn stage_final(self, m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
        // SAFETY: `self` proves avx512f + avx512ifma.
        unsafe { stage_final(m, x, stage) }
    }

    /// Inverse NTT untwist-and-scale to canonical values.
    pub fn scale(self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) {
        // SAFETY: `self` proves avx512f + avx512ifma.
        unsafe { scale(m, x, tw) }
    }

    /// `out[i] = x[i]·s mod m` for arbitrary `x`.
    pub fn mul_const(self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
        // SAFETY: `self` proves avx512f + avx512ifma.
        unsafe { mul_const(m, s, x, out) }
    }

    /// `out[c] = Σ_i ys[i][c]·w[i] mod t`. The caller guarantees every
    /// `ys` entry is below `2^52`, `w[i] < t` and at most [`MAX_TERMS`]
    /// rows; a violated bound gives wrong outputs, never unsoundness.
    pub fn bconv_ip(self, t: &Modulus, ys: &[&[u64]], w: &[u64], out: &mut [u64]) {
        // SAFETY: `self` proves avx512f + avx512ifma.
        unsafe { bconv_ip(t, ys, w, out) }
    }

    /// `out[c] = Σ_i a[i][c]·b[i][c] mod m` for reduced inputs and at
    /// most [`MAX_TERMS`] terms.
    pub fn mul_sum(self, m: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
        // SAFETY: `self` proves avx512f + avx512ifma.
        unsafe { mul_sum(m, a, b, out) }
    }
}

#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn splat(v: u64) -> __m512i {
    _mm512_set1_epi64(v as i64)
}

#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn from_array(v: [u64; LANES]) -> __m512i {
    // SAFETY: `v` is 64 readable bytes; the load has no alignment need.
    unsafe { _mm512_loadu_si512(v.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn load(s: &[u64]) -> __m512i {
    let s = &s[..LANES];
    // SAFETY: `s` holds exactly 8 readable u64s; the load is unaligned.
    unsafe { _mm512_loadu_si512(s.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn store(v: __m512i, s: &mut [u64]) {
    let s = &mut s[..LANES];
    // SAFETY: `s` holds exactly 8 writable u64s; the store is unaligned.
    unsafe { _mm512_storeu_si512(s.as_mut_ptr().cast(), v) }
}

#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn add(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi64(a, b)
}

#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn sub(a: __m512i, b: __m512i) -> __m512i {
    _mm512_sub_epi64(a, b)
}

/// `if x >= c { x - c } else { x }`: the wrapped difference is enormous
/// exactly when `x < c`, so the unsigned minimum picks the right one.
#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn cond_sub(x: __m512i, c: __m512i) -> __m512i {
    _mm512_min_epu64(x, sub(x, c))
}

/// Per-modulus lane constants.
#[derive(Clone, Copy)]
struct Lanes {
    q: __m512i,
    two_q: __m512i,
    /// `2^52 − q`: multiplying by it subtracts `q` modulo `2^52`.
    neg_q: __m512i,
    mask52: __m512i,
}

impl Lanes {
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn new(m: &Modulus) -> Self {
        let q = m.value();
        Self {
            q: splat(q),
            two_q: splat(2 * q),
            neg_q: splat((1 << 52) - q),
            mask52: splat(MASK52),
        }
    }

    /// Lane-wise `Modulus::mul_shoup_lazy(a, (w, ws))`, bit for bit, for
    /// `a < 2^52` (module docs).
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn mul_shoup_lazy(&self, a: __m512i, w: __m512i, ws: __m512i) -> __m512i {
        let z = _mm512_setzero_si512();
        let h = _mm512_srli_epi64::<12>(ws);
        let e = _mm512_slli_epi64::<40>(ws);
        let frac = _mm512_madd52lo_epu64(z, a, h);
        let carry = _mm512_srli_epi64::<52>(_mm512_madd52hi_epu64(frac, a, e));
        let quot = add(_mm512_madd52hi_epu64(z, a, h), carry);
        let r = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(z, a, w), quot, self.neg_q);
        _mm512_and_si512(r, self.mask52)
    }

    /// Lazy butterfly: `(u + t, u + 2q − t)` with `u = lo` folded below
    /// `2q` and `t = hi·w` lazily, all in `[0, 4q)`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn butterfly(&self, lo: __m512i, hi: __m512i, w: __m512i, ws: __m512i) -> (__m512i, __m512i) {
        let u = cond_sub(lo, self.two_q);
        let t = self.mul_shoup_lazy(hi, w, ws);
        (add(u, t), sub(add(u, self.two_q), t))
    }
}

/// Reads 8 Shoup pairs as `(w, w_shoup)` vectors: two loads of the flat
/// `[w, w_shoup, …]` words and an even/odd deinterleave.
#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn load_shoup(tw: &[ShoupMul]) -> (__m512i, __m512i) {
    let tw = &tw[..LANES];
    // SAFETY: `ShoupMul` is `repr(C)` with exactly two `u64` fields, so 8
    // pairs are 16 contiguous, initialized u64s.
    let raw = unsafe { std::slice::from_raw_parts(tw.as_ptr().cast::<u64>(), 2 * LANES) };
    let (a, b) = (load(&raw[..LANES]), load(&raw[LANES..]));
    let even = from_array([0, 2, 4, 6, 8, 10, 12, 14]);
    let odd = from_array([1, 3, 5, 7, 9, 11, 13, 15]);
    (
        _mm512_permutex2var_epi64(a, even, b),
        _mm512_permutex2var_epi64(a, odd, b),
    )
}

/// Canonical reduction of exact inner-product accumulators
/// `hi·2^52 + lo` (module docs): with `hi = hh·2^52 + hl`, the value is
/// `≡ hh·(2^104 mod t) + hl·(2^52 mod t) + lo`, each term a lazy Shoup
/// product in `[0, 2t)`, and the sum below `6t` folds to `[0, t)`.
#[derive(Clone, Copy)]
struct Fold {
    l: Lanes,
    r104: (__m512i, __m512i),
    r52: (__m512i, __m512i),
    one: (__m512i, __m512i),
    four_t: __m512i,
}

impl Fold {
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn new(t: &Modulus) -> Self {
        let tv = u128::from(t.value());
        let pair = |s: ShoupMul| (splat(s.w), splat(s.w_shoup));
        Self {
            l: Lanes::new(t),
            r104: pair(t.shoup(((1u128 << 104) % tv) as u64)),
            r52: pair(t.shoup(((1u128 << 52) % tv) as u64)),
            one: pair(t.shoup(1)),
            four_t: splat(4 * t.value()),
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn reduce(&self, hi: __m512i, lo: __m512i) -> __m512i {
        let l = &self.l;
        let hi = add(hi, _mm512_srli_epi64::<52>(lo));
        let lo = _mm512_and_si512(lo, l.mask52);
        let hh = _mm512_srli_epi64::<52>(hi);
        let hl = _mm512_and_si512(hi, l.mask52);
        let s = add(
            add(
                l.mul_shoup_lazy(hh, self.r104.0, self.r104.1),
                l.mul_shoup_lazy(hl, self.r52.0, self.r52.1),
            ),
            l.mul_shoup_lazy(lo, self.one.0, self.one.1),
        );
        cond_sub(cond_sub(cond_sub(s, self.four_t), l.two_q), l.q)
    }
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn twist(m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64 {
    let l = Lanes::new(m);
    let mut xs = x.chunks_exact_mut(LANES);
    let mut ps = psi_rev.chunks_exact(LANES);
    for (xv, p) in (&mut xs).zip(&mut ps) {
        // Both operands of each pair take their own twiddle, so all 8
        // lanes multiply: v = [u0, t0, u1, t1, …].
        let (w, ws) = load_shoup(p);
        let v = l.mul_shoup_lazy(load(xv), w, ws);
        // Swap within pairs, then even lanes take u + t and odd lanes
        // u + 2q − t.
        let s = _mm512_shuffle_epi32::<0x4E>(v);
        let sum = add(v, s);
        let diff = sub(add(s, l.two_q), v);
        store(_mm512_mask_blend_epi64(0xAA, sum, diff), xv);
    }
    // Degrees below 8.
    PortableBackend.ntt_twist_stage(m, xs.into_remainder(), ps.remainder());
    (x.len() / 2) as u64
}

/// Stages with `half ≥ 8`: 8 butterflies of one block per iteration.
/// Unlike the scalar forward stage there is no `ω⁰ = 1` shortcut, which
/// yields a different lazy representative there (same residue); the
/// inverse stages multiply every lane in both kernels and match exactly.
#[target_feature(enable = "avx512f,avx512ifma")]
fn stage_wide(m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64 {
    let l = Lanes::new(m);
    let half = size / 2;
    let stage = &stage[..half];
    let mut blocks = 0u64;
    for block in x.chunks_exact_mut(size) {
        let (lo, hi) = block.split_at_mut(half);
        for ((a, b), s) in lo
            .chunks_exact_mut(LANES)
            .zip(hi.chunks_exact_mut(LANES))
            .zip(stage.chunks_exact(LANES))
        {
            let (w, ws) = load_shoup(s);
            let (r0, r1) = l.butterfly(load(a), load(b), w, ws);
            store(r0, a);
            store(r1, b);
        }
        blocks += 1;
    }
    blocks * half as u64
}

/// Lane of the `HI` (or lo) operand of butterfly `l` in 16 consecutive
/// elements holding `8 / HALF` whole blocks.
const fn gather_index<const HALF: usize, const HI: bool>() -> [u64; LANES] {
    let mut idx = [0u64; LANES];
    let mut l = 0;
    while l < LANES {
        idx[l] = ((l / HALF) * 2 * HALF + l % HALF + if HI { HALF } else { 0 }) as u64;
        l += 1;
    }
    idx
}

/// Inverse of [`gather_index`]: element `l` (plus 8 when `SECOND`) of the
/// 16 as an index into the concatenated butterfly results `(lo, hi)`.
const fn scatter_index<const HALF: usize, const SECOND: bool>() -> [u64; LANES] {
    let mut idx = [0u64; LANES];
    let mut l = 0;
    while l < LANES {
        let g = l + if SECOND { LANES } else { 0 };
        let (b, p) = (g / (2 * HALF), g % (2 * HALF));
        idx[l] = if p < HALF {
            b * HALF + p
        } else {
            LANES + b * HALF + p - HALF
        } as u64;
        l += 1;
    }
    idx
}

/// Stages with `half ∈ {1, 2, 4}`: vectorized across blocks. Each
/// 16-element group holds `8 / HALF` whole blocks, whose lo and hi
/// operands two permutes gather into one vector each; the stage's
/// `HALF` twiddles tile one register pair.
#[target_feature(enable = "avx512f,avx512ifma")]
fn stage_narrow<const HALF: usize>(m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
    let l = Lanes::new(m);
    let w = from_array(std::array::from_fn(|i| stage[i % HALF].w));
    let ws = from_array(std::array::from_fn(|i| stage[i % HALF].w_shoup));
    let (g_lo, g_hi) = (
        from_array(gather_index::<HALF, false>()),
        from_array(gather_index::<HALF, true>()),
    );
    let (s0, s1) = (
        from_array(scatter_index::<HALF, false>()),
        from_array(scatter_index::<HALF, true>()),
    );
    let mut groups = x.chunks_exact_mut(2 * LANES);
    for g in &mut groups {
        let (a, b) = g.split_at_mut(LANES);
        let (v0, v1) = (load(a), load(b));
        let (r0, r1) = l.butterfly(
            _mm512_permutex2var_epi64(v0, g_lo, v1),
            _mm512_permutex2var_epi64(v0, g_hi, v1),
            w,
            ws,
        );
        store(_mm512_permutex2var_epi64(r0, s0, r1), a);
        store(_mm512_permutex2var_epi64(r0, s1, r1), b);
    }
    // Degrees below 16 leave whole blocks to the scalar kernel, which
    // also multiplies every lane.
    PortableBackend.ntt_inv_stage(m, groups.into_remainder(), 2 * HALF, stage);
    (x.len() / (2 * HALF) * HALF) as u64
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn stage_final(m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
    let half = x.len() / 2;
    if !half.is_multiple_of(LANES) {
        // Degrees below 16.
        return PortableBackend.ntt_fwd_stage_final(m, x, stage);
    }
    let l = Lanes::new(m);
    let (lo, hi) = x.split_at_mut(half);
    for ((a, b), s) in lo
        .chunks_exact_mut(LANES)
        .zip(hi.chunks_exact_mut(LANES))
        .zip(stage[..half].chunks_exact(LANES))
    {
        let (w, ws) = load_shoup(s);
        let (r0, r1) = l.butterfly(load(a), load(b), w, ws);
        store(cond_sub(cond_sub(r0, l.two_q), l.q), a);
        store(cond_sub(cond_sub(r1, l.two_q), l.q), b);
    }
    half as u64
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn scale(m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) {
    let l = Lanes::new(m);
    let mut xs = x.chunks_exact_mut(LANES);
    let mut ts = tw.chunks_exact(LANES);
    for (v, t) in (&mut xs).zip(&mut ts) {
        let (w, ws) = load_shoup(t);
        store(cond_sub(l.mul_shoup_lazy(load(v), w, ws), l.q), v);
    }
    PortableBackend.ntt_scale(m, xs.into_remainder(), ts.remainder());
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_const(m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
    let l = Lanes::new(m);
    let (w, ws) = (splat(s.w), splat(s.w_shoup));
    let wide = splat(!MASK52);
    let mut xs = x.chunks_exact(LANES);
    let mut os = out.chunks_exact_mut(LANES);
    for (xv, o) in (&mut xs).zip(&mut os) {
        let v = load(xv);
        // The contract admits any u64; a chunk with an input of 2^52 or
        // more takes the scalar multiply.
        if _mm512_test_epi64_mask(v, wide) == 0 {
            store(cond_sub(l.mul_shoup_lazy(v, w, ws), l.q), o);
        } else {
            PortableBackend.mul_const(m, s, xv, o);
        }
    }
    PortableBackend.mul_const(m, s, xs.remainder(), os.into_remainder());
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn bconv_ip(t: &Modulus, ys: &[&[u64]], w: &[u64], out: &mut [u64]) {
    let f = Fold::new(t);
    let z = _mm512_setzero_si512();
    let mut os = out.chunks_exact_mut(LANES);
    let mut c = 0;
    for o in &mut os {
        let (mut hi, mut lo) = (z, z);
        for (row, &wi) in ys.iter().zip(w) {
            let (y, wv) = (load(&row[c..]), splat(wi));
            lo = _mm512_madd52lo_epu64(lo, y, wv);
            hi = _mm512_madd52hi_epu64(hi, y, wv);
        }
        store(f.reduce(hi, lo), o);
        c += LANES;
    }
    let rest = os.into_remainder();
    if !rest.is_empty() {
        let tail: Vec<&[u64]> = ys.iter().map(|row| &row[c..]).collect();
        PortableBackend.bconv_ip(t, &tail, u64::MAX, w, rest);
    }
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_sum(m: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
    let f = Fold::new(m);
    let z = _mm512_setzero_si512();
    let mut os = out.chunks_exact_mut(LANES);
    let mut c = 0;
    for o in &mut os {
        let (mut hi, mut lo) = (z, z);
        for (x, y) in a.iter().zip(b) {
            let (x, y) = (load(&x[c..]), load(&y[c..]));
            lo = _mm512_madd52lo_epu64(lo, x, y);
            hi = _mm512_madd52hi_epu64(hi, x, y);
        }
        store(f.reduce(hi, lo), o);
        c += LANES;
    }
    let rest = os.into_remainder();
    if !rest.is_empty() {
        let (a, b): (Vec<&[u64]>, Vec<&[u64]>) =
            a.iter().zip(b).map(|(x, y)| (&x[c..], &y[c..])).unzip();
        PortableBackend.mul_sum(m, &a, &b, rest);
    }
}
