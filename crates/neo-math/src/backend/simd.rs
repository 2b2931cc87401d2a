//! Lane-parallel backend.
//!
//! Each kernel call picks one of three paths, from the CPU and the
//! modulus it is given:
//!
//! 1. **AVX-512 IFMA** (the `ifma` module, stable Rust): when the CPU has
//!    `avx512ifma` and `4q < 2^52`, which every Q, P and T prime of the
//!    stock parameter sets meets. Covers every NTT method, `mul_const`,
//!    `bconv_ip` and `mul_sum` with 8-lane 52-bit multiply-accumulates.
//!    Shoup quotients are computed exactly, so even the inverse stages'
//!    lazy representatives match the portable kernels bit for bit.
//! 2. **`std::simd`** (the `vector` module, nightly, `simd` cargo
//!    feature): 8-wide `u64x8` kernels with AVX2/AVX-512 dispatch, for
//!    calls the IFMA path does not take, and for GEMM.
//! 3. **Scalar**: otherwise, the [`PortableBackend`] kernels themselves.
//!
//! Whichever path runs, outputs are bit-identical to
//! [`PortableBackend`] under the [`ComputeBackend`] contract.
//! [`SimdBackend::path`] reports which path a modulus gets.

#[cfg(target_arch = "x86_64")]
use super::ifma::{self, Ifma};
use super::{BackendKind, ComputeBackend, PortableBackend};
use crate::{Modulus, ShoupMul};

/// Lane-parallel kernels: AVX-512 IFMA where the CPU and modulus allow,
/// otherwise `std::simd` (nightly `simd` feature) or the portable scalar
/// kernels. Bit-identical to [`PortableBackend`] at every kernel boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdBackend;

/// The kernels a call runs when the IFMA path does not apply.
#[cfg(feature = "simd")]
const FALLBACK: vector::Lanes = vector::Lanes;
#[cfg(not(feature = "simd"))]
const FALLBACK: PortableBackend = PortableBackend;

impl SimdBackend {
    /// The path the NTT and `mul_const` kernels take for modulus `m` in
    /// this process: `"ifma"`, `"vector"` (`std::simd`) or `"scalar"`.
    /// `bconv_ip` and `mul_sum` follow the same rule as long as their
    /// factors fit 52 bits and they sum at most 4096 terms; GEMM always
    /// takes [`SimdBackend::fallback_path`].
    pub fn path(m: &Modulus) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if Ifma::for_modulus(m).is_some() {
            return "ifma";
        }
        let _ = m;
        Self::fallback_path()
    }

    /// The path of calls the IFMA kernels do not take: `"vector"` with
    /// the `simd` feature, `"scalar"` without.
    pub fn fallback_path() -> &'static str {
        if cfg!(feature = "simd") {
            "vector"
        } else {
            "scalar"
        }
    }
}

/// True when [`BackendKind::Simd`] beats portable on this CPU: it has
/// AVX-512 IFMA, or the `simd` feature is compiled in and the CPU offers
/// wide lanes (any non-x86 target with the feature counts —
/// `portable_simd` lowers to whatever vector ISA is native there).
pub(super) fn lanes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    if Ifma::detect().is_some() {
        return true;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        vector::isa() != vector::Isa::Baseline
    }
    #[cfg(all(feature = "simd", not(target_arch = "x86_64")))]
    {
        true
    }
    #[cfg(not(feature = "simd"))]
    {
        false
    }
}

impl ComputeBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn ntt_twist_stage(&self, m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.twist(m, x, psi_rev);
        }
        FALLBACK.ntt_twist_stage(m, x, psi_rev)
    }

    fn ntt_fwd_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.stage(m, x, size, stage);
        }
        FALLBACK.ntt_fwd_stage(m, x, size, stage)
    }

    fn ntt_fwd_stage_final(&self, m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.stage_final(m, x, stage);
        }
        FALLBACK.ntt_fwd_stage_final(m, x, stage)
    }

    fn ntt_inv_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.stage(m, x, size, stage);
        }
        FALLBACK.ntt_inv_stage(m, x, size, stage)
    }

    fn ntt_scale(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.scale(m, x, tw);
        }
        FALLBACK.ntt_scale(m, x, tw)
    }

    fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.mul_const(m, s, x, out);
        }
        FALLBACK.mul_const(m, s, x, out)
    }

    fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], y_bound: u64, w: &[u64], out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if y_bound <= 1 << 52 && ys.len() <= ifma::MAX_TERMS {
            if let Some(k) = Ifma::for_modulus(t) {
                return k.bconv_ip(t, ys, w, out);
            }
        }
        FALLBACK.bconv_ip(t, ys, y_bound, w, out)
    }

    fn mul_sum(&self, m: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if a.len() <= ifma::MAX_TERMS {
            if let Some(k) = Ifma::for_modulus(m) {
                return k.mul_sum(m, a, b, out);
            }
        }
        FALLBACK.mul_sum(m, a, b, out)
    }

    fn gemm(
        &self,
        q: &Modulus,
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    ) {
        FALLBACK.gemm(q, a, b, m, k, n, out);
    }
}

/// `std::simd` kernels plus per-ISA instantiations (nightly only), 8-wide
/// `u64x8` arithmetic laid out along each kernel's natural parallelism:
///
/// * **NTT stages** vectorize across the `j` index *within* a stage — 8
///   butterflies per iteration, `lo[j..j+8]`/`hi[j..j+8]` as the two
///   operand vectors; the merged twist stage deinterleaves adjacent pairs
///   instead, and stages too narrow to fill a vector from one block
///   (`size/2 < 8`) vectorize *across blocks* via compile-time swizzles
///   (`stage_lazy_narrow`). There is no `ω⁰ = 1` scalar shortcut: lane 0
///   multiplies by the Shoup pair of 1 like every other lane, giving a
///   different lazy representative with the same residue.
/// * **bconv** and **GEMM** vectorize across 8 output columns and keep the
///   exact 128-bit sum as an `(hi, lo)` vector pair with explicit carries;
///   GEMM folds at the same span as the portable kernel, so per-span sums
///   (and outputs) match exactly.
///
/// There is no 64×64 vector multiply on AVX2, so `mul_hi`/widening
/// products are built from four 32×32→64 partials (`vpmuludq`, issued
/// through per-ISA inline asm — see the `kernels` module doc for why the
/// obvious spellings scalarize) plus a carry layer. Kernels are compiled
/// once generically and re-instantiated inside
/// `#[target_feature(enable = "avx2")]` / AVX-512 wrappers (dispatched
/// once via `is_x86_feature_detected!`), so the build needs no global
/// `RUSTFLAGS` to emit 256/512-bit code.
#[cfg(feature = "simd")]
mod vector {
    use super::{BackendKind, ComputeBackend, PortableBackend};
    use crate::{Modulus, ShoupMul};
    use std::sync::LazyLock;

    /// The `std::simd` kernels as a backend: [`super::SimdBackend`]'s
    /// fallback when the IFMA path does not apply.
    #[derive(Debug, Clone, Copy)]
    pub struct Lanes;

    impl ComputeBackend for Lanes {
        fn kind(&self) -> BackendKind {
            BackendKind::Simd
        }

        fn ntt_twist_stage(&self, m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64 {
            dispatched::twist(m, x, psi_rev)
        }

        fn ntt_fwd_stage(
            &self,
            m: &Modulus,
            x: &mut [u64],
            size: usize,
            stage: &[ShoupMul],
        ) -> u64 {
            dispatched::stage_lazy(m, x, size, stage)
        }

        fn ntt_fwd_stage_final(&self, m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
            dispatched::stage_final(m, x, stage)
        }

        fn ntt_inv_stage(
            &self,
            m: &Modulus,
            x: &mut [u64],
            size: usize,
            stage: &[ShoupMul],
        ) -> u64 {
            dispatched::stage_lazy(m, x, size, stage)
        }

        fn ntt_scale(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) {
            dispatched::scale(m, x, tw);
        }

        fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
            dispatched::mul_const(m, s, x, out);
        }

        fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], _y_bound: u64, w: &[u64], out: &mut [u64]) {
            dispatched::bconv_ip(t, ys, w, out);
        }

        fn mul_sum(&self, m: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
            PortableBackend.mul_sum(m, a, b, out);
        }

        fn gemm(
            &self,
            q: &Modulus,
            a: &[u64],
            b: &[u64],
            m: usize,
            k: usize,
            n: usize,
            out: &mut [u64],
        ) {
            dispatched::gemm(q, a, b, m, k, n, out);
        }
    }

    /// Widest vector path the host CPU supports, probed once.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Isa {
        /// No AVX2: generic codegen (still correct, rarely faster).
        Baseline,
        /// 256-bit path.
        Avx2,
        /// 512-bit path (F+DQ+VL+BW: `vpmullq` and wide compares).
        Avx512,
    }

    pub fn isa() -> Isa {
        static ISA: LazyLock<Isa> = LazyLock::new(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                {
                    return Isa::Avx512;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Isa::Avx2;
                }
            }
            Isa::Baseline
        });
        *ISA
    }

    /// The generic kernel bodies, parameterized over the one primitive
    /// LLVM cannot be trusted to select on its own: the lane-wise
    /// 32×32→64 widening multiply. Written as masked 64-bit lane
    /// multiplies, LLVM's DAG combiner recognizes the 4-partial
    /// decomposition as a v8i64 `mulhi`, finds no such instruction, and
    /// *scalarizes* it (8 `mul` + `vpextrq`/`vmovq` round trips per
    /// vector). Routing the partials through an explicit `vpmuludq`
    /// intrinsic per ISA keeps everything in vector registers. All
    /// `#[inline(always)]` so the `#[target_feature]` wrappers below
    /// re-specialize them with wide registers enabled.
    pub mod kernels {
        use crate::backend::gemm_span;
        use crate::{Modulus, ShoupMul};
        use std::simd::cmp::{SimdOrd, SimdPartialOrd};
        use std::simd::{u64x8, Select, Swizzle};

        pub const LANES: usize = 8;

        /// Per-ISA widening multiply: `(a mod 2^32) · (b mod 2^32)` in
        /// each 64-bit lane (the `vpmuludq` primitive). Implementations
        /// using ISA intrinsics are only ever instantiated inside the
        /// matching `#[target_feature]` wrapper, which the dispatcher
        /// guards with `is_x86_feature_detected!`.
        pub trait WideMul: Copy {
            fn mul_even(a: u64x8, b: u64x8) -> u64x8;
        }

        /// Portable fallback: plain masked lane multiplies. Correct on
        /// every target; fast only where the backend ISA has a true
        /// 64-bit lane multiply.
        #[derive(Clone, Copy)]
        pub struct GenericMul;

        impl WideMul for GenericMul {
            #[inline(always)]
            fn mul_even(a: u64x8, b: u64x8) -> u64x8 {
                let m32 = u64x8::splat(0xFFFF_FFFF);
                (a & m32) * (b & m32)
            }
        }

        /// `vpmuludq` on 512-bit registers. Sound only under
        /// `avx512f` — private to this module and only instantiated from
        /// the avx512 wrapper.
        #[cfg(target_arch = "x86_64")]
        #[derive(Clone, Copy)]
        pub struct Avx512Mul;

        #[cfg(target_arch = "x86_64")]
        impl WideMul for Avx512Mul {
            #[inline(always)]
            fn mul_even(a: u64x8, b: u64x8) -> u64x8 {
                // SAFETY: only reachable through the avx512 dispatch arm,
                // entered after `is_x86_feature_detected!("avx512f")`.
                unsafe { vpmuludq_512(a, b) }
            }
        }

        /// One `vpmuludq` via inline asm. The stdarch `_mm512_mul_epu32`
        /// is *not* a hardware intrinsic — it lowers to the same masked
        /// lane-multiply pattern the kernels are trying to escape, and
        /// LLVM promptly re-fuses the surrounding partials into the
        /// nonexistent v8i64 `mulhi`, scalarizing to 8 `mulq` round
        /// trips. Inline asm is opaque to the pattern matcher, so the
        /// partial products stay in vector registers.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn vpmuludq_512(a: u64x8, b: u64x8) -> u64x8 {
            use core::arch::x86_64::__m512i;
            let out: __m512i;
            core::arch::asm!(
                "vpmuludq {out}, {a}, {b}",
                out = lateout(zmm_reg) out,
                a = in(zmm_reg) __m512i::from(a),
                b = in(zmm_reg) __m512i::from(b),
                options(pure, nomem, nostack, preserves_flags),
            );
            out.into()
        }

        /// `vpmuludq` on two 256-bit halves. Sound only under `avx2`.
        #[cfg(target_arch = "x86_64")]
        #[derive(Clone, Copy)]
        pub struct Avx2Mul;

        #[cfg(target_arch = "x86_64")]
        impl WideMul for Avx2Mul {
            #[inline(always)]
            fn mul_even(a: u64x8, b: u64x8) -> u64x8 {
                use std::simd::{simd_swizzle, u64x4};
                let (a0, a1): (u64x4, u64x4) = (
                    simd_swizzle!(a, [0, 1, 2, 3]),
                    simd_swizzle!(a, [4, 5, 6, 7]),
                );
                let (b0, b1): (u64x4, u64x4) = (
                    simd_swizzle!(b, [0, 1, 2, 3]),
                    simd_swizzle!(b, [4, 5, 6, 7]),
                );
                // SAFETY: only reachable through the avx2 dispatch arm,
                // entered after `is_x86_feature_detected!("avx2")`.
                let (r0, r1) = unsafe { (vpmuludq_256(a0, b0), vpmuludq_256(a1, b1)) };
                simd_swizzle!(r0, r1, [0, 1, 2, 3, 4, 5, 6, 7])
            }
        }

        /// `vpmuludq` on a 256-bit half — same inline-asm rationale as
        /// [`vpmuludq_512`].
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn vpmuludq_256(a: std::simd::u64x4, b: std::simd::u64x4) -> std::simd::u64x4 {
            use core::arch::x86_64::__m256i;
            let out: __m256i;
            core::arch::asm!(
                "vpmuludq {out}, {a}, {b}",
                out = lateout(ymm_reg) out,
                a = in(ymm_reg) __m256i::from(a),
                b = in(ymm_reg) __m256i::from(b),
                options(pure, nomem, nostack, preserves_flags),
            );
            out.into()
        }

        #[inline(always)]
        fn splat(v: u64) -> u64x8 {
            u64x8::splat(v)
        }

        /// High 64 bits of the lane-wise 64×64 product, from four
        /// 32×32→64 partials and one carry layer. `mid` cannot overflow:
        /// it sums three values `< 2^32`…`< 2^33` total, far below 2^64.
        #[inline(always)]
        fn mul_hi<W: WideMul>(a: u64x8, b: u64x8) -> u64x8 {
            let m32 = splat(0xFFFF_FFFF);
            let s32 = splat(32);
            let (ah, bh) = (a >> s32, b >> s32);
            let ll = W::mul_even(a, b);
            let lh = W::mul_even(a, bh);
            let hl = W::mul_even(ah, b);
            let mid = (ll >> s32) + (lh & m32) + (hl & m32);
            W::mul_even(ah, bh) + (lh >> s32) + (hl >> s32) + (mid >> s32)
        }

        /// `(hi, lo)` of the lane-wise widening product. Shares the four
        /// partials between both halves — the low word is reassembled
        /// from `mid` instead of issuing a separate full 64-bit lane
        /// multiply (`vpmullq` is multi-uop on every AVX-512 part that
        /// has it).
        #[inline(always)]
        fn mul_wide<W: WideMul>(a: u64x8, b: u64x8) -> (u64x8, u64x8) {
            let m32 = splat(0xFFFF_FFFF);
            let s32 = splat(32);
            let (ah, bh) = (a >> s32, b >> s32);
            let ll = W::mul_even(a, b);
            let lh = W::mul_even(a, bh);
            let hl = W::mul_even(ah, b);
            let mid = (ll >> s32) + (lh & m32) + (hl & m32);
            let hi = W::mul_even(ah, bh) + (lh >> s32) + (hl >> s32) + (mid >> s32);
            let lo = (mid << s32) | (ll & m32);
            (hi, lo)
        }

        /// `if x >= c { x - c } else { x }` branch-free: the wrapped
        /// difference is enormous exactly when `x < c`, so `min` picks the
        /// right representative.
        #[inline(always)]
        fn cond_sub(x: u64x8, c: u64x8) -> u64x8 {
            (x - c).simd_min(x)
        }

        /// Lane-wise Shoup multiply, lazy: `a·w - ⌊a·w_shoup/2^64⌋·q`,
        /// in `[0, 2q)` for any `a` when `w < q` — the same identity the
        /// scalar `Modulus::mul_shoup_lazy` computes.
        #[inline(always)]
        fn mul_shoup_lazy<W: WideMul>(a: u64x8, w: u64x8, ws: u64x8, q: u64x8) -> u64x8 {
            a * w - mul_hi::<W>(a, ws) * q
        }

        /// Reads a slice of Shoup pairs as the flat word sequence
        /// `[w, w_shoup, w, w_shoup, …]` — sound because [`ShoupMul`] is
        /// `repr(C)` with exactly two `u64` fields.
        #[inline(always)]
        fn shoup_words(tw: &[ShoupMul]) -> &[u64] {
            unsafe { std::slice::from_raw_parts(tw.as_ptr().cast::<u64>(), 2 * tw.len()) }
        }

        /// Loads 8 consecutive Shoup pairs into `(w, w_shoup)` vectors:
        /// two wide loads and one deinterleave instead of sixteen scalar
        /// inserts.
        #[inline(always)]
        fn gather_shoup(tw: &[ShoupMul]) -> (u64x8, u64x8) {
            let raw = shoup_words(&tw[..LANES]);
            let a = u64x8::from_slice(&raw[..LANES]);
            let b = u64x8::from_slice(&raw[LANES..2 * LANES]);
            a.deinterleave(b)
        }

        /// Adds the widening product `y·w` into the `(hi, lo)` 128-bit
        /// lane accumulators with an explicit carry out of the low word.
        #[inline(always)]
        fn mac_wide<W: WideMul>(
            acc_hi: u64x8,
            acc_lo: u64x8,
            y: u64x8,
            w: u64x8,
        ) -> (u64x8, u64x8) {
            let (p_hi, p_lo) = mul_wide::<W>(y, w);
            let new_lo = acc_lo + p_lo;
            let carry = new_lo
                .simd_lt(acc_lo)
                .select(u64x8::splat(1), u64x8::splat(0));
            (acc_hi + p_hi + carry, new_lo)
        }

        #[inline(always)]
        pub fn twist<W: WideMul>(m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64 {
            let q = m.value();
            let two_q = 2 * q;
            let (qv, tqv) = (splat(q), splat(two_q));
            let n = x.len();
            let mut i = 0;
            while i + 2 * LANES <= n {
                let a = u64x8::from_slice(&x[i..]);
                let b = u64x8::from_slice(&x[i + LANES..]);
                let (ev, od) = a.deinterleave(b);
                // 16 consecutive pairs -> even-index and odd-index
                // (w, w_shoup) vectors in two deinterleave rounds.
                let raw = shoup_words(&psi_rev[i..i + 2 * LANES]);
                let (wa, wsa) = u64x8::from_slice(&raw[..LANES])
                    .deinterleave(u64x8::from_slice(&raw[LANES..2 * LANES]));
                let (wb, wsb) = u64x8::from_slice(&raw[2 * LANES..3 * LANES])
                    .deinterleave(u64x8::from_slice(&raw[3 * LANES..4 * LANES]));
                let (we, wo) = wa.deinterleave(wb);
                let (wse, wso) = wsa.deinterleave(wsb);
                let u = mul_shoup_lazy::<W>(ev, we, wse, qv);
                let t = mul_shoup_lazy::<W>(od, wo, wso, qv);
                let (r0, r1) = (u + t).interleave(u + tqv - t);
                r0.copy_to_slice(&mut x[i..i + LANES]);
                r1.copy_to_slice(&mut x[i + LANES..i + 2 * LANES]);
                i += 2 * LANES;
            }
            while i < n {
                let u = m.mul_shoup_lazy(x[i], psi_rev[i]);
                let t = m.mul_shoup_lazy(x[i + 1], psi_rev[i + 1]);
                x[i] = u + t;
                x[i + 1] = u + two_q - t;
                i += 2;
            }
            (n / 2) as u64
        }

        #[inline(always)]
        pub fn stage_lazy<W: WideMul>(
            m: &Modulus,
            x: &mut [u64],
            size: usize,
            stage: &[ShoupMul],
        ) -> u64 {
            match size / 2 {
                1 => return stage_lazy_narrow::<W, 1>(m, x, stage),
                2 => return stage_lazy_narrow::<W, 2>(m, x, stage),
                4 => return stage_lazy_narrow::<W, 4>(m, x, stage),
                _ => {}
            }
            let q = m.value();
            let two_q = 2 * q;
            let half = size / 2;
            let (qv, tqv) = (splat(q), splat(two_q));
            let mut butterflies = 0u64;
            for block in x.chunks_exact_mut(size) {
                let (lo, hi) = block.split_at_mut(half);
                let mut j = 0;
                while j + LANES <= half {
                    let (w, ws) = gather_shoup(&stage[j..]);
                    let u = cond_sub(u64x8::from_slice(&lo[j..]), tqv);
                    let t = mul_shoup_lazy::<W>(u64x8::from_slice(&hi[j..]), w, ws, qv);
                    (u + t).copy_to_slice(&mut lo[j..j + LANES]);
                    (u + tqv - t).copy_to_slice(&mut hi[j..j + LANES]);
                    j += LANES;
                }
                while j < half {
                    let mut u = lo[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let t = m.mul_shoup_lazy(hi[j], stage[j]);
                    lo[j] = u + t;
                    hi[j] = u + two_q - t;
                    j += 1;
                }
                butterflies += half as u64;
            }
            butterflies
        }

        /// Lane picker for the narrow stages (`half < 8`): with blocks of
        /// `2·HALF` elements, 16 consecutive elements hold `8/HALF` whole
        /// blocks — exactly 8 butterflies. `INDEX` selects the lo (or hi)
        /// operand of each butterfly, in butterfly order, out of the two
        /// concatenated input vectors; one `vpermt2q` each.
        struct NarrowGather<const HALF: usize, const HI: bool>;

        impl<const HALF: usize, const HI: bool> Swizzle<8> for NarrowGather<HALF, HI> {
            const INDEX: [usize; 8] = {
                let mut idx = [0usize; 8];
                let mut l = 0;
                while l < 8 {
                    idx[l] = (l / HALF) * 2 * HALF + (l % HALF) + if HI { HALF } else { 0 };
                    l += 1;
                }
                idx
            };
        }

        /// Inverse permutation: rebuilds one of the two output vectors
        /// (`SECOND` selects elements 8..16) from the concatenated
        /// butterfly results `(r_lo, r_hi)`.
        struct NarrowScatter<const HALF: usize, const SECOND: bool>;

        impl<const HALF: usize, const SECOND: bool> Swizzle<8> for NarrowScatter<HALF, SECOND> {
            const INDEX: [usize; 8] = {
                let mut idx = [0usize; 8];
                let mut l = 0;
                while l < 8 {
                    let g = l + if SECOND { 8 } else { 0 };
                    let (b, p) = (g / (2 * HALF), g % (2 * HALF));
                    idx[l] = if p < HALF {
                        b * HALF + p
                    } else {
                        8 + b * HALF + (p - HALF)
                    };
                    l += 1;
                }
                idx
            };
        }

        /// Narrow-stage butterflies (`HALF` ∈ {1, 2, 4}): vectorizes
        /// *across blocks* instead of within one — the per-stage twiddles
        /// tile into one register pair and two permutes each side
        /// gather/scatter the operands, so the late forward stages and
        /// early inverse stages (21% of all butterflies at `n = 2^14`) run
        /// 8-wide instead of falling to the scalar tail.
        #[inline(always)]
        fn stage_lazy_narrow<W: WideMul, const HALF: usize>(
            m: &Modulus,
            x: &mut [u64],
            stage: &[ShoupMul],
        ) -> u64 {
            let q = m.value();
            let two_q = 2 * q;
            let (qv, tqv) = (splat(q), splat(two_q));
            let (mut w, mut ws) = ([0u64; LANES], [0u64; LANES]);
            for l in 0..LANES {
                w[l] = stage[l % HALF].w;
                ws[l] = stage[l % HALF].w_shoup;
            }
            let (wv, wsv) = (u64x8::from_array(w), u64x8::from_array(ws));
            let mut i = 0;
            // 16 elements = 8/HALF whole blocks per iteration (2·HALF
            // divides 16), so the group never straddles a block.
            while i + 2 * LANES <= x.len() {
                let v0 = u64x8::from_slice(&x[i..]);
                let v1 = u64x8::from_slice(&x[i + LANES..]);
                let lov = NarrowGather::<HALF, false>::concat_swizzle(v0, v1);
                let hiv = NarrowGather::<HALF, true>::concat_swizzle(v0, v1);
                let u = cond_sub(lov, tqv);
                let t = mul_shoup_lazy::<W>(hiv, wv, wsv, qv);
                let (rlo, rhi) = (u + t, u + tqv - t);
                NarrowScatter::<HALF, false>::concat_swizzle(rlo, rhi)
                    .copy_to_slice(&mut x[i..i + LANES]);
                NarrowScatter::<HALF, true>::concat_swizzle(rlo, rhi)
                    .copy_to_slice(&mut x[i + LANES..i + 2 * LANES]);
                i += 2 * LANES;
            }
            let mut butterflies = (i / 2) as u64;
            for block in x[i..].chunks_exact_mut(2 * HALF) {
                let (lo, hi) = block.split_at_mut(HALF);
                for j in 0..HALF {
                    let mut u = lo[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let t = m.mul_shoup_lazy(hi[j], stage[j]);
                    lo[j] = u + t;
                    hi[j] = u + two_q - t;
                }
                butterflies += HALF as u64;
            }
            butterflies
        }

        #[inline(always)]
        pub fn stage_final<W: WideMul>(m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
            let q = m.value();
            let two_q = 2 * q;
            let half = x.len() / 2;
            let (qv, tqv) = (splat(q), splat(two_q));
            let (lo, hi) = x.split_at_mut(half);
            let mut j = 0;
            while j + LANES <= half {
                let (w, ws) = gather_shoup(&stage[j..]);
                let u = cond_sub(u64x8::from_slice(&lo[j..]), tqv);
                let t = mul_shoup_lazy::<W>(u64x8::from_slice(&hi[j..]), w, ws, qv);
                let r0 = cond_sub(cond_sub(u + t, tqv), qv);
                let r1 = cond_sub(cond_sub(u + tqv - t, tqv), qv);
                r0.copy_to_slice(&mut lo[j..j + LANES]);
                r1.copy_to_slice(&mut hi[j..j + LANES]);
                j += LANES;
            }
            while j < half {
                let mut u = lo[j];
                if u >= two_q {
                    u -= two_q;
                }
                let t = m.mul_shoup_lazy(hi[j], stage[j]);
                let mut r0 = u + t;
                if r0 >= two_q {
                    r0 -= two_q;
                }
                if r0 >= q {
                    r0 -= q;
                }
                let mut r1 = u + two_q - t;
                if r1 >= two_q {
                    r1 -= two_q;
                }
                if r1 >= q {
                    r1 -= q;
                }
                lo[j] = r0;
                hi[j] = r1;
                j += 1;
            }
            half as u64
        }

        #[inline(always)]
        pub fn scale<W: WideMul>(m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) {
            let qv = splat(m.value());
            let mut i = 0;
            while i + LANES <= x.len() {
                let (w, ws) = gather_shoup(&tw[i..]);
                let r = mul_shoup_lazy::<W>(u64x8::from_slice(&x[i..]), w, ws, qv);
                cond_sub(r, qv).copy_to_slice(&mut x[i..i + LANES]);
                i += LANES;
            }
            while i < x.len() {
                x[i] = m.mul_shoup(x[i], tw[i]);
                i += 1;
            }
        }

        #[inline(always)]
        pub fn mul_const<W: WideMul>(m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
            let qv = splat(m.value());
            let (w, ws) = (splat(s.w), splat(s.w_shoup));
            let mut i = 0;
            while i + LANES <= x.len() {
                let r = mul_shoup_lazy::<W>(u64x8::from_slice(&x[i..]), w, ws, qv);
                cond_sub(r, qv).copy_to_slice(&mut out[i..i + LANES]);
                i += LANES;
            }
            while i < x.len() {
                out[i] = m.mul_shoup(x[i], s);
                i += 1;
            }
        }

        #[inline(always)]
        pub fn bconv_ip<W: WideMul>(t: &Modulus, ys: &[&[u64]], w: &[u64], out: &mut [u64]) {
            let n = out.len();
            let q = t.value();
            // Lane-wide 128→64 reduction constants: `r = 2^64 mod t`
            // (Shoup-prepared, so the high word reduces with the
            // any-input lazy identity) and `mu = ⌊2^64 / t⌋` for a
            // one-round Barrett on the low word. The result is canonical,
            // so it matches `reduce_u128` bit for bit by value.
            let r = t.shoup(((1u128 << 64) % u128::from(q)) as u64);
            let mu = ((1u128 << 64) / u128::from(q)) as u64;
            let (rv, rsv, muv) = (splat(r.w), splat(r.w_shoup), splat(mu));
            let (qv, tqv) = (splat(q), splat(2 * q));
            let mut c = 0;
            while c + LANES <= n {
                let mut acc_hi = u64x8::splat(0);
                let mut acc_lo = u64x8::splat(0);
                for (row, &wi) in ys.iter().zip(w) {
                    let y = u64x8::from_slice(&row[c..]);
                    (acc_hi, acc_lo) = mac_wide::<W>(acc_hi, acc_lo, y, splat(wi));
                }
                // hi·2^64 + lo ≡ (hi·r mod t) + (lo mod t): the Shoup
                // term lands in [0, 2t), the Barrett remainder
                // `lo - ⌊lo·mu/2^64⌋·t` in [0, 2t) as well, so the sum
                // (< 4t, no overflow for the ≤61-bit moduli the stack
                // generates) folds canonical with two conditional subs.
                let h = mul_shoup_lazy::<W>(acc_hi, rv, rsv, qv);
                let rem = acc_lo - mul_hi::<W>(acc_lo, muv) * qv;
                let s = cond_sub(h + rem, tqv);
                cond_sub(s, qv).copy_to_slice(&mut out[c..c + LANES]);
                c += LANES;
            }
            while c < n {
                let mut acc = 0u128;
                for (row, &wi) in ys.iter().zip(w) {
                    acc += row[c] as u128 * wi as u128;
                }
                out[c] = t.reduce_u128(acc);
                c += 1;
            }
        }

        /// One register-resident tile of `V` vectors (`V·8` output
        /// columns) for row `i`: the `(hi, lo)` accumulators live in
        /// registers across the whole `k` loop, folding below `q` at the
        /// same span boundaries as the portable kernel — so per-element
        /// sums (and outputs) match the scalar path bit for bit.
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn gemm_tile<W: WideMul, const V: usize>(
            q: &Modulus,
            a_row: &[u64],
            b: &[u64],
            k: usize,
            n: usize,
            span: usize,
            j0: usize,
            out_row: &mut [u64],
        ) {
            let mut hi = [u64x8::splat(0); V];
            let mut lo = [u64x8::splat(0); V];
            for t0 in (0..k).step_by(span) {
                for (t, &ai) in a_row.iter().enumerate().skip(t0).take(span) {
                    let aiv = splat(ai);
                    let base = t * n + j0;
                    for v in 0..V {
                        let bv = u64x8::from_slice(&b[base + v * LANES..base + (v + 1) * LANES]);
                        (hi[v], lo[v]) = mac_wide::<W>(hi[v], lo[v], aiv, bv);
                    }
                }
                // Fold back below q before the next span (rare: once per
                // `span` MACs, so the scalar per-lane reduction is cheap).
                for v in 0..V {
                    let (h, l) = (hi[v].to_array(), lo[v].to_array());
                    let folded: [u64; LANES] = std::array::from_fn(|lane| {
                        q.reduce_u128((u128::from(h[lane]) << 64) | u128::from(l[lane]))
                    });
                    lo[v] = u64x8::from_array(folded);
                    hi[v] = u64x8::splat(0);
                }
            }
            for v in 0..V {
                lo[v].copy_to_slice(&mut out_row[j0 + v * LANES..j0 + (v + 1) * LANES]);
            }
        }

        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        pub fn gemm<W: WideMul>(
            q: &Modulus,
            a: &[u64],
            b: &[u64],
            m: usize,
            k: usize,
            n: usize,
            out: &mut [u64],
        ) {
            // Same fold span as the portable kernel: the (hi, lo) lane
            // pair is exactly a u128, so the no-wrap bound carries over.
            let span = gemm_span(q);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                let mut j0 = 0;
                // 32-column register tiles, then single-vector tiles.
                while j0 + 4 * LANES <= n {
                    gemm_tile::<W, 4>(q, a_row, b, k, n, span, j0, out_row);
                    j0 += 4 * LANES;
                }
                while j0 + LANES <= n {
                    gemm_tile::<W, 1>(q, a_row, b, k, n, span, j0, out_row);
                    j0 += LANES;
                }
                // Scalar tail with the identical fold schedule.
                for j in j0..n {
                    let mut acc = 0u128;
                    for t0 in (0..k).step_by(span) {
                        for (t, &ai) in a_row.iter().enumerate().skip(t0).take(span) {
                            acc += u128::from(ai) * u128::from(b[t * n + j]);
                        }
                        acc = u128::from(q.reduce_u128(acc));
                    }
                    out_row[j] = acc as u64;
                }
            }
        }
    }

    /// Re-instantiates every kernel under a `#[target_feature]` envelope
    /// so LLVM emits wide vectors without global compile flags.
    macro_rules! isa_module {
        ($name:ident, $feature:literal, $wm:ident) => {
            #[cfg(target_arch = "x86_64")]
            pub mod $name {
                use super::kernels;
                use crate::{Modulus, ShoupMul};

                #[target_feature(enable = $feature)]
                pub unsafe fn twist(m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64 {
                    kernels::twist::<kernels::$wm>(m, x, psi_rev)
                }

                #[target_feature(enable = $feature)]
                pub unsafe fn stage_lazy(
                    m: &Modulus,
                    x: &mut [u64],
                    size: usize,
                    stage: &[ShoupMul],
                ) -> u64 {
                    kernels::stage_lazy::<kernels::$wm>(m, x, size, stage)
                }

                #[target_feature(enable = $feature)]
                pub unsafe fn stage_final(m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
                    kernels::stage_final::<kernels::$wm>(m, x, stage)
                }

                #[target_feature(enable = $feature)]
                pub unsafe fn scale(m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) {
                    kernels::scale::<kernels::$wm>(m, x, tw)
                }

                #[target_feature(enable = $feature)]
                pub unsafe fn mul_const(m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
                    kernels::mul_const::<kernels::$wm>(m, s, x, out)
                }

                #[target_feature(enable = $feature)]
                pub unsafe fn bconv_ip(t: &Modulus, ys: &[&[u64]], w: &[u64], out: &mut [u64]) {
                    kernels::bconv_ip::<kernels::$wm>(t, ys, w, out)
                }

                #[target_feature(enable = $feature)]
                #[allow(clippy::too_many_arguments)]
                pub unsafe fn gemm(
                    q: &Modulus,
                    a: &[u64],
                    b: &[u64],
                    m: usize,
                    k: usize,
                    n: usize,
                    out: &mut [u64],
                ) {
                    kernels::gemm::<kernels::$wm>(q, a, b, m, k, n, out)
                }
            }
        };
    }

    isa_module!(avx2, "avx2", Avx2Mul);
    isa_module!(avx512, "avx512f,avx512dq,avx512vl,avx512bw", Avx512Mul);

    /// Safe entry points: pick the widest instantiation the CPU supports.
    /// The `unsafe` calls are sound because `isa()` proved the features.
    pub mod dispatched {
        use crate::{Modulus, ShoupMul};

        macro_rules! dispatched_fn {
            ($name:ident ( $($arg:ident : $ty:ty),* $(,)? ) -> $ret:ty) => {
                #[cfg(target_arch = "x86_64")]
                #[allow(clippy::too_many_arguments)]
                pub fn $name($($arg: $ty),*) -> $ret {
                    match super::isa() {
                        super::Isa::Avx512 => unsafe { super::avx512::$name($($arg),*) },
                        super::Isa::Avx2 => unsafe { super::avx2::$name($($arg),*) },
                        super::Isa::Baseline => {
                            super::kernels::$name::<super::kernels::GenericMul>($($arg),*)
                        }
                    }
                }

                #[cfg(not(target_arch = "x86_64"))]
                #[allow(clippy::too_many_arguments)]
                pub fn $name($($arg: $ty),*) -> $ret {
                    super::kernels::$name::<super::kernels::GenericMul>($($arg),*)
                }
            };
        }

        dispatched_fn!(twist(m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64);
        dispatched_fn!(
            stage_lazy(m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64
        );
        dispatched_fn!(stage_final(m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64);
        dispatched_fn!(scale(m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) -> ());
        dispatched_fn!(mul_const(m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) -> ());
        dispatched_fn!(bconv_ip(t: &Modulus, ys: &[&[u64]], w: &[u64], out: &mut [u64]) -> ());
        dispatched_fn!(
            gemm(
                q: &Modulus,
                a: &[u64],
                b: &[u64],
                m: usize,
                k: usize,
                n: usize,
                out: &mut [u64],
            ) -> ()
        );
    }
}
