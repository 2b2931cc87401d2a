//! Modular GEMM engines.
//!
//! [`GemmEngine`] is the pluggable matrix-multiplication backend used by the
//! NTT, BConv and IP kernels. Four engines are provided:
//!
//! * [`ScalarGemm`] — straightforward modular arithmetic (the CUDA-core
//!   path, and the correctness oracle);
//! * [`BackendGemm`] — the same contract routed through a pinned
//!   [`neo_math::ComputeBackend`], so the inner loop can run vectorized;
//! * [`Fp64TcuGemm`] — Neo's pipeline: split → FP64 `8×8×4` fragment MMAs →
//!   shift-merge → reduce;
//! * [`Int8TcuGemm`] — TensorFHE's pipeline with byte planes and INT8
//!   fragments.
//!
//! All four produce **identical** outputs for reduced inputs; the TCU
//! engines really route every multiply through the fragment emulation in
//! [`crate::fragment`].

use crate::fragment::{self, FragmentShape, FP64_FRAGMENT, INT8_FRAGMENTS};
use crate::split::{Fp64SplitScheme, Int8SplitScheme};
use neo_math::{BackendKind, Modulus, PortableBackend};
use neo_trace::Counter;
use std::cell::RefCell;

thread_local! {
    // Per-plane-pair accumulator tiles, reused across gemm calls so the
    // hot NTT/BConv paths don't allocate on every invocation.
    static FP64_TILE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static INT8_TILE: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
}

/// A backend that computes `C = A × B (mod q)` for row-major `u64`
/// matrices: `A` is `m×k`, `B` is `k×n`, `C` is `m×n`.
pub trait GemmEngine {
    /// Computes the modular product into `out`.
    ///
    /// # Panics
    ///
    /// Implementations panic if slice lengths disagree with the dimensions
    /// or operands are not reduced mod `q`.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        q: &Modulus,
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    );

    /// Short name for diagnostics/benches.
    fn name(&self) -> &'static str;
}

/// Modular GEMM on scalar units (CUDA-core path).
///
/// Runs an i-k-j loop over a row of `u128` accumulators with deferred
/// reduction: inside one K-span no modular reduction happens at all, and
/// the span length is chosen so the accumulators provably cannot wrap.
/// Output is bit-identical to [`reference_gemm`] — both land on the
/// canonical representative in `[0, q)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarGemm;

impl GemmEngine for ScalarGemm {
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
        check_dims(a, b, out, m, k, n);
        neo_trace::add(Counter::GemmMacs, (m * k * n) as u64);
        use neo_math::ComputeBackend;
        PortableBackend.gemm(q, a, b, m, k, n, out);
    }

    fn name(&self) -> &'static str {
        "scalar"
    }
}

/// Modular GEMM dispatched through a [`neo_math::ComputeBackend`].
///
/// Same contract and telemetry as [`ScalarGemm`] — `GemmMacs` tallies the
/// full `m·k·n` regardless of backend — but the i-k-j inner loop runs on
/// the pinned backend, which may use vector lanes. Output is bit-identical
/// to [`ScalarGemm`] and [`reference_gemm`]: every backend folds its
/// accumulators on the same K-span schedule and emits the canonical
/// representative in `[0, q)`.
#[derive(Debug, Clone, Copy)]
pub struct BackendGemm {
    kind: BackendKind,
}

impl BackendGemm {
    /// Engine pinned to `kind`.
    pub fn new(kind: BackendKind) -> Self {
        Self { kind }
    }

    /// Engine using the process-default backend ([`BackendKind::detect`]):
    /// the `NEO_BACKEND` override if set, otherwise the best backend the
    /// build and CPU support.
    pub fn auto() -> Self {
        Self::new(BackendKind::detect())
    }

    /// The pinned backend kind.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }
}

impl Default for BackendGemm {
    fn default() -> Self {
        Self::auto()
    }
}

impl GemmEngine for BackendGemm {
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
        check_dims(a, b, out, m, k, n);
        neo_trace::add(Counter::GemmMacs, (m * k * n) as u64);
        // Gate before touching the clock: one relaxed load when disabled.
        let t0 = neo_metrics::enabled().then(std::time::Instant::now);
        neo_math::backend::get(self.kind).gemm(q, a, b, m, k, n, out);
        if let Some(t0) = t0 {
            crate::metrics::gemm_hist(self.kind).record_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }
}

/// The `O(m·k·n)` fully-reduced oracle: one `mul` + `add` per term, a
/// modular reduction after every operation. [`ScalarGemm`] is property
/// tested to match this bit for bit.
pub fn reference_gemm(
    q: &Modulus,
    a: &[u64],
    b: &[u64],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [u64],
) {
    check_dims(a, b, out, m, k, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0u64;
            for t in 0..k {
                acc = q.add(acc, q.mul(a[i * k + t], b[t * n + j]));
            }
            out[i * n + j] = acc;
        }
    }
}

fn check_dims(a: &[u64], b: &[u64], out: &[u64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(out.len(), m * n, "C shape mismatch");
}

/// Neo's FP64 tensor-core GEMM.
#[derive(Debug, Clone)]
pub struct Fp64TcuGemm {
    scheme: Fp64SplitScheme,
}

impl Fp64TcuGemm {
    /// Engine with the paper's splitting scheme for `word_size`.
    pub fn for_word_size(word_size: u32) -> Self {
        Self {
            scheme: Fp64SplitScheme::for_word_size(word_size),
        }
    }

    /// Engine with a custom scheme.
    pub fn new(scheme: Fp64SplitScheme) -> Self {
        Self { scheme }
    }

    /// The active splitting scheme.
    pub fn scheme(&self) -> &Fp64SplitScheme {
        &self.scheme
    }
}

impl GemmEngine for Fp64TcuGemm {
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
        check_dims(a, b, out, m, k, n);
        debug_assert!(
            q.bits() <= self.scheme.word_size(),
            "modulus wider than the splitting scheme's word size"
        );
        out.fill(0);
        let a_planes = self.scheme.split_a(a);
        let b_planes = self.scheme.split_b(b);
        let kc = self.scheme.max_k();
        // Process the reduction dimension in chunks the exactness bound
        // covers; real kernels interleave a modular reduction the same way.
        FP64_TILE.with(|cell| {
            let mut tile = cell.borrow_mut();
            for k0 in (0..k).step_by(kc) {
                let kw = kc.min(k - k0);
                for (off_a, pa) in &a_planes {
                    for (off_b, pb) in &b_planes {
                        let shift = off_a + off_b;
                        fragment_tiled_gemm_fp64(pa, pb, m, k, n, k0, kw, &mut tile);
                        neo_trace::add(Counter::MergeOps, (m * n) as u64);
                        for (o, &v) in out.iter_mut().zip(tile.iter()) {
                            debug_assert!(
                                (0.0..9_007_199_254_740_992.0).contains(&v),
                                "exactness broken"
                            );
                            let contrib = q.reduce_u128((v as u128) << shift);
                            *o = q.add(*o, contrib);
                        }
                    }
                }
            }
        });
    }

    fn name(&self) -> &'static str {
        "tcu-fp64"
    }
}

/// Fragment-tiled plain f64 GEMM of one plane pair over the K slice
/// `[k0, k0+kw)`, written into the caller-owned scratch `out`. Every
/// multiply goes through [`fragment::mma_fp64`].
#[allow(clippy::too_many_arguments)]
fn fragment_tiled_gemm_fp64(
    pa: &[f64],
    pb: &[f64],
    m: usize,
    k: usize,
    n: usize,
    k0: usize,
    kw: usize,
    out: &mut Vec<f64>,
) {
    let fm = FP64_FRAGMENT.m;
    let fn_ = FP64_FRAGMENT.n;
    let fk = FP64_FRAGMENT.k;
    out.clear();
    out.resize(m * n, 0.0);
    let mut fa = [0.0f64; 32];
    let mut fb = [0.0f64; 32];
    let mut fc = [0.0f64; 64];
    for i0 in (0..m).step_by(fm) {
        for j0 in (0..n).step_by(fn_) {
            fc.fill(0.0);
            for t0 in (k0..k0 + kw).step_by(fk) {
                // Load (and zero-pad) the A and B fragments.
                fa.fill(0.0);
                fb.fill(0.0);
                for i in 0..fm.min(m - i0) {
                    for t in 0..fk.min(k0 + kw - t0) {
                        fa[i * fk + t] = pa[(i0 + i) * k + (t0 + t)];
                    }
                }
                for t in 0..fk.min(k0 + kw - t0) {
                    for j in 0..fn_.min(n - j0) {
                        fb[t * fn_ + j] = pb[(t0 + t) * n + (j0 + j)];
                    }
                }
                fragment::mma_fp64(&fa, &fb, &mut fc);
            }
            for i in 0..fm.min(m - i0) {
                for j in 0..fn_.min(n - j0) {
                    out[(i0 + i) * n + (j0 + j)] = fc[i * fn_ + j];
                }
            }
        }
    }
}

/// TensorFHE's INT8 tensor-core GEMM.
#[derive(Debug, Clone)]
pub struct Int8TcuGemm {
    scheme: Int8SplitScheme,
    shape: FragmentShape,
}

impl Int8TcuGemm {
    /// Engine with byte planes for `word_size` and the default `16×16×16`
    /// fragment.
    pub fn for_word_size(word_size: u32) -> Self {
        Self {
            scheme: Int8SplitScheme::for_word_size(word_size),
            shape: INT8_FRAGMENTS[0],
        }
    }

    /// Chooses a different INT8 fragment shape (e.g. `32×8×16` which the
    /// paper identifies as optimal for BConv).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not an A100 INT8 fragment shape.
    pub fn with_shape(mut self, shape: FragmentShape) -> Self {
        assert!(
            INT8_FRAGMENTS.contains(&shape),
            "unsupported INT8 fragment {shape}"
        );
        self.shape = shape;
        self
    }

    /// The active splitting scheme.
    pub fn scheme(&self) -> &Int8SplitScheme {
        &self.scheme
    }
}

impl GemmEngine for Int8TcuGemm {
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
        check_dims(a, b, out, m, k, n);
        debug_assert!(q.bits() <= 8 * self.scheme.planes() as u32);
        out.fill(0);
        let a_planes = self.scheme.split_a(a);
        let b_planes = self.scheme.split_b(b);
        INT8_TILE.with(|cell| {
            let mut tile = cell.borrow_mut();
            for (off_a, pa) in &a_planes {
                for (off_b, pb) in &b_planes {
                    let shift = off_a + off_b;
                    fragment_tiled_gemm_int8(self.shape, pa, pb, m, k, n, &mut tile);
                    neo_trace::add(Counter::MergeOps, (m * n) as u64);
                    for (o, &v) in out.iter_mut().zip(tile.iter()) {
                        let contrib = q.reduce_u128((v as u128) << shift);
                        *o = q.add(*o, contrib);
                    }
                }
            }
        });
    }

    fn name(&self) -> &'static str {
        "tcu-int8"
    }
}

fn fragment_tiled_gemm_int8(
    shape: FragmentShape,
    pa: &[u8],
    pb: &[u8],
    m: usize,
    k: usize,
    n: usize,
    out: &mut Vec<i64>,
) {
    let (fm, fn_, fk) = (shape.m, shape.n, shape.k);
    out.clear();
    out.resize(m * n, 0);
    let mut fa = vec![0u8; fm * fk];
    let mut fb = vec![0u8; fk * fn_];
    let mut fc = vec![0i32; fm * fn_];
    for i0 in (0..m).step_by(fm) {
        for j0 in (0..n).step_by(fn_) {
            fc.fill(0);
            for t0 in (0..k).step_by(fk) {
                fa.fill(0);
                fb.fill(0);
                for i in 0..fm.min(m - i0) {
                    for t in 0..fk.min(k - t0) {
                        fa[i * fk + t] = pa[(i0 + i) * k + (t0 + t)];
                    }
                }
                for t in 0..fk.min(k - t0) {
                    for j in 0..fn_.min(n - j0) {
                        fb[t * fn_ + j] = pb[(t0 + t) * n + (j0 + j)];
                    }
                }
                fragment::mma_int8(shape, &fa, &fb, &mut fc);
            }
            for i in 0..fm.min(m - i0) {
                for j in 0..fn_.min(n - j0) {
                    out[(i0 + i) * n + (j0 + j)] = fc[i * fn_ + j] as i64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::primes;
    use rand::{Rng, SeedableRng};

    fn modulus(bits: u32) -> Modulus {
        Modulus::new(primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap()
    }

    fn random_mat(rng: &mut impl Rng, q: &Modulus, len: usize) -> Vec<u64> {
        (0..len).map(|_| rng.gen_range(0..q.value())).collect()
    }

    fn compare_engines(bits: u32, m: usize, k: usize, n: usize, seed: u64) {
        let q = modulus(bits);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = random_mat(&mut rng, &q, m * k);
        let b = random_mat(&mut rng, &q, k * n);
        let mut c_ref = vec![0u64; m * n];
        let mut c_fp64 = vec![0u64; m * n];
        let mut c_int8 = vec![0u64; m * n];
        ScalarGemm.gemm(&q, &a, &b, m, k, n, &mut c_ref);
        Fp64TcuGemm::for_word_size(if bits <= 36 { 36 } else { 48 }).gemm(
            &q,
            &a,
            &b,
            m,
            k,
            n,
            &mut c_fp64,
        );
        Int8TcuGemm::for_word_size(if bits <= 36 { 36 } else { 48 }).gemm(
            &q,
            &a,
            &b,
            m,
            k,
            n,
            &mut c_int8,
        );
        assert_eq!(
            c_ref, c_fp64,
            "fp64 path diverged ({bits} bits, {m}x{k}x{n})"
        );
        assert_eq!(
            c_ref, c_int8,
            "int8 path diverged ({bits} bits, {m}x{k}x{n})"
        );
    }

    #[test]
    fn engines_agree_fragment_sized() {
        compare_engines(36, 8, 4, 8, 1);
        compare_engines(36, 16, 16, 16, 2);
    }

    #[test]
    fn engines_agree_odd_shapes() {
        compare_engines(36, 5, 3, 7, 3); // heavy padding
        compare_engines(36, 9, 16, 5, 4);
        compare_engines(36, 33, 9, 17, 5);
    }

    #[test]
    fn engines_agree_48_bit() {
        compare_engines(48, 16, 16, 16, 6);
        compare_engines(48, 12, 9, 8, 7);
    }

    #[test]
    fn engines_agree_long_k() {
        // K > 16 exercises the chunked accumulation path.
        compare_engines(36, 8, 40, 8, 8);
        compare_engines(48, 8, 33, 8, 9);
    }

    #[test]
    fn names() {
        assert_eq!(ScalarGemm.name(), "scalar");
        assert_eq!(Fp64TcuGemm::for_word_size(36).name(), "tcu-fp64");
        assert_eq!(Int8TcuGemm::for_word_size(36).name(), "tcu-int8");
        assert_eq!(BackendGemm::new(BackendKind::Portable).name(), "portable");
        assert_eq!(BackendGemm::new(BackendKind::Simd).name(), "simd");
        assert_eq!(BackendGemm::auto().kind(), BackendKind::detect());
    }

    #[test]
    fn backend_gemm_is_bit_identical_across_kinds() {
        let _tally = crate::tally_lock();
        // Wide modulus + long K forces mid-row folds, the place where a
        // backend with a different fold schedule would diverge.
        let q = Modulus::new(primes::ntt_primes(61, 1 << 10, 1).unwrap()[0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let (m, k, n) = (4usize, 600usize, 19usize);
        let a = random_mat(&mut rng, &q, m * k);
        let b = random_mat(&mut rng, &q, k * n);
        let mut scalar = vec![0u64; m * n];
        let mut portable = vec![0u64; m * n];
        let mut simd = vec![0u64; m * n];
        ScalarGemm.gemm(&q, &a, &b, m, k, n, &mut scalar);
        BackendGemm::new(BackendKind::Portable).gemm(&q, &a, &b, m, k, n, &mut portable);
        BackendGemm::new(BackendKind::Simd).gemm(&q, &a, &b, m, k, n, &mut simd);
        assert_eq!(scalar, portable);
        assert_eq!(scalar, simd);
    }

    #[test]
    fn blocked_scalar_matches_reference_on_wide_modulus() {
        // A 61-bit prime keeps the accumulation span short (~hundreds of
        // products), so K = 600 forces several mid-row folds.
        let q = Modulus::new(primes::ntt_primes(61, 1 << 10, 1).unwrap()[0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (m, k, n) = (3usize, 600usize, 5usize);
        let a = random_mat(&mut rng, &q, m * k);
        let b = random_mat(&mut rng, &q, k * n);
        let mut blocked = vec![0u64; m * n];
        let mut naive = vec![0u64; m * n];
        ScalarGemm.gemm(&q, &a, &b, m, k, n, &mut blocked);
        reference_gemm(&q, &a, &b, m, k, n, &mut naive);
        assert_eq!(blocked, naive);
    }
}

#[cfg(test)]
mod blocked_property_tests {
    use super::*;
    use neo_math::primes;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The deferred-reduction i-k-j kernel is bit-identical to the
        /// fully-reduced oracle across shapes and prime widths.
        #[test]
        fn blocked_matches_reference(
            seed in any::<u64>(),
            bits in 30u32..=61,
            m in 1usize..12,
            k in 1usize..40,
            n in 1usize..12,
        ) {
            let q = Modulus::new(primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
            let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
            let mut blocked = vec![0u64; m * n];
            let mut naive = vec![0u64; m * n];
            ScalarGemm.gemm(&q, &a, &b, m, k, n, &mut blocked);
            reference_gemm(&q, &a, &b, m, k, n, &mut naive);
            prop_assert_eq!(blocked, naive);
        }
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use neo_math::primes;
    use rand::{Rng, SeedableRng};

    #[test]
    fn int8_alternate_fragment_shapes_agree() {
        let q = Modulus::new(primes::ntt_primes(36, 1 << 10, 1).unwrap()[0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (m, k, n) = (40usize, 12usize, 20usize);
        let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
        let mut want = vec![0u64; m * n];
        ScalarGemm.gemm(&q, &a, &b, m, k, n, &mut want);
        for shape in crate::INT8_FRAGMENTS {
            let mut got = vec![0u64; m * n];
            Int8TcuGemm::for_word_size(36)
                .with_shape(shape)
                .gemm(&q, &a, &b, m, k, n, &mut got);
            assert_eq!(got, want, "shape {shape}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported INT8 fragment")]
    fn with_shape_rejects_fp64_shape() {
        let _ = Int8TcuGemm::for_word_size(36).with_shape(crate::FP64_FRAGMENT);
    }

    #[test]
    fn fp64_custom_scheme_roundtrip() {
        // An unusual but exact custom scheme: 18-bit planes both sides.
        let scheme = crate::Fp64SplitScheme::new(36, 36, vec![18, 18], vec![18, 18], 16);
        assert_eq!(scheme.partial_products(), 4);
        let q = Modulus::new(primes::ntt_primes(36, 1 << 10, 1).unwrap()[0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let a: Vec<u64> = (0..8 * 8).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..8 * 8).map(|_| rng.gen_range(0..q.value())).collect();
        let mut want = vec![0u64; 64];
        let mut got = vec![0u64; 64];
        ScalarGemm.gemm(&q, &a, &b, 8, 8, 8, &mut want);
        Fp64TcuGemm::new(scheme).gemm(&q, &a, &b, 8, 8, 8, &mut got);
        assert_eq!(got, want);
    }
}
