//! Pluggable compute backends for the hot kernels.
//!
//! [`ComputeBackend`] is the seam between the algorithmic drivers
//! (`neo-ntt`'s stage loops, `neo-math::bconv`'s limb conversion, the
//! key-switch inner products over [`RnsPoly`](crate::RnsPoly), `neo-tcu`'s
//! blocked GEMM) and the arithmetic inner loops they execute.
//! The drivers own *what* work happens — stage ordering, counter tallies,
//! fault-injection hooks, ABFT checks — while a backend owns *how* one
//! stage/inner-product/tile is evaluated. Every backend must land on the
//! **bit-identical canonical output**: the kernels fully reduce at
//! their boundary (the NTT's final stage folds `[0, 4q) → [0, q)`, the
//! inverse scale and `mul_const` are full Shoup multiplies, the inner
//! products and GEMM reduce exact sums), so backends are free to hold
//! *different lazy representatives internally* — e.g. skipping the `ω⁰ = 1`
//! multiply scalar-side while vectorizing it uniformly — as long as every
//! intermediate stays congruent and inside the `[0, 4q)` window.
//!
//! Two backends ship:
//!
//! * [`PortableBackend`] — the scalar Shoup/lazy-reduction kernels.
//!   Always available, the correctness anchor.
//! * [`SimdBackend`] — lane-parallel kernels: AVX-512 IFMA on stable Rust
//!   when the CPU has it and the modulus fits 52-bit lanes, `std::simd`
//!   under the nightly `simd` cargo feature, and the portable kernels
//!   otherwise (see the `simd` module).
//!
//! Selection happens once, at engine/plan build time: an explicit
//! [`BackendKind`] via `CkksParamsBuilder::backend(..)`, the `NEO_BACKEND`
//! environment override, or runtime CPU-feature detection for the default
//! ([`BackendKind::detect`]). The chosen kind threads through
//! `NttPlan`/plan-cache keys, `BconvTable`, and `neo-tcu::BackendGemm`, so
//! a process can hold plans for both backends side by side (the
//! cross-backend property tests do exactly that).

use crate::{Modulus, ShoupMul};
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

#[cfg(target_arch = "x86_64")]
mod ifma;
mod portable;
mod simd;

pub use portable::PortableBackend;
pub use simd::SimdBackend;

/// Identifies a compute backend. `Copy`-cheap, hashable (plan-cache key
/// component), and serde-serializable (rides inside `CkksParams`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// Scalar Shoup/lazy-reduction kernels (the PR 1 fast path).
    Portable,
    /// Lane-parallel kernels: AVX-512 IFMA where the CPU and modulus
    /// allow, `std::simd` under the nightly `simd` feature, portable
    /// kernels otherwise.
    Simd,
}

impl BackendKind {
    /// Short stable name, also accepted by [`BackendKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Portable => "portable",
            BackendKind::Simd => "simd",
        }
    }

    /// Parses a backend name (case-insensitive). `"scalar"` is accepted as
    /// an alias for portable so `NEO_BACKEND=scalar` reads naturally.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "portable" | "scalar" => Some(BackendKind::Portable),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// The process-wide default, decided once and cached:
    ///
    /// 1. `NEO_BACKEND=portable|scalar|simd` wins outright (unknown values
    ///    are ignored, not errors — benches sweep this variable);
    /// 2. otherwise [`BackendKind::Simd`] when it has a faster path on this
    ///    CPU: AVX-512 IFMA detected at runtime (stable builds included),
    ///    or the `simd` feature compiled in with AVX2 detected;
    /// 3. otherwise [`BackendKind::Portable`].
    pub fn detect() -> Self {
        static DETECTED: LazyLock<BackendKind> = LazyLock::new(|| {
            if let Ok(v) = std::env::var("NEO_BACKEND") {
                if let Some(kind) = BackendKind::parse(&v) {
                    return kind;
                }
            }
            if simd::lanes_available() {
                return BackendKind::Simd;
            }
            BackendKind::Portable
        });
        *DETECTED
    }
}

impl Default for BackendKind {
    fn default() -> Self {
        BackendKind::detect()
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Returns the backend implementation for `kind`. Both implementations are
/// zero-sized, so this is a static dispatch table, not an allocation.
pub fn get(kind: BackendKind) -> &'static dyn ComputeBackend {
    match kind {
        BackendKind::Portable => &PortableBackend,
        BackendKind::Simd => &SimdBackend,
    }
}

/// The arithmetic inner loops of the hot kernels.
///
/// Contract highlights (see module docs for the bit-identity argument):
///
/// * NTT stage methods operate on the Harvey lazy window: inputs `< 4q`,
///   outputs `< 4q`, with `q < 2^62`. They return the number of
///   butterflies executed, tallied from their own loop structure, so the
///   driver's `NttButterflies` counter reflects real work for *any*
///   backend.
/// * `ntt_fwd_stage_final` and `ntt_scale` emit canonical `[0, q)` values.
/// * `mul_const` accepts **arbitrary** `u64` inputs (Shoup multiplication
///   is sound for any multiplicand) and emits canonical values.
/// * `bconv_ip`, `mul_sum` and `gemm` compute exact integer sums before
///   reducing, so their outputs are independent of association order.
pub trait ComputeBackend: Send + Sync {
    /// Which [`BackendKind`] this implementation answers to.
    fn kind(&self) -> BackendKind;

    /// Short diagnostic name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Merged ψ-twist + first butterfly stage of the forward NTT: for each
    /// adjacent pair `(x[2i], x[2i+1])`, both operands take one lazy Shoup
    /// multiply by `psi_rev[2i]`/`psi_rev[2i+1]` (landing in `[0, 2q)`),
    /// then the size-2 butterfly. Returns butterflies executed (`n/2`).
    fn ntt_twist_stage(&self, m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64;

    /// One middle forward stage of span `size`: every `size`-length block
    /// runs `size/2` lazy butterflies against the stage-major twiddles
    /// `stage` (`stage.len() == size/2`, `stage[0]` is `ω⁰ = 1`). Inputs
    /// and outputs stay in `[0, 4q)`. Returns butterflies executed.
    fn ntt_fwd_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64;

    /// The last forward stage (span `x.len()`) with the final
    /// `[0, 4q) → [0, q)` reduction folded into the butterfly outputs.
    /// Returns butterflies executed (`x.len()/2`).
    fn ntt_fwd_stage_final(&self, m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64;

    /// One inverse stage of span `size` (identical butterfly recurrence to
    /// [`ntt_fwd_stage`](Self::ntt_fwd_stage), kept distinct because the
    /// inverse runs *every* stage through it, including `size == 2` and
    /// `size == n`). Returns butterflies executed.
    fn ntt_inv_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64;

    /// Merged untwist-and-scale of the inverse NTT: `x[i] = x[i] · tw[i]`
    /// as a full Shoup multiply, accepting the stage loop's unreduced
    /// `[0, 4q)` values and emitting canonical `[0, q)`.
    fn ntt_scale(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]);

    /// Element-wise constant multiply `out[i] = (x[i] · s.w) mod m`,
    /// accepting arbitrary (even unreduced) `x` and emitting canonical
    /// values — the bconv residue-scaling step.
    fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]);

    /// BConv inner product across source limbs:
    /// `out[c] = (Σ_i ys[i][c] · w[i]) mod t`, the sum taken exactly in
    /// 128 bits. `ys` are the scaled residue rows, `w` the `q̂_i mod t`
    /// column (`ys.len() == w.len()`, every row as long as `out`).
    ///
    /// `y_bound` is a caller-certified *exclusive* upper bound on every
    /// `ys` element (the largest source modulus). Backends may use it to
    /// select narrower multiply paths — e.g. the AVX-512 IFMA inner
    /// product, which needs both factors below `2^52` — without scanning
    /// the data. Passing a bound that the data violates is a logic error
    /// (outputs may be wrong, never unsound); `u64::MAX` is always safe.
    fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], y_bound: u64, w: &[u64], out: &mut [u64]);

    /// Inner product of pointwise products:
    /// `out[c] = (Σ_i a[i][c] · b[i][c]) mod m`, the sum taken exactly and
    /// reduced once — the key-switch IP and the HMult tensor. Every row
    /// is as long as `out` and holds reduced values (`< m`);
    /// `a.len() == b.len()`.
    fn mul_sum(&self, m: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]);

    /// Blocked deferred-reduction modular GEMM: `out = a·b (mod q)` for
    /// row-major `m×k` / `k×n` operands with reduced entries. Dimension
    /// checks and work-counter tallies are the caller's job
    /// (`neo-tcu::gemm` keeps them engine-side so every engine pays the
    /// same accounting).
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
}

/// The accumulation span: how many products of reduced operands fit in a
/// `u128` accumulator without wrapping (`span·(q-1)² + (q-1) ≤
/// u128::MAX`). Shared by both backends so their GEMM fold schedules — and
/// thus their exact per-span sums — coincide.
pub(crate) fn gemm_span(q: &Modulus) -> usize {
    let qm1 = u128::from(q.value() - 1);
    usize::try_from((u128::MAX - qm1) / (qm1 * qm1).max(1))
        .unwrap_or(usize::MAX)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes;
    use rand::{Rng, SeedableRng};

    fn modulus(bits: u32) -> Modulus {
        Modulus::new(primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap()
    }

    #[test]
    fn kind_parse_roundtrip() {
        for kind in [BackendKind::Portable, BackendKind::Simd] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(get(kind).kind(), kind);
            assert_eq!(get(kind).name(), kind.name());
        }
        assert_eq!(BackendKind::parse("SCALAR"), Some(BackendKind::Portable));
        assert_eq!(BackendKind::parse(" Simd "), Some(BackendKind::Simd));
        assert_eq!(BackendKind::parse("cuda"), None);
    }

    #[test]
    fn detect_is_stable_within_a_process() {
        assert_eq!(BackendKind::detect(), BackendKind::detect());
        assert_eq!(BackendKind::default(), BackendKind::detect());
    }

    /// Without an override, the default is SIMD exactly when it has a
    /// faster path here: AVX-512 IFMA, or the nightly lanes.
    #[test]
    fn detect_picks_simd_exactly_when_lanes_exist() {
        if std::env::var_os("NEO_BACKEND").is_none() {
            assert_eq!(
                BackendKind::detect() == BackendKind::Simd,
                simd::lanes_available()
            );
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512ifma") {
            assert!(simd::lanes_available());
            assert_eq!(SimdBackend::path(&modulus(49)), "ifma");
        }
        assert_eq!(
            SimdBackend::path(&modulus(51)),
            SimdBackend::fallback_path()
        );
    }

    /// The moduli the kernels are checked on: the 36-bit Q/P and 48-bit
    /// T word sizes, the 49- and 50-bit edge of the IFMA window
    /// (`4q < 2^52`) including the largest prime inside it, and 51/61-bit
    /// moduli that must route past it — plus a small 30-bit one.
    fn kernel_moduli() -> Vec<Modulus> {
        let largest = (0..(1u64 << 50))
            .rev()
            .find(|&q| primes::is_prime(q))
            .unwrap();
        let mut ms: Vec<Modulus> = [30u32, 36, 48, 49, 50, 51, 61]
            .into_iter()
            .map(modulus)
            .collect();
        ms.push(Modulus::new(largest).unwrap());
        ms
    }

    /// Every trait method agrees bit-for-bit across backends on random
    /// inputs, including unreduced `[0, 4q)` lazy values where the
    /// contract allows them, at every NTT degree from 2^4 to 2^14 (so the
    /// narrow `half ∈ {1, 2, 4}` stages run too) and at lengths that are
    /// not a multiple of the vector width.
    #[test]
    fn backends_agree_on_every_kernel() {
        let portable = get(BackendKind::Portable);
        let simd = get(BackendKind::Simd);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for m in kernel_moduli() {
            let q = m.value();
            let bits = m.bits();
            for log_n in 4..=14 {
                let n = 1usize << log_n;
                let lazy: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4 * q)).collect();
                let tw: Vec<ShoupMul> = (0..n).map(|_| m.shoup(rng.gen_range(0..q))).collect();

                // Stage kernels (uniform-twiddle path needs stage[0] = shoup(1)
                // to match the canonical-twiddle layout the plans provide).
                for size in (1..=log_n).map(|k| 1usize << k) {
                    let mut stage: Vec<ShoupMul> = (0..size / 2)
                        .map(|_| m.shoup(rng.gen_range(0..q)))
                        .collect();
                    stage[0] = m.shoup(1);
                    let (mut a, mut b) = (lazy.clone(), lazy.clone());
                    if size >= 4 {
                        assert_eq!(
                            portable.ntt_fwd_stage(&m, &mut a, size, &stage),
                            simd.ntt_fwd_stage(&m, &mut b, size, &stage)
                        );
                        // Lazy representatives may differ; canonical values not.
                        for (&x, &y) in a.iter().zip(&b) {
                            assert_eq!(x % q, y % q, "fwd stage size={size} bits={bits}");
                            assert!(x < 4 * q && y < 4 * q);
                        }
                    }
                    let (mut a, mut b) = (lazy.clone(), lazy.clone());
                    assert_eq!(
                        portable.ntt_inv_stage(&m, &mut a, size, &stage),
                        simd.ntt_inv_stage(&m, &mut b, size, &stage)
                    );
                    assert_eq!(a, b, "inv stage size={size} bits={bits}");
                }
                let stage: Vec<ShoupMul> =
                    (0..n / 2).map(|_| m.shoup(rng.gen_range(0..q))).collect();
                let (mut a, mut b) = (lazy.clone(), lazy.clone());
                assert_eq!(
                    portable.ntt_fwd_stage_final(&m, &mut a, &stage),
                    simd.ntt_fwd_stage_final(&m, &mut b, &stage)
                );
                assert_eq!(a, b, "final stage n={n} bits={bits}");
                assert!(a.iter().all(|&v| v < q));

                let (mut a, mut b) = (lazy.clone(), lazy.clone());
                assert_eq!(
                    portable.ntt_twist_stage(&m, &mut a, &tw),
                    simd.ntt_twist_stage(&m, &mut b, &tw)
                );
                for (&x, &y) in a.iter().zip(&b) {
                    assert_eq!(x % q, y % q, "twist n={n} bits={bits}");
                }

                let (mut a, mut b) = (lazy.clone(), lazy.clone());
                portable.ntt_scale(&m, &mut a, &tw);
                simd.ntt_scale(&m, &mut b, &tw);
                assert_eq!(a, b, "scale n={n} bits={bits}");
                assert!(a.iter().all(|&v| v < q));
            }

            for len in [1usize, 5, 13, 64 + 3, 1000 + 7] {
                let s = m.shoup(rng.gen_range(0..q));
                // Arbitrary words, then reduced ones: the IFMA path takes
                // only chunks below 2^52.
                for raw in [
                    (0..len).map(|_| rng.gen()).collect::<Vec<u64>>(),
                    (0..len).map(|_| rng.gen_range(0..q)).collect(),
                ] {
                    let (mut a, mut b) = (vec![0u64; len], vec![0u64; len]);
                    portable.mul_const(&m, s, &raw, &mut a);
                    simd.mul_const(&m, s, &raw, &mut b);
                    assert_eq!(a, b, "mul_const len={len} bits={bits}");
                }

                for terms in [1usize, 2, 5] {
                    let rows: Vec<Vec<u64>> = (0..2 * terms)
                        .map(|_| (0..len).map(|_| rng.gen_range(0..q)).collect())
                        .collect();
                    let (xs, ys) = rows.split_at(terms);
                    let xs: Vec<&[u64]> = xs.iter().map(Vec::as_slice).collect();
                    let ys: Vec<&[u64]> = ys.iter().map(Vec::as_slice).collect();
                    let w: Vec<u64> = (0..terms).map(|_| rng.gen_range(0..q)).collect();
                    let (mut a, mut b) = (vec![0u64; len], vec![0u64; len]);
                    portable.bconv_ip(&m, &xs, q, &w, &mut a);
                    simd.bconv_ip(&m, &xs, q, &w, &mut b);
                    assert_eq!(a, b, "bconv_ip len={len} terms={terms} bits={bits}");

                    let (mut a, mut b) = (vec![0u64; len], vec![0u64; len]);
                    portable.mul_sum(&m, &xs, &ys, &mut a);
                    simd.mul_sum(&m, &xs, &ys, &mut b);
                    assert_eq!(a, b, "mul_sum len={len} terms={terms} bits={bits}");
                    let expect: Vec<u64> = (0..len)
                        .map(|c| {
                            xs.iter()
                                .zip(&ys)
                                .fold(0, |acc, (x, y)| m.add(acc, m.mul(x[c], y[c])))
                        })
                        .collect();
                    assert_eq!(a, expect, "mul_sum is the modular inner product");
                }
            }

            let (gm, gk, gn) = (5usize, 600usize, 19usize);
            let ga: Vec<u64> = (0..gm * gk).map(|_| rng.gen_range(0..q)).collect();
            let gb: Vec<u64> = (0..gk * gn).map(|_| rng.gen_range(0..q)).collect();
            let (mut a, mut b) = (vec![0u64; gm * gn], vec![0u64; gm * gn]);
            portable.gemm(&m, &ga, &gb, gm, gk, gn, &mut a);
            simd.gemm(&m, &ga, &gb, gm, gk, gn, &mut b);
            assert_eq!(a, b, "gemm bits={bits}");
        }
    }
}
