//! Cross-backend bit-identity: the portable and SIMD compute backends
//! must produce byte-for-byte equal outputs on every kernel the
//! [`neo_math::ComputeBackend`] seam covers — forward/inverse NTT, RNS
//! base conversion, and the element-wise and inner-product limb kernels —
//! across random primes and degrees. Equality of canonical outputs (not
//! just congruence) is the contract that makes the backend a pure
//! throughput knob: ABFT checksums, integrity tokens, and golden test
//! vectors all remain valid regardless of which backend computed them.
//! The one host GEMM, ABFT-checked, is pinned to its oracle here too.

use neo_math::{BackendKind, BconvTable, Modulus, RnsBasis};
use neo_ntt::{radix2, NttPlan};
use neo_tcu::{reference_gemm, CheckedGemm, ScalarGemm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vec(rng: &mut StdRng, len: usize, q: u64) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(0..q)).collect()
}

proptest! {
    // Each case builds fresh plans at large degrees; keep the counts low
    // (the deterministic #[test] cases below pin the n = 2^14 corner).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forward and inverse NTT agree bit-for-bit across backends, and the
    /// SIMD round trip restores the input exactly.
    #[test]
    fn ntt_is_bit_identical_across_backends(
        seed in any::<u64>(),
        bits in 30u32..=59,
        log_n in 10u32..=13,
    ) {
        let n = 1usize << log_n;
        let q = neo_math::primes::ntt_primes(bits, n, 1).unwrap()[0];
        let portable = NttPlan::with_backend(q, n, BackendKind::Portable).unwrap();
        let simd = NttPlan::with_backend(q, n, BackendKind::Simd).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(&mut rng, n, q);
        let (mut fp, mut fs) = (a.clone(), a.clone());
        radix2::forward(&portable, &mut fp);
        radix2::forward(&simd, &mut fs);
        prop_assert_eq!(&fp, &fs, "forward diverged (q={}, n={})", q, n);
        radix2::inverse(&portable, &mut fp);
        radix2::inverse(&simd, &mut fs);
        prop_assert_eq!(&fp, &fs, "inverse diverged (q={}, n={})", q, n);
        prop_assert_eq!(&fs, &a, "round trip lost the input");
    }

    /// Exact and approximate base conversion agree bit-for-bit.
    #[test]
    fn bconv_is_bit_identical_across_backends(
        seed in any::<u64>(),
        src_limbs in 2usize..=4,
        dst_limbs in 2usize..=4,
        n in 33usize..=257,
    ) {
        let src = RnsBasis::new(
            &neo_math::primes::ntt_primes(36, 1 << 10, src_limbs).unwrap(),
        ).unwrap();
        let dst = RnsBasis::new(
            &neo_math::primes::ntt_primes(40, 1 << 10, dst_limbs).unwrap(),
        ).unwrap();
        let portable = BconvTable::new(&src, &dst).unwrap().with_backend(BackendKind::Portable);
        let simd = BconvTable::new(&src, &dst).unwrap().with_backend(BackendKind::Simd);
        let mut rng = StdRng::seed_from_u64(seed);
        let limbs: Vec<Vec<u64>> = src
            .moduli()
            .iter()
            .map(|m| random_vec(&mut rng, n, m.value()))
            .collect();
        prop_assert_eq!(portable.convert_exact(&limbs), simd.convert_exact(&limbs));
        prop_assert_eq!(portable.convert_approx(&limbs), simd.convert_approx(&limbs));
        prop_assert_eq!(portable.scale_limbs(&limbs), simd.scale_limbs(&limbs));
    }

    /// The ABFT-verified host GEMM accepts its own products and they are
    /// bit-identical to the fully-reduced oracle, across random 30–61-bit
    /// primes and shapes.
    #[test]
    fn gemm_verified_matches_reference_at_every_word_size(
        seed in any::<u64>(),
        bits in 30u32..=61,
        m in 1usize..16,
        k in 1usize..80,
        n in 1usize..16,
    ) {
        let q = Modulus::new(
            neo_math::primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0],
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(&mut rng, m * k, q.value());
        let b = random_vec(&mut rng, k * n, q.value());
        let (mut got, mut want) = (vec![0u64; m * n], vec![0u64; m * n]);
        CheckedGemm::new(ScalarGemm)
            .gemm_verified(&q, &a, &b, m, k, n, &mut got)
            .unwrap();
        reference_gemm(&q, &a, &b, m, k, n, &mut want);
        prop_assert_eq!(got, want);
    }
}

/// Every NTT degree from 2^4 to 2^14 (so the narrow `half ∈ {1, 2, 4}`
/// stages and sub-vector degrees run), at the Q/P and T word sizes, at
/// the edge of the IFMA window (49 bits and the largest NTT prime below
/// 2^50, i.e. with `4q < 2^52`) and just past it (51 bits, which must
/// route to the fallback kernels).
#[test]
fn ntt_is_bit_identical_at_every_degree_and_word_size() {
    let mut rng = StdRng::seed_from_u64(0x1f_3a);
    for bits in [36u32, 48, 49, 50, 51] {
        for log_n in 4..=14 {
            let n = 1usize << log_n;
            let q = neo_math::primes::ntt_primes(bits, n, 1).unwrap()[0];
            let portable = NttPlan::with_backend(q, n, BackendKind::Portable).unwrap();
            let simd = NttPlan::with_backend(q, n, BackendKind::Simd).unwrap();
            let a = random_vec(&mut rng, n, q);
            let (mut fp, mut fs) = (a.clone(), a.clone());
            radix2::forward(&portable, &mut fp);
            radix2::forward(&simd, &mut fs);
            assert_eq!(fp, fs, "forward diverged (bits={bits}, n={n})");
            radix2::inverse(&portable, &mut fp);
            radix2::inverse(&simd, &mut fs);
            assert_eq!(fp, fs, "inverse diverged (bits={bits}, n={n})");
            assert_eq!(fs, a, "round trip lost the input (bits={bits}, n={n})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The element-wise and inner-product kernels agree bit-for-bit at
    /// lengths that are rarely a multiple of the 8-lane vector width, on
    /// both sides of the IFMA window.
    #[test]
    fn limb_kernels_are_bit_identical_at_any_length(
        seed in any::<u64>(),
        bits_at in 0usize..6,
        len in 1usize..=100,
        terms in 1usize..=6,
    ) {
        let bits = [36u32, 48, 49, 50, 51, 60][bits_at];
        let m = Modulus::new(neo_math::primes::ntt_primes(bits, 1 << 10, 1).unwrap()[0]).unwrap();
        let q = m.value();
        let (portable, simd) = (
            neo_math::backend::get(BackendKind::Portable),
            neo_math::backend::get(BackendKind::Simd),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let s = m.shoup(rng.gen_range(0..q));
        let raw: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
        let (mut a, mut b) = (vec![0u64; len], vec![0u64; len]);
        portable.mul_const(&m, s, &raw, &mut a);
        simd.mul_const(&m, s, &raw, &mut b);
        prop_assert_eq!(&a, &b, "mul_const");

        let rows: Vec<Vec<u64>> = (0..2 * terms).map(|_| random_vec(&mut rng, len, q)).collect();
        let xs: Vec<&[u64]> = rows[..terms].iter().map(Vec::as_slice).collect();
        let ys: Vec<&[u64]> = rows[terms..].iter().map(Vec::as_slice).collect();
        let w = random_vec(&mut rng, terms, q);
        portable.bconv_ip(&m, &xs, q, &w, &mut a);
        simd.bconv_ip(&m, &xs, q, &w, &mut b);
        prop_assert_eq!(&a, &b, "bconv_ip");
        portable.mul_sum(&m, &xs, &ys, &mut a);
        simd.mul_sum(&m, &xs, &ys, &mut b);
        prop_assert_eq!(&a, &b, "mul_sum");
    }
}

/// The acceptance corner pinned deterministically: `n = 2^14` forward and
/// inverse NTT, bit-identical across backends at a 55-bit prime.
#[test]
fn ntt_n16384_bit_identity() {
    let n = 1usize << 14;
    let q = neo_math::primes::ntt_primes(55, n, 1).unwrap()[0];
    let portable = NttPlan::with_backend(q, n, BackendKind::Portable).unwrap();
    let simd = NttPlan::with_backend(q, n, BackendKind::Simd).unwrap();
    let mut rng = StdRng::seed_from_u64(16384);
    let a = random_vec(&mut rng, n, q);
    let (mut fp, mut fs) = (a.clone(), a.clone());
    radix2::forward(&portable, &mut fp);
    radix2::forward(&simd, &mut fs);
    assert_eq!(fp, fs);
    radix2::inverse(&simd, &mut fs);
    assert_eq!(fs, a);
}

/// Fault-matrix spot run against the SIMD backend: an injected NTT-stage
/// fault inside a SIMD-backed CKKS engine is still detected by the ABFT
/// spot checks — detection does not depend on which backend computed the
/// transform.
#[test]
fn simd_engine_detects_injected_ntt_fault() {
    use neo_ckks::{encoding::Complex64, CkksParams, ErrorKind, FheEngine, OpPolicy, VerifyPolicy};
    use neo_fault::{FaultPlan, FaultScope, FaultSite, FaultSpec};
    use std::sync::Arc;

    let mut params = CkksParams::test_tiny();
    params.backend = BackendKind::Simd;
    // Engine ops install their own VerifyScope from the policy, so the
    // always-verify request must live there.
    let engine = FheEngine::new(params, 7).unwrap().with_policy(OpPolicy {
        verify: VerifyPolicy::Always,
        ..OpPolicy::default()
    });
    assert_eq!(engine.backend(), BackendKind::Simd);
    // Encode outside the armed window so the single fault lands inside
    // the encryption's NTTs, not the encoder's.
    let pt = engine
        .encode(&[Complex64::new(0.5, -1.25)], engine.max_level())
        .unwrap();

    let plan = Arc::new(FaultPlan::new(0xf00d).with_site(FaultSite::NttStage, FaultSpec::once()));
    let scope = FaultScope::install(plan.clone());
    let result = engine.encrypt(&pt);
    drop(scope);
    assert_eq!(
        plan.injected(FaultSite::NttStage),
        1,
        "fault was not injected"
    );
    let err = result.expect_err("injected NTT fault must be detected under SIMD");
    assert_eq!(err.kind(), ErrorKind::FaultDetected);
}
