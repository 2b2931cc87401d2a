//! `backend_bench` — portable vs SIMD compute-backend comparison on the
//! hot kernels the [`neo_math::ComputeBackend`] seam covers: the
//! negacyclic NTT at `n = 2^13` on the 36-bit Q/P and 48-bit T word sizes
//! and at `n = 2^14` on a 55-bit prime, the exact RNS base conversion,
//! the key-switch inner product (`mul_sum`) and the 256×256×256 modular
//! GEMM.
//!
//! Before timing, every kernel's SIMD output is asserted bit-identical to
//! the portable output on the same inputs — the numbers are only
//! meaningful because the results are interchangeable. Each row records
//! the path the SIMD backend took (`ifma`, `vector` or `scalar`; see
//! [`SimdBackend::path`]): the 55-bit NTT and the GEMM fall outside the
//! IFMA window and time the fallback kernels.
//!
//! Timing budget comes from the shared `NEO_BENCH_WARMUP_MS` /
//! `NEO_BENCH_MEASURE_MS` / `NEO_BENCH_SAMPLES` knobs (see
//! [`neo_bench::measure`]). Artifacts: `BENCH_simd.json` at the repo root
//! and `results/backend_bench.json`.

use neo_bench::measure::{self, MeasureConfig, Measurement};
use neo_bench::{emit, ratio};
use neo_math::{BackendKind, Modulus, RnsBasis, SimdBackend};
use neo_ntt::{radix2, NttPlan};
use neo_tcu::{BackendGemm, GemmEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

fn stats_json(m: &Measurement) -> serde_json::Value {
    json!({
        "min_us": m.min_ns / 1e3,
        "median_us": m.median_ns / 1e3,
        "mean_us": m.mean_ns / 1e3,
        "max_us": m.max_ns / 1e3,
        "samples": m.samples,
    })
}

fn main() {
    let cfg = MeasureConfig::from_env();
    let mut human = format!(
        "Compute-backend comparison (portable vs simd)\n\
         warmup {:?}, measure {:?}, {} samples\n\n\
         kernel                 | simd path | portable med | simd med     | speedup\n\
         -----------------------+-----------+--------------+--------------+--------\n",
        cfg.warmup, cfg.measure, cfg.samples
    );
    let mut rows = Vec::new();
    let mut push_row = |human: &mut String,
                        name: &str,
                        path: &str,
                        portable: Measurement,
                        simd: Measurement,
                        extra: serde_json::Value| {
        let speedup = ratio(portable.median_ns, simd.median_ns);
        human.push_str(&format!(
            "{name:22} | {path:9} | {:9.1} us | {:9.1} us | {speedup:6.2}x\n",
            portable.median_ns / 1e3,
            simd.median_ns / 1e3
        ));
        rows.push(json!({
            "kernel": name,
            "simd_path": path,
            "portable": stats_json(&portable),
            "simd": stats_json(&simd),
            "speedup_simd_vs_portable": speedup,
            "config": extra,
        }));
    };
    let mut rng = StdRng::seed_from_u64(0xbe);

    // --- Forward and inverse NTT at the KLSS word sizes and a 55-bit prime. ---
    for (log_n, bits) in [(13u32, 36u32), (13, 48), (14, 55)] {
        let n = 1usize << log_n;
        let q = neo_math::primes::ntt_primes(bits, n, 1).unwrap()[0];
        let plan_portable = NttPlan::with_backend(q, n, BackendKind::Portable).unwrap();
        let plan_simd = NttPlan::with_backend(q, n, BackendKind::Simd).unwrap();
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let (mut xp, mut xs) = (a.clone(), a.clone());
        radix2::forward(&plan_portable, &mut xp);
        radix2::forward(&plan_simd, &mut xs);
        assert_eq!(xp, xs, "SIMD forward NTT diverged from portable");
        let evals = xs.clone();
        radix2::inverse(&plan_simd, &mut xs);
        assert_eq!(xs, a, "SIMD inverse NTT is not the inverse of forward");
        let path = SimdBackend::path(&Modulus::new(q).unwrap());
        let config = json!({ "n": n, "prime_bits": bits });
        let time = |plan: &NttPlan, inverse: bool| {
            measure::time(&cfg, || {
                let mut x = if inverse { evals.clone() } else { a.clone() };
                if inverse {
                    radix2::inverse(plan, &mut x);
                } else {
                    radix2::forward(plan, &mut x);
                }
                x
            })
        };
        push_row(
            &mut human,
            &format!("ntt_forward_n{n}_{bits}b"),
            path,
            time(&plan_portable, false),
            time(&plan_simd, false),
            config.clone(),
        );
        push_row(
            &mut human,
            &format!("ntt_inverse_n{n}_{bits}b"),
            path,
            time(&plan_portable, true),
            time(&plan_simd, true),
            config,
        );
    }

    // --- Exact base conversion, 3 -> 4 limbs at n = 2^14. ---
    let n = 1usize << 14;
    let src = RnsBasis::new(&neo_math::primes::ntt_primes(36, n, 3).unwrap()).unwrap();
    let dst = RnsBasis::new(&neo_math::primes::ntt_primes(40, n, 4).unwrap()).unwrap();
    let table_portable = neo_math::BconvTable::new(&src, &dst)
        .unwrap()
        .with_backend(BackendKind::Portable);
    let table_simd = neo_math::BconvTable::new(&src, &dst)
        .unwrap()
        .with_backend(BackendKind::Simd);
    let limbs: Vec<Vec<u64>> = src
        .moduli()
        .iter()
        .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
        .collect();
    assert_eq!(
        table_portable.convert_exact(&limbs),
        table_simd.convert_exact(&limbs),
        "SIMD bconv diverged from portable"
    );
    let bconv_portable = measure::time(&cfg, || table_portable.convert_exact(&limbs));
    let bconv_simd = measure::time(&cfg, || table_simd.convert_exact(&limbs));
    push_row(
        &mut human,
        "bconv_exact_3to4",
        SimdBackend::path(&dst.moduli()[0]),
        bconv_portable,
        bconv_simd,
        json!({ "n": n, "src_limbs": 3, "src_bits": 36, "dst_limbs": 4, "dst_bits": 40 }),
    );

    // --- Key-switch inner product: 3 terms over one 48-bit limb, n = 2^13. ---
    let n = 1usize << 13;
    let t = Modulus::new(neo_math::primes::ntt_primes(48, n, 1).unwrap()[0]).unwrap();
    let limbs: Vec<Vec<u64>> = (0..6)
        .map(|_| (0..n).map(|_| rng.gen_range(0..t.value())).collect())
        .collect();
    let xs: Vec<&[u64]> = limbs[..3].iter().map(Vec::as_slice).collect();
    let ys: Vec<&[u64]> = limbs[3..].iter().map(Vec::as_slice).collect();
    let ip = |kind: BackendKind| {
        let mut out = vec![0u64; n];
        neo_math::backend::get(kind).mul_sum(&t, &xs, &ys, &mut out);
        out
    };
    assert_eq!(
        ip(BackendKind::Portable),
        ip(BackendKind::Simd),
        "SIMD inner product diverged from portable"
    );
    push_row(
        &mut human,
        "ip_mul_sum_3terms",
        SimdBackend::path(&t),
        measure::time(&cfg, || ip(BackendKind::Portable)),
        measure::time(&cfg, || ip(BackendKind::Simd)),
        json!({ "n": n, "terms": 3, "prime_bits": 48 }),
    );

    // --- 256x256x256 modular GEMM, 55-bit prime. ---
    let dim = 256usize;
    let qm = Modulus::new(neo_math::primes::ntt_primes(55, 1 << 14, 1).unwrap()[0]).unwrap();
    let q = qm.value();
    let ga: Vec<u64> = (0..dim * dim).map(|_| rng.gen_range(0..q)).collect();
    let gb: Vec<u64> = (0..dim * dim).map(|_| rng.gen_range(0..q)).collect();
    let engine_portable = BackendGemm::new(BackendKind::Portable);
    let engine_simd = BackendGemm::new(BackendKind::Simd);
    let (mut cp, mut cs) = (vec![0u64; dim * dim], vec![0u64; dim * dim]);
    engine_portable.gemm(&qm, &ga, &gb, dim, dim, dim, &mut cp);
    engine_simd.gemm(&qm, &ga, &gb, dim, dim, dim, &mut cs);
    assert_eq!(cp, cs, "SIMD GEMM diverged from portable");
    let gemm_portable = measure::time(&cfg, || {
        let mut out = vec![0u64; dim * dim];
        engine_portable.gemm(&qm, &ga, &gb, dim, dim, dim, &mut out);
        out
    });
    let gemm_simd = measure::time(&cfg, || {
        let mut out = vec![0u64; dim * dim];
        engine_simd.gemm(&qm, &ga, &gb, dim, dim, dim, &mut out);
        out
    });
    push_row(
        &mut human,
        "gemm_256",
        SimdBackend::fallback_path(),
        gemm_portable,
        gemm_simd,
        json!({ "m": dim, "k": dim, "n": dim, "prime_bits": 55 }),
    );

    let doc = json!({
        "description": "Portable vs SIMD compute-backend medians for the ComputeBackend \
                        hot kernels. Bit-identity is asserted on the bench inputs before \
                        timing. Re-run with: cargo run --release -p neo-bench --bin \
                        backend_bench (add +nightly ... --features simd for the std::simd \
                        fallback kernels).",
        "simd_feature": cfg!(feature = "simd"),
        "detected_default": BackendKind::detect().name(),
        "kernels": rows,
        "notes": [
            "Medians over NEO_BENCH_SAMPLES samples; the container shares its cores, so \
             absolute numbers drift between runs while same-run ratios are stable.",
            "simd_path is the path SimdBackend took for the row: ifma (AVX-512 IFMA, \
             4q < 2^52), vector (std::simd, nightly simd feature) or scalar (the portable \
             kernels, so the speedup is ~1.0).",
        ],
    });
    match serde_json::to_string_pretty(&doc) {
        Ok(s) => match std::fs::write("BENCH_simd.json", s) {
            Ok(()) => eprintln!("[wrote BENCH_simd.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_simd.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize BENCH_simd.json: {e}"),
    }
    emit("backend_bench", &human, doc);
}
