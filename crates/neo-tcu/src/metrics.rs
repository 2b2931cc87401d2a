//! `neo-metrics` integration: GEMM latency histograms and ABFT
//! verification counters.
//!
//! [`BackendGemm`](crate::gemm::BackendGemm) records per-call wall-clock
//! into `tcu_gemm_ns{engine}` (one histogram per backend kind, handles
//! cached in `LazyLock`s); [`verify_gemm`](crate::abft::verify_gemm)
//! counts checks and detections under `tcu_abft_checks_total` /
//! `tcu_abft_detections_total`. Everything is gated on
//! [`neo_metrics::enabled`] before a clock or handle is touched.

use neo_math::BackendKind;
use neo_metrics::{CounterHandle, Histogram};
use std::sync::{Arc, LazyLock};

static GEMM_NS_PORTABLE: LazyLock<Arc<Histogram>> =
    LazyLock::new(|| neo_metrics::histogram("tcu_gemm_ns", &[("engine", "portable")]));
static GEMM_NS_SIMD: LazyLock<Arc<Histogram>> =
    LazyLock::new(|| neo_metrics::histogram("tcu_gemm_ns", &[("engine", "simd")]));

/// ABFT verifications run.
pub(crate) static ABFT_CHECKS: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_metrics::counter("tcu_abft_checks_total", &[]));
/// ABFT verifications that detected corruption.
pub(crate) static ABFT_DETECTIONS: LazyLock<Arc<CounterHandle>> =
    LazyLock::new(|| neo_metrics::counter("tcu_abft_detections_total", &[]));

/// The latency histogram for a backend kind.
pub(crate) fn gemm_hist(kind: BackendKind) -> &'static Arc<Histogram> {
    match kind {
        BackendKind::Portable => &GEMM_NS_PORTABLE,
        BackendKind::Simd => &GEMM_NS_SIMD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{BackendGemm, GemmEngine};
    use neo_math::{primes, Modulus};

    #[test]
    fn backend_gemm_records_latency_and_abft_counts() {
        let _tally = crate::tally_lock();
        let q = Modulus::new(primes::ntt_primes(36, 8, 1).expect("primes")[0]).expect("modulus");
        let a = vec![1u64; 16];
        let b = vec![2u64; 16];
        let mut c = vec![0u64; 16];
        let engine = BackendGemm::new(BackendKind::Portable);

        neo_metrics::enable();
        let before = gemm_hist(BackendKind::Portable).count();
        let checks_before = ABFT_CHECKS.get();
        engine.gemm(&q, &a, &b, 4, 4, 4, &mut c);
        crate::abft::verify_gemm(&q, &a, &b, 4, 4, 4, &c).expect("clean gemm verifies");
        neo_metrics::disable();

        assert_eq!(gemm_hist(BackendKind::Portable).count(), before + 1);
        assert_eq!(ABFT_CHECKS.get(), checks_before + 1);

        // Corrupt one limb: the check fails and the detection counter moves.
        neo_metrics::enable();
        let det_before = ABFT_DETECTIONS.get();
        c[5] ^= 1 << 17;
        assert!(crate::abft::verify_gemm(&q, &a, &b, 4, 4, 4, &c).is_err());
        neo_metrics::disable();
        assert_eq!(ABFT_DETECTIONS.get(), det_before + 1);
    }
}
