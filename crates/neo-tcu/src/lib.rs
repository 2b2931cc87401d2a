//! Tensor-core (TCU) emulation for the Neo reproduction.
//!
//! NVIDIA tensor cores execute fixed-shape fragment matrix-multiply-
//! accumulate (MMA) operations. The A100 supports, among others:
//!
//! * `FP64` fragments of shape **8×8×4** (Neo's workhorse), and
//! * `INT8` fragments of shape **16×16×16**, **32×8×16**, **8×32×16**
//!   (TensorFHE's choice).
//!
//! Neither data type can represent a 36- or 48-bit CKKS limb directly, so
//! modular GEMMs are *emulated* by splitting operands into low-bit planes,
//! running one fragment GEMM per plane pair, and merging the partial
//! products with shifts before modular reduction (Section 3.4 of the
//! paper). This crate reproduces that pipeline **bit-exactly** in software:
//!
//! * [`fragment`] — the raw fragment MMA semantics (f64 FMA grids, i32
//!   accumulating u8 products);
//! * [`split`] — the FP64 12/24-bit splitting schemes and INT8 byte planes,
//!   with exactness checks (`wa + wb + log2(K) ≤ 53`);
//! * [`gemm`] — the [`GemmEngine`] trait plus four engines: scalar
//!   reference, compute-backend (optionally vectorized), FP64-TCU, and
//!   INT8-TCU, all producing identical results;
//! * [`stats`] — Booth complexity, fragment counts, padding and the
//!   *valid proportion* metric of the paper's Fig. 12.
//!
//! # Example
//!
//! ```rust
//! use neo_math::Modulus;
//! use neo_tcu::{Fp64TcuGemm, GemmEngine, ScalarGemm};
//!
//! # fn main() -> Result<(), neo_math::MathError> {
//! let q = Modulus::new(neo_math::primes::ntt_primes(36, 1 << 10, 1)?[0])?;
//! let a = vec![123456789u64 % q.value(); 8 * 4];
//! let b = vec![987654321u64 % q.value(); 4 * 8];
//! let mut c_ref = vec![0u64; 8 * 8];
//! let mut c_tcu = vec![0u64; 8 * 8];
//! ScalarGemm.gemm(&q, &a, &b, 8, 4, 8, &mut c_ref);
//! Fp64TcuGemm::for_word_size(36).gemm(&q, &a, &b, 8, 4, 8, &mut c_tcu);
//! assert_eq!(c_ref, c_tcu);
//! # Ok(())
//! # }
//! ```

pub mod abft;
pub mod fragment;
pub mod gemm;
pub mod metrics;
pub mod multimod;
pub mod split;
pub mod stats;

pub use abft::{verify_gemm, CheckedGemm};
pub use fragment::{FragmentShape, FP64_FRAGMENT, INT8_FRAGMENTS};
pub use gemm::{reference_gemm, BackendGemm, Fp64TcuGemm, GemmEngine, Int8TcuGemm, ScalarGemm};
pub use multimod::{gemm_multi_mod_fp64, gemm_multi_mod_int8, gemm_multi_mod_scalar};
pub use split::{Fp64SplitScheme, Int8SplitScheme};
pub use stats::{booth_complexity_fp64, booth_complexity_int8, valid_proportion, GemmDims};

/// Serialises this crate's tests that run [`verify_gemm`] or
/// [`BackendGemm`] while asserting on process-global tallies (`neo-trace`
/// counters, `neo-metrics` handles): `cargo test` runs tests on parallel
/// threads, and a concurrent test's checks would leak into the delta.
#[cfg(test)]
pub(crate) fn tally_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the unit value needs no repair.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
