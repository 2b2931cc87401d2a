//! Lane-parallel backend.
//!
//! Each kernel call picks one of two paths, from the CPU and the modulus
//! it is given:
//!
//! 1. **AVX-512 IFMA** (the `ifma` module): when the CPU has `avx512ifma`
//!    and `4q < 2^52`, which every Q, P and T prime of the stock
//!    parameter sets meets. Covers every NTT method, `mul_const`,
//!    `bconv_ip` and `mul_sum` with 8-lane 52-bit multiply-accumulates.
//!    Shoup quotients are computed exactly, so even the inverse stages'
//!    lazy representatives match the portable kernels bit for bit.
//! 2. **Scalar**: otherwise, the [`PortableBackend`] kernels themselves.
//!
//! Whichever path runs, outputs are bit-identical to
//! [`PortableBackend`] under the [`ComputeBackend`] contract.
//! [`SimdBackend::path`] reports which path a modulus gets.

#[cfg(target_arch = "x86_64")]
use super::ifma::{self, Ifma};
use super::{BackendKind, ComputeBackend, PortableBackend};
use crate::{Modulus, ShoupMul};

/// Lane-parallel kernels: AVX-512 IFMA where the CPU and modulus allow,
/// otherwise the portable scalar kernels. Bit-identical to
/// [`PortableBackend`] at every kernel boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdBackend;

impl SimdBackend {
    /// The path the NTT and `mul_const` kernels take for modulus `m` in
    /// this process: `"ifma"` or `"scalar"`. `bconv_ip` and `mul_sum`
    /// follow the same rule as long as their factors fit 52 bits and they
    /// sum at most 4096 terms.
    pub fn path(m: &Modulus) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if Ifma::for_modulus(m).is_some() {
            return "ifma";
        }
        let _ = m;
        "scalar"
    }
}

/// True when [`BackendKind::Simd`] beats portable on this CPU: it has
/// AVX-512 IFMA.
pub(super) fn lanes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        Ifma::detect().is_some()
    }
    #[cfg(not(target_arch = "x86_64"))]
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
        PortableBackend.ntt_twist_stage(m, x, psi_rev)
    }

    fn ntt_fwd_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.stage(m, x, size, stage);
        }
        PortableBackend.ntt_fwd_stage(m, x, size, stage)
    }

    fn ntt_fwd_stage_final(&self, m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.stage_final(m, x, stage);
        }
        PortableBackend.ntt_fwd_stage_final(m, x, stage)
    }

    fn ntt_inv_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.stage(m, x, size, stage);
        }
        PortableBackend.ntt_inv_stage(m, x, size, stage)
    }

    fn ntt_scale(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.scale(m, x, tw);
        }
        PortableBackend.ntt_scale(m, x, tw)
    }

    fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Ifma::for_modulus(m) {
            return k.mul_const(m, s, x, out);
        }
        PortableBackend.mul_const(m, s, x, out)
    }

    fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], y_bound: u64, w: &[u64], out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if y_bound <= 1 << 52 && ys.len() <= ifma::MAX_TERMS {
            if let Some(k) = Ifma::for_modulus(t) {
                return k.bconv_ip(t, ys, w, out);
            }
        }
        PortableBackend.bconv_ip(t, ys, y_bound, w, out)
    }

    fn mul_sum(&self, m: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if a.len() <= ifma::MAX_TERMS {
            if let Some(k) = Ifma::for_modulus(m) {
                return k.mul_sum(m, a, b, out);
            }
        }
        PortableBackend.mul_sum(m, a, b, out)
    }
}
