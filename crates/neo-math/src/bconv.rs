//! RNS base conversion — the *BConv* primitive of the paper.
//!
//! Given residues of `x` in a source basis `Q = Π q_i`, BConv produces the
//! residues of (approximately) the same integer in a disjoint target basis
//! `T = Π t_j`:
//!
//! ```text
//!   BConv(x)_j = Σ_i [x_i · q̂_i⁻¹]_{q_i} · q̂_i  (mod t_j)
//! ```
//!
//! Two flavours are provided, matching how FHE implementations actually use
//! the primitive:
//!
//! * [`BconvTable::convert_approx`] — the *Mod Up* flavour: no correction, so
//!   the result represents `x + ε·Q` for some small `ε ∈ {0, …, k-1}`. CKKS
//!   key-switching tolerates this overshoot (it is annihilated or divided
//!   away by `P`).
//! * [`BconvTable::convert_exact`] — adds the floating-point correction term
//!   `−round(Σ y_i/q_i)·Q`, recovering the residues of `x` itself. Required
//!   by the KLSS *Recover Limbs* step, where an overshoot of `Q` would be a
//!   correctness bug rather than noise.
//!
//! The exact flavour is provably safe when the represented value keeps a
//! factor-2 margin below `Q` (the KLSS `T ≥ 2βN·B·B̃` budget guarantees
//! this): the fractional sum then stays at least `1/4` away from the `1/2`
//! rounding boundary while the f64 accumulation error is below `k·2⁻⁴⁰`.

use crate::backend::{self, BackendKind};
use crate::{MathError, RnsBasis};
use neo_trace::Counter;

/// Precomputed constants for converting from one RNS basis to another.
#[derive(Debug, Clone)]
pub struct BconvTable {
    src: RnsBasis,
    dst: RnsBasis,
    /// `q̂_i⁻¹ mod q_i` for the source basis.
    qhat_inv: Vec<u64>,
    /// `q̂_i mod t_j`, row i, col j.
    qhat_mod_dst: Vec<Vec<u64>>,
    /// `Q mod t_j` for the exact correction.
    q_mod_dst: Vec<u64>,
    /// `1.0 / q_i` for the correction accumulator.
    inv_q: Vec<f64>,
    /// Compute backend for the limb-wise scaling and inner-product loops.
    backend: BackendKind,
}

impl BconvTable {
    /// Builds the table from source to target basis.
    ///
    /// # Errors
    ///
    /// [`MathError::BasisMismatch`] if the bases share a prime (they must be
    /// coprime for CRT to make sense).
    pub fn new(src: &RnsBasis, dst: &RnsBasis) -> Result<Self, MathError> {
        for q in src.primes() {
            if dst.primes().contains(&q) {
                return Err(MathError::BasisMismatch(format!(
                    "source and target bases share prime {q}"
                )));
            }
        }
        let k = src.len();
        let qhat_inv = (0..k).map(|i| src.qhat_inv(i)).collect();
        let src_primes = src.primes();
        let mut qhat_mod_dst = vec![vec![0u64; dst.len()]; k];
        let mut q_mod_dst = vec![0u64; dst.len()];
        for (j, t) in dst.moduli().iter().enumerate() {
            for (i, row) in qhat_mod_dst.iter_mut().enumerate() {
                let mut acc = 1u64;
                for (u, &q) in src_primes.iter().enumerate() {
                    if u != i {
                        acc = t.mul(acc, t.reduce(q));
                    }
                }
                row[j] = acc;
            }
            let mut acc = 1u64;
            for &q in &src_primes {
                acc = t.mul(acc, t.reduce(q));
            }
            q_mod_dst[j] = acc;
        }
        let inv_q = src_primes.iter().map(|&q| 1.0 / q as f64).collect();
        Ok(Self {
            src: src.clone(),
            dst: dst.clone(),
            qhat_inv,
            qhat_mod_dst,
            q_mod_dst,
            inv_q,
            backend: BackendKind::detect(),
        })
    }

    /// Pins the limb-wise hot loops to `kind` (the constructor defaults to
    /// [`BackendKind::detect`]). Outputs are bit-identical across backends;
    /// only throughput differs.
    #[must_use]
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// The backend the limb-wise paths dispatch to.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Source basis.
    pub fn src(&self) -> &RnsBasis {
        &self.src
    }

    /// Target basis.
    pub fn dst(&self) -> &RnsBasis {
        &self.dst
    }

    /// Approximate conversion of a single coefficient.
    ///
    /// `x[i]` is the residue mod `q_i`; the result holds residues mod each
    /// `t_j` of `x + ε·Q`, `ε < src.len()`.
    pub fn convert_approx_coeff(&self, x: &[u64], out: &mut [u64]) {
        debug_assert_eq!(x.len(), self.src.len());
        debug_assert_eq!(out.len(), self.dst.len());
        let ys = self.scaled_residues(x);
        for (j, t) in self.dst.moduli().iter().enumerate() {
            let mut acc = 0u128;
            for (i, &y) in ys.iter().enumerate() {
                acc += y as u128 * self.qhat_mod_dst[i][j] as u128;
            }
            out[j] = t.reduce_u128(acc);
        }
    }

    /// Exact conversion of a single coefficient (floating-point corrected).
    ///
    /// Recovers residues of exactly `x` (as the unsigned integer in `[0,Q)`
    /// that the source residues represent). See the module docs for the
    /// precision argument.
    pub fn convert_exact_coeff(&self, x: &[u64], out: &mut [u64]) {
        debug_assert_eq!(x.len(), self.src.len());
        debug_assert_eq!(out.len(), self.dst.len());
        let ys = self.scaled_residues(x);
        let mut frac = 0.0f64;
        for (i, &y) in ys.iter().enumerate() {
            frac += y as f64 * self.inv_q[i];
        }
        let k = frac.round() as u64; // number of Q overshoots
        for (j, t) in self.dst.moduli().iter().enumerate() {
            let mut acc = 0u128;
            for (i, &y) in ys.iter().enumerate() {
                acc += y as u128 * self.qhat_mod_dst[i][j] as u128;
            }
            let raw = t.reduce_u128(acc);
            let corr = t.mul(t.reduce(k), self.q_mod_dst[j]);
            out[j] = t.sub(raw, corr);
        }
    }

    /// Approximate conversion of whole limbs (`x[limb][coeff]` layout),
    /// borrowed in place (`&[Vec<u64>]` or `&[&[u64]]`).
    ///
    /// # Panics
    ///
    /// Panics if limb counts do not match the table's bases.
    pub fn convert_approx<L: AsRef<[u64]>>(&self, x: &[L]) -> Vec<Vec<u64>> {
        self.convert_limbs(x, false)
    }

    /// Exact conversion of whole limbs (`x[limb][coeff]` layout),
    /// borrowed in place (`&[Vec<u64>]` or `&[&[u64]]`).
    ///
    /// # Panics
    ///
    /// Panics if limb counts do not match the table's bases.
    pub fn convert_exact<L: AsRef<[u64]>>(&self, x: &[L]) -> Vec<Vec<u64>> {
        self.convert_limbs(x, true)
    }

    /// Limb-major conversion on the pinned backend. Bit-identical to the
    /// coefficient-wise oracles: the scaling multiply lands on the same
    /// canonical residue as `mul(reduce(x), q̂⁻¹)`, the per-target inner
    /// product is an exact u128 sum (order-independent) reduced once, and
    /// the exact correction accumulates the fractional sum in the same
    /// source-limb order so the f64 rounding decision cannot differ.
    fn convert_limbs<L: AsRef<[u64]>>(&self, x: &[L], exact: bool) -> Vec<Vec<u64>> {
        assert_eq!(x.len(), self.src.len(), "source limb count mismatch");
        let n = x[0].as_ref().len();
        for limb in x {
            assert_eq!(limb.as_ref().len(), n, "ragged limb lengths");
        }
        let be = backend::get(self.backend);
        // y_i = [x_i · q̂_i⁻¹]_{q_i}, whole limbs at a time.
        let mut ys = vec![vec![0u64; n]; self.src.len()];
        for ((m, limb), (y, &hi)) in self
            .src
            .moduli()
            .iter()
            .zip(x)
            .zip(ys.iter_mut().zip(&self.qhat_inv))
        {
            be.mul_const(m, m.shoup(hi), limb.as_ref(), y);
        }
        let ys_rows: Vec<&[u64]> = ys.iter().map(Vec::as_slice).collect();
        // Overshoot counts for the exact flavour, fractional sums taken in
        // source-limb order per coefficient (same order as the oracle).
        let ks: Vec<u64> = if exact {
            let mut frac = vec![0.0f64; n];
            for (y, &inv) in ys.iter().zip(&self.inv_q) {
                for (f, &v) in frac.iter_mut().zip(y) {
                    *f += v as f64 * inv;
                }
            }
            frac.into_iter().map(|f| f.round() as u64).collect()
        } else {
            Vec::new()
        };
        let mut out = vec![vec![0u64; n]; self.dst.len()];
        let mut w = vec![0u64; self.src.len()];
        // Exclusive bound on the scaled residues: `mul_const` emits
        // canonical values, so the largest source modulus bounds every row.
        // Backends use this to pick narrower multiply paths (IFMA).
        let y_bound = self
            .src
            .moduli()
            .iter()
            .map(crate::Modulus::value)
            .max()
            .unwrap_or(u64::MAX);
        for (j, (t, limb)) in self.dst.moduli().iter().zip(out.iter_mut()).enumerate() {
            for (wi, row) in w.iter_mut().zip(&self.qhat_mod_dst) {
                *wi = row[j];
            }
            be.bconv_ip(t, &ys_rows, y_bound, &w, limb);
            if exact {
                let qj = self.q_mod_dst[j];
                // Each fractional term is < 1, so the overshoot count k is
                // at most src.len(): the correction multiples `k·q mod t`
                // come from a tiny table instead of a per-coefficient
                // Barrett multiply (same formula, so bit-identical).
                let kq: Vec<u64> = (0..=self.src.len() as u64)
                    .map(|k| t.mul(t.reduce(k), qj))
                    .collect();
                for (o, &k) in limb.iter_mut().zip(&ks) {
                    *o = t.sub(*o, kq[k as usize]);
                }
            }
        }
        // One MAC per (coeff, src, dst) triple plus the per-source residue
        // scaling; the exact flavour multiplies one correction per target.
        let (s, d) = (self.src.len() as u64, self.dst.len() as u64);
        neo_trace::add(Counter::ModMacs, n as u64 * s * d);
        neo_trace::add(Counter::ModMuls, n as u64 * (s + if exact { d } else { 0 }));
        out
    }

    /// The `α × α'` conversion matrix in row-major order:
    /// entry `(i, j)` is `q̂_i mod t_j`. This is the matrix `B` of the
    /// paper's Algorithm 2 (the matrix-multiplication BConv).
    pub fn qhat_matrix(&self) -> Vec<u64> {
        let (k, n) = (self.src.len(), self.dst.len());
        let mut out = vec![0u64; k * n];
        for i in 0..k {
            for j in 0..n {
                out[i * n + j] = self.qhat_mod_dst[i][j];
            }
        }
        out
    }

    /// Applies the per-limb scaling `y_i = [x_i · q̂_i⁻¹]_{q_i}` to whole
    /// limbs (the scalar-multiplication step of Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if the limb count differs from the source basis.
    pub fn scale_limbs(&self, x: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(x.len(), self.src.len(), "source limb count mismatch");
        let elems: u64 = x.iter().map(|l| l.len() as u64).sum();
        neo_trace::add(Counter::ModMuls, elems);
        let be = backend::get(self.backend);
        self.src
            .moduli()
            .iter()
            .zip(x)
            .zip(&self.qhat_inv)
            .map(|((m, limb), &hi)| {
                let mut y = vec![0u64; limb.len()];
                be.mul_const(m, m.shoup(hi), limb, &mut y);
                y
            })
            .collect()
    }

    /// `[x_i · q̂_i⁻¹]_{q_i}` for each source limb.
    fn scaled_residues(&self, x: &[u64]) -> Vec<u64> {
        self.src
            .moduli()
            .iter()
            .zip(x)
            .zip(&self.qhat_inv)
            .map(|((m, &xi), &hi)| m.mul(m.reduce(xi), hi))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{primes, BigUint};

    fn bases() -> (RnsBasis, RnsBasis) {
        let qs = primes::ntt_primes(36, 1 << 10, 3).unwrap();
        let ts = primes::ntt_primes(40, 1 << 10, 4).unwrap();
        (RnsBasis::new(&qs).unwrap(), RnsBasis::new(&ts).unwrap())
    }

    fn residues(b: &RnsBasis, v: &BigUint) -> Vec<u64> {
        b.moduli().iter().map(|m| v.rem_u64(m.value())).collect()
    }

    #[test]
    fn rejects_overlapping_bases() {
        let (src, _) = bases();
        assert!(BconvTable::new(&src, &src).is_err());
    }

    #[test]
    fn exact_conversion_small_values() {
        let (src, dst) = bases();
        let table = BconvTable::new(&src, &dst).unwrap();
        for v in [0u64, 1, 12345, 0xFFFF_FFFF_FFFF] {
            let x = residues(&src, &BigUint::from_u64(v));
            let mut out = vec![0u64; dst.len()];
            table.convert_exact_coeff(&x, &mut out);
            let expect = residues(&dst, &BigUint::from_u64(v));
            assert_eq!(out, expect, "v={v}");
        }
    }

    #[test]
    fn exact_conversion_large_values() {
        let (src, dst) = bases();
        let table = BconvTable::new(&src, &dst).unwrap();
        // Values up to 3Q/8: inside the provable safe zone (the correction
        // rounding needs the value to keep a margin below Q/2; the KLSS
        // budget T >= 2*bound provides exactly this margin).
        let three_eighths = src.big_q().half().sub(&src.big_q().half().half().half());
        for delta in [0u64, 1, 999_999] {
            let v = three_eighths.sub(&BigUint::from_u64(delta + 1));
            let x = residues(&src, &v);
            let mut out = vec![0u64; dst.len()];
            table.convert_exact_coeff(&x, &mut out);
            assert_eq!(out, residues(&dst, &v), "delta={delta}");
        }
    }

    #[test]
    fn approx_conversion_overshoots_by_multiple_of_q() {
        let (src, dst) = bases();
        let table = BconvTable::new(&src, &dst).unwrap();
        // A value close to Q so the approximate sum overshoots.
        let v = src.big_q().sub(&BigUint::from_u64(1));
        let x = residues(&src, &v);
        let mut out = vec![0u64; dst.len()];
        table.convert_approx_coeff(&x, &mut out);
        // out must equal v + eps*Q in dst for some eps < src.len().
        let found = (0..src.len() as u64).any(|eps| {
            let w = v.add(&src.big_q().mul_u64(eps));
            out == residues(&dst, &w)
        });
        assert!(found, "approximate conversion not within eps*Q");
    }

    #[test]
    fn limbwise_is_bit_identical_across_backends() {
        let (src, dst) = bases();
        let n = 37; // odd length exercises the vector tails
        let x: Vec<Vec<u64>> = src
            .moduli()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (0..n)
                    .map(|c| m.reduce((c as u64 + 3) * 104_729 + i as u64))
                    .collect()
            })
            .collect();
        let portable = BconvTable::new(&src, &dst)
            .unwrap()
            .with_backend(BackendKind::Portable);
        let simd = BconvTable::new(&src, &dst)
            .unwrap()
            .with_backend(BackendKind::Simd);
        assert_eq!(portable.backend(), BackendKind::Portable);
        assert_eq!(simd.backend(), BackendKind::Simd);
        assert_eq!(portable.convert_exact(&x), simd.convert_exact(&x));
        assert_eq!(portable.convert_approx(&x), simd.convert_approx(&x));
        assert_eq!(portable.scale_limbs(&x), simd.scale_limbs(&x));
    }

    #[test]
    fn limbwise_matches_coeffwise() {
        let (src, dst) = bases();
        let table = BconvTable::new(&src, &dst).unwrap();
        let n = 8;
        let x: Vec<Vec<u64>> = src
            .moduli()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (0..n)
                    .map(|c| m.reduce((c as u64 + 1) * 7919 + i as u64))
                    .collect()
            })
            .collect();
        let out = table.convert_exact(&x);
        for c in 0..n {
            let xcol: Vec<u64> = x.iter().map(|l| l[c]).collect();
            let mut ocol = vec![0u64; dst.len()];
            table.convert_exact_coeff(&xcol, &mut ocol);
            for j in 0..dst.len() {
                assert_eq!(out[j][c], ocol[j]);
            }
        }
    }
}
