//! RNS polynomials in `Z_Q[X]/(X^N + 1)`.
//!
//! An [`RnsPoly`] stores one row of `N` coefficients per RNS limb (the
//! paper's "limb" = the residues of all coefficients modulo one prime).
//! The type is a plain data container: it does not own its basis, so the
//! moduli are passed to each operation by the managing context (`neo-ckks`'s
//! `CkksContext`). Operations assert limb-count agreement, which catches
//! level mismatches early.

use crate::backend::{self, BackendKind};
use crate::{signed_mod, MathError, Modulus};
use rand::Rng;

/// Which domain the coefficient data is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Plain coefficient representation.
    Coeff,
    /// Number-theoretic transform (evaluation) representation.
    Ntt,
}

/// A polynomial in RNS representation: `limbs[i][j]` is coefficient `j`
/// modulo prime `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    n: usize,
    domain: Domain,
    limbs: Vec<Vec<u64>>,
}

impl RnsPoly {
    /// The zero polynomial with `level + 1`-style limb count `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `k == 0`.
    pub fn zero(n: usize, k: usize, domain: Domain) -> Self {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert!(k > 0, "need at least one limb");
        Self {
            n,
            domain,
            limbs: vec![vec![0u64; n]; k],
        }
    }

    /// Builds a polynomial from centered signed coefficients, reducing into
    /// each modulus.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n` for a power-of-two `n`.
    pub fn from_signed(coeffs: &[i64], moduli: &[Modulus]) -> Self {
        assert!(coeffs.len().is_power_of_two());
        let limbs = moduli
            .iter()
            .map(|m| coeffs.iter().map(|&c| signed_mod(c, m.value())).collect())
            .collect();
        Self {
            n: coeffs.len(),
            domain: Domain::Coeff,
            limbs,
        }
    }

    /// Builds from raw limb data (already reduced).
    ///
    /// # Errors
    ///
    /// [`MathError::InvalidDegree`] if rows are ragged or not a power of two.
    pub fn from_limbs(limbs: Vec<Vec<u64>>, domain: Domain) -> Result<Self, MathError> {
        let n = limbs.first().map(|l| l.len()).unwrap_or(0);
        if !n.is_power_of_two() || n == 0 {
            return Err(MathError::InvalidDegree(n));
        }
        if limbs.iter().any(|l| l.len() != n) {
            return Err(MathError::InvalidDegree(n));
        }
        Ok(Self { n, domain, limbs })
    }

    /// Uniformly random polynomial (each limb uniform mod its prime).
    pub fn random_uniform<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        moduli: &[Modulus],
        domain: Domain,
    ) -> Self {
        let limbs = moduli
            .iter()
            .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
            .collect();
        Self { n, domain, limbs }
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Number of limbs (current level + 1, possibly plus special limbs).
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// Current domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Marks the polynomial as being in `domain` (used by NTT drivers after
    /// transforming the data in place).
    pub fn set_domain(&mut self, domain: Domain) {
        self.domain = domain;
    }

    /// Read access to limb `i`.
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.limbs[i]
    }

    /// Write access to limb `i`.
    pub fn limb_mut(&mut self, i: usize) -> &mut Vec<u64> {
        &mut self.limbs[i]
    }

    /// All limbs.
    pub fn limbs(&self) -> &[Vec<u64>] {
        &self.limbs
    }

    /// Mutable access to all limbs (parallel NTT drivers).
    pub fn limbs_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.limbs
    }

    /// Consumes the polynomial, returning the limb data.
    pub fn into_limbs(self) -> Vec<Vec<u64>> {
        self.limbs
    }

    /// Drops limbs after the first `k` (level reduction).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > limb_count()`.
    pub fn truncate_limbs(&mut self, k: usize) {
        assert!(k >= 1 && k <= self.limbs.len());
        self.limbs.truncate(k);
    }

    /// Appends extra limb rows (e.g. after a Mod Up).
    pub fn extend_limbs(&mut self, extra: Vec<Vec<u64>>) {
        for l in &extra {
            assert_eq!(l.len(), self.n, "limb length mismatch");
        }
        self.limbs.extend(extra);
    }

    fn check_pair(&self, other: &Self) {
        assert_eq!(self.n, other.n, "degree mismatch");
        assert_eq!(self.limbs.len(), other.limbs.len(), "limb count mismatch");
        assert_eq!(self.domain, other.domain, "domain mismatch");
    }

    /// `self += other` limb-wise.
    ///
    /// # Panics
    ///
    /// Panics on degree/limb/domain mismatch or too few moduli.
    pub fn add_assign(&mut self, other: &Self, moduli: &[Modulus]) {
        self.check_pair(other);
        for ((a, b), m) in self.limbs.iter_mut().zip(&other.limbs).zip(moduli) {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = m.add(*x, y);
            }
        }
    }

    /// `self -= other` limb-wise.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RnsPoly::add_assign`].
    pub fn sub_assign(&mut self, other: &Self, moduli: &[Modulus]) {
        self.check_pair(other);
        for ((a, b), m) in self.limbs.iter_mut().zip(&other.limbs).zip(moduli) {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = m.sub(*x, y);
            }
        }
    }

    /// `self = -self` limb-wise.
    pub fn neg_assign(&mut self, moduli: &[Modulus]) {
        for (a, m) in self.limbs.iter_mut().zip(moduli) {
            for x in a.iter_mut() {
                *x = m.neg(*x);
            }
        }
    }

    /// Pointwise (Hadamard) product; both operands must be in NTT domain.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in the coefficient domain.
    pub fn mul_pointwise_assign(&mut self, other: &Self, moduli: &[Modulus]) {
        assert_eq!(self.domain, Domain::Ntt, "pointwise mul needs NTT domain");
        self.check_pair(other);
        for ((a, b), m) in self.limbs.iter_mut().zip(&other.limbs).zip(moduli) {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = m.mul(*x, y);
            }
        }
    }

    /// Exact-sum inner product `Σ_j a_j ⊙ b_j` of pointwise (NTT-domain)
    /// products over the limbs of `moduli`: each coefficient's sum is
    /// formed exactly and reduced once by `backend`'s `mul_sum` kernel —
    /// the key-switch inner product and the HMult tensor.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty, on domain or shape mismatch, or if
    /// there are fewer moduli than limbs.
    pub fn inner_product(
        pairs: &[(&RnsPoly, &RnsPoly)],
        moduli: &[Modulus],
        backend: BackendKind,
    ) -> Self {
        let (first, _) = pairs.first().expect("inner product needs a term");
        let mut out = Self::zero(first.n, first.limbs.len(), Domain::Ntt);
        assert!(moduli.len() >= out.limbs.len(), "too few moduli");
        for (a, b) in pairs {
            assert_eq!(a.domain, Domain::Ntt, "inner product needs NTT domain");
            out.check_pair(a);
            a.check_pair(b);
        }
        let be = backend::get(backend);
        for (i, (dst, m)) in out.limbs.iter_mut().zip(moduli).enumerate() {
            let xs: Vec<&[u64]> = pairs.iter().map(|(a, _)| a.limbs[i].as_slice()).collect();
            let ys: Vec<&[u64]> = pairs.iter().map(|(_, b)| b.limbs[i].as_slice()).collect();
            be.mul_sum(m, &xs, &ys, dst);
        }
        out
    }

    /// Multiplies limb `i` by the scalar `s[i]` (one scalar per limb).
    ///
    /// # Panics
    ///
    /// Panics if scalar/limb counts differ.
    pub fn mul_scalar_per_limb_assign(&mut self, s: &[u64], moduli: &[Modulus]) {
        assert_eq!(s.len(), self.limbs.len());
        for ((a, &sc), m) in self.limbs.iter_mut().zip(s).zip(moduli) {
            let sc = m.reduce(sc);
            for x in a.iter_mut() {
                *x = m.mul(*x, sc);
            }
        }
    }

    /// Applies the Galois automorphism `X ↦ X^g` in the coefficient domain
    /// (the AUTO kernel). `g` must be odd so the map is a ring automorphism
    /// of `Z[X]/(X^N+1)`.
    ///
    /// # Panics
    ///
    /// Panics if called in NTT domain or `g` is even.
    pub fn automorphism(&self, g: usize, moduli: &[Modulus]) -> Self {
        assert_eq!(
            self.domain,
            Domain::Coeff,
            "AUTO runs in coefficient domain"
        );
        assert_eq!(g % 2, 1, "automorphism index must be odd");
        let two_n = 2 * self.n;
        let mut out = Self::zero(self.n, self.limbs.len(), Domain::Coeff);
        for (li, (src, m)) in self.limbs.iter().zip(moduli).enumerate() {
            let dst = &mut out.limbs[li];
            for (j, &c) in src.iter().enumerate() {
                let t = (j * g) % two_n;
                if t < self.n {
                    dst[t] = m.add(dst[t], c);
                } else {
                    dst[t - self.n] = m.sub(dst[t - self.n], c);
                }
            }
        }
        out
    }

    /// Infinity norm of the centered lift, per limb 0 only (diagnostic aid
    /// for noise tracking in tests; meaningful when value fits one limb).
    pub fn centered_inf_norm_limb0(&self, m: &Modulus) -> u64 {
        self.limbs[0]
            .iter()
            .map(|&c| m.to_signed(c).unsigned_abs())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes;

    fn moduli(k: usize) -> Vec<Modulus> {
        primes::ntt_primes(36, 1 << 4, k)
            .unwrap()
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect()
    }

    #[test]
    fn from_signed_centers() {
        let ms = moduli(2);
        let p = RnsPoly::from_signed(&[-1, 0, 5, -7], &ms);
        assert_eq!(p.limb(0)[0], ms[0].value() - 1);
        assert_eq!(p.limb(1)[3], ms[1].value() - 7);
        assert_eq!(p.domain(), Domain::Coeff);
    }

    #[test]
    fn add_sub_inverse() {
        let ms = moduli(2);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, 16, &ms, Domain::Coeff);
        let b = RnsPoly::random_uniform(&mut rng, 16, &ms, Domain::Coeff);
        let mut c = a.clone();
        c.add_assign(&b, &ms);
        c.sub_assign(&b, &ms);
        assert_eq!(c, a);
    }

    #[test]
    fn neg_twice_is_identity() {
        let ms = moduli(3);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, 8, &ms, Domain::Coeff);
        let mut b = a.clone();
        b.neg_assign(&ms);
        b.neg_assign(&ms);
        assert_eq!(a, b);
    }

    #[test]
    fn automorphism_identity_and_inverse() {
        let ms = moduli(2);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, 16, &ms, Domain::Coeff);
        // g = 1 is identity.
        assert_eq!(a.automorphism(1, &ms), a);
        // g * g_inv = 1 mod 2N composes to identity.
        let g = 5usize;
        let two_n = 32usize;
        let mut g_inv = 1usize;
        while (g * g_inv) % two_n != 1 {
            g_inv += 2;
        }
        let b = a.automorphism(g, &ms).automorphism(g_inv, &ms);
        assert_eq!(b, a);
    }

    #[test]
    fn automorphism_negacyclic_sign() {
        // X -> X^3 on degree-4 ring: X^2 -> X^6 = -X^2.
        let ms = moduli(1);
        let p = RnsPoly::from_signed(&[0, 0, 1, 0], &ms);
        let q = p.automorphism(3, &ms);
        assert_eq!(q.limb(0)[2], ms[0].value() - 1);
    }

    #[test]
    #[should_panic(expected = "limb count mismatch")]
    fn mismatched_levels_panic() {
        let ms = moduli(2);
        let mut a = RnsPoly::zero(8, 2, Domain::Coeff);
        let b = RnsPoly::zero(8, 1, Domain::Coeff);
        a.add_assign(&b, &ms);
    }

    #[test]
    fn inner_product_matches_pointwise_sums() {
        let ms = moduli(2);
        let mut rng = rand::thread_rng();
        let a = RnsPoly::random_uniform(&mut rng, 32, &ms, Domain::Ntt);
        let b = RnsPoly::random_uniform(&mut rng, 32, &ms, Domain::Ntt);
        let c = RnsPoly::random_uniform(&mut rng, 32, &ms, Domain::Ntt);
        let mut manual = a.clone();
        manual.mul_pointwise_assign(&b, &ms);
        let mut ac = a.clone();
        ac.mul_pointwise_assign(&c, &ms);
        manual.add_assign(&ac, &ms);
        for kind in [BackendKind::Portable, BackendKind::Simd] {
            let ip = RnsPoly::inner_product(&[(&a, &b), (&a, &c)], &ms, kind);
            assert_eq!(ip, manual, "{kind}");
        }
    }
}
