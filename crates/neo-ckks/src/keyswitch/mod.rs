//! Key switching — the operation the whole paper optimizes.
//!
//! Both methods take a polynomial `d` at level `l` (coefficient domain)
//! and a key re-encrypting `target` under `s`, and return a ciphertext
//! pair `(u0, u1)` with `u0 + u1·s ≈ d · target`:
//!
//! * [`hybrid::keyswitch_hybrid`] — digit decomposition, Mod Up to
//!   `R_PQ_l`, inner product with the digit keys, Mod Down by `P`;
//! * [`klss::keyswitch_klss`] — the KLSS method: exact Mod Up into the
//!   small auxiliary basis `R_T`, the `β × β̃` inner product over `R_T`,
//!   *Recover Limbs* back into `R_PQ_l`, Mod Down (Fig. 5).

pub mod hybrid;
pub mod klss;

use crate::context::CkksContext;
use neo_error::NeoError;
use neo_math::{Domain, RnsPoly};

/// Shared operand validation for both key-switching methods: the input
/// must be in coefficient domain with exactly the key level's limb count.
pub(crate) fn check_keyswitch_input(d: &RnsPoly, level: usize) -> Result<(), NeoError> {
    if d.domain() != Domain::Coeff {
        return Err(NeoError::parameter_mismatch(
            "keyswitch",
            "input must be in coefficient domain",
        ));
    }
    if d.limb_count() != level + 1 {
        return Err(NeoError::level_mismatch(
            "keyswitch",
            d.limb_count().saturating_sub(1),
            level,
        ));
    }
    Ok(())
}

/// Mod Down by `P`: takes a coefficient-domain polynomial over the
/// `R_PQ_l` basis (`l+1` data limbs then `K` special limbs) and returns
/// `round(x / P)` over the data limbs.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if the limb count is not
/// `level + 1 + K`.
pub(crate) fn mod_down(
    ctx: &CkksContext,
    poly: &RnsPoly,
    level: usize,
) -> Result<RnsPoly, NeoError> {
    let k = ctx.p_primes().len();
    if poly.limb_count() != level + 1 + k {
        return Err(NeoError::parameter_mismatch(
            "mod_down",
            format!(
                "expected {} R_PQ limbs at level {level}, got {}",
                level + 1 + k,
                poly.limb_count()
            ),
        ));
    }
    let p_part: Vec<&[u64]> = (level + 1..level + 1 + k).map(|i| poly.limb(i)).collect();
    let table = ctx.bconv_table(ctx.p_primes(), &ctx.q_primes()[..=level]);
    let conv = table.convert_approx(&p_part);
    let q_moduli = ctx.q_moduli(level);
    let mut out = RnsPoly::zero(poly.degree(), level + 1, neo_math::Domain::Coeff);
    for (i, m) in q_moduli.iter().enumerate() {
        let inv = ctx.p_inv_mod_q(i);
        let dst = out.limb_mut(i);
        for (c, d) in dst.iter_mut().enumerate() {
            let diff = m.sub(poly.limb(i)[c], conv[i][c]);
            *d = m.mul(diff, inv);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use neo_math::{BigUint, Domain};

    #[test]
    fn mod_down_divides_by_p() {
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let level = 2;
        let qp = ctx.qp_moduli(level);
        // Build x = P * v for a small v: mod_down must return exactly v.
        let p_big = BigUint::product(ctx.p_primes());
        let v = 12_345u64;
        let x_int = p_big.mul_u64(v);
        let limbs: Vec<Vec<u64>> = qp
            .iter()
            .map(|m| vec![x_int.rem_u64(m.value()); ctx.degree()])
            .collect();
        let poly = RnsPoly::from_limbs(limbs, Domain::Coeff).unwrap();
        let out = mod_down(&ctx, &poly, level).unwrap();
        for (i, m) in ctx.q_moduli(level).iter().enumerate() {
            assert!(out.limb(i).iter().all(|&c| c == m.reduce(v)), "limb {i}");
        }
    }

    #[test]
    fn mod_down_rounds_small_remainder() {
        // x = P*v + r with small r: result should be v or v±1 (rounding
        // noise), never off by more.
        let ctx = CkksContext::new(CkksParams::test_tiny()).unwrap();
        let level = 1;
        let qp = ctx.qp_moduli(level);
        let p_big = BigUint::product(ctx.p_primes());
        let v = 999u64;
        let x_int = p_big.mul_u64(v).add_u64(12_345);
        let limbs: Vec<Vec<u64>> = qp
            .iter()
            .map(|m| vec![x_int.rem_u64(m.value()); ctx.degree()])
            .collect();
        let poly = RnsPoly::from_limbs(limbs, Domain::Coeff).unwrap();
        let out = mod_down(&ctx, &poly, level).unwrap();
        let m0 = &ctx.q_moduli(level)[0];
        let got = out.limb(0)[0];
        let diff = m0.to_signed(m0.sub(got, m0.reduce(v))).abs();
        assert!(diff <= ctx.p_primes().len() as i64 + 1, "diff {diff}");
    }
}
