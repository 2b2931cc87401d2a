//! The Hybrid key-switching method (the pre-KLSS state of the art).

use super::{check_keyswitch_input, mod_down};
use crate::context::CkksContext;
use crate::keys::{digit_ranges, HybridKey};
use neo_error::NeoError;
use neo_math::{Domain, RnsPoly};
use rayon::prelude::*;

/// Switches `d` (coefficient domain, `level + 1` limbs) using a Hybrid
/// key: returns `(u0, u1)` in coefficient domain with
/// `u0 + u1·s ≈ d · target`.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if `d` is in NTT domain,
/// [`NeoError::LevelMismatch`] if its limb count disagrees with the
/// key's level.
pub fn keyswitch_hybrid(
    ctx: &CkksContext,
    key: &HybridKey,
    d: &RnsPoly,
) -> Result<(RnsPoly, RnsPoly), NeoError> {
    let level = key.level;
    check_keyswitch_input(d, level)?;
    let qp = ctx.qp_moduli(level);
    let qp_primes = ctx.qp_primes(level);
    let q_primes = &ctx.q_primes()[..=level];
    let ranges = digit_ranges(ctx.params().alpha(), level + 1);
    let dnum = ranges.len();
    let _s = neo_trace::span!("keyswitch.hybrid", level = level, dnum = dnum);
    // Mod Up each digit independently (approximate BConv into the
    // complement basis, reassemble, forward NTT) — digits never touch each
    // other's limbs, so the whole stage fans out across the pool.
    let xs: Vec<Result<RnsPoly, NeoError>> = ranges
        .par_iter()
        .map(|r| -> Result<RnsPoly, NeoError> {
            // Digit limbs straight from d, borrowed for the conversion.
            let digit: Vec<&[u64]> = r.clone().map(|i| d.limb(i)).collect();
            let digit_primes: Vec<u64> = q_primes[r.clone()].to_vec();
            let complement: Vec<u64> = qp_primes
                .iter()
                .enumerate()
                .filter(|(i, _)| !r.contains(i))
                .map(|(_, &p)| p)
                .collect();
            let table = ctx.bconv_table(&digit_primes, &complement);
            let conv = table.convert_approx(&digit);
            // Reassemble in qp order.
            let mut limbs: Vec<Vec<u64>> = Vec::with_capacity(qp.len());
            let mut conv_iter = conv.into_iter();
            for i in 0..qp.len() {
                if r.contains(&i) {
                    limbs.push(d.limb(i).to_vec());
                } else {
                    limbs.push(conv_iter.next().expect("converted limb"));
                }
            }
            let mut x = RnsPoly::from_limbs(limbs, Domain::Coeff).expect("valid limbs");
            ctx.try_ntt_forward(&mut x, &qp)?;
            Ok(x)
        })
        .collect();
    let xs: Vec<RnsPoly> = xs.into_iter().collect::<Result<_, _>>()?;
    // Inner product with the digit key, one exact sum per coefficient.
    let backend = ctx.params().backend;
    let ip = |c: usize| {
        let pairs: Vec<(&RnsPoly, &RnsPoly)> = xs
            .iter()
            .zip(&key.digits)
            .map(|(x, k)| (x, &k[c]))
            .collect();
        RnsPoly::inner_product(&pairs, &qp, backend)
    };
    let (mut acc0, mut acc1) = (ip(0), ip(1));
    ctx.try_ntt_inverse(&mut acc0, &qp)?;
    ctx.try_ntt_inverse(&mut acc1, &qp)?;
    Ok((mod_down(ctx, &acc0, level)?, mod_down(ctx, &acc1, level)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyChest, KeyTarget, SecretKey};
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Full algebraic check: keyswitch(d) under target s² must satisfy
    /// u0 + u1·s ≈ d·s² with small error (relative to the modulus).
    #[test]
    fn hybrid_keyswitch_phase_is_d_times_target() {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let chest = KeyChest::new(ctx.clone(), sk, 8);
        let level = 3;
        let q = ctx.q_moduli(level).to_vec();
        // A *small* input d keeps the keyswitch error small relative to q0.
        let d_coeffs: Vec<i64> = (0..ctx.degree() as i64).map(|i| (i % 17) - 8).collect();
        let d = RnsPoly::from_signed(&d_coeffs, &q);
        let key = chest.hybrid_key(level, KeyTarget::Relin);
        let (u0, u1) = keyswitch_hybrid(&ctx, &key, &d).unwrap();
        // phase = u0 + u1*s  (computed in NTT domain).
        let s = chest.secret_key().poly_ntt(&ctx, &q);
        let mut u1n = u1.clone();
        ctx.ntt_forward(&mut u1n, &q);
        u1n.mul_pointwise_assign(&s, &q);
        let mut phase = u0.clone();
        ctx.ntt_forward(&mut phase, &q);
        phase.add_assign(&u1n, &q);
        // expected = d * s².
        let mut s2 = s.clone();
        s2.mul_pointwise_assign(&s, &q);
        let mut dn = d.clone();
        ctx.ntt_forward(&mut dn, &q);
        dn.mul_pointwise_assign(&s2, &q);
        phase.sub_assign(&dn, &q);
        ctx.ntt_inverse(&mut phase, &q);
        // Residual must be small (keyswitch noise ~ N * B_err * digits / P).
        let norm = phase.centered_inf_norm_limb0(&q[0]);
        assert!(norm < 1 << 20, "keyswitch error too large: {norm}");
    }
}
