//! The KLSS key-switching method (Kim–Lee–Seo–Song, CRYPTO'23), as used by
//! Neo: Mod Up → NTT → IP → INTT → Recover Limbs → Mod Down, with the bulk
//! of the work in the small auxiliary basis `R_T` (Section 2.2, Fig. 5).
//!
//! Correctness sketch: the ciphertext digit `h_j` (centered, `|h_j| ≤ D_j/2`)
//! and the key digits `[K_j]_{E_ĵ}` (centered, `≤ E_ĵ/2`) are converted
//! *exactly* into `R_T`. The inner product
//! `G_ĵ = Σ_j h_j · [K_j]_{E_ĵ}` then has coefficients bounded by
//! `β·N·B·B̃/4 < T/2` (the Eq. 4 budget), so its `R_T` residues determine
//! the integer polynomial exactly, and *Recover Limbs* (exact centered
//! BConv of each `G_ĵ` into its own digit's limbs of `R_PQ_l`) reconstructs
//! `Σ_j h_j·K_j mod PQ_l` — the same quantity the Hybrid method computes,
//! at lower cost.

use super::{check_keyswitch_input, mod_down};
use crate::context::CkksContext;
use crate::keys::{digit_ranges, KlssKey};
use neo_error::NeoError;
use neo_math::{Domain, RnsPoly};
use rayon::prelude::*;

/// Switches `d` (coefficient domain, `level + 1` limbs) using a KLSS key:
/// returns `(u0, u1)` in coefficient domain with `u0 + u1·s ≈ d·target`.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if `d` is in NTT domain,
/// [`NeoError::LevelMismatch`] if its limb count disagrees with the key,
/// [`NeoError::KeySwitchKeyMissing`] if the parameter set has no KLSS
/// configuration.
pub fn keyswitch_klss(
    ctx: &CkksContext,
    key: &KlssKey,
    d: &RnsPoly,
) -> Result<(RnsPoly, RnsPoly), NeoError> {
    let level = key.level;
    check_keyswitch_input(d, level)?;
    let params = ctx.params();
    let kcfg = params.klss.ok_or_else(|| {
        NeoError::key_missing(level, "klss", "parameter set has no KLSS configuration")
    })?;
    let q_primes = &ctx.q_primes()[..=level];
    let t_primes = ctx.t_primes().to_vec();
    let t_moduli = ctx.t_moduli().to_vec();
    let qp = ctx.qp_moduli(level);
    let qp_primes = ctx.qp_primes(level);
    let n = d.degree();
    let ranges = digit_ranges(params.alpha(), level + 1);
    let dnum = ranges.len();
    let _s = neo_trace::span!("keyswitch.klss", level = level, dnum = dnum);

    // --- Mod Up: exact conversion of each digit into R_T, then NTT. ---
    // Digits are independent, so the conversions fan out across the pool.
    let xs: Vec<Result<RnsPoly, NeoError>> = ranges
        .par_iter()
        .map(|r| -> Result<RnsPoly, NeoError> {
            let digit: Vec<&[u64]> = r.clone().map(|i| d.limb(i)).collect();
            let digit_primes: Vec<u64> = q_primes[r.clone()].to_vec();
            let table = ctx.bconv_table(&digit_primes, &t_primes);
            let conv = table.convert_exact(&digit);
            let mut x = RnsPoly::from_limbs(conv, Domain::Coeff).expect("valid limbs");
            ctx.try_ntt_forward(&mut x, &t_moduli)?;
            Ok(x)
        })
        .collect();
    let xs: Vec<RnsPoly> = xs.into_iter().collect::<Result<_, _>>()?;

    // --- IP: for each output digit ĵ, accumulate over β input digits. ---
    // --- INTT and Recover Limbs per output digit. ---
    // The gadget factor ẽ_ĵ = Ê_ĵ·[Ê_ĵ⁻¹]_{E_ĵ} is ≡ 1 on digit ĵ's own
    // limbs and ≡ 0 on every other limb of R_PQ, so recovering G_ĵ only
    // writes its own α̃ limbs — this is why Table 2 counts Recover Limbs
    // as 2·α'·(l+α) rather than 2·β̃·α'·(l+α).
    let key_ranges = digit_ranges(kcfg.alpha_tilde, qp.len());
    // Output digits write disjoint limb ranges of the result, so each
    // (IP, INTT, Recover Limbs) chain runs on its own worker; the recovered
    // limbs are stitched into `result` afterwards.
    let recovered: Vec<Result<[Vec<Vec<u64>>; 2], NeoError>> = key_ranges
        .par_iter()
        .enumerate()
        .map(|(jj, range)| -> Result<[Vec<Vec<u64>>; 2], NeoError> {
            let digit_primes: Vec<u64> = qp_primes[range.clone()].to_vec();
            let table = ctx.bconv_table(&t_primes, &digit_primes);
            let recover = |c: usize| -> Result<Vec<Vec<u64>>, NeoError> {
                let pairs: Vec<(&RnsPoly, &RnsPoly)> = xs
                    .iter()
                    .zip(&key.digits)
                    .map(|(x, k)| (x, &k[jj][c]))
                    .collect();
                let mut acc = RnsPoly::inner_product(&pairs, &t_moduli, params.backend);
                ctx.try_ntt_inverse(&mut acc, &t_moduli)?;
                // Exact centered BConv of G_ĵ into digit ĵ's limbs.
                Ok(table.convert_exact(acc.limbs()))
            };
            Ok([recover(0)?, recover(1)?])
        })
        .collect();
    let recovered: Vec<[Vec<Vec<u64>>; 2]> = recovered.into_iter().collect::<Result<_, _>>()?;
    let mut result = [
        RnsPoly::zero(n, qp.len(), Domain::Coeff),
        RnsPoly::zero(n, qp.len(), Domain::Coeff),
    ];
    for (range, convs) in key_ranges.iter().zip(recovered) {
        for (res, conv) in result.iter_mut().zip(convs) {
            for (limb_out, limb_idx) in conv.into_iter().zip(range.clone()) {
                res.limb_mut(limb_idx).copy_from_slice(&limb_out);
            }
        }
    }
    let [r0, r1] = result;
    Ok((mod_down(ctx, &r0, level)?, mod_down(ctx, &r1, level)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyChest, KeyTarget, SecretKey};
    use crate::keyswitch::hybrid::keyswitch_hybrid;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn chest() -> (Arc<CkksContext>, KeyChest) {
        let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).unwrap());
        let mut rng = StdRng::seed_from_u64(17);
        let sk = SecretKey::generate(&ctx, &mut rng);
        (ctx.clone(), KeyChest::new(ctx, sk, 18))
    }

    #[test]
    fn klss_keyswitch_phase_is_d_times_target() {
        let (ctx, chest) = chest();
        let level = 4;
        let q = ctx.q_moduli(level).to_vec();
        let d_coeffs: Vec<i64> = (0..ctx.degree() as i64).map(|i| (i % 23) - 11).collect();
        let d = RnsPoly::from_signed(&d_coeffs, &q);
        let key = chest.klss_key(level, KeyTarget::Relin).unwrap();
        let (u0, u1) = keyswitch_klss(&ctx, &key, &d).unwrap();
        let s = chest.secret_key().poly_ntt(&ctx, &q);
        let mut u1n = u1.clone();
        ctx.ntt_forward(&mut u1n, &q);
        u1n.mul_pointwise_assign(&s, &q);
        let mut phase = u0.clone();
        ctx.ntt_forward(&mut phase, &q);
        phase.add_assign(&u1n, &q);
        let mut s2 = s.clone();
        s2.mul_pointwise_assign(&s, &q);
        let mut dn = d.clone();
        ctx.ntt_forward(&mut dn, &q);
        dn.mul_pointwise_assign(&s2, &q);
        phase.sub_assign(&dn, &q);
        ctx.ntt_inverse(&mut phase, &q);
        let norm = phase.centered_inf_norm_limb0(&q[0]);
        assert!(norm < 1 << 20, "KLSS keyswitch error too large: {norm}");
    }

    #[test]
    fn klss_matches_hybrid_up_to_noise() {
        // Both methods compute u0 + u1*s ≈ d*s²; their *difference in
        // phase* must be small even though the raw outputs differ.
        let (ctx, chest) = chest();
        let level = 3;
        let q = ctx.q_moduli(level).to_vec();
        let d_coeffs: Vec<i64> = (0..ctx.degree() as i64).map(|i| (i % 11) - 5).collect();
        let d = RnsPoly::from_signed(&d_coeffs, &q);
        let hk = chest.hybrid_key(level, KeyTarget::Relin);
        let kk = chest.klss_key(level, KeyTarget::Relin).unwrap();
        let (h0, h1) = keyswitch_hybrid(&ctx, &hk, &d).unwrap();
        let (k0, k1) = keyswitch_klss(&ctx, &kk, &d).unwrap();
        let s = chest.secret_key().poly_ntt(&ctx, &q);
        let phase = |u0: &RnsPoly, u1: &RnsPoly| {
            let mut u1n = u1.clone();
            ctx.ntt_forward(&mut u1n, &q);
            u1n.mul_pointwise_assign(&s, &q);
            let mut p = u0.clone();
            ctx.ntt_forward(&mut p, &q);
            p.add_assign(&u1n, &q);
            p
        };
        let mut diff = phase(&h0, &h1);
        diff.sub_assign(&phase(&k0, &k1), &q);
        ctx.ntt_inverse(&mut diff, &q);
        let norm = diff.centered_inf_norm_limb0(&q[0]);
        assert!(norm < 1 << 20, "methods disagree beyond noise: {norm}");
    }

    #[test]
    fn klss_galois_target() {
        // Keyswitch with a Galois target: u0 + u1*s ≈ d * τ_g(s).
        let (ctx, chest) = chest();
        let level = 2;
        let g = 5usize;
        let q = ctx.q_moduli(level).to_vec();
        let d_coeffs: Vec<i64> = (0..ctx.degree() as i64).map(|i| (i % 7) - 3).collect();
        let d = RnsPoly::from_signed(&d_coeffs, &q);
        let key = chest.klss_key(level, KeyTarget::Galois(g)).unwrap();
        let (u0, u1) = keyswitch_klss(&ctx, &key, &d).unwrap();
        let s_rot = {
            let s = RnsPoly::from_signed(chest.secret_key().coeffs(), &q);
            let mut r = s.automorphism(g, &q);
            ctx.ntt_forward(&mut r, &q);
            r
        };
        let s = chest.secret_key().poly_ntt(&ctx, &q);
        let mut u1n = u1.clone();
        ctx.ntt_forward(&mut u1n, &q);
        u1n.mul_pointwise_assign(&s, &q);
        let mut phase = u0.clone();
        ctx.ntt_forward(&mut phase, &q);
        phase.add_assign(&u1n, &q);
        let mut dn = d.clone();
        ctx.ntt_forward(&mut dn, &q);
        dn.mul_pointwise_assign(&s_rot, &q);
        phase.sub_assign(&dn, &q);
        ctx.ntt_inverse(&mut phase, &q);
        let norm = phase.centered_inf_norm_limb0(&q[0]);
        assert!(norm < 1 << 20, "Galois keyswitch error too large: {norm}");
    }
}
