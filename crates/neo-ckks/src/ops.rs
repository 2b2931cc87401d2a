//! The CKKS primitive operations (Section 2.1): encryption, decryption,
//! HADD/PADD, PMULT, HMULT (with relinearization), HROTATE, Rescale and
//! Double Rescale.
//!
//! Every operation comes in a fallible `try_*` form returning
//! [`Result<_, NeoError>`] — the preferred entry points, also used by the
//! [`crate::engine::FheEngine`] session facade. The original panicking
//! names remain as thin deprecated wrappers for one release.

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::keys::{KeyChest, KeyTarget, PublicKey, SecretKey};
use crate::keyswitch::{hybrid::keyswitch_hybrid, klss::keyswitch_klss};
use crate::params::KsMethod;
use neo_error::NeoError;
use neo_math::{Domain, RnsPoly};
use neo_trace::span;
use rand::Rng;

/// Relative scale drift tolerated between operands: rescaling divides by
/// `q_i ≈ 2^scale_bits`, leaving a ~1e-6 relative drift between "one
/// rescale deep" operands; anything larger is a genuine scale mismatch
/// (e.g. Δ vs Δ²).
pub const SCALE_TOLERANCE: f64 = 1e-4;

/// Remaining noise budget of a ciphertext in bits, estimated without the
/// secret key: `Σ_{i ≤ level} log2(q_i) − log2(scale)`. Emitted as a
/// `noise.budget` trace event after the noise-affecting operations so a
/// profile run shows the budget draining along the op sequence.
pub fn noise_budget_bits(ctx: &CkksContext, ct: &Ciphertext) -> f64 {
    let total: f64 = ctx
        .q_moduli(ct.level())
        .iter()
        .map(|m| (m.value() as f64).log2())
        .sum();
    total - ct.scale().log2()
}

fn emit_budget(ctx: &CkksContext, op: &str, ct: &Ciphertext) {
    if neo_trace::enabled() {
        neo_trace::event(
            "noise.budget",
            format!(
                "op={} level={} budget_bits={:.1}",
                op,
                ct.level(),
                noise_budget_bits(ctx, ct)
            ),
        );
    }
}

/// Injection point for spurious op-level faults (`neo_fault`'s `ckks_op`
/// site): when an armed [`neo_fault::FaultPlan`] draws a fire for this
/// opportunity, the op fails with a retryable [`NeoError::FaultDetected`]
/// instead of producing a result — exercising the recovery machinery in
/// [`crate::batch::BatchProgram::execute_with_report`].
fn fault_gate(op: &'static str) -> Result<(), NeoError> {
    if neo_fault::armed() && neo_fault::fires(neo_fault::FaultSite::CkksOp) {
        return Err(NeoError::fault_detected(
            "ckks_op",
            format!("injected transient fault in {op}"),
        ));
    }
    Ok(())
}

/// The level must sit inside the context's modulus chain.
fn check_level(ctx: &CkksContext, op: &'static str, level: usize) -> Result<(), NeoError> {
    let max = ctx.params().max_level;
    if level > max {
        return Err(NeoError::parameter_mismatch(
            op,
            format!("level {level} exceeds the chain's max level {max}"),
        ));
    }
    Ok(())
}

/// Two ciphertext operands must agree on level and (within
/// [`SCALE_TOLERANCE`]) on scale.
fn check_compatible(op: &'static str, a: &Ciphertext, b: &Ciphertext) -> Result<(), NeoError> {
    if a.level() != b.level() {
        return Err(NeoError::level_mismatch(op, a.level(), b.level()));
    }
    check_scales(op, a.scale(), b.scale())
}

fn check_scales(op: &'static str, left: f64, right: f64) -> Result<(), NeoError> {
    if (left / right - 1.0).abs() >= SCALE_TOLERANCE {
        return Err(NeoError::scale_mismatch(op, left, right));
    }
    Ok(())
}

/// Encrypts a plaintext under the public key:
/// `ct = (v·p0 + e0 + m, v·p1 + e1)`.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if the plaintext's level exceeds the
/// modulus chain.
pub fn try_encrypt<R: Rng + ?Sized>(
    ctx: &CkksContext,
    pk: &PublicKey,
    pt: &Plaintext,
    rng: &mut R,
) -> Result<Ciphertext, NeoError> {
    let level = pt.level();
    check_level(ctx, "encrypt", level)?;
    let _s = span!("ckks.encrypt", level = level);
    let moduli = ctx.q_moduli(level).to_vec();
    let mut v = RnsPoly::from_signed(&ctx.sample_ternary(rng), &moduli);
    ctx.try_ntt_forward(&mut v, &moduli)?;
    let mut c0 = pk.p0_at(level);
    c0.mul_pointwise_assign(&v, &moduli);
    let mut c1 = pk.p1_at(level);
    c1.mul_pointwise_assign(&v, &moduli);
    ctx.try_ntt_inverse(&mut c0, &moduli)?;
    ctx.try_ntt_inverse(&mut c1, &moduli)?;
    let e0 = RnsPoly::from_signed(&ctx.sample_gaussian(rng), &moduli);
    let e1 = RnsPoly::from_signed(&ctx.sample_gaussian(rng), &moduli);
    c0.add_assign(&e0, &moduli);
    c0.add_assign(pt.poly(), &moduli);
    c1.add_assign(&e1, &moduli);
    let ct = Ciphertext::new(c0, c1, pt.scale(), level);
    emit_budget(ctx, "encrypt", &ct);
    Ok(ct)
}

/// Decrypts: `m = c0 + c1·s`.
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if the ciphertext's level exceeds the
/// modulus chain.
pub fn try_decrypt(
    ctx: &CkksContext,
    sk: &SecretKey,
    ct: &Ciphertext,
) -> Result<Plaintext, NeoError> {
    check_level(ctx, "decrypt", ct.level())?;
    let _s = span!("ckks.decrypt", level = ct.level());
    let moduli = ctx.q_moduli(ct.level()).to_vec();
    let s = sk.poly_ntt(ctx, &moduli);
    let mut c1 = ct.c1().clone();
    ctx.try_ntt_forward(&mut c1, &moduli)?;
    c1.mul_pointwise_assign(&s, &moduli);
    ctx.try_ntt_inverse(&mut c1, &moduli)?;
    let mut m = ct.c0().clone();
    m.add_assign(&c1, &moduli);
    Ok(Plaintext::new(m, ct.scale(), ct.level()))
}

/// HADD: ciphertext + ciphertext.
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] / [`NeoError::ScaleMismatch`] if the
/// operands disagree on level or scale.
pub fn try_hadd(ctx: &CkksContext, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, NeoError> {
    fault_gate("hadd")?;
    check_compatible("hadd", a, b)?;
    let obs = crate::metrics::ObserveOp::start(crate::metrics::OpKind::HAdd, ctx, &[a, b]);
    let moduli = ctx.q_moduli(a.level());
    let mut out = a.clone();
    let (c0, c1) = out.parts_mut();
    c0.add_assign(b.c0(), moduli);
    c1.add_assign(b.c1(), moduli);
    if let Some(obs) = obs {
        obs.success(ctx, &out);
    }
    Ok(out)
}

/// HSUB: ciphertext − ciphertext.
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] / [`NeoError::ScaleMismatch`] if the
/// operands disagree on level or scale.
pub fn try_hsub(ctx: &CkksContext, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, NeoError> {
    check_compatible("hsub", a, b)?;
    let moduli = ctx.q_moduli(a.level());
    let mut out = a.clone();
    let (c0, c1) = out.parts_mut();
    c0.sub_assign(b.c0(), moduli);
    c1.sub_assign(b.c1(), moduli);
    Ok(out)
}

/// PADD: ciphertext + plaintext (scales must match).
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] / [`NeoError::ScaleMismatch`] if the
/// operands disagree on level or scale.
pub fn try_padd(ctx: &CkksContext, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, NeoError> {
    if a.level() != pt.level() {
        return Err(NeoError::level_mismatch("padd", a.level(), pt.level()));
    }
    check_scales("padd", a.scale(), pt.scale())?;
    let moduli = ctx.q_moduli(a.level());
    let mut out = a.clone();
    out.parts_mut().0.add_assign(pt.poly(), moduli);
    Ok(out)
}

/// PMULT: ciphertext × plaintext. The result's scale is the product of the
/// scales; rescale afterwards.
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] if the operands disagree on level.
pub fn try_pmult(
    ctx: &CkksContext,
    a: &Ciphertext,
    pt: &Plaintext,
) -> Result<Ciphertext, NeoError> {
    if a.level() != pt.level() {
        return Err(NeoError::level_mismatch("pmult", a.level(), pt.level()));
    }
    let _s = span!("ckks.pmult", level = a.level());
    let moduli = ctx.q_moduli(a.level()).to_vec();
    let mut m = pt.poly().clone();
    ctx.try_ntt_forward(&mut m, &moduli)?;
    let mut c0 = a.c0().clone();
    let mut c1 = a.c1().clone();
    ctx.try_ntt_forward(&mut c0, &moduli)?;
    ctx.try_ntt_forward(&mut c1, &moduli)?;
    c0.mul_pointwise_assign(&m, &moduli);
    c1.mul_pointwise_assign(&m, &moduli);
    ctx.try_ntt_inverse(&mut c0, &moduli)?;
    ctx.try_ntt_inverse(&mut c1, &moduli)?;
    Ok(Ciphertext::new(c0, c1, a.scale() * pt.scale(), a.level()))
}

/// HMULT: ciphertext × ciphertext with relinearization via the chest's
/// key-switching method of choice. The result's scale is the product;
/// rescale afterwards.
///
/// # Errors
///
/// [`NeoError::LevelMismatch`] if the operands disagree on level;
/// [`NeoError::KeySwitchKeyMissing`] if the relinearization key cannot be
/// produced (e.g. KLSS requested without a KLSS parameter configuration).
pub fn try_hmult(
    chest: &KeyChest,
    a: &Ciphertext,
    b: &Ciphertext,
    method: KsMethod,
) -> Result<Ciphertext, NeoError> {
    fault_gate("hmult")?;
    if a.level() != b.level() {
        return Err(NeoError::level_mismatch("hmult", a.level(), b.level()));
    }
    let ctx = chest.context();
    let obs = crate::metrics::ObserveOp::start(crate::metrics::OpKind::HMult, ctx, &[a, b]);
    let level = a.level();
    let _s = span!("ckks.hmult", level = level);
    let moduli = ctx.q_moduli(level).to_vec();
    // Tensor product in NTT domain.
    let mut a0 = a.c0().clone();
    let mut a1 = a.c1().clone();
    let mut b0 = b.c0().clone();
    let mut b1 = b.c1().clone();
    ctx.try_ntt_forward(&mut a0, &moduli)?;
    ctx.try_ntt_forward(&mut a1, &moduli)?;
    ctx.try_ntt_forward(&mut b0, &moduli)?;
    ctx.try_ntt_forward(&mut b1, &moduli)?;
    let be = ctx.params().backend;
    let mut d0 = RnsPoly::inner_product(&[(&a0, &b0)], &moduli, be);
    let mut d1 = RnsPoly::inner_product(&[(&a0, &b1), (&a1, &b0)], &moduli, be);
    let mut d2 = RnsPoly::inner_product(&[(&a1, &b1)], &moduli, be);
    ctx.try_ntt_inverse(&mut d0, &moduli)?;
    ctx.try_ntt_inverse(&mut d1, &moduli)?;
    ctx.try_ntt_inverse(&mut d2, &moduli)?;
    // Relinearize d2.
    let (u0, u1) = switch(chest, level, KeyTarget::Relin, &d2, method)?;
    d0.add_assign(&u0, &moduli);
    d1.add_assign(&u1, &moduli);
    let out = Ciphertext::new(d0, d1, a.scale() * b.scale(), level);
    emit_budget(ctx, "hmult", &out);
    if let Some(obs) = obs {
        obs.success(ctx, &out);
    }
    Ok(out)
}

/// The Galois element `5^steps mod 2N` a left rotation by `steps` uses —
/// exposed so callers (e.g. the batch executor's key warm-up) can name
/// the exact [`KeyTarget::Galois`] key a rotation will request.
pub fn galois_element(n: usize, steps: usize) -> usize {
    let two_n = 2 * n;
    let mut g = 1usize;
    for _ in 0..steps % (n / 2) {
        g = (g * 5) % two_n;
    }
    g
}

/// HROTATE: rotates slots left by `steps` via the automorphism
/// `X ↦ X^{5^steps}` and a Galois key switch.
///
/// # Errors
///
/// [`NeoError::KeySwitchKeyMissing`] if the Galois key cannot be produced.
pub fn try_hrotate(
    chest: &KeyChest,
    a: &Ciphertext,
    steps: usize,
    method: KsMethod,
) -> Result<Ciphertext, NeoError> {
    fault_gate("hrotate")?;
    let ctx = chest.context();
    let obs = crate::metrics::ObserveOp::start(crate::metrics::OpKind::HRotate, ctx, &[a]);
    let g = galois_element(ctx.degree(), steps);
    let out = apply_galois(chest, a, g, method)?;
    if let Some(obs) = obs {
        obs.success(ctx, &out);
    }
    Ok(out)
}

/// Complex conjugation of all slots (`X ↦ X^{2N-1}`).
///
/// # Errors
///
/// [`NeoError::KeySwitchKeyMissing`] if the conjugation key cannot be
/// produced.
pub fn try_hconjugate(
    chest: &KeyChest,
    a: &Ciphertext,
    method: KsMethod,
) -> Result<Ciphertext, NeoError> {
    let n = chest.context().degree();
    apply_galois(chest, a, 2 * n - 1, method)
}

fn apply_galois(
    chest: &KeyChest,
    a: &Ciphertext,
    g: usize,
    method: KsMethod,
) -> Result<Ciphertext, NeoError> {
    let ctx = chest.context();
    let level = a.level();
    check_level(ctx, "galois", level)?;
    let _s = span!("ckks.galois", level = level, g = g);
    let moduli = ctx.q_moduli(level).to_vec();
    let mut c0 = a.c0().automorphism(g, &moduli);
    let c1 = a.c1().automorphism(g, &moduli);
    let (u0, u1) = switch(chest, level, KeyTarget::Galois(g), &c1, method)?;
    c0.add_assign(&u0, &moduli);
    Ok(Ciphertext::new(c0, u1, a.scale(), level))
}

fn switch(
    chest: &KeyChest,
    level: usize,
    target: KeyTarget,
    d: &RnsPoly,
    method: KsMethod,
) -> Result<(RnsPoly, RnsPoly), NeoError> {
    let ctx = chest.context();
    match method {
        KsMethod::Hybrid => {
            let key = chest.hybrid_key(level, target);
            keyswitch_hybrid(ctx, &key, d)
        }
        KsMethod::Klss => {
            let key = chest.klss_key(level, target)?;
            keyswitch_klss(ctx, &key, d)
        }
    }
}

/// Rescale: drops the last limb and divides by `q_l`, reducing noise and
/// scale (Section 2.1).
///
/// # Errors
///
/// [`NeoError::ModulusChainExhausted`] at level 0 (no limb left to drop).
pub fn try_rescale(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, NeoError> {
    fault_gate("rescale")?;
    let level = ct.level();
    if level < 1 {
        return Err(NeoError::chain_exhausted("rescale", level, 1));
    }
    let obs = crate::metrics::ObserveOp::start(crate::metrics::OpKind::Rescale, ctx, &[ct]);
    let _s = span!("ckks.rescale", level = level);
    let q_last = ctx.q_moduli(level)[level];
    let moduli = ctx.q_moduli(level - 1).to_vec();
    let rescale_poly = |p: &RnsPoly| -> RnsPoly {
        let mut out = RnsPoly::zero(p.degree(), level, Domain::Coeff);
        let last = p.limb(level);
        for (i, m) in moduli.iter().enumerate() {
            let inv = m.inv(m.reduce(q_last.value())).expect("coprime chain");
            let dst = out.limb_mut(i);
            for (c, d) in dst.iter_mut().enumerate() {
                // Centered lift of the dropped limb keeps rounding noise
                // at q_l/2 instead of q_l.
                let centered = q_last.to_signed(last[c]);
                let v = neo_math::signed_mod(centered, m.value());
                *d = m.mul(m.sub(p.limb(i)[c], v), inv);
            }
        }
        out
    };
    let c0 = rescale_poly(ct.c0());
    let c1 = rescale_poly(ct.c1());
    let out = Ciphertext::new(c0, c1, ct.scale() / q_last.value() as f64, level - 1);
    emit_budget(ctx, "rescale", &out);
    if let Some(obs) = obs {
        obs.success(ctx, &out);
    }
    Ok(out)
}

/// Double Rescale (DS): two consecutive rescales, consuming two levels —
/// required for precision at small word sizes (SHARP / Section 2.1).
///
/// # Errors
///
/// [`NeoError::ModulusChainExhausted`] below level 2.
pub fn try_double_rescale(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, NeoError> {
    if ct.level() < 2 {
        return Err(NeoError::chain_exhausted("double_rescale", ct.level(), 2));
    }
    try_rescale(ctx, &try_rescale(ctx, ct)?)
}

/// Drops limbs without scaling to bring `ct` down to `level` (modulus
/// reduction, used for level alignment).
///
/// # Errors
///
/// [`NeoError::ParameterMismatch`] if `level` exceeds the ciphertext's
/// current level (a ciphertext can never be raised).
pub fn try_level_reduce(ct: &Ciphertext, level: usize) -> Result<Ciphertext, NeoError> {
    if level > ct.level() {
        return Err(NeoError::parameter_mismatch(
            "level_reduce",
            format!("cannot raise level {} to {level}", ct.level()),
        ));
    }
    let (mut c0, mut c1) = (ct.c0().clone(), ct.c1().clone());
    c0.truncate_limbs(level + 1);
    c1.truncate_limbs(level + 1);
    Ok(Ciphertext::new(c0, c1, ct.scale(), level))
}
