//! Bit-identity pin for both key-switching methods.
//!
//! `keyswitch_klss` and `keyswitch_hybrid` are run on seeded inputs at
//! every level of `test_tiny`, for the relinearization key and one Galois
//! key, and each output pair is folded into a 64-bit FNV-1a digest over
//! every limb word. The expected digests were captured from the code
//! before the key-switch phases were parallelised differently, so any
//! change to how the work is split, ordered or written back that alters a
//! single residue fails here. The digests do not depend on the compute
//! backend or on the host's thread count: both backends emit canonical
//! residues, and every parallel piece writes disjoint limbs.

use neo_ckks::keyswitch::{hybrid::keyswitch_hybrid, klss::keyswitch_klss};
use neo_ckks::{CkksContext, CkksParams, KeyChest, KeyTarget, SecretKey};
use neo_math::{Domain, RnsPoly};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Galois exponent of a one-slot rotation.
const GALOIS: usize = 5;

/// Expected digests per level: `[klss relin, klss galois, hybrid relin,
/// hybrid galois]`.
#[rustfmt::skip]
const EXPECTED: [[u64; 4]; 6] = [
    [0x2bb1_886e_33f4_221e, 0xda01_61b1_40ab_bdff, 0xbc9d_1f3f_dd70_3df4, 0xdd3b_477b_5e8d_b7a7],
    [0xd691_c584_8699_7c3e, 0x3535_32ef_b1bb_a840, 0x2482_5b76_fa79_72da, 0x16e7_20bb_0770_207d],
    [0xc1bf_68e8_13d8_3159, 0x054f_9b44_ad78_a527, 0x10a4_436c_cc59_8a1b, 0x50d9_f6da_ea9f_83a6],
    [0x3b39_7fb1_ac61_1a4e, 0x60d6_113e_39ae_a641, 0x6d70_3849_0f6e_54e7, 0x3663_32b2_33e9_8e14],
    [0xe3c7_da89_8554_bbe8, 0x6774_b986_58c1_373c, 0xd3fb_81b1_1164_3a0c, 0x20fe_a233_ce98_d1db],
    [0x562c_9896_43f9_dd50, 0x0419_e993_da7d_bb5c, 0xb09b_db40_e50d_4e6e, 0x46d9_4143_13e0_baea],
];

fn fnv1a(polys: &[&RnsPoly]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in polys {
        for limb in p.limbs() {
            for &w in limb {
                for b in w.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

fn random_input(ctx: &CkksContext, level: usize, rng: &mut StdRng) -> RnsPoly {
    let limbs = ctx
        .q_moduli(level)
        .iter()
        .map(|m| {
            (0..ctx.degree())
                .map(|_| rng.gen_range(0..m.value()))
                .collect()
        })
        .collect();
    RnsPoly::from_limbs(limbs, Domain::Coeff).expect("valid limbs")
}

#[test]
fn keyswitch_outputs_match_pinned_digests() {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()).expect("context"));
    let mut rng = StdRng::seed_from_u64(0x6b73);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let chest = KeyChest::new(ctx.clone(), sk, 0x6b74);
    let mut got = [[0u64; 4]; 6];
    for (level, row) in got.iter_mut().enumerate().take(ctx.params().max_level + 1) {
        let d = random_input(&ctx, level, &mut rng);
        for (t, target) in [KeyTarget::Relin, KeyTarget::Galois(GALOIS)]
            .into_iter()
            .enumerate()
        {
            let kk = chest.klss_key(level, target).expect("klss key");
            let (u0, u1) = keyswitch_klss(&ctx, &kk, &d).expect("klss keyswitch");
            row[t] = fnv1a(&[&u0, &u1]);
            let hk = chest.hybrid_key(level, target);
            let (u0, u1) = keyswitch_hybrid(&ctx, &hk, &d).expect("hybrid keyswitch");
            row[2 + t] = fnv1a(&[&u0, &u1]);
        }
    }
    assert_eq!(got, EXPECTED, "key-switch digests moved: {got:#018x?}");
}
