//! The scalar Shoup/lazy-reduction backend. This is the correctness
//! anchor every other backend is property-tested against, and the
//! fallback on targets without better options.

use super::{gemm_span, BackendKind, ComputeBackend};
use crate::{Modulus, ShoupMul};

/// Scalar Shoup/lazy-reduction kernels (the original fast path).
#[derive(Debug, Clone, Copy, Default)]
pub struct PortableBackend;

impl ComputeBackend for PortableBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Portable
    }

    fn ntt_twist_stage(&self, m: &Modulus, x: &mut [u64], psi_rev: &[ShoupMul]) -> u64 {
        let two_q = 2 * m.value();
        for (pair, s) in x.chunks_exact_mut(2).zip(psi_rev.chunks_exact(2)) {
            let u = m.mul_shoup_lazy(pair[0], s[0]);
            let t = m.mul_shoup_lazy(pair[1], s[1]);
            pair[0] = u + t;
            pair[1] = u + two_q - t;
        }
        (x.len() / 2) as u64
    }

    fn ntt_fwd_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64 {
        let two_q = 2 * m.value();
        let half = size / 2;
        let mut butterflies = 0u64;
        for block in x.chunks_exact_mut(size) {
            let (lo, hi) = block.split_at_mut(half);
            // j = 0 has w = ω^0 = 1: a conditional subtraction stands in
            // for the multiply (any [0, 2q) representative works).
            let mut u = lo[0];
            if u >= two_q {
                u -= two_q;
            }
            let mut t = hi[0];
            if t >= two_q {
                t -= two_q;
            }
            lo[0] = u + t;
            hi[0] = u + two_q - t;
            for ((a, b), &w) in lo[1..].iter_mut().zip(hi[1..].iter_mut()).zip(&stage[1..]) {
                let mut u = *a;
                if u >= two_q {
                    u -= two_q;
                }
                let t = m.mul_shoup_lazy(*b, w);
                *a = u + t;
                *b = u + two_q - t;
            }
            butterflies += half as u64;
        }
        butterflies
    }

    fn ntt_fwd_stage_final(&self, m: &Modulus, x: &mut [u64], stage: &[ShoupMul]) -> u64 {
        let q = m.value();
        let two_q = 2 * q;
        let half = x.len() / 2;
        let (lo, hi) = x.split_at_mut(half);
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
            let mut u = *a;
            if u >= two_q {
                u -= two_q;
            }
            let t = m.mul_shoup_lazy(*b, w);
            let mut r0 = u + t;
            if r0 >= two_q {
                r0 -= two_q;
            }
            if r0 >= q {
                r0 -= q;
            }
            let mut r1 = u + two_q - t;
            if r1 >= two_q {
                r1 -= two_q;
            }
            if r1 >= q {
                r1 -= q;
            }
            *a = r0;
            *b = r1;
        }
        half as u64
    }

    fn ntt_inv_stage(&self, m: &Modulus, x: &mut [u64], size: usize, stage: &[ShoupMul]) -> u64 {
        let two_q = 2 * m.value();
        let half = size / 2;
        let mut butterflies = 0u64;
        // chunks_exact + split_at keep the inner loop free of bounds
        // checks, which is worth ~25% at bootstrapping-sized degrees.
        for block in x.chunks_exact_mut(size) {
            let (lo, hi) = block.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                let mut u = *a;
                if u >= two_q {
                    u -= two_q;
                }
                let t = m.mul_shoup_lazy(*b, w);
                *a = u + t;
                *b = u + two_q - t;
            }
            butterflies += half as u64;
        }
        butterflies
    }

    fn ntt_scale(&self, m: &Modulus, x: &mut [u64], tw: &[ShoupMul]) {
        for (v, &s) in x.iter_mut().zip(tw) {
            *v = m.mul_shoup(*v, s);
        }
    }

    fn mul_const(&self, m: &Modulus, s: ShoupMul, x: &[u64], out: &mut [u64]) {
        // mul_shoup is sound for arbitrary u64 multiplicands, matching the
        // historical `m.mul(m.reduce(v), w)` on the canonical output.
        for (o, &v) in out.iter_mut().zip(x) {
            *o = m.mul_shoup(v, s);
        }
    }

    fn bconv_ip(&self, t: &Modulus, ys: &[&[u64]], _y_bound: u64, w: &[u64], out: &mut [u64]) {
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = 0u128;
            for (row, &wi) in ys.iter().zip(w) {
                acc += row[c] as u128 * wi as u128;
            }
            *o = t.reduce_u128(acc);
        }
    }

    fn mul_sum(&self, m: &Modulus, a: &[&[u64]], b: &[&[u64]], out: &mut [u64]) {
        // Fold below q after every `span` products so the u128 sum never
        // wraps (one fold per coefficient at realistic term counts).
        let span = gemm_span(m);
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = 0u64;
            for (xs, ys) in a.chunks(span).zip(b.chunks(span)) {
                let mut s = u128::from(acc);
                for (x, y) in xs.iter().zip(ys) {
                    s += u128::from(x[c]) * u128::from(y[c]);
                }
                acc = m.reduce_u128(s);
            }
            *o = acc;
        }
    }

    fn gemm(
        &self,
        q: &Modulus,
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [u64],
    ) {
        // Each product of reduced operands is at most (q-1)²; after a fold
        // the accumulator restarts below q, so `span` additions fit in
        // u128 without wrapping: span·(q-1)² + (q-1) ≤ u128::MAX.
        let span = gemm_span(q);
        let mut acc = vec![0u128; n];
        for i in 0..m {
            acc.fill(0);
            let a_row = &a[i * k..(i + 1) * k];
            for t0 in (0..k).step_by(span) {
                for (t, &ai) in a_row.iter().enumerate().skip(t0).take(span) {
                    let ai = u128::from(ai);
                    for (s, &bj) in acc.iter_mut().zip(&b[t * n..(t + 1) * n]) {
                        *s += ai * u128::from(bj);
                    }
                }
                // Fold every accumulator back below q before the next span.
                for s in acc.iter_mut() {
                    *s = u128::from(q.reduce_u128(*s));
                }
            }
            for (o, &s) in out[i * n..(i + 1) * n].iter_mut().zip(&acc) {
                *o = s as u64;
            }
        }
    }
}
