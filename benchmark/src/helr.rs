//! `helr-train-n13`: encrypted logistic-regression training, one
//! closed-loop client.
//!
//! `EncryptedLogisticRegression` at N = 2^13, L = 5, KLSS key switching,
//! 16 features × 256 samples. Each iteration encodes and encrypts the
//! data and the current weights, runs one gradient step (2 HMult,
//! 20 HRotate, 2 PMult, 4 Rescale), decrypts and decodes the new
//! weights, and continues training from them. No serving layer runs.

use crate::layers::Probe;
use crate::stats::{self, Checks, Steal, Tail};
use crate::{Args, Outcome};
use neo_apps::helr::{self, plaintext_step, synthetic_dataset, EncryptedLogisticRegression};
use neo_ckks::cost::CostConfig;
use neo_ckks::encoding::Complex64;
use neo_ckks::{
    ops, CkksContext, CkksParams, Encoder, KeyChest, KsMethod, NeoError, ParamSet, PublicKey,
    SecretKey,
};
use neo_gpu_sim::DeviceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

const LOG_N: u32 = 13;
const FEATURES: usize = 16;
const SAMPLES: usize = 256;
/// Learning rate; small enough that training on 256 samples converges.
const LR: f64 = 0.02;
/// Latency limit an iteration must meet to count toward `max_rate_rps`.
pub const LIMIT_MS: f64 = 1000.0;
/// Setups per run; `setup_s` is their median. A setup takes under a
/// second here, so more of them are needed for a steady median.
const SETUPS: usize = 5;
/// Largest absolute weight error an iteration may have and still be
/// correct.
const TOLERANCE: f64 = 1.0 / 64.0;

/// One trainer with warm keys.
struct Trainer {
    ctx: Arc<CkksContext>,
    enc: Encoder,
    pk: PublicKey,
    chest: KeyChest,
    model: EncryptedLogisticRegression,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    /// The dataset packed feature-major, ready to encode.
    packed_x: Vec<Complex64>,
    rng: StdRng,
}

/// Host times of one iteration, seconds, and the host's CPU steal
/// during it.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    total: f64,
    steal: f64,
    step: f64,
    encode: f64,
    decode: f64,
}

fn params() -> CkksParams {
    CkksParams {
        log_n: LOG_N,
        ..CkksParams::test_small()
    }
}

impl Trainer {
    fn new(seed: u64) -> Result<Self, NeoError> {
        let ctx = Arc::new(CkksContext::new(params())?);
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let chest = KeyChest::new(Arc::clone(&ctx), sk, seed ^ 0x6b65_7973);
        let model =
            EncryptedLogisticRegression::new(Arc::clone(&ctx), FEATURES, SAMPLES, KsMethod::Klss);
        let (xs, ys) = synthetic_dataset(&mut rng, SAMPLES, FEATURES);
        let packed_x = model.pack(&xs);
        Ok(Self {
            enc: Encoder::new(ctx.degree()),
            ctx,
            pk,
            chest,
            model,
            xs,
            ys,
            packed_x,
            rng,
        })
    }

    /// One training iteration from weights `w`; returns the decrypted
    /// new weights.
    fn iterate(&mut self, w: &[f64]) -> Result<(Vec<f64>, Times), NeoError> {
        let mut t = Times::default();
        let steal = Steal::start();
        let start = Instant::now();
        let level = self.ctx.params().max_level;
        let scale = self.ctx.params().scale();

        let e = Instant::now();
        let pt_x = self.enc.encode(&self.ctx, &self.packed_x, scale, level);
        let pt_w = self
            .enc
            .encode(&self.ctx, &self.model.broadcast_w(w), scale, level);
        t.encode = e.elapsed().as_secs_f64() / 2.0;
        let x_ct = ops::try_encrypt(&self.ctx, &self.pk, &pt_x, &mut self.rng)?;
        let w_ct = ops::try_encrypt(&self.ctx, &self.pk, &pt_w, &mut self.rng)?;

        let s = Instant::now();
        let next = self.model.step(&self.chest, &x_ct, &self.ys, &w_ct, LR)?;
        t.step = s.elapsed().as_secs_f64();

        let pt = ops::try_decrypt(&self.ctx, self.chest.secret_key(), &next)?;
        let d = Instant::now();
        let slots = self.enc.decode(&self.ctx, &pt);
        t.decode = d.elapsed().as_secs_f64();
        // Feature-major packing: feature f of sample 0 sits at f·S.
        let w_next: Vec<f64> = (0..FEATURES).map(|f| slots[f * SAMPLES].re).collect();
        t.total = start.elapsed().as_secs_f64();
        t.steal = steal.share();
        Ok((w_next, t))
    }
}

/// Iterations of one measured phase.
#[derive(Debug, Default)]
struct Phase {
    times: Vec<Times>,
    checks: Checks,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.times.iter().map(|t| t.total * 1e3).collect();
        stats::sort(&mut v);
        v
    }

    /// The iterations the host took the least CPU during (see
    /// [`stats::CALM_SHARE`]).
    fn calm(&self) -> Phase {
        let steal: Vec<f64> = self.times.iter().map(|t| t.steal).collect();
        Phase {
            times: stats::calmest(&steal)
                .into_iter()
                .map(|i| self.times[i])
                .collect(),
            checks: self.checks,
        }
    }
}

/// Trains for `seconds`, checking every iteration against
/// `plaintext_step` from the same starting weights.
fn measure(tr: &mut Trainer, w: &mut Vec<f64>, seconds: f64) -> Result<Phase, NeoError> {
    let mut phase = Phase::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (got, t) = tr.iterate(w)?;
        let want = plaintext_step(&tr.xs, &tr.ys, w, LR);
        phase
            .checks
            .record(stats::max_abs_err(&got, &want), TOLERANCE);
        phase.times.push(t);
        *w = got;
    }
    Ok(phase)
}

fn setup(seed: u64) -> Result<(Trainer, Vec<f64>, f64), NeoError> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut steal = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        // Every setup starts as a fresh process would: no cached NTT plans.
        neo_ntt::cache::clear();
        let s = Steal::start();
        let t = Instant::now();
        let mut tr = Trainer::new(seed)?;
        // The first iteration generates every key the step needs.
        let w0 = vec![0.0; FEATURES];
        let (w1, _) = tr.iterate(&w0)?;
        times.push(t.elapsed().as_secs_f64());
        steal.push(s.share());
        last = Some((tr, w1));
    }
    let (tr, w) = last.expect("at least one setup");
    let calm = stats::calmest(&steal)
        .into_iter()
        .map(|i| times[i])
        .collect();
    Ok((tr, w, stats::median_of(calm)))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let fail = |e: NeoError| e.to_string();
    let (mut tr, mut w, setup_s) = setup(args.seed).map_err(fail)?;
    let mut out = Outcome::default();
    out.note("setup_runs", SETUPS as u64);
    out.note("latency_limit_ms", LIMIT_MS);
    if !args.trace {
        let phase = measure(&mut tr, &mut w, args.seconds).map_err(fail)?;
        let calm = phase.calm();
        let lat = calm.latencies_ms();
        let tail = Tail::of(&lat);
        let c = phase.checks;
        let ok = (c.checked - c.wrong) as f64 / c.checked.max(1) as f64;
        // One closed-loop client: its rate is the inverse of its mean
        // iteration time.
        let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
        let within = lat.iter().filter(|&&l| l <= LIMIT_MS).count() as f64;
        out.set("setup_s", setup_s);
        out.set("throughput_rps", ok * lat.len() as f64 / busy_s);
        out.set("latency_p50_ms", stats::median(&lat));
        out.set("latency_tail_ms", tail.value);
        out.set("max_rate_rps", ok * within / busy_s);
        out.set("ok_frac", ok);
        out.set("precision_bits", c.bits);
        out.set("peak_rss_mb", stats::peak_rss_mb());
        out.note("latency_tail_ms", tail.to_json());
        let steal: Vec<f64> = phase.times.iter().map(|t| t.steal).collect();
        out.note(
            "calm_iterations",
            json!({
                "share": stats::CALM_SHARE,
                "of": phase.times.len() as u64,
                "steal_median_all": stats::median_of(steal),
                "steal_max_kept": calm.times.iter().map(|t| t.steal).fold(0.0, f64::max),
            }),
        );
        out.checks = c;
        return Ok(out);
    }

    let plain = measure(&mut tr, &mut w, args.seconds / 2.0).map_err(fail)?;
    let probe = Probe::start();
    let traced_phase = measure(&mut tr, &mut w, args.seconds / 2.0).map_err(fail)?;
    let traced = probe.finish();
    let n = traced_phase.times.len() as f64;
    let sum = |f: fn(&Times) -> f64| traced_phase.times.iter().map(f).sum::<f64>();
    let (total_s, step_s) = (sum(|t| t.total), sum(|t| t.step));
    traced.common(n, total_s, &mut out);
    let ks = traced.spans_with_prefix("keyswitch.");
    out.set("ckks.keyswitch_share", ks.total_us / 1e6 / step_s);
    out.set("ckks.encode_ms", sum(|t| t.encode) / n * 1e3);
    out.set("ckks.decode_ms", sum(|t| t.decode) / n * 1e3);
    // Encryption and decryption run outside the step; every other op
    // span sits inside it.
    let outside = traced.spans.get("ckks.encrypt").map_or(0.0, |s| s.self_us)
        + traced.spans.get("ckks.decrypt").map_or(0.0, |s| s.self_us);
    let in_step_us = traced.op_self_us() - outside;
    out.set(
        "ckks.unattributed_ms",
        (step_s * 1e6 - in_step_us) / n / 1e3,
    );
    out.set("ckks.keygen_ms", keygen_ms(&tr)?);
    let a100 = DeviceModel::a100();
    let pc = ParamSet::C.params();
    let trace_s = helr::trace(&pc).time_s(&a100, &pc, &CostConfig::neo());
    out.set(
        "sim.a100_ms_per_req",
        trace_s / helr::ITERATIONS as f64 * 1e3,
    );
    let p50 = |p: &Phase| stats::median(&p.latencies_ms());
    out.set(
        "trace.overhead_frac",
        p50(&traced_phase) / p50(&plain) - 1.0,
    );
    out.note(
        "helr",
        json!({
            "iterations_traced": n,
            "step_ms": step_s / n * 1e3,
            "iteration_ms": total_s / n * 1e3,
            "a100_model_trace_s": trace_s,
            "a100_model_iterations": helr::ITERATIONS as u64,
        }),
    );
    out.checks = plain.checks;
    out.checks.merge(traced_phase.checks);
    Ok(out)
}

/// Mean host time to generate one of the step's key-switching keys, ms:
/// regenerates every key the trainer's chest holds in a fresh chest.
fn keygen_ms(tr: &Trainer) -> Result<f64, String> {
    let keys = tr.chest.cached_keys(KsMethod::Klss);
    let fresh = KeyChest::new(
        Arc::clone(&tr.ctx),
        tr.chest.secret_key().clone(),
        tr.chest.key_seed(),
    );
    let start = Instant::now();
    for &(level, target) in &keys {
        fresh
            .warm(level, target, KsMethod::Klss)
            .map_err(|e| e.to_string())?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e3 / keys.len().max(1) as f64)
}
