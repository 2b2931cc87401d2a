//! `onboard-store`: tenants arriving one at a time at a persistent
//! session store.
//!
//! A `SessionStore` at `test_small` (N = 2^10) is pre-populated during
//! setup. A seeded quarter of the arrivals are new tenants (cold: key
//! generation, `save_engine`, `commit`); the rest are returning tenants
//! (warm: `TenantRegistry::register_warm` from the store, then one HMult
//! request through a `NeoService` on their stored ciphertext, and a
//! decryption). Arrivals run in passes of [`PASS`] tenants; each pass
//! starts from a copy of the setup's store file and a fresh registry, so
//! every pass sees the same store size and the run's statistics do not
//! drift with its length.

use crate::layers::Probe;
use crate::serve::{self, Served};
use crate::stats::{self, Checks, Steal, Tail};
use crate::{tenant_seed, Args, Outcome};
use neo_ckks::ops::galois_element;
use neo_ckks::{
    BatchOp, BatchProgram, CkksContext, CkksParams, FheEngine, KeyTarget, NeoError, Slot,
};
use neo_serve::{NeoService, TenantConfig, TenantRegistry};
use neo_store::SessionStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tenants stored during setup.
const STORED: u64 = 32;
/// Arrivals per pass; a quarter of them are new tenants.
const PASS: usize = 32;
/// Latency limit a tenant must meet to count toward `max_rate_rps`.
pub const LIMIT_MS: f64 = 500.0;
/// Setups per run; `setup_s` is their median. Setup ends in an fsync of
/// the store, whose time varies, so it takes more than three for a
/// steady median.
const SETUPS: usize = 5;
/// Tenants per tail window: four passes. A commit whose fsync stalls
/// moves one window's tail rather than the run's.
const TAIL_WINDOW: usize = 4 * PASS;
/// Largest absolute slot error a warm tenant's result may have.
const TOLERANCE: f64 = 1.0 / 1024.0;
/// Pass number of the setup's warm-up pass (its tenant ids stay clear of
/// the measured passes').
const WARMUP_PASS: u64 = 1 << 40;
/// Directory (relative to the working directory) for store files.
const RUN_DIR: &str = ".bench_run";

/// Keys a new tenant generates: relinearization keys at the top two
/// levels and a step-1 rotation key at the top.
fn warm_targets(ctx: &CkksContext) -> Vec<(usize, KeyTarget)> {
    let top = ctx.params().max_level;
    let g = galois_element(ctx.params().n(), 1);
    vec![
        (top, KeyTarget::Relin),
        (top, KeyTarget::Galois(g)),
        (top - 1, KeyTarget::Relin),
    ]
}

/// The store written during setup and the plaintexts of its tenants'
/// stored ciphertexts.
struct Env {
    seed: u64,
    ctx: Arc<CkksContext>,
    /// The request a returning tenant sends: square its input.
    hmult: BatchProgram,
    base: PathBuf,
    work: PathBuf,
    values: Vec<Vec<f64>>,
    keygen_ms: Vec<f64>,
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.base);
        let _ = std::fs::remove_file(&self.work);
        let _ = std::fs::remove_dir(RUN_DIR);
    }
}

/// A new tenant: generate keys, persist them, commit.
fn cold(
    ctx: &Arc<CkksContext>,
    ss: &mut SessionStore,
    id: u64,
    seed: u64,
    keygen_ms: &mut Vec<f64>,
) -> Result<f64, NeoError> {
    let engine = FheEngine::with_context(Arc::clone(ctx), seed);
    for (level, target) in warm_targets(ctx) {
        let t = Instant::now();
        engine.chest().warm(level, target, engine.method())?;
        keygen_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ss.save_engine(id, &engine, seed);
    let t = Instant::now();
    ss.commit()?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

fn build(seed: u64, index: usize) -> Result<Env, NeoError> {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_small())?);
    std::fs::create_dir_all(RUN_DIR)
        .map_err(|e| NeoError::store_io("create_dir", RUN_DIR, e.to_string()))?;
    let stem = format!("{RUN_DIR}/onboard-{}-{index}", std::process::id());
    let base = PathBuf::from(format!("{stem}.base.neostore"));
    let work = PathBuf::from(format!("{stem}.neostore"));
    let _ = std::fs::remove_file(&base);
    let mut ss = SessionStore::open(&base, Arc::clone(&ctx))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = Vec::with_capacity(STORED as usize);
    let mut keygen_ms = Vec::new();
    for id in 0..STORED {
        let s = tenant_seed(seed, id);
        let engine = FheEngine::with_context(Arc::clone(&ctx), s);
        for (level, target) in warm_targets(&ctx) {
            let t = Instant::now();
            engine.chest().warm(level, target, engine.method())?;
            keygen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let v: Vec<f64> = (0..engine.slots())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let ct = engine.encrypt_f64(&v, ctx.params().max_level)?;
        ss.save_engine(id, &engine, s);
        ss.save_ciphertext(id, 0, &ct);
        values.push(v);
    }
    ss.commit()?;
    let mut hmult = BatchProgram::new();
    hmult.try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))?;
    Ok(Env {
        seed,
        ctx,
        hmult,
        base,
        work,
        values,
        keygen_ms,
    })
}

/// One returning tenant's decrypted result, checked after the pass.
struct Warm {
    tenant: u64,
    got: Vec<f64>,
}

/// What the measured passes recorded.
#[derive(Debug, Default)]
struct Passes {
    /// Summed tenant time, seconds (store resets between passes are not
    /// part of it).
    busy_s: f64,
    /// Each pass's tenant time, s, and the host's CPU steal during it.
    pass_busy: Vec<f64>,
    pass_steal: Vec<f64>,
    /// Every tenant's latency, in arrival order.
    latency_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    warm_start_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    commit_bytes: Vec<f64>,
    open_ms: Vec<f64>,
    keygen_ms: Vec<f64>,
    /// Returning tenants' HMult requests.
    requests: Vec<Served>,
    checks: Checks,
}

/// Runs passes until `seconds` of tenant time have been measured.
fn measure(env: &Env, rng: &mut StdRng, seconds: f64) -> Result<Passes, NeoError> {
    let mut p = Passes::default();
    let mut pass = 0u64;
    while p.busy_s < seconds {
        run_pass(env, rng, pass, PASS, &mut p)?;
        pass += 1;
    }
    Ok(p)
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn run_pass(
    env: &Env,
    rng: &mut StdRng,
    pass: u64,
    arrivals: usize,
    p: &mut Passes,
) -> Result<(), NeoError> {
    std::fs::copy(&env.base, &env.work)
        .map_err(|e| NeoError::store_io("copy", env.work.display().to_string(), e.to_string()))?;
    let t = Instant::now();
    let mut ss = SessionStore::open(&env.work, Arc::clone(&env.ctx))?;
    p.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let registry = Arc::new(TenantRegistry::with_context(Arc::clone(&env.ctx)));
    let service = NeoService::spawn(Arc::clone(&registry), serve::config());
    // A seeded order of exactly a quarter new tenants, and distinct
    // returning tenants (a registry holds each tenant once).
    let cold_count = (arrivals / 4).max(1);
    let mut kinds: Vec<bool> = (0..arrivals).map(|i| i < cold_count).collect();
    shuffle(&mut kinds, rng);
    let mut returning: Vec<u64> = (0..STORED).collect();
    shuffle(&mut returning, rng);
    let mut returning = returning.into_iter();
    let mut warm = Vec::new();
    let steal = Steal::start();
    let busy_before = p.busy_s;
    for (k, is_cold) in kinds.into_iter().enumerate() {
        let t = Instant::now();
        if is_cold {
            let id = STORED + pass * PASS as u64 + k as u64;
            let seed = tenant_seed(rng.gen(), id);
            p.commit_ms
                .push(cold(&env.ctx, &mut ss, id, seed, &mut p.keygen_ms)?);
            p.commit_bytes.push(ss.store().serialized_len() as f64);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            p.cold_ms.push(ms);
            p.latency_ms.push(ms);
        } else {
            let tenant = returning
                .next()
                .expect("fewer returning tenants than stored");
            let seed = tenant_seed(env.seed, tenant);
            let session = registry.register_warm(tenant, &mut ss, seed, TenantConfig::default())?;
            p.warm_start_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let ct = ss
                .load_ciphertext(tenant, 0)?
                .ok_or_else(|| NeoError::invalid_params(format!("tenant {tenant} has no input")))?;
            let r = Instant::now();
            let resp = service
                .submit(tenant, env.hmult.clone(), vec![ct])?
                .wait()?;
            p.requests.push(Served {
                latency_ms: r.elapsed().as_secs_f64() * 1e3,
                queue_ms: resp.queue.as_secs_f64() * 1e3,
                exec_ms: resp.exec.as_secs_f64() * 1e3,
                retries: resp.retries,
                batch_requests: resp.batch_requests,
            });
            let product = resp
                .outcome?
                .pop()
                .ok_or_else(|| NeoError::invalid_params("empty response"))??;
            let got = session.engine().decrypt_f64(&product)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            p.warm_ms.push(ms);
            p.latency_ms.push(ms);
            warm.push(Warm { tenant, got });
        }
        p.busy_s += t.elapsed().as_secs_f64();
    }
    p.pass_steal.push(steal.share());
    p.pass_busy.push(p.busy_s - busy_before);
    drop(service);
    drop(ss);
    for w in warm {
        let want: Vec<f64> = env.values[w.tenant as usize]
            .iter()
            .map(|v| v * v)
            .collect();
        p.checks
            .record(stats::max_abs_err(&w.got, &want), TOLERANCE);
    }
    Ok(())
}

fn setup(args: &Args) -> Result<(Env, f64), NeoError> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut steal = Vec::with_capacity(SETUPS);
    let mut env = None;
    for i in 0..SETUPS {
        drop(env.take());
        // Every setup starts as a fresh process would: no cached NTT plans.
        neo_ntt::cache::clear();
        let s = Steal::start();
        let t = Instant::now();
        let e = build(args.seed, i)?;
        // One untimed warm-up pass of two arrivals: one new, one
        // returning tenant.
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0b0a_7d00 ^ i as u64);
        let mut warmup = Passes::default();
        run_pass(&e, &mut rng, WARMUP_PASS, 2, &mut warmup)?;
        times.push(t.elapsed().as_secs_f64());
        steal.push(s.share());
        if warmup.checks.wrong > 0 {
            return Err(NeoError::invalid_params("wrong output during warm-up"));
        }
        env = Some(e);
    }
    let calm = stats::calmest(&steal)
        .into_iter()
        .map(|i| times[i])
        .collect();
    Ok((env.expect("at least one setup"), stats::median_of(calm)))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let fail = |e: NeoError| e.to_string();
    let (env, setup_s) = setup(args).map_err(fail)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut out = Outcome::default();
    out.note("setup_runs", SETUPS as u64);
    out.note("latency_limit_ms", LIMIT_MS);
    if !args.trace {
        let p = measure(&env, &mut rng, args.seconds).map_err(fail)?;
        // Timings come from the passes the host took the least CPU
        // during (see `stats::CALM_SHARE`); correctness from all of them.
        let calm = stats::calmest(&p.pass_steal);
        let calm_lat: Vec<f64> = calm
            .iter()
            .flat_map(|&i| p.latency_ms[i * PASS..(i + 1) * PASS].iter().copied())
            .collect();
        let busy_s: f64 = calm.iter().map(|&i| p.pass_busy[i]).sum();
        let (tail, windows) = stats::windowed_tail(&calm_lat, TAIL_WINDOW);
        let mut lat = calm_lat;
        stats::sort(&mut lat);
        let ok = 1.0 - p.checks.wrong as f64 / p.latency_ms.len().max(1) as f64;
        out.set("setup_s", setup_s);
        out.set("throughput_rps", ok * lat.len() as f64 / busy_s);
        out.set("latency_p50_ms", stats::median(&lat));
        out.set("latency_tail_ms", tail);
        let within = lat.iter().filter(|&&l| l <= LIMIT_MS).count() as f64;
        out.set("max_rate_rps", ok * within / busy_s);
        out.set("ok_frac", ok);
        out.set("precision_bits", p.checks.bits);
        out.set("peak_rss_mb", stats::peak_rss_mb());
        out.note(
            "latency_tail_windows",
            windows.into_iter().map(Tail::to_json).collect::<Vec<_>>(),
        );
        out.note(
            "tenants",
            json!({
                "warm": p.warm_ms.len() as u64,
                "cold": p.cold_ms.len() as u64,
                "warm_p50_ms": stats::median_of(p.warm_ms.clone()),
                "cold_p50_ms": stats::median_of(p.cold_ms.clone()),
            }),
        );
        out.note(
            "calm_passes",
            json!({
                "share": stats::CALM_SHARE,
                "of": p.pass_steal.len() as u64,
                "steal_median_all": stats::median_of(p.pass_steal.clone()),
                "steal_max_kept": calm.iter().map(|&i| p.pass_steal[i]).fold(0.0, f64::max),
            }),
        );
        out.checks = p.checks;
        return Ok(out);
    }

    let plain = measure(&env, &mut rng, args.seconds / 2.0).map_err(fail)?;
    let probe = Probe::start();
    let p = measure(&env, &mut rng, args.seconds / 2.0).map_err(fail)?;
    let traced = probe.finish();
    let tenants = p.latency_ms.len() as f64;
    traced.common(tenants, p.busy_s, &mut out);
    out.set("store.commit_p50_ms", stats::median_of(p.commit_ms.clone()));
    out.set(
        "store.commit_last_ms",
        p.commit_ms.last().copied().unwrap_or(0.0),
    );
    out.set(
        "store.commit_bytes",
        stats::median_of(p.commit_bytes.clone()),
    );
    out.set(
        "store.warm_start_ms",
        stats::median_of(p.warm_start_ms.clone()),
    );
    out.set("store.open_ms", stats::median_of(p.open_ms.clone()));
    out.set(
        "store.bytes_per_tenant",
        file_len(&env.base) / STORED as f64,
    );
    out.set("ckks.keygen_ms", stats::median_of(p.keygen_ms.clone()));
    serve::record_requests(&p.requests, &mut out);
    let batch: Vec<f64> = p.requests.iter().map(|r| r.batch_requests as f64).collect();
    out.set("serve.batch_requests_mean", stats::mean(&batch));
    let top = env.ctx.params().max_level;
    serve::model(
        &[(&env.hmult, p.requests.len())],
        env.ctx.params(),
        top,
        &mut out,
    );
    let p50 = |v: &[f64]| stats::median_of(v.to_vec());
    out.set(
        "trace.overhead_frac",
        p50(&p.latency_ms) / p50(&plain.latency_ms) - 1.0,
    );
    out.note(
        "store",
        json!({
            "setup_keygen_ms_p50": stats::median_of(env.keygen_ms.clone()),
            "stored_tenants": STORED,
        }),
    );
    out.checks = plain.checks;
    out.checks.merge(p.checks);
    Ok(out)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
