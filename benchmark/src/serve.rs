//! `serve-many-tenants`: open-loop Poisson traffic from many tenants
//! against [`NeoService`].
//!
//! 1024 tenants share one `test_tiny` (N = 2^8) context; admission
//! prices requests against `ParamSet::C`. Requests go to uniformly random
//! tenants: 70% rotate-accumulate, 30% square-rescale-add. The load
//! generator (this thread) sends each request when it is due, whatever
//! the service is doing, and a collector thread timestamps each
//! completion, so latency runs from the time a request was due to the
//! result in hand. The offered rate steps through a fixed ladder below,
//! at and above the host's saturation point.

use crate::layers::Probe;
use crate::stats::{self, Checks, Tail};
use crate::{tenant_seed, Args, Outcome};
use neo_ckks::cost::CostConfig;
use neo_ckks::{BatchOp, BatchProgram, Ciphertext, CkksParams, NeoError, ParamSet, Slot};
use neo_gpu_sim::DeviceModel;
use neo_serve::{AdmissionConfig, NeoService, ResponseHandle, ServeConfig, TenantRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const TENANTS: u64 = 1024;
/// Level every request's input is encrypted at.
const LEVEL: usize = 3;
/// Percent of requests that run the square-rescale-add program.
const HEAVY_PCT: u32 = 30;
/// Offered rates (requests/s) of the ladder, ascending, and the share of
/// the run's measured seconds each gets. Saturation on a 2-core host is
/// near 2000/s, where the service flips between a backlog-free and a
/// backlogged state from run to run; the ladder brackets that point
/// instead of sitting on it.
const LADDER: [(f64, f64); 4] = [(500.0, 0.4), (1000.0, 0.15), (1500.0, 0.2), (3000.0, 0.25)];
/// Ladder step whose latency and failures are reported.
const NOMINAL: usize = 0;
/// Ladder step whose completion rate is reported as throughput.
const OVERLOAD: usize = 3;
/// Tail-latency limit a rate must meet to count toward `max_rate_rps`.
pub const LIMIT_MS: f64 = 100.0;
/// Latency a refused or failed request counts as: it misses the limit.
const MISS_MS: f64 = 10.0 * LIMIT_MS;
/// Seconds at the start of each step that are sent, served and checked
/// but left out of its statistics, while the queue settles at the new
/// rate.
const RAMP_S: f64 = 1.0;
/// Seconds per statistics window; a step reports the median over its
/// windows, so one stall moves one window, not the step's figure.
const WINDOW_S: f64 = 1.0;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seconds of untimed traffic at the nominal rate that end each setup.
const WARMUP_S: f64 = 0.3;
/// Largest absolute slot error an output may have and still be correct.
const TOLERANCE: f64 = 1.0 / 1024.0;

/// Rotate-and-accumulate: `v + rot(v, 1)`.
fn light_program() -> BatchProgram {
    let mut p = BatchProgram::new();
    let r = p
        .try_push(BatchOp::HRotate(Slot::Input(0), 1))
        .expect("valid op");
    p.try_push(BatchOp::HAdd(r, Slot::Input(0)))
        .expect("valid op");
    p
}

/// Square, rescale, double: `2·v²`.
fn heavy_program() -> BatchProgram {
    let mut p = BatchProgram::new();
    let sq = p
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
        .expect("valid op");
    let rs = p.try_push(BatchOp::Rescale(sq)).expect("valid op");
    p.try_push(BatchOp::HAdd(rs, rs)).expect("valid op");
    p
}

/// The plaintext reference of a program's output.
fn expected(v: &[f64], heavy: bool) -> Vec<f64> {
    let n = v.len();
    (0..n)
        .map(|i| {
            if heavy {
                2.0 * v[i] * v[i]
            } else {
                v[i] + v[(i + 1) % n]
            }
        })
        .collect()
}

/// One tenant's encrypted input and its plaintext.
struct Input {
    ct: Ciphertext,
    values: Vec<f64>,
}

/// A registry with every tenant's keys warm, one input per tenant and a
/// running service.
struct Env {
    registry: Arc<TenantRegistry>,
    inputs: Vec<Input>,
    programs: [BatchProgram; 2],
    service: NeoService,
    /// Host time per generated key during setup, ms.
    keygen_ms: Vec<f64>,
}

/// The service configuration: defaults, with admission pricing requests
/// against the accelerator's `ParamSet::C` rather than the functional
/// parameters the host runs.
pub fn config() -> ServeConfig {
    ServeConfig {
        admission: AdmissionConfig {
            pricing_params: Some(ParamSet::C.params()),
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// One answered request as the client saw it, ms.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// From due (or call) time to result in hand.
    pub latency_ms: f64,
    /// `Response::queue`.
    pub queue_ms: f64,
    /// `Response::exec`.
    pub exec_ms: f64,
    /// `Response::retries`.
    pub retries: u32,
    /// `Response::batch_requests`.
    pub batch_requests: usize,
}

/// Records the serving-layer metrics of a set of answered requests:
/// queue wait, execution, the client-side remainder (channels, dispatch
/// and wake-ups) and retries. Returns the summed execution time, s.
pub fn record_requests(served: &[Served], out: &mut Outcome) -> f64 {
    let requests = served.len().max(1) as f64;
    let col = |f: fn(&Served) -> f64| {
        let mut v: Vec<f64> = served.iter().map(f).collect();
        stats::sort(&mut v);
        v
    };
    let queue = col(|d| d.queue_ms);
    let exec = col(|d| d.exec_ms);
    let overhead = col(|d| d.latency_ms - d.queue_ms - d.exec_ms);
    let retries = served.iter().map(|d| f64::from(d.retries)).sum::<f64>();
    out.set("serve.queue_wait_p50_ms", stats::median(&queue));
    out.set("serve.queue_wait_tail_ms", Tail::of(&queue).value);
    out.set("serve.exec_p50_ms", stats::median(&exec));
    out.set("serve.overhead_p50_ms", stats::median(&overhead));
    out.set("fault.retries_per_req", retries / requests);
    exec.iter().sum::<f64>() / 1e3
}

fn build(seed: u64) -> Result<Env, NeoError> {
    let registry = Arc::new(TenantRegistry::new(CkksParams::test_tiny())?);
    let programs = [light_program(), heavy_program()];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::with_capacity(TENANTS as usize);
    let mut keygen_ms = Vec::with_capacity(TENANTS as usize);
    for id in 0..TENANTS {
        let t = Instant::now();
        let session = registry.register_default(id, tenant_seed(seed, id))?;
        let engine = session.engine();
        for p in &programs {
            engine.warm_program(p, LEVEL)?;
        }
        // A key pair, a relinearization key and one rotation key.
        keygen_ms.push(t.elapsed().as_secs_f64() * 1e3 / 3.0);
        let values: Vec<f64> = (0..engine.slots())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let ct = engine.encrypt_f64(&values, LEVEL)?;
        inputs.push(Input { ct, values });
    }
    let service = NeoService::spawn(Arc::clone(&registry), config());
    Ok(Env {
        registry,
        inputs,
        programs,
        service,
        keygen_ms,
    })
}

/// One arrival of the seeded schedule.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Offset from the start of the step.
    at: Duration,
    tenant: u64,
    heavy: bool,
}

/// Poisson arrivals at `rate` for `seconds`, to uniformly random tenants.
fn schedule(rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Arrival {
            at: Duration::from_secs_f64(t),
            tenant: rng.gen_range(0..TENANTS),
            heavy: rng.gen_range(0..100u32) < HEAVY_PCT,
        });
    }
}

/// One request the collector has seen through.
struct Done {
    arrival: Arrival,
    /// From due time to result in hand.
    latency_ms: f64,
    queue_ms: f64,
    exec_ms: f64,
    batch_requests: usize,
    retries: u32,
    finished: Instant,
    /// The program's final ciphertext (taken once checked), or why there
    /// is none.
    output: Result<Option<Ciphertext>, NeoError>,
}

const SHED_REASONS: [&str; 4] = ["channel", "queue_depth", "tenant_inflight", "retry_budget"];

/// What one ladder step measured.
struct Step {
    rate: f64,
    /// Ramp plus measured seconds.
    seconds: f64,
    /// When the first arrival could be due.
    start: Instant,
    sent: usize,
    /// Requests shed at submission or admission, by reason.
    shed: [(&'static str, u64); 4],
    /// Due offsets of requests shed at submission (they never reach the
    /// collector).
    refused_at: Vec<Duration>,
    done: Vec<Done>,
    /// Requests sent but not answered when the last arrival was due.
    backlog_end: u64,
    /// How late each request was sent, ms.
    lag_ms: Vec<f64>,
}

impl Step {
    fn note_shed(&mut self, e: &NeoError) {
        if let NeoError::Overloaded { what, .. } = e {
            if let Some(slot) = self.shed.iter_mut().find(|(w, _)| w == what) {
                slot.1 += 1;
            }
        }
    }

    fn shed_total(&self) -> u64 {
        self.shed.iter().map(|(_, n)| n).sum()
    }

    fn windows(&self) -> usize {
        (((self.seconds - RAMP_S) / WINDOW_S).round() as usize).max(1)
    }

    /// Statistics window of a time offset into the step, if it lies
    /// after the ramp and before the end.
    fn window_of(&self, secs: f64) -> Option<usize> {
        let w = (self.seconds - RAMP_S) / self.windows() as f64;
        let i = (secs - RAMP_S) / w;
        (secs >= RAMP_S && i < self.windows() as f64).then_some(i as usize)
    }

    /// Requests due after the ramp: `(served, attempted)`.
    fn measured_counts(&self) -> (usize, usize) {
        let after = |at: &Duration| at.as_secs_f64() >= RAMP_S;
        let due: Vec<&Done> = self.done.iter().filter(|d| after(&d.arrival.at)).collect();
        let served = due.iter().filter(|d| d.output.is_ok()).count();
        let refused = self.refused_at.iter().filter(|at| after(at)).count();
        (served, due.len() + refused)
    }

    /// Per window of due times: sorted latencies of served requests, and
    /// the same with every refused or failed request as a [`MISS_MS`]
    /// sample.
    fn window_latencies(&self) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut w = vec![(Vec::new(), Vec::new()); self.windows()];
        for d in &self.done {
            let Some(i) = self.window_of(d.arrival.at.as_secs_f64()) else {
                continue;
            };
            if d.output.is_ok() {
                w[i].0.push(d.latency_ms);
                w[i].1.push(d.latency_ms);
            } else {
                w[i].1.push(MISS_MS);
            }
        }
        for at in &self.refused_at {
            if let Some(i) = self.window_of(at.as_secs_f64()) {
                w[i].1.push(MISS_MS);
            }
        }
        for (served, all) in &mut w {
            stats::sort(served);
            stats::sort(all);
        }
        w
    }

    /// Median over windows of each window's median served latency, ms.
    fn p50_ms(&self) -> f64 {
        stats::median_of(
            self.window_latencies()
                .iter()
                .map(|(served, _)| stats::median(served))
                .collect(),
        )
    }

    /// Median over windows of each window's tail, and the window tails.
    fn tail(&self) -> (f64, Vec<Tail>) {
        let tails: Vec<Tail> = self
            .window_latencies()
            .iter()
            .map(|(_, all)| Tail::of(all))
            .collect();
        (
            stats::median_of(tails.iter().map(|t| t.value).collect()),
            tails,
        )
    }

    /// Median over windows of the rate of served completions, 1/s.
    fn completed_rps(&self) -> f64 {
        let w = (self.seconds - RAMP_S) / self.windows() as f64;
        let mut per = vec![0.0f64; self.windows()];
        for d in self.done.iter().filter(|d| d.output.is_ok()) {
            let secs = d
                .finished
                .saturating_duration_since(self.start)
                .as_secs_f64();
            if let Some(i) = self.window_of(secs) {
                per[i] += 1.0 / w;
            }
        }
        stats::median_of(per)
    }

    /// No shedding, a tail within the limit, and no more requests
    /// outstanding at the end than the limit lets the rate queue up.
    fn meets_limit(&self) -> bool {
        self.shed_total() == 0
            && self.tail().0 <= LIMIT_MS
            && (self.backlog_end as f64) <= self.rate * LIMIT_MS / 1e3
    }

    fn to_json(&self) -> Value {
        let mut lag = self.lag_ms.clone();
        stats::sort(&mut lag);
        let (tail, windows) = self.tail();
        json!({
            "offered_rps": self.rate,
            "seconds": self.seconds,
            "ramp_s": RAMP_S,
            "sent": self.sent as u64,
            "served": self.done.iter().filter(|d| d.output.is_ok()).count() as u64,
            "shed": self.shed_total(),
            "completed_rps": self.completed_rps(),
            "latency_p50_ms": self.p50_ms(),
            "latency_tail_ms": tail,
            "window_tails": windows.into_iter().map(Tail::to_json).collect::<Vec<Value>>(),
            "final_queue_depth": self.backlog_end,
            "lag_p99_ms": stats::quantile(&lag, 0.99),
            "meets_limit": self.meets_limit(),
        })
    }
}

/// Sends one step's arrivals open loop and collects every answer.
fn run_step(env: &Env, rng: &mut StdRng, rate: f64, seconds: f64) -> Step {
    let arrivals = schedule(rng, rate, seconds);
    let completed = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let mut step = Step {
        rate,
        seconds,
        start,
        sent: arrivals.len(),
        shed: SHED_REASONS.map(|r| (r, 0)),
        refused_at: Vec::new(),
        done: Vec::with_capacity(arrivals.len()),
        backlog_end: 0,
        lag_ms: Vec::with_capacity(arrivals.len()),
    };
    let (tx, rx) = mpsc::channel::<(Arrival, Instant, ResponseHandle)>();
    let done = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut done = Vec::with_capacity(arrivals.len());
            for (arrival, due, handle) in rx {
                let answer = handle.wait();
                let finished = Instant::now();
                completed.fetch_add(1, Ordering::Relaxed);
                let mut d = Done {
                    arrival,
                    latency_ms: (finished - due).as_secs_f64() * 1e3,
                    queue_ms: 0.0,
                    exec_ms: 0.0,
                    batch_requests: 0,
                    retries: 0,
                    finished,
                    output: Ok(None),
                };
                d.output = answer.and_then(|resp| {
                    d.queue_ms = resp.queue.as_secs_f64() * 1e3;
                    d.exec_ms = resp.exec.as_secs_f64() * 1e3;
                    d.batch_requests = resp.batch_requests;
                    d.retries = resp.retries;
                    let last = resp.outcome?.into_iter().last();
                    last.unwrap_or_else(|| Err(NeoError::invalid_params("empty program")))
                        .map(Some)
                });
                done.push(d);
            }
            done
        });
        let mut accepted = 0u64;
        for a in &arrivals {
            let due = start + a.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            step.lag_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let input = &env.inputs[a.tenant as usize];
            let program = env.programs[usize::from(a.heavy)].clone();
            match env
                .service
                .submit(a.tenant, program, vec![input.ct.clone()])
            {
                Ok(handle) => {
                    accepted += 1;
                    tx.send((*a, due, handle)).expect("collector is running");
                }
                Err(e) => {
                    step.note_shed(&e);
                    step.refused_at.push(a.at);
                }
            }
        }
        let end = start + Duration::from_secs_f64(seconds);
        let now = Instant::now();
        if end > now {
            std::thread::sleep(end - now);
        }
        step.backlog_end = accepted - completed.load(Ordering::Relaxed);
        drop(tx);
        collector.join().expect("collector thread")
    });
    for d in &done {
        if let Err(e) = &d.output {
            step.note_shed(e);
        }
    }
    step.done = done;
    step
}

/// Decrypts a request's output with its tenant's key and returns the
/// largest absolute slot error against the plaintext reference
/// (infinite if it does not decrypt).
fn output_error(env: &Env, a: Arrival, ct: &Ciphertext) -> f64 {
    let got = env
        .registry
        .get(a.tenant)
        .and_then(|session| session.engine().decrypt_f64(ct).ok());
    let Some(got) = got else {
        return f64::INFINITY;
    };
    stats::max_abs_err(
        &got,
        &expected(&env.inputs[a.tenant as usize].values, a.heavy),
    )
}

/// Checks a step's outputs once it has ended — decrypting while it runs
/// would take CPU from the service — and drops them. A refused request
/// is not an output; an execution error is a wrong one.
fn check(env: &Env, step: &mut Step) -> Checks {
    let mut checks = Checks::default();
    for d in &mut step.done {
        let err = match &mut d.output {
            Ok(ct) => ct
                .take()
                .map_or(f64::INFINITY, |ct| output_error(env, d.arrival, &ct)),
            Err(NeoError::Overloaded { .. }) => continue,
            Err(_) => f64::INFINITY,
        };
        checks.record(err, TOLERANCE);
    }
    checks
}

/// The highest offered rate meeting the limit: interpolated in log tail
/// latency between the last passing and the first failing ladder step
/// (a failing step counts as at least the limit), so the figure moves
/// smoothly as tails cross the limit.
fn max_rate(steps: &[Step]) -> f64 {
    let Some(k) = steps.iter().position(|s| !s.meets_limit()) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let fail = &steps[k];
    let t_fail = fail.tail().0.max(LIMIT_MS);
    if k == 0 {
        return fail.rate * LIMIT_MS / t_fail;
    }
    let pass = &steps[k - 1];
    let t_pass = pass.tail().0.clamp(1e-3, LIMIT_MS);
    let frac = if t_fail > t_pass {
        (LIMIT_MS / t_pass).ln() / (t_fail / t_pass).ln()
    } else {
        0.0
    };
    pass.rate + (fail.rate - pass.rate) * frac
}

fn setup(args: &Args) -> Result<(Env, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut env = None;
    for i in 0..SETUPS {
        drop(env.take());
        // Every setup starts as a fresh process would: no cached NTT plans.
        neo_ntt::cache::clear();
        let t = Instant::now();
        let e = build(args.seed).map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5e7 ^ i as u64);
        let mut warm = run_step(&e, &mut rng, LADDER[NOMINAL].0, WARMUP_S);
        times.push(t.elapsed().as_secs_f64());
        let wrong = check(&e, &mut warm).wrong;
        if wrong > 0 {
            return Err(format!("{wrong} wrong outputs during warm-up"));
        }
        env = Some(e);
    }
    eprintln!("serve: setup {times:.2?} s");
    Ok((env.expect("at least one setup"), stats::median_of(times)))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (env, setup_s) = setup(args)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut out = Outcome::default();
    out.note("setup_runs", SETUPS as u64);
    out.note("latency_limit_ms", LIMIT_MS);
    out.note("statistics_window_s", WINDOW_S);
    if args.trace {
        traced(args, &env, &mut rng, &mut out);
    } else {
        untraced(args, &env, &mut rng, &mut out, setup_s);
    }
    Ok(out)
}

/// Runs a step and adds its output checks to `out`; returns the step
/// and its wrong-output count.
fn checked_step(
    env: &Env,
    rng: &mut StdRng,
    rate: f64,
    seconds: f64,
    out: &mut Outcome,
) -> (Step, u64) {
    let mut step = run_step(env, rng, rate, seconds);
    let checks = check(env, &mut step);
    out.checks.merge(checks);
    (step, checks.wrong)
}

fn untraced(args: &Args, env: &Env, rng: &mut StdRng, out: &mut Outcome, setup_s: f64) {
    let measured = (args.seconds - RAMP_S * LADDER.len() as f64).max(LADDER.len() as f64);
    let mut steps = Vec::with_capacity(LADDER.len());
    let mut wrong_nominal = 0;
    for (i, &(rate, share)) in LADDER.iter().enumerate() {
        let (step, wrong) = checked_step(env, rng, rate, RAMP_S + measured * share, out);
        eprintln!(
            "serve: {rate} req/s offered, {:.0} completed",
            step.completed_rps()
        );
        if i == NOMINAL {
            wrong_nominal = wrong;
        }
        steps.push(step);
    }
    let nominal = &steps[NOMINAL];
    let (tail, windows) = nominal.tail();
    let (served, attempted) = nominal.measured_counts();
    out.set("setup_s", setup_s);
    out.set("throughput_rps", steps[OVERLOAD].completed_rps());
    out.set("latency_p50_ms", nominal.p50_ms());
    out.set("latency_tail_ms", tail);
    out.set("max_rate_rps", max_rate(&steps));
    // Wrong outputs are counted over the whole step, ramp included, so
    // this can only understate the share that was correct.
    out.set(
        "ok_frac",
        (served as f64 - wrong_nominal as f64).max(0.0) / attempted.max(1) as f64,
    );
    out.set("precision_bits", out.checks.bits);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.note(
        "latency_tail_windows",
        windows
            .into_iter()
            .map(Tail::to_json)
            .collect::<Vec<Value>>(),
    );
    out.note(
        "ladder",
        steps.iter().map(Step::to_json).collect::<Vec<Value>>(),
    );
}

fn traced(args: &Args, env: &Env, rng: &mut StdRng, out: &mut Outcome) {
    let per_step = (args.seconds / 3.0).max(RAMP_S + WINDOW_S);
    let nominal_rate = LADDER[NOMINAL].0;
    let (plain, _) = checked_step(env, rng, nominal_rate, per_step, out);

    let probe = Probe::start();
    let mut nominal = run_step(env, rng, nominal_rate, per_step);
    let traced = probe.finish();
    // Per-request layer figures over the whole traced step, ramp
    // included: the probe saw all of it.
    let served: Vec<Served> = nominal
        .done
        .iter()
        .filter(|d| d.output.is_ok())
        .map(|d| Served {
            latency_ms: d.latency_ms,
            queue_ms: d.queue_ms,
            exec_ms: d.exec_ms,
            retries: d.retries,
            batch_requests: d.batch_requests,
        })
        .collect();
    let exec_s = record_requests(&served, out);
    traced.common(served.len().max(1) as f64, exec_s, out);
    out.set(
        "trace.overhead_frac",
        nominal.p50_ms() / plain.p50_ms() - 1.0,
    );
    let mut lag = nominal.lag_ms.clone();
    stats::sort(&mut lag);
    out.set("loadgen.lag_p99_ms", stats::quantile(&lag, 0.99));
    out.set(
        "serve.final_queue_depth.nominal",
        nominal.backlog_end as f64,
    );
    let heavy = nominal.done.iter().filter(|d| d.arrival.heavy).count();
    let mix = [
        (&env.programs[0], nominal.done.len() - heavy),
        (&env.programs[1], heavy),
    ];
    model(&mix, env.registry.context().params(), LEVEL, out);
    let checks = check(env, &mut nominal);
    out.checks.merge(checks);

    neo_metrics::enable();
    let before = neo_metrics::registry().snapshot();
    let (overload, _) = checked_step(env, rng, LADDER[OVERLOAD].0, per_step, out);
    let batches = neo_metrics::registry()
        .snapshot()
        .since(&before)
        .counter("serve_batches_total", &[])
        .unwrap_or(0);
    neo_metrics::disable();
    let over_batch: Vec<f64> = overload
        .done
        .iter()
        .filter(|d| d.output.is_ok())
        .map(|d| d.batch_requests as f64)
        .collect();
    out.set("serve.batch_requests_mean", stats::mean(&over_batch));
    out.set("serve.batches", batches as f64);
    let shed_names = [
        "serve.shed_frac.channel",
        "serve.shed_frac.queue_depth",
        "serve.shed_frac.tenant_inflight",
        "serve.shed_frac.retry_budget",
    ];
    for (name, (_, n)) in shed_names.into_iter().zip(overload.shed) {
        out.set(name, n as f64 / overload.sent.max(1) as f64);
    }
    out.set(
        "serve.final_queue_depth.overload",
        overload.backlog_end as f64,
    );
    out.set("ckks.keygen_ms", stats::median_of(env.keygen_ms.clone()));
    out.note(
        "trace_steps",
        json!({
            "untraced_nominal": plain.to_json(),
            "traced_nominal": nominal.to_json(),
            "traced_overload": overload.to_json(),
        }),
    );
}

/// Host cost of admission pricing and the A100 model's view of a
/// request mix — `(program, requests)` pairs whose inputs sit at
/// `level` of the `functional` chain: median host time of
/// `price_request`, mean single-stream makespan at `ParamSet::C`, and
/// the simulated engine busy fractions.
pub fn model(
    mix: &[(&BatchProgram, usize)],
    functional: &CkksParams,
    level: usize,
    out: &mut Outcome,
) {
    let pricing = ParamSet::C.params();
    let level = neo_serve::admission::pricing_level(level, functional, &pricing);
    let cost = CostConfig::neo();
    let dev = DeviceModel::a100();
    let n = mix.iter().map(|&(_, k)| k).sum::<usize>().max(1) as f64;
    let mut host_us = Vec::new();
    let mut model_ms = 0.0;
    let mut busy = [0.0f64; 3];
    for &(program, k) in mix {
        let weight = k as f64 / n;
        for _ in 0..k {
            let t = Instant::now();
            let price = neo_serve::admission::price_request(program, &pricing, level, &cost, &dev);
            host_us.push(t.elapsed().as_secs_f64() * 1e6);
            model_ms += price.as_secs_f64() * 1e3 / n;
        }
        let g = program.kernel_graph(&pricing, level, &cost);
        let s = neo_sched::simulate(&g, &dev, neo_sched::SimConfig::streams(1));
        busy[0] += weight * s.busy.cuda_s / s.makespan_s;
        busy[1] += weight * s.busy.tcu_s / s.makespan_s;
        busy[2] += weight * s.busy.hbm_s / s.makespan_s;
    }
    out.set("serve.price_us", stats::median_of(host_us));
    out.set("sim.a100_ms_per_req", model_ms);
    out.set("sim.busy_frac.cuda", busy[0]);
    out.set("sim.busy_frac.tcu", busy[1]);
    out.set("sim.busy_frac.hbm", busy[2]);
}
