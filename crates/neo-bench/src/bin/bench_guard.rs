//! `bench_guard` — the CI perf-regression gate.
//!
//! Re-runs the tracked micro-kernels (portable backend, the same setups
//! as `backend_bench`) plus the deterministic 4-stream KLSS HMult
//! schedule and the `neo-plan` autotuner's planned-HMult makespan,
//! compares each median against the committed baselines in
//! `results/baselines.json`, and applies the [`neo_bench::guard`] policy:
//! >15% slower fails the build (exit 1), >7% warns.
//!
//! Artifacts:
//! * `BENCH_metrics.json` (repo root) — the metrics-gate overhead
//!   measurement (disabled vs enabled, `BENCH_trace.json` methodology)
//!   plus per-kernel guard verdicts;
//! * `results/bench_guard.prom` — a Prometheus-text snapshot of the
//!   metrics registry populated during the run (NTT latency histograms,
//!   plan-cache gauges, scheduler utilization, guard gauges);
//! * `results/bench_guard.json` (or `--out <path>`) — the JSON report.
//!
//! Flags: `--update-baselines` rewrites `results/baselines.json` with
//! this run's medians (promotion; never fails the build).
//! `NEO_GUARD_INJECT_PCT=<pct>` synthetically inflates every measured
//! value so CI can prove the gate trips on a regression.

use neo_bench::guard::{self, Baselines, GuardResult, Verdict};
use neo_bench::measure::{self, MeasureConfig, Measurement};
use neo_bench::{emit, fmt_time};
use neo_ckks::cost::{CostConfig, Operation};
use neo_ckks::sched::batch_op_graph;
use neo_ckks::{BatchOp, BatchProgram, CkksParams, FheEngine, KeyTarget, ParamSet, Slot};
use neo_gpu_sim::DeviceModel;
use neo_math::{BackendKind, Modulus, RnsBasis};
use neo_ntt::{radix2, NttPlan};
use neo_sched::{publish_utilization, simulate, SimConfig};
use neo_serve::{price_request, AdmissionConfig, AdmissionQueue, QueuedRequest};
use neo_store::SessionStore;
use neo_tcu::{BackendGemm, GemmEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::fmt::Write as _;
use std::path::Path;

const BASELINE_PATH: &str = "results/baselines.json";
const PROM_PATH: &str = "results/bench_guard.prom";

fn us3(m: &Measurement) -> serde_json::Value {
    json!([m.min_ns / 1e3, m.median_ns / 1e3, m.max_ns / 1e3])
}

fn verdict_tag(v: Verdict) -> &'static str {
    match v {
        Verdict::Warn => "WARN",
        Verdict::Fail => "FAIL",
        _ => v.tag(),
    }
}

fn main() {
    let update_baselines = std::env::args().any(|a| a == "--update-baselines");
    let cfg = MeasureConfig::from_env();
    let inject = guard::inject_pct();
    // The run itself exercises the instrumented paths with metrics live,
    // so the .prom artifact carries real series; the gate-overhead
    // measurement below toggles the gate explicitly around its loops.
    neo_metrics::reset();
    neo_trace::disable();

    // --- Kernel setups (portable backend, backend_bench's inputs). ---
    let n = 1usize << 14;
    let q = neo_math::primes::ntt_primes(55, n, 1).expect("55-bit NTT prime exists")[0];
    let plan = NttPlan::with_backend(q, n, BackendKind::Portable).expect("plan builds");
    let mut rng = StdRng::seed_from_u64(0xbe);
    let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();

    // Metrics-gate overhead on the NTT hot path (BENCH_trace.json
    // methodology): the same instrumented kernel with the gate off (one
    // relaxed load per transform, no clock reads) vs on (two `Instant`
    // reads plus a histogram record per transform).
    neo_metrics::disable();
    let ntt_disabled = measure::time(&cfg, || {
        let mut x = a.clone();
        radix2::forward(&plan, &mut x);
        x
    });
    neo_metrics::enable();
    let ntt_enabled = measure::time(&cfg, || {
        let mut x = a.clone();
        radix2::forward(&plan, &mut x);
        x
    });
    let gate_ratio = ntt_enabled.median_ns / ntt_disabled.median_ns;
    // The disabled run is also the guard's tracked NTT measurement.
    let ntt = ntt_disabled;

    let src = RnsBasis::new(&neo_math::primes::ntt_primes(36, n, 3).expect("primes"))
        .expect("basis builds");
    let dst = RnsBasis::new(&neo_math::primes::ntt_primes(40, n, 4).expect("primes"))
        .expect("basis builds");
    let table = neo_math::BconvTable::new(&src, &dst)
        .expect("table builds")
        .with_backend(BackendKind::Portable);
    let limbs: Vec<Vec<u64>> = src
        .moduli()
        .iter()
        .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
        .collect();
    let bconv = measure::time(&cfg, || table.convert_exact(&limbs));

    let dim = 256usize;
    let qm = Modulus::new(q).expect("prime is a valid modulus");
    let ga: Vec<u64> = (0..dim * dim).map(|_| rng.gen_range(0..q)).collect();
    let gb: Vec<u64> = (0..dim * dim).map(|_| rng.gen_range(0..q)).collect();
    let engine = BackendGemm::new(BackendKind::Portable);
    let gemm = measure::time(&cfg, || {
        let mut out = vec![0u64; dim * dim];
        engine.gemm(&qm, &ga, &gb, dim, dim, dim, &mut out);
        out
    });

    // Deterministic simulated kernel: the 4-stream fused KLSS HMult
    // schedule on the A100 model (sched_sweep's flagship scenario).
    let p = ParamSet::C.params();
    let hmult = batch_op_graph(&p, 35, Operation::HMult, &CostConfig::neo(), 8);
    let (hmult_fused, _) = hmult.fuse_elementwise();
    let sched = simulate(&hmult_fused, &DeviceModel::a100(), SimConfig::streams(4));
    publish_utilization(&sched);

    // Deterministic serve-layer kernel: eight paper-scale requests (two
    // multiply-rescale-add, six rotate-accumulate — serve_bench's
    // workload mix) through sim-priced coalescing admission; the tracked
    // value is the merged batch's estimated multi-stream makespan.
    let dev = DeviceModel::a100();
    let serve_cost = CostConfig::neo();
    let mut queue = AdmissionQueue::new(AdmissionConfig {
        makespan_budget: std::time::Duration::from_secs(86_400),
        ..AdmissionConfig::default()
    });
    for i in 0..8u64 {
        let mut prog = BatchProgram::new();
        if i % 4 == 0 {
            let m = prog
                .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(0)))
                .expect("push");
            let rs = prog.try_push(BatchOp::Rescale(m)).expect("push");
            prog.try_push(BatchOp::HAdd(rs, rs)).expect("push");
        } else {
            let r = prog
                .try_push(BatchOp::HRotate(Slot::Input(0), 1))
                .expect("push");
            prog.try_push(BatchOp::HAdd(r, Slot::Input(0)))
                .expect("push");
        }
        let solo = price_request(&prog, &p, 35, &serve_cost, &dev);
        queue
            .try_enqueue(QueuedRequest {
                id: i + 1,
                tenant: i,
                program: prog,
                inputs: Vec::new(), // pricing never touches ciphertexts
                level: 35,
                noise_bits: 30.0,
                solo_est: solo,
                submitted: std::time::Instant::now(),
            })
            .expect("queue is empty enough");
    }
    let serve_batch = queue.coalesce(&p, &dev).expect("eight requests queued");

    // Deterministic planner kernel: the autotuner's chosen makespan for
    // the eight-copy HMult batch (plan_bench's flagship workload). A
    // regression here means either the simulator got slower-looking or
    // the sweep stopped finding the winning configuration.
    let mut plan_prog = BatchProgram::new();
    for i in 0..8 {
        let m = plan_prog
            .try_push(BatchOp::HMult(Slot::Input(i), Slot::Input(i)))
            .expect("push");
        plan_prog.try_push(BatchOp::Rescale(m)).expect("push");
    }
    let planner = neo_plan::Planner::new(p.clone(), dev.clone());
    let hmult_plan = planner
        .plan_program(&plan_prog, 35)
        .expect("plan space has feasible candidates");

    // Persistent-store kernel: warm-starting one session (recovery scan
    // + b-part decode + a-part regeneration from the key seed) from a
    // committed store file. A regression here means hydration got slower
    // than the cold keygen it exists to beat.
    let store_path = {
        let mut p = std::env::temp_dir();
        p.push(format!("neo-bench-guard-{}.neostore", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    // Portable like the kernels above, so the baseline does not move
    // with the host's default backend.
    let mut store_params = CkksParams::test_tiny();
    store_params.backend = BackendKind::Portable;
    let store_ctx = std::sync::Arc::new(neo_ckks::CkksContext::new(store_params).expect("params"));
    let store_level = store_ctx.params().max_level;
    {
        let engine = FheEngine::with_context(store_ctx.clone(), 0xbe);
        engine
            .chest()
            .warm(store_level, KeyTarget::Relin, engine.method())
            .expect("cold keygen");
        let mut ss = SessionStore::open(&store_path, store_ctx.clone()).expect("open store");
        ss.save_engine(0, &engine, 0xbe);
        ss.commit().expect("commit");
    }
    let store_warm = measure::time(&cfg, || {
        let mut ss = SessionStore::open(&store_path, store_ctx.clone()).expect("reopen");
        ss.warm_start(0).expect("warm start").expect("persisted")
    });
    let _ = std::fs::remove_file(&store_path);

    // --- Guard evaluation. ---
    let baselines = match Baselines::load(Path::new(BASELINE_PATH)) {
        Ok(b) => b.unwrap_or_default(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let measured: Vec<(&str, f64)> = vec![
        ("ntt_forward_n16384", guard::apply_injection(ntt.median_ns)),
        ("bconv_exact_3to4", guard::apply_injection(bconv.median_ns)),
        ("gemm_256", guard::apply_injection(gemm.median_ns)),
        (
            "sched_klss_hmult_makespan",
            guard::apply_injection(sched.makespan_s),
        ),
        (
            "serve_coalesce8_makespan",
            guard::apply_injection(serve_batch.est_makespan.as_secs_f64()),
        ),
        (
            "plan_hmult8_makespan",
            guard::apply_injection(hmult_plan.predicted_makespan_s),
        ),
        (
            "store_warm_start_1tenant",
            guard::apply_injection(store_warm.median_ns),
        ),
    ];
    let results: Vec<GuardResult> = measured
        .iter()
        .map(|(k, v)| guard::evaluate(k, baselines.get(k), *v))
        .collect();
    let overall = guard::overall(&results);

    // Publish the verdicts as gauges so the .prom artifact carries them.
    for r in &results {
        neo_metrics::gauge("bench_guard_change_pct", &[("kernel", &r.kernel)]).set(r.change_pct);
        neo_metrics::gauge("bench_guard_measured", &[("kernel", &r.kernel)]).set(r.measured);
    }
    neo_metrics::gauge("bench_guard_inject_pct", &[]).set(inject);

    // --- Human report. ---
    let mut human = format!(
        "bench_guard: perf-regression gate (warn >{:.0}%, fail >{:.0}%)\n\
         warmup {:?}, measure {:?}, {} samples; inject {:+.1}%\n\n\
         kernel                    | baseline     | measured     | change   | verdict\n\
         --------------------------+--------------+--------------+----------+--------\n",
        guard::WARN_PCT,
        guard::FAIL_PCT,
        cfg.warmup,
        cfg.measure,
        cfg.samples,
        inject,
    );
    for r in &results {
        let unit_time = |v: f64| {
            if r.kernel.starts_with("sched_")
                || r.kernel.starts_with("serve_")
                || r.kernel.starts_with("plan_")
            {
                fmt_time(v)
            } else {
                fmt_time(v / 1e9)
            }
        };
        let base = r.baseline.map_or_else(
            || "     --     ".to_string(),
            |b| format!("{:>12}", unit_time(b)),
        );
        let _ = writeln!(
            human,
            "{:25} | {base} | {:>12} | {:+7.2}% | {}",
            r.kernel,
            unit_time(r.measured),
            r.change_pct,
            verdict_tag(r.verdict),
        );
    }
    let _ = writeln!(
        human,
        "\nmetrics gate on NTT fwd n=16384: disabled {} vs enabled {} ({:.3}x)",
        fmt_time(ntt.median_ns / 1e9),
        fmt_time(ntt_enabled.median_ns / 1e9),
        gate_ratio,
    );
    let _ = writeln!(human, "overall: {}", verdict_tag(overall));

    // --- Artifacts. ---
    let snap = neo_metrics::registry().snapshot();
    neo_metrics::disable();
    let prom = neo_metrics::export::prometheus_text(&snap);
    if let Some(dir) = Path::new(PROM_PATH).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(PROM_PATH, &prom) {
        Ok(()) => eprintln!("[wrote {PROM_PATH}]"),
        Err(e) => eprintln!("warning: could not write {PROM_PATH}: {e}"),
    }

    let doc = json!({
        "description": "CI perf-regression gate: tracked kernel medians vs the committed \
                        results/baselines.json (warn >7%, fail >15%), plus the neo-metrics \
                        gate-overhead measurement on the NTT hot path. Re-run with: \
                        cargo run --release -p neo-bench --bin bench_guard; promote new \
                        baselines with --update-baselines.",
        "config": {
            "warmup_ms": cfg.warmup.as_millis() as u64,
            "measure_ms": cfg.measure.as_millis() as u64,
            "samples": cfg.samples,
            "inject_pct": inject,
            "baseline_file": BASELINE_PATH,
        },
        "gate_overhead": {
            "kernel": "ntt_forward_n16384 (portable)",
            "methodology": "Same instrumented binary; the metrics AtomicBool gate is \
                            toggled around two measure::time loops (BENCH_trace.json \
                            methodology). Disabled = one relaxed load per transform, no \
                            clock read; enabled = two Instant reads + one histogram \
                            record per transform.",
            "disabled_us": us3(&ntt),
            "enabled_us": us3(&ntt_enabled),
            "enabled_over_disabled": gate_ratio,
            "disabled_overhead_target": "< 2% vs pre-instrumentation",
            "evidence": "The disabled path adds exactly one relaxed atomic load and one \
                         untaken branch per transform (~1e0 ns) against a multi-hundred-us \
                         kernel — structurally under 0.01%, below measurement noise.",
        },
        "guard": {
            "warn_pct": guard::WARN_PCT,
            "fail_pct": guard::FAIL_PCT,
            "updated_baselines": update_baselines,
            "results": results.iter().map(GuardResult::to_json).collect::<Vec<_>>(),
            "overall": overall.tag(),
        },
    });
    match serde_json::to_string_pretty(&doc) {
        Ok(s) => match std::fs::write("BENCH_metrics.json", s) {
            Ok(()) => eprintln!("[wrote BENCH_metrics.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_metrics.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize BENCH_metrics.json: {e}"),
    }
    emit("bench_guard", &human, doc);

    if update_baselines {
        let mut b = Baselines::default();
        for (k, v) in &measured {
            b.kernels.insert((*k).to_string(), *v);
        }
        match b.save(Path::new(BASELINE_PATH)) {
            Ok(()) => eprintln!("[updated {BASELINE_PATH}]"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return; // promotion runs never fail the build
    }
    if overall == Verdict::Fail {
        eprintln!(
            "bench_guard: FAIL — at least one kernel regressed past {}%",
            guard::FAIL_PCT
        );
        std::process::exit(1);
    }
}
