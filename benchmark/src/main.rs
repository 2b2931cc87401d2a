//! The Neo-RS benchmark: three workloads that drive the public APIs of
//! `neo-serve`, `neo-ckks`, `neo-apps` and `neo-store` end to end.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve-many-tenants|helr-train-n13|onboard-store> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures with all telemetry off and reports
//! the end-to-end metrics. With `--trace 1` it measures once untraced and
//! once with `neo-trace`, `neo-metrics` and the counting allocator on,
//! and reports the per-layer metrics plus the tracing overhead. Every
//! output is decrypted and compared against a plaintext reference; a
//! wrong output makes the command exit non-zero. The last line of
//! standard output is one JSON object; the line before it carries each
//! metric's `host` / `a100_model` label, the tail percentiles with their
//! sample counts and the per-rate serving ladder.

mod alloc;
mod helr;
mod layers;
mod onboard;
mod serve;
mod stats;

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed of tenant `id`'s keys, derived from the run's seed.
pub fn tenant_seed(seed: u64, id: u64) -> u64 {
    seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outputs checked against the plaintext reference.
    pub checks: stats::Checks,
    /// Metric values by name (end-to-end or per-layer, by run kind).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context printed beside the metrics (percentiles, sample counts,
    /// ladder steps).
    pub detail: Map,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one piece of context.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.detail.insert(key.to_string(), value.into());
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve-many-tenants" => serve::run(args),
        "helr-train-n13" => helr::run(args),
        "onboard-store" => onboard::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("neo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let steal = stats::Steal::start();
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("neo-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    // Time the host's hypervisor gave this machine's CPUs to others: a
    // validity check on every timing of the run.
    let steal = steal.share();
    outcome.note("host_steal_frac", steal);
    if args.trace {
        outcome.set("host.steal_frac", steal);
    }
    let table = if args.trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    let mut metrics = Map::new();
    let mut about_metrics = Map::new();
    for spec in table {
        let exercised = outcome.metrics.remove(spec.name);
        let value = exercised.unwrap_or(0.0);
        assert!(value.is_finite(), "{} is not finite", spec.name);
        metrics.insert(
            spec.name.to_string(),
            serde_json::json!({"value": value, "unit": spec.unit}),
        );
        let label = if exercised.is_some() {
            spec.label
        } else {
            "not_exercised"
        };
        let mut about = Map::new();
        about.insert("label".into(), label.into());
        if !spec.moves.is_empty() {
            about.insert("moves".into(), spec.moves.into());
        }
        about_metrics.insert(spec.name.to_string(), Value::Object(about));
    }
    assert!(
        outcome.metrics.is_empty(),
        "metrics missing from the table: {:?}",
        outcome.metrics.keys().collect::<Vec<_>>()
    );
    let checks = outcome.checks;
    let correct = checks.wrong == 0 && checks.checked > 0;
    outcome.note("metrics", Value::Object(about_metrics));
    outcome.note("workload", args.workload.as_str());
    outcome.note("seed", args.seed);
    outcome.note("trace", args.trace);
    let detail = serde_json::json!({ "detail": Value::Object(outcome.detail) });
    println!(
        "{}",
        serde_json::to_string(&detail).expect("detail serializes")
    );
    let result = serde_json::json!({
        "correct": correct,
        "attempted": checks.checked,
        "failed": checks.wrong,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "neo-benchmark: {} of {} checked outputs were wrong",
            checks.wrong, checks.checked
        );
        ExitCode::FAILURE
    }
}
