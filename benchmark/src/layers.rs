//! Metric tables and the traced-run probe.
//!
//! [`END_TO_END`] and [`PER_LAYER`] name every metric the benchmark
//! prints, in the order it prints them, with the label saying whether a
//! number is a host measurement or an A100-model prediction, and — for a
//! per-layer metric — the end-to-end metric and workload it should move.
//! `BENCHMARK.json` at the repository root lists the same names.
//!
//! [`Traced`] turns on `neo-trace`, `neo-metrics` and the counting
//! allocator around one measured phase and reads back what the library
//! crates export: spans (self time per op), work counters, histograms
//! and the NTT plan-cache statistics.

use crate::{alloc, Outcome};
use neo_metrics::{HistogramSnapshot, MetricsSnapshot};
use neo_trace::{Counter, WorkCounters};
use std::collections::BTreeMap;

/// Host wall time or host counts.
pub const HOST: &str = "host";
/// A100-model prediction.
pub const A100: &str = "a100_model";

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `host` or `a100_model`.
    pub label: &'static str,
    /// Which end-to-end metric (and workload) this one should move.
    pub moves: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    label: &'static str,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        label,
        moves,
    }
}

/// Metrics of the untraced run.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", HOST, ""),
    spec("throughput_rps", "1/s", HOST, ""),
    spec("latency_p50_ms", "ms", HOST, ""),
    spec("latency_tail_ms", "ms", HOST, ""),
    spec("max_rate_rps", "1/s", HOST, ""),
    spec("ok_frac", "ratio", HOST, ""),
    spec("precision_bits", "bits", HOST, ""),
    spec("peak_rss_mb", "MB", HOST, ""),
];

/// Metrics of the traced run.
pub const PER_LAYER: &[Spec] = &[
    spec(
        "loadgen.lag_p99_ms",
        "ms",
        HOST,
        "validity check, serve-many-tenants: should not move",
    ),
    spec(
        "serve.queue_wait_p50_ms",
        "ms",
        HOST,
        "latency_p50_ms, onboard-store and serve-many-tenants",
    ),
    spec(
        "serve.queue_wait_tail_ms",
        "ms",
        HOST,
        "latency_tail_ms, serve-many-tenants",
    ),
    spec(
        "serve.exec_p50_ms",
        "ms",
        HOST,
        "latency_p50_ms and throughput_rps, onboard-store and serve-many-tenants",
    ),
    spec(
        "serve.overhead_p50_ms",
        "ms",
        HOST,
        "latency_p50_ms, onboard-store; serve-many-tenants at the low rate",
    ),
    spec(
        "serve.batch_requests_mean",
        "count",
        HOST,
        "throughput_rps and max_rate_rps, serve-many-tenants",
    ),
    spec(
        "serve.batches",
        "count",
        HOST,
        "throughput_rps and max_rate_rps, serve-many-tenants",
    ),
    spec(
        "serve.shed_frac.channel",
        "ratio",
        HOST,
        "ok_frac and max_rate_rps, serve-many-tenants",
    ),
    spec(
        "serve.shed_frac.queue_depth",
        "ratio",
        HOST,
        "ok_frac and max_rate_rps, serve-many-tenants",
    ),
    spec(
        "serve.shed_frac.tenant_inflight",
        "ratio",
        HOST,
        "ok_frac and max_rate_rps, serve-many-tenants",
    ),
    spec(
        "serve.shed_frac.retry_budget",
        "ratio",
        HOST,
        "ok_frac and max_rate_rps, serve-many-tenants",
    ),
    spec(
        "serve.final_queue_depth.nominal",
        "count",
        HOST,
        "max_rate_rps, serve-many-tenants",
    ),
    spec(
        "serve.final_queue_depth.overload",
        "count",
        HOST,
        "max_rate_rps and throughput_rps, serve-many-tenants",
    ),
    spec(
        "serve.price_us",
        "us",
        HOST,
        "throughput_rps, onboard-store and serve-many-tenants",
    ),
    spec(
        "ckks.hmult_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13; serve.exec_p50_ms",
    ),
    spec(
        "ckks.hrotate_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13; serve.exec_p50_ms",
    ),
    spec(
        "ckks.rescale_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13; serve.exec_p50_ms",
    ),
    spec(
        "ckks.pmult_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.encrypt_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.decrypt_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13 and onboard-store",
    ),
    spec(
        "ckks.hmult_calls",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.hrotate_calls",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.rescale_calls",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.pmult_calls",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.encrypt_calls",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.decrypt_calls",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.keyswitch_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.keyswitch_share",
        "ratio",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.encode_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.decode_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ckks.keygen_ms",
        "ms",
        HOST,
        "setup_s, every workload; latency_tail_ms, onboard-store",
    ),
    spec(
        "ckks.unattributed_ms",
        "ms",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "ntt.transforms_per_req",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13; latency_tail_ms, onboard-store",
    ),
    spec(
        "ntt.fwd_us",
        "us",
        HOST,
        "latency_p50_ms, helr-train-n13; latency_tail_ms, onboard-store",
    ),
    spec(
        "ntt.inv_us",
        "us",
        HOST,
        "latency_p50_ms, helr-train-n13; latency_tail_ms, onboard-store",
    ),
    spec(
        "ntt.busy_share",
        "ratio",
        HOST,
        "latency_p50_ms, helr-train-n13; latency_tail_ms, onboard-store",
    ),
    spec(
        "ntt.plan_cache_hit_ratio",
        "ratio",
        HOST,
        "setup_s, every workload",
    ),
    spec(
        "math.mod_macs_per_req",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "math.mod_muls_per_req",
        "count",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "math.bytes_per_req",
        "bytes",
        HOST,
        "latency_p50_ms, helr-train-n13",
    ),
    spec(
        "store.commit_p50_ms",
        "ms",
        HOST,
        "throughput_rps and latency_tail_ms, onboard-store",
    ),
    spec(
        "store.commit_last_ms",
        "ms",
        HOST,
        "throughput_rps and latency_tail_ms, onboard-store",
    ),
    spec(
        "store.commit_bytes",
        "bytes",
        HOST,
        "throughput_rps and latency_tail_ms, onboard-store",
    ),
    spec(
        "store.warm_start_ms",
        "ms",
        HOST,
        "latency_p50_ms, onboard-store",
    ),
    spec("store.open_ms", "ms", HOST, "setup_s, onboard-store"),
    spec(
        "store.bytes_per_tenant",
        "bytes",
        HOST,
        "guard: should not move",
    ),
    spec(
        "sim.busy_frac.cuda",
        "ratio",
        A100,
        "sim.a100_ms_per_req, onboard-store and serve-many-tenants",
    ),
    spec(
        "sim.busy_frac.tcu",
        "ratio",
        A100,
        "sim.a100_ms_per_req, onboard-store and serve-many-tenants",
    ),
    spec(
        "sim.busy_frac.hbm",
        "ratio",
        A100,
        "sim.a100_ms_per_req, onboard-store and serve-many-tenants",
    ),
    spec(
        "sim.a100_ms_per_req",
        "ms",
        A100,
        "A100-model time per request at ParamSet::C, every workload",
    ),
    spec(
        "fault.retries_per_req",
        "count",
        HOST,
        "ok_frac and latency_p50_ms",
    ),
    spec(
        "fault.abft_checks_per_req",
        "count",
        HOST,
        "ok_frac and latency_p50_ms",
    ),
    spec(
        "alloc.count_per_req",
        "count",
        HOST,
        "latency_p50_ms and peak_rss_mb, helr-train-n13",
    ),
    spec(
        "alloc.bytes_per_req",
        "bytes",
        HOST,
        "latency_p50_ms and peak_rss_mb, helr-train-n13",
    ),
    spec(
        "host.steal_frac",
        "ratio",
        HOST,
        "validity check: CPU time the hypervisor took during the run; should not move",
    ),
    spec(
        "trace.overhead_frac",
        "ratio",
        HOST,
        "validity check: traced p50 / untraced p50 - 1",
    ),
];

/// Time and calls of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Spans closed under this name.
    pub calls: u64,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Summed self time (duration minus the time its child spans
    /// cover), microseconds.
    pub self_us: f64,
}

/// What a traced phase recorded.
#[derive(Debug)]
pub struct Traced {
    /// Per-span-name totals.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Work-counter deltas.
    pub work: WorkCounters,
    /// Metrics-registry deltas.
    pub metrics: MetricsSnapshot,
    /// Allocations during the phase.
    pub allocs: u64,
    /// Bytes requested during the phase.
    pub alloc_bytes: u64,
}

/// An open traced phase; [`Probe::finish`] closes it.
pub struct Probe {
    metrics: MetricsSnapshot,
    allocs: (u64, u64),
}

impl Probe {
    /// Clears recorded spans and counters and turns every gate on.
    pub fn start() -> Self {
        neo_trace::reset();
        neo_trace::enable();
        neo_metrics::enable();
        let metrics = neo_metrics::registry().snapshot();
        let allocs = alloc::totals();
        alloc::enable();
        Self { metrics, allocs }
    }

    /// Turns the gates off and collects the phase's telemetry.
    pub fn finish(self) -> Traced {
        alloc::disable();
        neo_trace::disable();
        neo_metrics::disable();
        let (allocs, alloc_bytes) = alloc::totals();
        let spans = span_stats(&neo_trace::span::spans());
        neo_trace::span::reset_spans();
        Traced {
            spans,
            work: neo_trace::snapshot(),
            metrics: neo_metrics::registry().snapshot().since(&self.metrics),
            allocs: allocs - self.allocs.0,
            alloc_bytes: alloc_bytes - self.allocs.1,
        }
    }
}

fn span_stats(nodes: &[neo_trace::SpanNode]) -> BTreeMap<&'static str, SpanStat> {
    let mut child_us = vec![0u64; nodes.len()];
    for n in nodes {
        if let (Some(p), Some(_)) = (n.parent, n.end_us) {
            child_us[p] += n.duration_us();
        }
    }
    let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for (n, child) in nodes.iter().zip(&child_us) {
        if n.end_us.is_none() {
            continue;
        }
        let d = n.duration_us();
        let s = out.entry(n.name).or_default();
        s.calls += 1;
        s.total_us += d as f64;
        s.self_us += d.saturating_sub(*child) as f64;
    }
    out
}

impl Traced {
    /// Summed stats of every span whose name starts with `prefix`.
    pub fn spans_with_prefix(&self, prefix: &str) -> SpanStat {
        self.spans
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold(SpanStat::default(), |mut acc, (_, s)| {
                acc.calls += s.calls;
                acc.total_us += s.total_us;
                acc.self_us += s.self_us;
                acc
            })
    }

    /// Summed self time of every `ckks.*` and `keyswitch.*` span, µs.
    pub fn op_self_us(&self) -> f64 {
        self.spans_with_prefix("ckks.").self_us + self.spans_with_prefix("keyswitch.").self_us
    }

    fn hist(&self, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
        self.metrics
            .histogram(name, labels)
            .cloned()
            .unwrap_or_else(HistogramSnapshot::empty)
    }

    /// Records the layer metrics every CKKS-running workload shares:
    /// per-op span self times and call counts, key switching, NTT,
    /// modular arithmetic, ABFT checks and allocations. `requests` is the
    /// number of requests the phase served and `busy_s` the host time
    /// they took, summed over requests.
    pub fn common(&self, requests: f64, busy_s: f64, out: &mut Outcome) {
        const OPS: [(&str, &str, &str); 6] = [
            ("ckks.hmult", "ckks.hmult_ms", "ckks.hmult_calls"),
            ("ckks.galois", "ckks.hrotate_ms", "ckks.hrotate_calls"),
            ("ckks.rescale", "ckks.rescale_ms", "ckks.rescale_calls"),
            ("ckks.pmult", "ckks.pmult_ms", "ckks.pmult_calls"),
            ("ckks.encrypt", "ckks.encrypt_ms", "ckks.encrypt_calls"),
            ("ckks.decrypt", "ckks.decrypt_ms", "ckks.decrypt_calls"),
        ];
        for (span, ms, calls) in OPS {
            let s = self.spans.get(span).copied().unwrap_or_default();
            out.set(calls, s.calls as f64 / requests);
            if s.calls > 0 {
                out.set(ms, s.self_us / s.calls as f64 / 1e3);
            }
        }
        let ks = self.spans_with_prefix("keyswitch.");
        if ks.calls > 0 {
            out.set("ckks.keyswitch_ms", ks.total_us / ks.calls as f64 / 1e3);
            out.set("ckks.keyswitch_share", ks.total_us / 1e6 / busy_s);
        }

        let fwd = self.hist("ntt_transform_ns", &[("dir", "fwd"), ("algo", "radix2")]);
        let inv = self.hist("ntt_transform_ns", &[("dir", "inv"), ("algo", "radix2")]);
        out.set(
            "ntt.transforms_per_req",
            (fwd.count + inv.count) as f64 / requests,
        );
        out.set("ntt.fwd_us", fwd.mean() / 1e3);
        out.set("ntt.inv_us", inv.mean() / 1e3);
        out.set("ntt.busy_share", (fwd.sum + inv.sum) as f64 / 1e9 / busy_s);
        let cache = neo_ntt::cache::stats();
        out.set(
            "ntt.plan_cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );

        let macs = self.work.get(Counter::ModMacs);
        let muls = self.work.get(Counter::ModMuls);
        let butterflies = self.work.get(Counter::NttButterflies);
        out.set("math.mod_macs_per_req", macs as f64 / requests);
        out.set("math.mod_muls_per_req", muls as f64 / requests);
        // Computed traffic of 64-bit words: a butterfly reads and writes
        // two words, a modular multiply reads two and writes one, a
        // multiply-accumulate reads two into a register accumulator.
        out.set(
            "math.bytes_per_req",
            (32 * butterflies + 24 * muls + 16 * macs) as f64 / requests,
        );
        out.set(
            "fault.abft_checks_per_req",
            self.work.get(Counter::AbftChecks) as f64 / requests,
        );
        out.set("alloc.count_per_req", self.allocs as f64 / requests);
        out.set("alloc.bytes_per_req", self.alloc_bytes as f64 / requests);
    }
}
