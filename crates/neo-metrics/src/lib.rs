//! # neo-metrics — production metrics for the Neo workspace
//!
//! Where `neo-trace` answers *"how much work did this section do"* (exact
//! counters cross-checked against the paper's cost formulas), this crate
//! answers the questions a serving layer asks: *what is p99 HMult
//! latency*, *how fast is the noise budget draining*, *what fraction of
//! the simulated streams is busy*, *is the plan cache hitting*. Three
//! cooperating pieces, all dependency-free:
//!
//! * **Histograms** ([`Histogram`]): lock-free log-linear (HDR-style)
//!   value recorders with bounded relative error (≤ 1/32 per bucket),
//!   mergeable across threads, with `p50/p90/p95/p99/max` read out of an
//!   immutable [`HistogramSnapshot`].
//! * **Registry** ([`MetricsRegistry`]): counters, gauges, and histograms
//!   keyed by `(name, labels)`. A process-wide default registry
//!   ([`registry()`][fn@registry]) backs the convenience constructors [`counter`],
//!   [`gauge`], and [`histogram`]. [`MetricsRegistry::snapshot`] captures
//!   every metric at one instant; [`MetricsSnapshot::since`] yields the
//!   delta between two snapshots.
//! * **Exporters** ([`export`]): Prometheus text exposition and a
//!   self-contained JSON document, both emitted by hand so the crate
//!   stays dependency-free. Histograms export as Prometheus summaries
//!   (`{quantile="..."}` series plus `_count`/`_sum`/`_max`).
//!
//! ## Gate discipline
//!
//! Recording follows the same near-zero-cost discipline as `neo-trace`:
//! a process-wide `AtomicBool` gate, off by default. Every instrumented
//! hot path checks [`enabled`] *before* touching a clock or a handle, so
//! the disabled cost is a single relaxed load per site (measured < 2% on
//! the NTT hot path — see `BENCH_metrics.json`). Enabled recording is one
//! relaxed `fetch_add` per histogram bucket plus the `Instant` pair at the
//! call site; registry lookups on hot paths are amortised by caching the
//! returned handles.
//!
//! ```rust
//! neo_metrics::enable();
//! let h = neo_metrics::histogram("demo_latency_ns", &[("op", "hmult")]);
//! h.record(1_250);
//! h.record(900);
//! let snap = neo_metrics::registry().snapshot();
//! let hist = snap.histogram("demo_latency_ns", &[("op", "hmult")]).unwrap();
//! assert_eq!(hist.count, 2);
//! assert!(hist.quantile(0.5) >= 900);
//! neo_metrics::disable();
//! ```

#![deny(clippy::unwrap_used)]

pub mod export;
pub mod hist;
pub mod jsonv;
pub mod registry;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{
    counter, gauge, histogram, registry, CounterHandle, GaugeHandle, MetricKey, MetricValue,
    MetricsRegistry, MetricsSnapshot,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide metrics gate. Off by default: every instrumented site
/// costs one relaxed load and records nothing.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metrics recording currently enabled?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metrics recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns metrics recording off. Recorded data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears every metric in the default registry (the gate is left
/// untouched). Outstanding handles keep working — they re-register on
/// next use — but values recorded before the reset are gone.
pub fn reset() {
    registry().clear();
}

/// Serialises this crate's tests that toggle the process-wide gate:
/// `cargo test` runs tests on parallel threads, and one test's
/// `disable()` would otherwise drop another's gated records.
#[cfg(test)]
pub(crate) fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the unit value needs no repair.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles_recording() {
        let _gate = gate_lock();
        // Unique metric name: tests share the process-wide registry.
        let h = histogram("gate_toggles_recording_ns", &[]);
        disable();
        h.record(10);
        enable();
        h.record(20);
        disable();
        let snap = registry().snapshot();
        let hist = snap
            .histogram("gate_toggles_recording_ns", &[])
            .expect("registered");
        assert_eq!(hist.count, 1, "only the gated-on record must land");
    }
}
