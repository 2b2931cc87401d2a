//! Order statistics and process measurements shared by the workloads.

use serde_json::{json, Value};

/// Sorts a sample in place (all values must be finite).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Median of a sorted sample (0 when empty).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Median of an unsorted sample.
pub fn median_of(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    median(&v)
}

/// Nearest-rank `q`-quantile of a sorted sample (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample with at least [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Its percentile, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Sample size.
    pub samples: usize,
}

impl Tail {
    /// The tail of a sorted sample: its eleventh-largest value. A sample
    /// of ten or fewer has no such percentile; its maximum is reported
    /// with percentile 100.
    pub fn of(sorted: &[f64]) -> Self {
        let n = sorted.len();
        if n <= TAIL_BEYOND {
            return Self {
                value: sorted.last().copied().unwrap_or(0.0),
                percentile: 100.0,
                samples: n,
            };
        }
        Self {
            value: sorted[n - 1 - TAIL_BEYOND],
            percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
            samples: n,
        }
    }

    /// The tail as printed beside the metrics.
    pub fn to_json(self) -> Value {
        json!({
            "value": self.value,
            "percentile": self.percentile,
            "samples": self.samples as u64,
            "beyond": TAIL_BEYOND as u64,
        })
    }
}

/// The median over consecutive windows of `window` samples (in arrival
/// order) of each window's [`Tail`], and the window tails. A trailing
/// partial window is left out unless there is no full one. One burst of
/// slow samples then moves one window's tail, not the reported figure.
pub fn windowed_tail(samples: &[f64], window: usize) -> (f64, Vec<Tail>) {
    let mut chunks: Vec<&[f64]> = samples.chunks_exact(window.max(1)).collect();
    if chunks.is_empty() {
        chunks.push(samples);
    }
    let tails: Vec<Tail> = chunks
        .into_iter()
        .map(|c| {
            let mut v = c.to_vec();
            sort(&mut v);
            Tail::of(&v)
        })
        .collect();
    (median_of(tails.iter().map(|t| t.value).collect()), tails)
}

/// Host CPU steal and total time so far, in clock ticks, from the first
/// line of `/proc/stat` (zeros where it cannot be read).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Host CPU steal over an interval: [`Steal::start`], then
/// [`Steal::share`].
#[derive(Debug, Clone, Copy)]
pub struct Steal(u64, u64);

impl Steal {
    /// Starts the interval.
    pub fn start() -> Self {
        let (steal, total) = cpu_ticks();
        Self(steal, total)
    }

    /// Share of the machine's CPU time since [`Steal::start`] that the
    /// hypervisor gave to other guests.
    pub fn share(self) -> f64 {
        let (steal, total) = cpu_ticks();
        steal.saturating_sub(self.0) as f64 / total.saturating_sub(self.1).max(1) as f64
    }
}

/// Share of the timed blocks (iterations, passes, setups) that the
/// gated workloads take their end-to-end timings from: those during which
/// the host's hypervisor took the least CPU from this machine. On a
/// shared host, steal of 10–25% was measured to stretch every timing of
/// a run by up to 2×; ranking blocks by steal, which the host reports in
/// `/proc/stat` and the program cannot influence, keeps those minutes
/// from setting a run's figures.
pub const CALM_SHARE: f64 = 0.25;

/// Indices, in block order, of the [`CALM_SHARE`] of blocks (at least
/// one) with the least steal; ties go to the earlier block.
pub fn calmest(steal: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let keep = ((steal.len() as f64 * CALM_SHARE).ceil() as usize).clamp(1, steal.len().max(1));
    idx.truncate(keep);
    idx.sort_unstable();
    idx
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `−log2` of a maximum absolute error: the bits of precision an output
/// kept. An exact output is capped at 64 bits.
pub fn precision_bits(max_abs_err: f64) -> f64 {
    if max_abs_err <= 0.0 {
        64.0
    } else {
        (-max_abs_err.log2()).min(64.0)
    }
}

/// Outputs compared with their plaintext reference.
#[derive(Debug, Clone, Copy)]
pub struct Checks {
    /// Outputs compared.
    pub checked: u64,
    /// Outputs wrong by more than the tolerance, or missing.
    pub wrong: u64,
    /// Lowest precision over the correct outputs, bits.
    pub bits: f64,
}

impl Default for Checks {
    fn default() -> Self {
        Self {
            checked: 0,
            wrong: 0,
            bits: f64::INFINITY,
        }
    }
}

impl Checks {
    /// Records one output whose largest absolute error against the
    /// reference is `err` (infinite when there is no output).
    pub fn record(&mut self, err: f64, tolerance: f64) {
        self.checked += 1;
        if err <= tolerance {
            self.bits = self.bits.min(precision_bits(err));
        } else {
            self.wrong += 1;
        }
    }

    /// Adds another tally to this one.
    pub fn merge(&mut self, other: Checks) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        self.bits = self.bits.min(other.bits);
    }
}

/// Largest absolute difference between two equally long vectors.
pub fn max_abs_err(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0, f64::max)
}
