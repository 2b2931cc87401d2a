//! Batch workloads over real ciphertexts: one dependency structure that
//! both *executes* on the host and *prices* on the device model (as a
//! kernel DAG via [`crate::sched`]).
//!
//! A [`BatchProgram`] is a list of ciphertext operations whose operands
//! are either batch inputs or earlier results ([`Slot`]). With
//! `parallel = false`, [`BatchProgram::execute`] runs the ops in index
//! order on the calling thread. With `parallel = true` it groups them by
//! dependency depth into topological wavefronts and runs each
//! wavefront's ops concurrently on the rayon pool. The output is
//! bit-identical to the serial run:
//! every CKKS primitive here is a deterministic pure function of its
//! operands, and the required key-switching keys are generated *before*
//! the parallel region (key generation draws from the chest's RNG, so
//! its order must not depend on the thread schedule).
//!
//! Execution isolates per-operation failures: an op that fails (say a
//! rescale at level 0) yields its structured [`NeoError`], ops that
//! depend on it report [`NeoError::PoisonedInput`] naming the failed
//! producer, and every op on an untainted path still returns its result —
//! bit-identical to a run without the failing ops.

use crate::ciphertext::Ciphertext;
use crate::cost::{CostConfig, Operation};
use crate::keys::{KeyChest, KeyTarget};
use crate::ops;
use crate::params::{CkksParams, KsMethod};
use crate::sched::append_op;
use neo_error::{ErrorKind, NeoError};
use neo_ntt::cache as ntt_cache;
use neo_sched::OpGraph;
use rand::Rng;
use rayon::prelude::*;

/// Bounded retry budget [`BatchProgram::execute`] grants each op for
/// transient [`NeoError::FaultDetected`] failures.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Outcome of [`BatchProgram::execute_with_report`]: per-op results plus
/// the recovery accounting the fault-matrix harness and the fault report
/// artifact consume.
#[derive(Debug, Default)]
pub struct BatchReport {
    /// One slot per op: the ciphertext, or the op's own structured error
    /// ([`NeoError::PoisonedInput`] downstream of a failed producer).
    pub results: Vec<Result<Ciphertext, NeoError>>,
    /// Retries attempted per op (0 for a clean first attempt).
    pub retries_attempted: Vec<u32>,
    /// Detected faults that retry absorbed, per op — the op's final
    /// result is bit-identical to a fault-free run.
    pub faults_recovered: Vec<u32>,
    /// Poisoned NTT plan cache entries evicted and rebuilt during
    /// recovery (across all ops of this execution).
    pub plans_quarantined: u64,
}

impl BatchReport {
    /// Total retries across all ops.
    pub fn total_retries(&self) -> u32 {
        self.retries_attempted.iter().sum()
    }

    /// Total recovered faults across all ops.
    pub fn total_recovered(&self) -> u32 {
        self.faults_recovered.iter().sum()
    }
}

/// Maps a detection site back to the `neo_fault` injection site whose
/// recovery tally it should credit.
fn injection_site(site: &str) -> Option<neo_fault::FaultSite> {
    match site {
        "tcu_gemm" | "tcu_fragment" => Some(neo_fault::FaultSite::TcuFragment),
        "ntt_forward" | "ntt_inverse" | "ntt_stage" => Some(neo_fault::FaultSite::NttStage),
        "ntt_plan" => Some(neo_fault::FaultSite::NttPlan),
        "ckks_op" => Some(neo_fault::FaultSite::CkksOp),
        _ => None,
    }
}

/// Whether a detected fault at `site` justifies sweeping the process-wide
/// NTT plan cache before the retry. Only NTT-side detections can implicate
/// a cached plan; sweeping on unrelated sites (TCU checksums, injected op
/// errors) takes the cache's write lock and — under fault injection —
/// can evict and rebuild plans other tenants are concurrently using.
fn sweeps_plan_cache(site: Option<&'static str>) -> bool {
    matches!(
        site,
        Some("ntt_plan" | "ntt_forward" | "ntt_inverse" | "ntt_stage")
    )
}

/// Deterministic backoff between retry attempts: a bounded spin whose
/// length depends only on the attempt number, so a retried run's
/// schedule does not depend on wall-clock timing.
fn backoff(attempt: u32) {
    for _ in 0..(64u64 << attempt.min(6)) {
        std::hint::spin_loop();
    }
}

/// Checks that op `idx`'s operands name one of `n_inputs` inputs or an
/// earlier op.
fn check_operands(op: &BatchOp, idx: usize, n_inputs: usize) -> Result<(), NeoError> {
    for s in op.operands() {
        match s {
            Slot::Input(i) if i >= n_inputs => {
                return Err(NeoError::parameter_mismatch(
                    "batch_execute",
                    format!("op {idx} reads Input({i}) but only {n_inputs} inputs given"),
                ));
            }
            Slot::Op(j) if j >= idx => {
                return Err(NeoError::invalid_params(format!(
                    "op {idx} reads Op({j}), which is not an earlier operation"
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

/// One op's execution: its result, the retries it spent, the faults
/// retry absorbed, and the poisoned plan-cache entries swept on the way.
type OpRun = (Result<Ciphertext, NeoError>, u32, u32, u64);

/// Runs op `idx` of a batch against `inputs` and the already-finished
/// ops in `done`. A failed producer poisons the op (the first failed
/// operand in operand order names the upstream culprit); otherwise the
/// op runs with up to `max_retries` further attempts on a detected fault.
fn run_op(
    op: BatchOp,
    idx: usize,
    chest: &KeyChest,
    inputs: &[Ciphertext],
    done: &[Option<OpRun>],
    method: KsMethod,
    max_retries: u32,
) -> OpRun {
    // `done[j]` is always filled here: operands name earlier ops
    // (`check_slots`), which run in an earlier step or wavefront.
    let operand = |s: Slot| match s {
        Slot::Input(i) => Ok(&inputs[i]),
        Slot::Op(j) => match &done[j] {
            Some((Ok(ct), ..)) => Ok(ct),
            _ => Err(NeoError::poisoned(idx, j)),
        },
    };
    let args: Vec<&Ciphertext> = match op.operands().into_iter().map(operand).collect() {
        Ok(args) => args,
        Err(e) => return (Err(e), 0, 0, 0),
    };
    let ctx = chest.context();
    let attempt_op = || match op {
        BatchOp::HMult(..) => ops::try_hmult(chest, args[0], args[1], method),
        BatchOp::HAdd(..) => ops::try_hadd(ctx, args[0], args[1]),
        BatchOp::HRotate(_, steps) => ops::try_hrotate(chest, args[0], steps, method),
        BatchOp::Rescale(_) => ops::try_rescale(ctx, args[0]),
    };
    let (mut retries, mut swept) = (0u32, 0u64);
    let mut last_site: Option<&'static str> = None;
    loop {
        match attempt_op() {
            Ok(ct) => {
                if retries > 0 {
                    if let Some(site) = last_site.and_then(injection_site) {
                        neo_fault::note_recovery(site);
                    }
                }
                return (Ok(ct), retries, retries, swept);
            }
            Err(e) if e.kind() == ErrorKind::FaultDetected && retries < max_retries => {
                if let NeoError::FaultDetected { site, .. } = &e {
                    last_site = Some(*site);
                }
                retries += 1;
                // An NTT-site fault may stem from a rotted plan rather
                // than a transient flip: sweep and rebuild poisoned cache
                // entries so the retry reruns against clean tables. The
                // sweep is gated on the detection site: a TCU or
                // spurious-op fault says nothing about the plan cache, and
                // the sweep's write lock on the process-wide cache would
                // stall every other tenant's NTTs for no reason (see the
                // interleaved-tenant regression test).
                if sweeps_plan_cache(last_site) {
                    swept += ntt_cache::quarantine_corrupt() as u64;
                }
                backoff(retries);
            }
            Err(e) => return (Err(e), retries, 0, swept),
        }
    }
}

/// An operand of a batch operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The `i`-th input ciphertext of the batch.
    Input(usize),
    /// The output of the `i`-th operation of the program.
    Op(usize),
}

/// One ciphertext operation of a batch program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchOp {
    /// Ciphertext × ciphertext with relinearization.
    HMult(Slot, Slot),
    /// Ciphertext + ciphertext.
    HAdd(Slot, Slot),
    /// Left slot rotation by a step count.
    HRotate(Slot, usize),
    /// Rescale (drops one level).
    Rescale(Slot),
}

impl BatchOp {
    /// The operands this operation reads.
    pub fn operands(&self) -> Vec<Slot> {
        match *self {
            BatchOp::HMult(a, b) | BatchOp::HAdd(a, b) => vec![a, b],
            BatchOp::HRotate(a, _) | BatchOp::Rescale(a) => vec![a],
        }
    }

    /// The earlier operations this operation reads: its [`Slot::Op`]
    /// operands, in operand order.
    fn producers(&self) -> impl Iterator<Item = usize> {
        self.operands().into_iter().filter_map(|s| match s {
            Slot::Op(j) => Some(j),
            Slot::Input(_) => None,
        })
    }

    /// The cost-model operation this maps to.
    pub fn operation(&self) -> Operation {
        match self {
            BatchOp::HMult(..) => Operation::HMult,
            BatchOp::HAdd(..) => Operation::HAdd,
            BatchOp::HRotate(..) => Operation::HRotate,
            BatchOp::Rescale(..) => Operation::Rescale,
        }
    }
}

/// A batch of ciphertext operations with explicit data dependencies.
#[derive(Debug, Clone, Default)]
pub struct BatchProgram {
    /// The operations, in issue order (operand slots must refer to
    /// inputs or to earlier operations).
    pub ops: Vec<BatchOp>,
}

impl BatchProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation; returns its [`Slot::Op`] index.
    ///
    /// # Errors
    ///
    /// [`NeoError::InvalidParams`] if an operand refers to an operation
    /// at or after this one.
    pub fn try_push(&mut self, op: BatchOp) -> Result<Slot, NeoError> {
        // The inputs are not known yet; `check_slots` bounds them later.
        check_operands(&op, self.ops.len(), usize::MAX)?;
        self.ops.push(op);
        Ok(Slot::Op(self.ops.len() - 1))
    }

    /// The level each operation *runs at* (its input level; a rescale's
    /// output is one lower), given the batch inputs' common level. A
    /// rescale at level 0 is illegal at execution time; here its output
    /// level saturates at 0 so planning over an invalid program still
    /// terminates.
    pub fn op_levels(&self, input_level: usize) -> Vec<usize> {
        let mut out_level: Vec<usize> = Vec::with_capacity(self.ops.len());
        let mut run_level = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let lv = |s: Slot| match s {
                Slot::Input(_) => input_level,
                Slot::Op(j) => out_level[j],
            };
            let at = op.operands().into_iter().map(lv).min().expect("operands");
            run_level.push(at);
            out_level.push(match op {
                BatchOp::Rescale(_) => at.saturating_sub(1),
                _ => at,
            });
        }
        run_level
    }

    /// Generates every key-switching key the program will need, in
    /// deterministic issue order. Called by [`Self::execute`] before the
    /// parallel region so the chest's RNG draws in a schedule-independent
    /// order (lazily generating keys from worker threads would make the
    /// keys themselves depend on thread timing).
    ///
    /// # Errors
    ///
    /// [`NeoError::KeySwitchKeyMissing`] if a key cannot be generated
    /// (e.g. KLSS requested without a KLSS parameter configuration).
    pub fn warm_keys(
        &self,
        chest: &KeyChest,
        input_level: usize,
        method: KsMethod,
    ) -> Result<(), NeoError> {
        let n = chest.context().degree();
        let levels = self.op_levels(input_level);
        for (op, &level) in self.ops.iter().zip(&levels) {
            let target = match op {
                BatchOp::HMult(..) => KeyTarget::Relin,
                BatchOp::HRotate(_, steps) => KeyTarget::Galois(ops::galois_element(n, *steps)),
                _ => continue,
            };
            chest.warm(level, target, method)?;
        }
        Ok(())
    }

    /// Checks that every operand names an existing batch input or an
    /// earlier operation. [`Self::try_push`] keeps the second half of
    /// this invariant, but `ops` is public, so the entry points re-check
    /// it before planning or executing anything.
    ///
    /// # Errors
    ///
    /// [`NeoError::ParameterMismatch`] if an operand names a missing
    /// input; [`NeoError::InvalidParams`] if an operand names an
    /// operation at or after its own.
    pub fn check_slots(&self, n_inputs: usize) -> Result<(), NeoError> {
        for (idx, op) in self.ops.iter().enumerate() {
            check_operands(op, idx, n_inputs)?;
        }
        Ok(())
    }

    /// Groups the operations into topological wavefronts: wavefront `k`
    /// holds every op whose longest chain of [`Slot::Op`] operands has
    /// length `k`, so the ops of one wavefront are mutually independent.
    /// Requires [`Self::check_slots`] to hold.
    fn wavefronts(&self) -> Vec<Vec<usize>> {
        let mut depth: Vec<usize> = Vec::with_capacity(self.ops.len());
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for (idx, op) in self.ops.iter().enumerate() {
            let d = op.producers().map(|j| depth[j] + 1).max().unwrap_or(0);
            depth.push(d);
            if d == waves.len() {
                waves.push(Vec::new());
            }
            waves[d].push(idx);
        }
        waves
    }

    /// Runs the program over `inputs` and returns every operation's
    /// output. With `parallel = true` independent operations execute
    /// concurrently (topological wavefronts on the rayon pool); the
    /// result is bit-identical to the serial run.
    ///
    /// Failures are isolated per operation: an op that fails (after
    /// [`DEFAULT_MAX_RETRIES`] recovery attempts for transient
    /// [`NeoError::FaultDetected`] errors) yields its structured error,
    /// ops that depend on it report [`NeoError::PoisonedInput`] naming
    /// the failed producer, and every op on an untainted path still
    /// returns its result — bit-identical to a run without the failing
    /// ops.
    ///
    /// # Errors
    ///
    /// [`NeoError::LevelMismatch`] if the inputs do not share one level;
    /// [`NeoError::ParameterMismatch`] if an operand names a missing
    /// input; [`NeoError::InvalidParams`] if an operand names an
    /// operation at or after its own; [`NeoError::KeySwitchKeyMissing`]
    /// if key warm-up fails.
    pub fn execute(
        &self,
        chest: &KeyChest,
        inputs: &[Ciphertext],
        method: KsMethod,
        parallel: bool,
    ) -> Result<Vec<Result<Ciphertext, NeoError>>, NeoError> {
        self.execute_with_report(chest, inputs, method, parallel, DEFAULT_MAX_RETRIES)
            .map(|r| r.results)
    }

    /// [`Self::execute`] with explicit recovery control and accounting.
    ///
    /// Each op gets up to `max_retries` additional attempts when it fails
    /// with a (retryable) [`NeoError::FaultDetected`]: between attempts
    /// the process-wide NTT plan cache is swept for poisoned entries
    /// ([`neo_ntt::cache::quarantine_corrupt`] — evict and rebuild once)
    /// and a deterministic backoff runs. Because every op is a pure
    /// function of its operands, a successful retry is bit-identical to a
    /// fault-free execution. Key warm-up still happens once, in issue
    /// order, *before* the parallel region — retries reuse the cached
    /// keys and never touch the chest's RNG.
    ///
    /// # Errors
    ///
    /// As [`Self::execute`].
    pub fn execute_with_report(
        &self,
        chest: &KeyChest,
        inputs: &[Ciphertext],
        method: KsMethod,
        parallel: bool,
        max_retries: u32,
    ) -> Result<BatchReport, NeoError> {
        self.check_slots(inputs.len())?;
        if let Some(first) = inputs.first() {
            for ct in &inputs[1..] {
                if ct.level() != first.level() {
                    return Err(NeoError::level_mismatch(
                        "batch_execute",
                        first.level(),
                        ct.level(),
                    ));
                }
            }
            self.warm_keys(chest, first.level(), method)?;
        }
        let n_ops = self.ops.len();
        let run = |idx: usize, done: &[Option<OpRun>]| {
            run_op(self.ops[idx], idx, chest, inputs, done, method, max_retries)
        };
        let mut done: Vec<Option<OpRun>> = (0..n_ops).map(|_| None).collect();
        if parallel {
            for wave in self.wavefronts() {
                let produced: Vec<OpRun> = wave.par_iter().map(|&idx| run(idx, &done)).collect();
                for (idx, r) in wave.into_iter().zip(produced) {
                    done[idx] = Some(r);
                }
            }
        } else {
            for idx in 0..n_ops {
                done[idx] = Some(run(idx, &done));
            }
        }
        let mut report = BatchReport::default();
        for (result, retries, recovered, swept) in done.into_iter().flatten() {
            report.results.push(result);
            report.retries_attempted.push(retries);
            report.faults_recovered.push(recovered);
            report.plans_quarantined += swept;
        }
        crate::metrics::record_batch_report(&report);
        Ok(report)
    }

    /// The program's kernel DAG on the device model: each operation's
    /// kernels are appended via [`crate::sched::append_op`], with the
    /// operation's first kernel depending on its producers' exit kernels.
    pub fn kernel_graph(&self, p: &CkksParams, input_level: usize, cfg: &CostConfig) -> OpGraph {
        let mut g = OpGraph::new();
        self.append_kernel_graph(&mut g, p, input_level, cfg, 0);
        g
    }

    /// Appends this program's kernel DAG to an existing graph, tagging its
    /// operations `tag_base..tag_base + ops.len()`. Programs appended to
    /// the same graph share no edges — they are independent work the
    /// multi-stream simulator may overlap — which is exactly how a serving
    /// layer prices a coalesced batch of several tenants' programs as one
    /// admission unit.
    pub fn append_kernel_graph(
        &self,
        g: &mut OpGraph,
        p: &CkksParams,
        input_level: usize,
        cfg: &CostConfig,
        tag_base: usize,
    ) {
        let levels = self.op_levels(input_level);
        let mut exits = Vec::with_capacity(self.ops.len());
        for (tag, (op, &level)) in self.ops.iter().zip(&levels).enumerate() {
            let after: Vec<_> = op.producers().map(|j| exits[j]).collect();
            exits.push(append_op(
                g,
                p,
                level,
                op.operation(),
                cfg,
                &after,
                tag_base + tag,
            ));
        }
    }

    /// A random but *legal* program over `n_inputs` inputs at
    /// `input_level`: operand levels always match, HMult squares only
    /// base-scale operands (Δ·Δ = Δ²), HAdd only adds like scales, and
    /// Rescale drops exactly the Δ² results back to Δ. Used by the
    /// bit-identity property tests and the scheduler bench.
    pub fn random<R: Rng + ?Sized>(
        rng: &mut R,
        n_inputs: usize,
        n_ops: usize,
        input_level: usize,
        slots_n: usize,
    ) -> Self {
        assert!(n_inputs > 0 && input_level >= 1);
        // (slot, level, squared_scale) of every operand candidate.
        let mut meta: Vec<(Slot, usize, bool)> = (0..n_inputs)
            .map(|i| (Slot::Input(i), input_level, false))
            .collect();
        let mut prog = BatchProgram::new();
        for _ in 0..n_ops {
            // Try op kinds in a random rotation; HRotate always succeeds.
            let kinds = ["hmult", "hadd", "rescale", "hrotate"];
            let start = rng.gen_range(0usize..kinds.len());
            let mut placed = None;
            for k in 0..kinds.len() {
                match kinds[(start + k) % kinds.len()] {
                    "hmult" => {
                        // Two base-scale operands at a common level ≥ 1
                        // (so the Δ² result can still rescale).
                        let base: Vec<usize> = (0..meta.len())
                            .filter(|&i| !meta[i].2 && meta[i].1 >= 1)
                            .collect();
                        let Some(&a) = base.first() else { continue };
                        let level = meta[a].1;
                        let same: Vec<usize> = base
                            .iter()
                            .copied()
                            .filter(|&i| meta[i].1 == level)
                            .collect();
                        let x = same[rng.gen_range(0..same.len())];
                        let y = same[rng.gen_range(0..same.len())];
                        placed = Some((BatchOp::HMult(meta[x].0, meta[y].0), level, true));
                    }
                    "hadd" => {
                        // Two operands with equal level *and* scale kind.
                        let i = rng.gen_range(0..meta.len());
                        let (_, level, sq) = meta[i];
                        let same: Vec<usize> = (0..meta.len())
                            .filter(|&j| meta[j].1 == level && meta[j].2 == sq)
                            .collect();
                        let j = same[rng.gen_range(0..same.len())];
                        placed = Some((BatchOp::HAdd(meta[i].0, meta[j].0), level, sq));
                    }
                    "rescale" => {
                        // A squared-scale result with a level to drop.
                        let cands: Vec<usize> = (0..meta.len())
                            .filter(|&i| meta[i].2 && meta[i].1 >= 1)
                            .collect();
                        if cands.is_empty() {
                            continue;
                        }
                        let i = cands[rng.gen_range(0..cands.len())];
                        placed = Some((BatchOp::Rescale(meta[i].0), meta[i].1 - 1, false));
                    }
                    _ => {
                        let i = rng.gen_range(0..meta.len());
                        let steps = rng.gen_range(1usize..(slots_n / 2).max(2));
                        placed = Some((BatchOp::HRotate(meta[i].0, steps), meta[i].1, meta[i].2));
                    }
                }
                if placed.is_some() {
                    break;
                }
            }
            let (op, level, squared) = placed.expect("hrotate always legal");
            let slot = prog.try_push(op).expect("random programs are legal");
            meta.push((slot, level, squared));
        }
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use neo_error::ErrorKind;

    fn push(prog: &mut BatchProgram, op: BatchOp) -> Slot {
        prog.try_push(op).unwrap()
    }

    #[test]
    fn levels_propagate_through_rescale() {
        let mut prog = BatchProgram::new();
        let m = push(&mut prog, BatchOp::HMult(Slot::Input(0), Slot::Input(0)));
        let r = push(&mut prog, BatchOp::Rescale(m));
        push(&mut prog, BatchOp::HRotate(r, 3));
        assert_eq!(prog.op_levels(5), vec![5, 5, 4]);
    }

    #[test]
    fn wavefronts_by_depth() {
        // A diamond: 0 -> {1, 2} -> 3, plus an input-only op 4.
        let mut prog = BatchProgram::new();
        let m = push(&mut prog, BatchOp::HMult(Slot::Input(0), Slot::Input(1)));
        let l = push(&mut prog, BatchOp::HRotate(m, 1));
        let r = push(&mut prog, BatchOp::Rescale(m));
        push(&mut prog, BatchOp::HAdd(l, r));
        push(&mut prog, BatchOp::HRotate(Slot::Input(0), 2));
        assert_eq!(prog.wavefronts(), vec![vec![0, 4], vec![1, 2], vec![3]]);
    }

    #[test]
    fn forward_operand_rejected() {
        let mut prog = BatchProgram::new();
        let err = prog.try_push(BatchOp::Rescale(Slot::Op(2))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidParams);
        assert!(prog.ops.is_empty());
    }

    #[test]
    fn random_programs_are_legal() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for seed in 0..10usize {
            let prog = BatchProgram::random(&mut rng, 3, 12 + seed, 4, 1 << 8);
            let levels = prog.op_levels(4);
            assert_eq!(levels.len(), prog.ops.len());
            // Rescales never run at level 0.
            for (op, &lv) in prog.ops.iter().zip(&levels) {
                if matches!(op, BatchOp::Rescale(_)) {
                    assert!(lv >= 1);
                }
            }
        }
    }

    #[test]
    fn appended_programs_are_independent() {
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let mut prog = BatchProgram::new();
        let m = push(&mut prog, BatchOp::HMult(Slot::Input(0), Slot::Input(1)));
        push(&mut prog, BatchOp::Rescale(m));
        let single = prog.kernel_graph(&p, 10, &cfg);
        let mut g = OpGraph::new();
        prog.append_kernel_graph(&mut g, &p, 10, &cfg, 0);
        prog.append_kernel_graph(&mut g, &p, 10, &cfg, prog.ops.len());
        // Disjoint union: no edge crosses the two appended programs.
        assert_eq!(g.len(), 2 * single.len());
        assert_eq!(g.edge_count(), 2 * single.edge_count());
    }

    #[test]
    fn plan_sweep_is_site_gated() {
        for site in ["ntt_plan", "ntt_forward", "ntt_inverse", "ntt_stage"] {
            assert!(sweeps_plan_cache(Some(site)), "{site}");
        }
        assert!(!sweeps_plan_cache(Some("tcu_gemm")));
        assert!(!sweeps_plan_cache(Some("ckks_op")));
        assert!(!sweeps_plan_cache(None));
    }

    #[test]
    fn kernel_graph_links_producers() {
        let p = ParamSet::C.params();
        let cfg = CostConfig::neo();
        let mut prog = BatchProgram::new();
        let m = push(&mut prog, BatchOp::HMult(Slot::Input(0), Slot::Input(1)));
        push(&mut prog, BatchOp::Rescale(m));
        let g = prog.kernel_graph(&p, 10, &cfg);
        let single_m = crate::sched::op_graph(&p, 10, Operation::HMult, &cfg);
        let single_r = crate::sched::op_graph(&p, 10, Operation::Rescale, &cfg);
        assert_eq!(g.len(), single_m.len() + single_r.len());
        // One extra edge ties the rescale's first kernel to the hmult's
        // exit kernel.
        assert_eq!(
            g.edge_count(),
            single_m.edge_count() + single_r.edge_count() + 1
        );
    }
}
