//! Deterministic parallel campaigns and attacks on the `qdi-exec` pool.
//!
//! # Determinism contract
//!
//! Everything in this module is **worker-count invariant**: running with
//! 1, 2 or 8 workers produces bit-identical trace sets, bias signals and
//! rankings. Two mechanisms make that hold:
//!
//! * **Per-index noise seeding.** [`run_parallel_campaign`] draws all
//!   plaintexts serially from the root RNG stream, then gives
//!   acquisition `i` its own noise RNG
//!   [`qdi_exec::job_rng`]`(cfg.seed, i)` — so a trace's noise depends
//!   only on its index, never on which worker ran it or in what order.
//!   The noiseless part is simulated once per distinct plaintext and
//!   shared by every acquisition of that plaintext (DESIGN.md §4e,
//!   "Acquire by input class").
//! * **Fixed-shard accumulation.** Every bias — [`parallel_bias_signal`],
//!   each guess of [`parallel_attack_windowed`], and
//!   [`crate::bias_signal_from_store`] — folds traces into per-shard
//!   [`BiasAccumulator`]s of [`BIAS_SHARD`] traces each, a shard
//!   structure that depends only on the trace index, and merges shards
//!   in index order, fixing the f64 summation tree.
//!
//! This module is the crate's one bias and ranking engine. With
//! `ExecConfig::serial()` the pool runs inline on the calling thread, so
//! one worker is simply the smallest worker count, not a separate path.

use std::ops::Range;

use qdi_analog::Trace;
use qdi_crypto::gatelevel::slice::AesByteSlice;
use qdi_exec::ExecConfig;
use qdi_sim::SimError;

use crate::attack::{score_bias, sort_scores, AttackResult, BiasAccumulator, GuessScore};
use crate::campaign::{CampaignConfig, CampaignKernel};
use crate::selection::SelectionFunction;
use crate::traceset::TraceSet;

/// Fixed shard size for parallel bias accumulation. Shard boundaries
/// depend only on the trace count, so the summation tree — and the bias
/// trace's bit pattern — is the same for every worker count.
pub const BIAS_SHARD: usize = 256;

/// Runs a trace campaign on the `qdi-exec` work-stealing pool.
///
/// Bit-identical across worker counts (see the module docs). With
/// [`ExecConfig::serial`] the pool runs inline on the calling thread, so
/// the single-worker result doubles as the golden reference in tests.
///
/// # Errors
///
/// Propagates the first simulator error; remaining jobs are cancelled.
pub fn run_parallel_campaign(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    exec: ExecConfig,
) -> Result<TraceSet, SimError> {
    let mut span = qdi_obs::span("qdi_dpa::parallel", "run_parallel_campaign")
        .field("traces", cfg.traces)
        .field("workers", exec.workers)
        .enter();
    let start = std::time::Instant::now();
    let kernel = CampaignKernel::new(slice, cfg);
    // Inert unless `qdi_obs::progress` is enabled; `qdi-mon watch` tails
    // the streamed snapshots for a live completed/total + ETA view.
    let progress = qdi_obs::progress::task("dpa.campaign", cfg.traces);
    let traces = qdi_exec::try_run_indexed(&exec, cfg.traces, |i| {
        let trace = kernel.acquire(i, 1);
        progress.advance(1);
        trace
    })?;
    progress.finish();
    let mut set = TraceSet::new();
    for (i, trace) in traces.into_iter().enumerate() {
        set.push(vec![kernel.plaintext(i)], trace);
    }
    qdi_obs::metrics::counter("dpa.traces").add(set.len() as u64);
    let elapsed = start.elapsed().as_secs_f64();
    span.record("classes_simulated", kernel.classes_simulated());
    span.record("wall_s", elapsed);
    if elapsed > 0.0 {
        span.record("traces_per_s", set.len() as f64 / elapsed);
    }
    Ok(set)
}

/// Result of a supervised parallel campaign: the traces that completed,
/// which campaign indices they belong to, and the quarantine manifest
/// for everything that did not.
#[derive(Debug)]
pub struct SupervisedCampaign {
    /// Completed acquisitions, in campaign-index order.
    pub traces: TraceSet,
    /// Campaign index of each entry in `traces` (`indices[k]` is the
    /// acquisition index of trace `k`; gaps are quarantined jobs).
    pub indices: Vec<usize>,
    /// Every acquisition that exhausted its retries.
    pub quarantine: qdi_exec::Quarantine,
}

impl SupervisedCampaign {
    /// Whether every acquisition completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.quarantine.is_empty()
    }
}

/// [`run_parallel_campaign`] under a `qdi-exec` supervisor: panicking,
/// erroring or overrunning acquisitions are retried per `policy` and
/// quarantined when they keep failing, instead of aborting the
/// campaign. Completed traces are returned in index order next to the
/// quarantine manifest — graceful degradation for long campaigns where
/// a hostile index must not cost the other N−1 traces.
///
/// Determinism: completed traces are bit-identical to the ones
/// [`run_parallel_campaign`] produces at any worker count, including
/// traces that only succeeded on a supervisor re-attempt (per-index
/// noise seeding is attempt-independent).
pub fn run_parallel_campaign_supervised(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    exec: ExecConfig,
    policy: &qdi_exec::SupervisorPolicy,
) -> SupervisedCampaign {
    let mut span = qdi_obs::span("qdi_dpa::parallel", "run_parallel_campaign_supervised")
        .field("traces", cfg.traces)
        .field("workers", exec.workers)
        .enter();
    let kernel = CampaignKernel::new(slice, cfg);
    let progress = qdi_obs::progress::task("dpa.campaign", cfg.traces);
    let run = qdi_exec::run_supervised(&exec, policy, cfg.seed, cfg.traces, |i| {
        let trace = kernel
            .acquire(i, 1)
            .map_err(|e| format!("simulation failed: {e:?}"))?;
        progress.advance(1);
        Ok::<_, String>(trace)
    });
    progress.finish();
    let mut set = TraceSet::new();
    let mut indices = Vec::new();
    for (i, outcome) in run.outcomes.into_iter().enumerate() {
        if let Some(trace) = outcome.into_value() {
            set.push(vec![kernel.plaintext(i)], trace);
            indices.push(i);
        }
    }
    qdi_obs::metrics::counter("dpa.traces").add(set.len() as u64);
    span.record("classes_simulated", kernel.classes_simulated());
    span.record("completed", set.len());
    span.record("quarantined", run.quarantine.len());
    span.record("retries", run.retries);
    SupervisedCampaign {
        traces: set,
        indices,
        quarantine: run.quarantine,
    }
}

/// The shards of the fixed summation tree over records `0..n`:
/// [`BIAS_SHARD`] consecutive indices each, the last one possibly short.
/// Every bias in this crate accumulates one [`BiasAccumulator`] per
/// shard and merges them in this order; this is the one place the shard
/// boundaries are drawn. A stream of unknown length walks
/// `shard_ranges(usize::MAX)` until it runs dry.
pub(crate) fn shard_ranges(n: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n)
        .step_by(BIAS_SHARD)
        .map(move |lo| lo..n.min(lo + BIAS_SHARD))
}

/// Folds the records of one shard of `set` into an accumulator.
fn accumulate_shard(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    guess: u16,
    shard: Range<usize>,
) -> BiasAccumulator {
    let _prof =
        qdi_obs::span!(qdi_obs::Level::Trace, target: "qdi_dpa::parallel", "dpa.bias.shard");
    let mut acc = BiasAccumulator::new();
    for i in shard {
        acc.accumulate(sel.select(set.input(i), guess), set.trace(i));
    }
    acc
}

/// Merges shard accumulators in index order and finishes `T = A0 − A1`.
fn merge_shards(shards: impl IntoIterator<Item = BiasAccumulator>) -> Option<Trace> {
    let mut total = BiasAccumulator::new();
    for shard in shards {
        total.merge(shard);
    }
    total.finish()
}

/// Computes the DPA bias `T = A0 − A1` for one guess (eqs. 7–9): traces
/// are split by `D(input, guess)`, each partition is averaged and the
/// averages are differenced. Shards of [`BIAS_SHARD`] traces are
/// accumulated on the pool and merged in index order, so the result is
/// bit-identical for every worker count. `None` when a partition is
/// empty (the guess cannot be scored with this set).
pub fn parallel_bias_signal(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    guess: u16,
    exec: ExecConfig,
) -> Option<Trace> {
    let shards: Vec<Range<usize>> = shard_ranges(set.len()).collect();
    merge_shards(qdi_exec::run_indexed(&exec, shards.len(), |s| {
        accumulate_shard(set, sel, guess, shards[s].clone())
    }))
}

/// Ranks every guess of the selection function — one pool job per
/// guess, each computing its fixed-shard bias inline.
pub fn parallel_attack(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    exec: ExecConfig,
) -> AttackResult {
    let guesses: Vec<u16> = (0..sel.guess_count()).collect();
    parallel_attack_windowed(set, sel, &guesses, None, exec)
}

/// Ranks an explicit guess subset, scoring peaks only inside the time
/// window `[t0, t1)` when one is given — the point-of-interest
/// restriction real attackers apply to isolate the targeted
/// intermediate's switching activity from unrelated (ghost) leakage.
///
/// The ranking is worker-count invariant: per-guess biases use the
/// fixed-shard summation tree and results are merged in guess order
/// before the total sort (largest peak first, ties by smaller guess).
pub fn parallel_attack_windowed(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    guesses: &[u16],
    window: Option<(u64, u64)>,
    exec: ExecConfig,
) -> AttackResult {
    let mut span = qdi_obs::span("qdi_dpa::parallel", "parallel_attack")
        .field("selection", sel.name())
        .field("guesses", guesses.len())
        .field("traces", set.len())
        .field("workers", exec.workers)
        .enter();
    let start = std::time::Instant::now();
    let scored: Vec<Option<GuessScore>> = qdi_exec::run_indexed(&exec, guesses.len(), |i| {
        let guess = guesses[i];
        let bias = merge_shards(
            shard_ranges(set.len()).map(|shard| accumulate_shard(set, sel, guess, shard)),
        )?;
        score_bias(guess, &bias, window)
    });
    let mut scores: Vec<GuessScore> = scored.into_iter().flatten().collect();
    sort_scores(&mut scores);
    let ranking_ms = start.elapsed().as_secs_f64() * 1e3;
    qdi_obs::metrics::counter("dpa.guesses_scored").add(scores.len() as u64);
    qdi_obs::metrics::histogram(
        "dpa.guess_ranking_ms",
        &[1.0, 10.0, 100.0, 1_000.0, 10_000.0],
    )
    .observe(ranking_ms);
    span.record("scored", scores.len());
    span.record("ranking_ms", ranking_ms);
    if let Some(best) = scores.first() {
        span.record("best_guess", best.guess);
        span.record("best_peak", best.peak_abs);
    }
    AttackResult {
        selection: sel.name(),
        scores,
        traces: set.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::AesXorSelect;
    use qdi_analog::{Pulse, PulseShape};
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};

    fn noisy_cfg(traces: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::full_codebook(0x42);
        cfg.traces = traces;
        cfg.seed = 11;
        cfg.synth.noise_sigma = 0.02;
        cfg
    }

    #[test]
    fn parallel_campaign_is_worker_count_invariant() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(10);
        let one = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("w1");
        for workers in [2, 3, 8] {
            let many =
                run_parallel_campaign(&slice, &cfg, ExecConfig { workers }).expect("parallel");
            assert_eq!(one.len(), many.len());
            for i in 0..one.len() {
                assert_eq!(one.input(i), many.input(i), "plaintext {i} @ {workers}w");
                assert_eq!(
                    one.trace(i).samples(),
                    many.trace(i).samples(),
                    "trace {i} @ {workers}w"
                );
            }
        }
    }

    #[test]
    fn parallel_bias_is_worker_count_invariant() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(20);
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("runs");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let golden = parallel_bias_signal(&set, &sel, 0x42, ExecConfig::serial()).expect("bias");
        for workers in [2, 8] {
            let t = parallel_bias_signal(&set, &sel, 0x42, ExecConfig { workers }).expect("bias");
            assert_eq!(golden.samples(), t.samples(), "bias @ {workers} workers");
        }
    }

    /// A synthetic set spanning several shards (the last one short), so
    /// the summation tree has more than one merge. The byte `p` of trace
    /// `i` adds a pulse when bit 0 of `p ^ KEY` is set, on top of
    /// per-trace jitter that makes the f64 sums order-sensitive.
    fn multi_shard_set() -> TraceSet {
        const KEY: u8 = 0x5A;
        let mut set = TraceSet::new();
        for i in 0..3 * BIAS_SHARD + 17 {
            let p = (i as u8).wrapping_mul(151).wrapping_add(43);
            let mut t = Trace::zeros(0, 10, 24);
            let pulse = |t0_ps, charge_fc| Pulse {
                t0_ps,
                charge_fc,
                dur_ps: 40,
            };
            t.add_pulse(
                pulse(20, 1.0 + (i % 7) as f64 * 0.1),
                PulseShape::Triangular,
            );
            if (p ^ KEY) & 1 == 1 {
                t.add_pulse(pulse(120, 3.0), PulseShape::Triangular);
            }
            set.push(vec![p], t);
        }
        set
    }

    #[test]
    fn multi_shard_bias_and_ranking_are_worker_count_invariant() {
        let set = multi_shard_set();
        assert_eq!(shard_ranges(set.len()).count(), 4);
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let guesses: Vec<u16> = (0..256).collect();
        let golden_bias =
            parallel_bias_signal(&set, &sel, 0x5A, ExecConfig::serial()).expect("bias");
        let golden = parallel_attack_windowed(&set, &sel, &guesses, None, ExecConfig::serial());
        assert_eq!(
            golden.best().guess & 1,
            0x5A & 1,
            "the leaking key bit ranks first"
        );
        // Each guess's score in the ranking comes from the same tree as
        // its standalone bias.
        for score in &golden.scores {
            let bias =
                parallel_bias_signal(&set, &sel, score.guess, ExecConfig::serial()).expect("bias");
            assert_eq!(score_bias(score.guess, &bias, None).as_ref(), Some(score));
        }
        for workers in [2, 8] {
            let exec = ExecConfig { workers };
            let bias = parallel_bias_signal(&set, &sel, 0x5A, exec).expect("bias");
            assert_eq!(
                golden_bias.samples(),
                bias.samples(),
                "bias @ {workers} workers"
            );
            let ranked = parallel_attack_windowed(&set, &sel, &guesses, None, exec);
            assert_eq!(golden.scores, ranked.scores, "ranking @ {workers} workers");
        }
        let path = std::env::temp_dir().join(format!(
            "qdi_dpa_parallel_{}_multi_shard.qtrs",
            std::process::id()
        ));
        set.to_store(&path, qdi_exec::StoreOptions::new())
            .expect("stores");
        // A chunk size that does not divide the shard size.
        let streamed = crate::bias_signal_from_store(&path, &sel, 0x5A, 100);
        std::fs::remove_file(&path).ok();
        let streamed = streamed.expect("streams").expect("both partitions");
        assert_eq!(golden_bias.samples(), streamed.samples());
    }

    #[test]
    fn supervised_campaign_is_bit_identical_to_unsupervised_when_clean() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(10);
        let golden = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("runs");
        let policy = qdi_exec::SupervisorPolicy::new().without_backoff();
        for workers in [1, 2, 8] {
            let run =
                run_parallel_campaign_supervised(&slice, &cfg, ExecConfig { workers }, &policy);
            assert!(run.is_complete(), "workers = {workers}");
            assert_eq!(run.indices, (0..10).collect::<Vec<_>>());
            assert_eq!(golden.len(), run.traces.len());
            for i in 0..golden.len() {
                assert_eq!(golden.input(i), run.traces.input(i), "plaintext {i}");
                assert_eq!(
                    golden.trace(i).samples(),
                    run.traces.trace(i).samples(),
                    "trace {i} @ {workers} workers"
                );
            }
        }
    }

    #[test]
    fn supervised_campaign_quarantines_instead_of_aborting() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = noisy_cfg(5);
        // A budget no acquisition fits in: the fail-fast path would
        // abort on the first index; the supervisor quarantines all.
        cfg.testbench.event_limit = 1;
        let policy = qdi_exec::SupervisorPolicy::new()
            .without_backoff()
            .with_retries(0);
        let run =
            run_parallel_campaign_supervised(&slice, &cfg, ExecConfig { workers: 2 }, &policy);
        assert!(!run.is_complete());
        assert_eq!(run.traces.len(), 0);
        assert!(run.indices.is_empty());
        assert_eq!(run.quarantine.indices(), vec![0, 1, 2, 3, 4]);
        let entry = &run.quarantine.entries[0];
        assert_eq!(entry.kind, qdi_exec::QuarantineKind::Error);
        assert!(entry.reason.contains("EventLimit"), "{}", entry.reason);
        // The manifest renders through the shared diagnostic model.
        let diags = run.quarantine.diagnostics("dpa_campaign");
        assert_eq!(diags.len(), 5);
        assert!(diags[0].render(false).contains("QDI0303"));
    }

    #[test]
    fn parallel_bias_empty_set_is_none() {
        let sel = AesXorSelect { byte: 0, bit: 0 };
        assert!(
            parallel_bias_signal(&TraceSet::new(), &sel, 0, ExecConfig { workers: 4 }).is_none()
        );
    }
}
