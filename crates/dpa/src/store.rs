//! `.qtrs`-backed campaigns: streaming trace storage, bounded-memory
//! attacks, and checkpoints that record store offsets instead of raw
//! samples.
//!
//! A 10k-trace campaign held as a [`TraceSet`] costs hundreds of
//! megabytes; the same campaign in a `.qtrs` store streams through an
//! attack one chunk at a time. This module bridges the two worlds:
//!
//! * [`TraceSet::to_store`] / [`TraceSet::from_store`] convert between
//!   the in-memory set and the on-disk store;
//! * [`bias_signal_from_store`] computes `T = A0 − A1` directly from a
//!   store with at most `chunk` traces resident, bit-identical to
//!   [`crate::parallel::parallel_bias_signal`] over the same traces;
//! * [`StoreCampaignRunner`] acquires traces on the `qdi-exec` pool and
//!   appends them to a store as chunks complete. Its
//!   [`StoreCheckpoint`] is a few hundred bytes — fingerprint, progress
//!   counter and byte offset — because per-index noise seeding makes
//!   every other bit of campaign state derivable from the config. It is
//!   the crate's one resumable campaign and its checkpoint the one
//!   checkpoint format.

use std::error::Error;
use std::fmt;
use std::path::Path;

use qdi_analog::{Trace, TraceSynthesizer};
use qdi_crypto::gatelevel::slice::AesByteSlice;
use qdi_exec::store::{StoreOptions, StoreReader, StoreWriter};
use qdi_exec::{run_supervised, ExecConfig, Quarantine, StoreError, SupervisorPolicy};
use qdi_sim::SimError;
use serde::{Deserialize, Serialize};

use crate::attack::BiasAccumulator;
use crate::campaign::CampaignConfig;
use crate::campaign::{acquire_trace, plaintext_schedule};
use crate::parallel::shard_ranges;
use crate::selection::SelectionFunction;
use crate::traceset::{TraceSet, TraceSetError};

/// Retry and checkpoint knobs for a resilient campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Traces per chunk of [`StoreCampaignRunner::step_chunk`] — one
    /// checkpoint per chunk under
    /// [`StoreCampaignRunner::run_with_checkpoints`].
    pub checkpoint_every: usize,
    /// Retries per trace on budget-class failures before giving up.
    pub max_retries: u32,
    /// Budget multiplier per retry: attempt `k` runs with the configured
    /// event/round budgets times `budget_backoff^k`. Values below 2 are
    /// clamped to 2 — retrying with the same budget cannot help a
    /// deterministic simulation.
    pub budget_backoff: u64,
}

impl ResilienceConfig {
    /// Defaults: checkpoint every 64 traces, 2 retries, 4x backoff.
    pub fn new() -> Self {
        ResilienceConfig {
            checkpoint_every: 64,
            max_retries: 2,
            budget_backoff: 4,
        }
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig::new()
    }
}

/// Why a resilient campaign stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The simulator failed permanently (deadlock, livelock, bad
    /// environment) or exhausted its budget even after all retries.
    Sim(SimError),
    /// A checkpoint could not be applied (config or worker-count
    /// mismatch, inconsistent counters).
    Checkpoint(String),
    /// A checkpoint file could not be read, written or parsed.
    Io(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sim(e) => write!(f, "simulation failed: {e:?}"),
            CampaignError::Checkpoint(reason) => write!(f, "bad checkpoint: {reason}"),
            CampaignError::Io(reason) => write!(f, "checkpoint I/O: {reason}"),
        }
    }
}

impl Error for CampaignError {}

impl From<SimError> for CampaignError {
    fn from(e: SimError) -> Self {
        CampaignError::Sim(e)
    }
}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> Self {
        CampaignError::Io(format!("trace store: {e}"))
    }
}

impl TraceSet {
    /// Writes every acquisition to a fresh `.qtrs` store at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on write failure; an empty set is rejected as
    /// [`StoreError::BadHeader`] because it has no time grid to record.
    pub fn to_store(&self, path: impl AsRef<Path>, opts: StoreOptions) -> Result<(), StoreError> {
        let first = self
            .iter()
            .next()
            .ok_or_else(|| StoreError::BadHeader("cannot store an empty trace set".into()))?
            .1;
        let mut writer = StoreWriter::create(path, first.t0_ps(), first.dt_ps(), opts)?;
        for (input, trace) in self.iter() {
            writer.append(input, trace)?;
        }
        writer.finish()
    }

    /// Loads a full `.qtrs` store into memory. For sets that may exceed
    /// RAM, stream with [`StoreReader::chunks`] or attack directly via
    /// [`bias_signal_from_store`] instead.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on read/validation failure, including traces the
    /// set itself would reject (non-finite samples, mixed grids) mapped
    /// to [`StoreError::NonFinite`] / [`StoreError::GridMismatch`].
    pub fn from_store(path: impl AsRef<Path>) -> Result<TraceSet, StoreError> {
        let mut reader = StoreReader::open(path)?;
        let mut set = TraceSet::new();
        while let Some((input, trace)) = reader.next_record()? {
            let record = set.len();
            set.try_push(input, trace).map_err(|e| match e {
                TraceSetError::NonFiniteSample { sample, .. } => {
                    StoreError::NonFinite { record, sample }
                }
                TraceSetError::GridMismatch { .. } => StoreError::GridMismatch {
                    expected: (reader.t0_ps(), reader.dt_ps()),
                    got: (0, 0),
                },
            })?;
        }
        Ok(set)
    }
}

/// Computes the DPA bias `T = A0 − A1` for one guess by streaming the
/// store in chunks of `chunk` traces — peak resident trace memory is one
/// chunk plus the running sums. Accumulation uses the same fixed
/// [`crate::BIAS_SHARD`] summation tree as the in-memory path, so the
/// result is bit-identical to
/// [`crate::parallel::parallel_bias_signal`] over
/// [`TraceSet::from_store`] of the same file, at every worker count.
///
/// Returns `Ok(None)` when a partition is empty.
///
/// # Errors
///
/// [`StoreError`] on read or validation failure.
pub fn bias_signal_from_store(
    path: impl AsRef<Path>,
    sel: &dyn SelectionFunction,
    guess: u16,
    chunk: usize,
) -> Result<Option<qdi_analog::Trace>, StoreError> {
    let reader = StoreReader::open(path)?;
    let mut shards = shard_ranges(usize::MAX);
    let mut shard = 0..0;
    let mut acc = BiasAccumulator::new();
    let mut total = BiasAccumulator::new();
    let mut index = 0;
    for batch in reader.chunks(chunk.max(1)) {
        for (input, trace) in batch? {
            if !shard.contains(&index) {
                // Record `index` opens the next shard: the finished one
                // merges into the total.
                total.merge(std::mem::take(&mut acc));
                shard = shards
                    .next()
                    .expect("an unbounded stream has a shard per index");
            }
            acc.accumulate(sel.select(&input, guess), &trace);
            index += 1;
        }
    }
    total.merge(acc);
    Ok(total.finish())
}

/// Durably writes checkpoint JSON: write-then-rename with a trailing
/// CRC, keeping the previous verified generation as `.bak`
/// ([`qdi_obs::durable`], `Durability::Checkpoint`). A crash mid-write
/// leaves either the new generation, a classified-torn temp file, or
/// the old generation — never a half-written checkpoint that parses.
pub(crate) fn save_durable_json(path: &Path, json: String) -> Result<(), CampaignError> {
    qdi_obs::durable::save(
        path,
        (json + "\n").as_bytes(),
        qdi_obs::durable::Durability::Checkpoint,
    )
    .map_err(|e| CampaignError::Io(e.to_string()))
}

/// Recovers durably-written checkpoint JSON, classifying damage instead
/// of parsing through it: a torn or corrupt primary falls back to the
/// `.bak` generation; when both are damaged the classification
/// (torn/corrupt/version) is reported as [`CampaignError::Checkpoint`].
/// Files written before the durable format (no CRC trailer) still load.
pub(crate) fn load_durable_json(path: &Path) -> Result<String, CampaignError> {
    use qdi_obs::durable;
    let err = match durable::recover(path) {
        Ok(recovered) => {
            return String::from_utf8(recovered.payload)
                .map_err(|e| CampaignError::Io(format!("{}: {e}", path.display())))
        }
        Err(e @ durable::DurableError::Io { .. }) => return Err(CampaignError::Io(e.to_string())),
        Err(e) => e,
    };
    // Legacy fallback: checkpoints written before the durable format
    // carry no trailer. A file that *does* carry a trailer but failed
    // verification is damaged — classified, never parsed around.
    let text = std::fs::read_to_string(path)
        .map_err(|e| CampaignError::Io(format!("read {}: {e}", path.display())))?;
    if text.contains(durable::TRAILER_PREFIX) {
        return Err(CampaignError::Checkpoint(format!(
            "{}: {err}",
            path.display()
        )));
    }
    Ok(text)
}

/// Serializable snapshot of a store-backed campaign: no raw samples —
/// the traces already collected live behind `store_offset` in the
/// `.qtrs` file, and per-index noise seeding makes the RNG state a pure
/// function of the config, so nothing else needs saving.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreCheckpoint {
    /// Ties the checkpoint to the exact config *and worker count* that
    /// produced it: resuming under a different config would silently
    /// mix trace distributions.
    pub fingerprint: String,
    /// Traces acquired and durably appended to the store.
    pub completed: usize,
    /// Path of the `.qtrs` store holding the traces.
    pub store_path: String,
    /// Byte offset of the next record — anything past it is a torn tail
    /// from a crash and is truncated on resume.
    pub store_offset: u64,
    /// Campaign indices quarantined by the supervisor (absent from the
    /// store): `completed` counts them, so the store holds exactly
    /// `completed - quarantined.len()` records. A resumed campaign
    /// re-attempts exactly these via
    /// [`StoreCampaignRunner::retry_quarantined`].
    #[serde(default)]
    pub quarantined: Vec<usize>,
}

impl StoreCheckpoint {
    /// Writes the checkpoint as durable JSON: write-then-rename with a
    /// trailing CRC, previous verified generation kept as `.bak`. A kill
    /// at any byte leaves a recoverable file (see
    /// [`StoreCheckpoint::load`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on serialization or filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        let json = serde_json::to_string(self)
            .map_err(|e| CampaignError::Io(format!("serialize checkpoint: {e:?}")))?;
        save_durable_json(path, json)
    }

    /// Reads a checkpoint written by [`StoreCheckpoint::save`], falling
    /// back to the `.bak` generation when the primary is torn or
    /// corrupt.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on filesystem or parse failure,
    /// [`CampaignError::Checkpoint`] when both generations are damaged
    /// (with the torn/corrupt classification).
    pub fn load(path: &Path) -> Result<Self, CampaignError> {
        let json = load_durable_json(path)?;
        serde_json::from_str(&json)
            .map_err(|e| CampaignError::Io(format!("parse {}: {e:?}", path.display())))
    }
}

fn store_fingerprint(cfg: &CampaignConfig, workers: usize) -> String {
    format!("{cfg:?} workers={workers}")
}

/// One indexed acquisition with budget escalation: budget-class
/// simulator failures ([`SimError::EventLimit`] /
/// [`SimError::SimTimeout`]) re-run with event/round budgets times
/// `budget_backoff^k`, up to [`ResilienceConfig::max_retries`] times.
/// Protocol-class failures (deadlock, livelock, bad environment) are
/// never retried: the simulation is deterministic, so they would only
/// repeat. The noise RNG is re-derived from the index each attempt, so
/// a rescued trace is bit-identical to an undisturbed acquisition.
fn acquire_resilient(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    synth: &TraceSynthesizer<'_>,
    resilience: &ResilienceConfig,
    pt: u8,
    index: usize,
) -> Result<Trace, CampaignError> {
    let backoff = resilience.budget_backoff.max(2);
    let mut attempt = 0u32;
    loop {
        let mut try_cfg = *cfg;
        let factor = backoff.saturating_pow(attempt);
        try_cfg.testbench.event_limit = try_cfg.testbench.event_limit.saturating_mul(factor);
        try_cfg.testbench.max_rounds = try_cfg.testbench.max_rounds.saturating_mul(factor);
        match acquire_trace(slice, &try_cfg, synth, pt, index) {
            Ok(trace) => return Ok(trace),
            Err(SimError::EventLimit { .. } | SimError::SimTimeout { .. })
                if attempt < resilience.max_retries =>
            {
                attempt += 1;
                qdi_obs::metrics::counter("dpa.campaign.retries").inc();
            }
            Err(err) => return Err(CampaignError::Sim(err)),
        }
    }
}

/// Store-backed parallel campaign: acquires chunks of traces on the
/// `qdi-exec` pool (per-index noise seeding, worker-count invariant) and
/// appends them to a `.qtrs` store in index order. Peak resident trace
/// memory is one chunk.
pub struct StoreCampaignRunner<'a> {
    slice: &'a AesByteSlice,
    cfg: CampaignConfig,
    resilience: ResilienceConfig,
    exec: ExecConfig,
    synth: TraceSynthesizer<'a>,
    pts: Vec<u8>,
    writer: StoreWriter,
    store_path: String,
    completed: usize,
    supervisor: Option<SupervisorPolicy>,
    quarantined: Vec<usize>,
    manifest: Quarantine,
    progress: qdi_obs::progress::ProgressTask,
}

impl std::fmt::Debug for StoreCampaignRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreCampaignRunner")
            .field("completed", &self.completed)
            .field("target", &self.cfg.traces)
            .field("store", &self.store_path)
            .finish()
    }
}

impl<'a> StoreCampaignRunner<'a> {
    /// Starts a fresh campaign writing to a new store at `store_path`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when the store cannot be created.
    pub fn new(
        slice: &'a AesByteSlice,
        cfg: CampaignConfig,
        resilience: ResilienceConfig,
        exec: ExecConfig,
        store_path: impl AsRef<Path>,
        opts: StoreOptions,
    ) -> Result<Self, CampaignError> {
        let store_path = store_path.as_ref().to_string_lossy().into_owned();
        let writer = StoreWriter::create(&store_path, 0, cfg.synth.dt_ps, opts)?;
        Ok(StoreCampaignRunner {
            slice,
            cfg,
            resilience,
            exec,
            synth: TraceSynthesizer::new(&slice.netlist, cfg.synth),
            pts: plaintext_schedule(&cfg),
            writer,
            store_path,
            completed: 0,
            supervisor: None,
            quarantined: Vec::new(),
            manifest: Quarantine::default(),
            progress: qdi_obs::progress::task("dpa.store_campaign", cfg.traces),
        })
    }

    /// Enables supervised acquisition (builder style): panicking or
    /// permanently-failing jobs are quarantined instead of aborting the
    /// campaign, and the checkpoint records their indices so a resume
    /// can re-attempt exactly those via
    /// [`StoreCampaignRunner::retry_quarantined`].
    #[must_use]
    pub fn with_supervisor(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor = Some(policy);
        self
    }

    /// Resumes from a checkpoint: validates the fingerprint (config and
    /// worker count), reopens the store at the checkpointed offset and
    /// truncates any torn tail a crashed writer left behind.
    ///
    /// # Errors
    ///
    /// * [`CampaignError::Checkpoint`] on a fingerprint, worker-count or
    ///   record-count mismatch;
    /// * [`CampaignError::Io`] when the store prefix fails validation
    ///   (offset not on a record boundary, CRC failure before the
    ///   checkpointed offset).
    pub fn resume(
        slice: &'a AesByteSlice,
        cfg: CampaignConfig,
        resilience: ResilienceConfig,
        exec: ExecConfig,
        checkpoint: StoreCheckpoint,
    ) -> Result<Self, CampaignError> {
        let expected = store_fingerprint(&cfg, exec.workers);
        if checkpoint.fingerprint != expected {
            return Err(CampaignError::Checkpoint(format!(
                "config mismatch: checkpoint was produced by `{}`, resuming with `{}`",
                checkpoint.fingerprint, expected
            )));
        }
        let writer = StoreWriter::resume(&checkpoint.store_path, checkpoint.store_offset)?;
        // Quarantined indices never reached the store, so the record
        // count is the completed counter minus the quarantine.
        let expected_records = checkpoint
            .completed
            .checked_sub(checkpoint.quarantined.len())
            .ok_or_else(|| {
                CampaignError::Checkpoint(format!(
                    "{} quarantined indices exceed the {} completed acquisitions",
                    checkpoint.quarantined.len(),
                    checkpoint.completed
                ))
            })?;
        if writer.records() != expected_records {
            return Err(CampaignError::Checkpoint(format!(
                "store holds {} records before the checkpointed offset, expected {}",
                writer.records(),
                expected_records
            )));
        }
        // A resumed campaign starts its progress bar at the checkpoint.
        let progress = qdi_obs::progress::task("dpa.store_campaign", cfg.traces);
        progress.advance(checkpoint.completed);
        Ok(StoreCampaignRunner {
            slice,
            cfg,
            resilience,
            exec,
            synth: TraceSynthesizer::new(&slice.netlist, cfg.synth),
            pts: plaintext_schedule(&cfg),
            writer,
            store_path: checkpoint.store_path,
            completed: checkpoint.completed,
            supervisor: None,
            quarantined: checkpoint.quarantined,
            manifest: Quarantine::default(),
            progress,
        })
    }

    /// Snapshots the campaign. Call after [`StoreCampaignRunner::step_chunk`]
    /// returns; the chunk's records are flushed before this offset is
    /// taken, so the checkpoint never points past durable data.
    pub fn checkpoint(&self) -> StoreCheckpoint {
        StoreCheckpoint {
            fingerprint: store_fingerprint(&self.cfg, self.exec.workers),
            completed: self.completed,
            store_path: self.store_path.clone(),
            store_offset: self.writer.offset(),
            quarantined: self.quarantined.clone(),
        }
    }

    /// Traces acquired so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Campaign indices the supervisor quarantined (absent from the
    /// store until a successful [`StoreCampaignRunner::retry_quarantined`]).
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// The quarantine manifest accumulated by supervised chunks in this
    /// process (reasons, attempt counts, per-index seeds). A resumed
    /// runner starts with an empty manifest — the checkpoint carries
    /// only the indices — and refills it as re-attempts fail again.
    pub fn quarantine(&self) -> &Quarantine {
        &self.manifest
    }

    /// `true` once all `cfg.traces` acquisitions are stored.
    pub fn is_done(&self) -> bool {
        self.completed >= self.cfg.traces
    }

    /// Acquires the next chunk of up to
    /// [`ResilienceConfig::checkpoint_every`] traces in parallel, appends
    /// them to the store in index order and flushes. Returns `Ok(false)`
    /// when the campaign was already complete.
    ///
    /// Budget-class simulator failures are retried per trace with
    /// escalated budgets ([`ResilienceConfig::budget_backoff`]); the
    /// retry re-derives the per-index noise RNG, so a rescued trace is
    /// bit-identical to an undisturbed acquisition.
    ///
    /// With a supervisor ([`StoreCampaignRunner::with_supervisor`]) the
    /// chunk degrades gracefully instead of failing fast: panicking or
    /// permanently-erroring jobs are quarantined — their indices skipped
    /// in the store and recorded in the checkpoint — and every other
    /// trace still lands.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Sim`] on permanent simulator failure (fail-fast
    /// path only), [`CampaignError::Io`] on store write failure.
    pub fn step_chunk(&mut self) -> Result<bool, CampaignError> {
        if self.is_done() {
            return Ok(false);
        }
        let lo = self.completed;
        let hi = (lo + self.resilience.checkpoint_every.max(1)).min(self.cfg.traces);
        let (slice, cfg, synth, pts, resilience) = (
            self.slice,
            &self.cfg,
            &self.synth,
            &self.pts,
            &self.resilience,
        );
        let progress = &self.progress;
        if let Some(policy) = &self.supervisor {
            let run = run_supervised(&self.exec, policy, cfg.seed, hi - lo, |j| {
                let index = lo + j;
                let trace = acquire_resilient(slice, cfg, synth, resilience, pts[index], index)?;
                progress.advance(1);
                Ok::<_, CampaignError>(trace)
            });
            // Quarantine entries come back with chunk-relative indices;
            // report campaign indices and the true per-index seeds.
            let mut quarantine = run.quarantine;
            for entry in &mut quarantine.entries {
                entry.index += lo;
                entry.job_seed = qdi_exec::derive_seed(cfg.seed, entry.index as u64);
            }
            for (j, outcome) in run.outcomes.into_iter().enumerate() {
                if let Some(trace) = outcome.into_value() {
                    self.writer.append(&[pts[lo + j]], &trace)?;
                }
            }
            self.quarantined.extend(quarantine.indices());
            self.manifest.entries.extend(quarantine.entries);
        } else {
            let traces = qdi_exec::try_run_indexed(&self.exec, hi - lo, |j| {
                let index = lo + j;
                let trace = acquire_resilient(slice, cfg, synth, resilience, pts[index], index)?;
                progress.advance(1);
                Ok::<_, CampaignError>(trace)
            })?;
            for (j, trace) in traces.iter().enumerate() {
                self.writer.append(&[pts[lo + j]], trace)?;
            }
        }
        self.writer.flush()?;
        self.completed = hi;
        Ok(true)
    }

    /// Re-attempts every quarantined index under the supervisor policy,
    /// appending rescued traces at the store tail. Returns the number of
    /// indices recovered; still-failing indices stay quarantined with a
    /// refreshed manifest.
    ///
    /// Every `.qtrs` record carries its plaintext, so attacks over the
    /// store stay valid after a rescue — but rescued records land out of
    /// campaign-index order, so the streamed bias is statistically (not
    /// bit-) identical to an undisturbed campaign's summation tree.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] when no supervisor policy is set,
    /// [`CampaignError::Io`] on store write failure.
    pub fn retry_quarantined(&mut self) -> Result<usize, CampaignError> {
        let Some(policy) = &self.supervisor else {
            return Err(CampaignError::Checkpoint(
                "retry_quarantined requires a supervisor policy (with_supervisor)".into(),
            ));
        };
        if self.quarantined.is_empty() {
            return Ok(0);
        }
        let indices = std::mem::take(&mut self.quarantined);
        let (slice, cfg, synth, pts, resilience) = (
            self.slice,
            &self.cfg,
            &self.synth,
            &self.pts,
            &self.resilience,
        );
        let progress = &self.progress;
        let idx = &indices;
        let run = run_supervised(&self.exec, policy, cfg.seed, idx.len(), |j| {
            let index = idx[j];
            let trace = acquire_resilient(slice, cfg, synth, resilience, pts[index], index)?;
            progress.advance(1);
            Ok::<_, CampaignError>(trace)
        });
        let mut quarantine = run.quarantine;
        for entry in &mut quarantine.entries {
            entry.index = indices[entry.index];
            entry.job_seed = qdi_exec::derive_seed(cfg.seed, entry.index as u64);
        }
        let mut recovered = 0usize;
        let mut still = Vec::new();
        for (j, outcome) in run.outcomes.into_iter().enumerate() {
            match outcome.into_value() {
                Some(trace) => {
                    self.writer.append(&[pts[indices[j]]], &trace)?;
                    recovered += 1;
                }
                None => still.push(indices[j]),
            }
        }
        self.quarantined = still;
        self.manifest = quarantine;
        self.writer.flush()?;
        Ok(recovered)
    }

    /// Runs the campaign to completion, saving a [`StoreCheckpoint`] to
    /// `checkpoint_path` after every chunk and once at the end.
    ///
    /// # Errors
    ///
    /// Propagates acquisition, store and checkpoint-write errors.
    pub fn run_with_checkpoints(&mut self, checkpoint_path: &Path) -> Result<(), CampaignError> {
        while self.step_chunk()? {
            self.checkpoint().save(checkpoint_path)?;
        }
        self.checkpoint().save(checkpoint_path)?;
        Ok(())
    }

    /// Flushes and closes the store.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on flush failure.
    pub fn finish(self) -> Result<(), CampaignError> {
        self.progress.finish();
        self.writer.finish()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_bias_signal, run_parallel_campaign};
    use crate::selection::AesXorSelect;
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
    use std::io::Write as _;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qdi_dpa_store_{}_{name}", std::process::id()))
    }

    fn noisy_cfg(traces: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::full_codebook(0x42);
        cfg.traces = traces;
        cfg.seed = 23;
        cfg.synth.noise_sigma = 0.02;
        cfg
    }

    #[test]
    fn trace_set_round_trips_through_store() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(6);
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("runs");
        let path = tmp("roundtrip.qtrs");
        set.to_store(&path, StoreOptions::new()).expect("stores");
        let loaded = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(set.len(), loaded.len());
        for i in 0..set.len() {
            assert_eq!(set.input(i), loaded.input(i));
            assert_eq!(set.trace(i).samples(), loaded.trace(i).samples());
        }
    }

    #[test]
    fn empty_set_cannot_be_stored() {
        let err = TraceSet::new()
            .to_store(tmp("empty.qtrs"), StoreOptions::new())
            .expect_err("no grid");
        assert!(matches!(err, StoreError::BadHeader(_)), "{err}");
    }

    #[test]
    fn streamed_bias_matches_in_memory_bias() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(12);
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("runs");
        let path = tmp("bias.qtrs");
        set.to_store(&path, StoreOptions::new()).expect("stores");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let in_memory =
            parallel_bias_signal(&set, &sel, 0x42, ExecConfig { workers: 2 }).expect("bias");
        // Tiny chunks: at most 3 traces resident while streaming.
        let streamed = bias_signal_from_store(&path, &sel, 0x42, 3)
            .expect("streams")
            .expect("both partitions");
        std::fs::remove_file(&path).ok();
        assert_eq!(in_memory.samples(), streamed.samples());
    }

    #[test]
    fn store_campaign_matches_parallel_campaign() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(9);
        let golden = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("runs");
        let path = tmp("campaign.qtrs");
        let mut runner = StoreCampaignRunner::new(
            &slice,
            cfg,
            ResilienceConfig {
                checkpoint_every: 4,
                ..ResilienceConfig::new()
            },
            ExecConfig { workers: 2 },
            &path,
            StoreOptions::new(),
        )
        .expect("creates");
        while runner.step_chunk().expect("chunk") {}
        runner.finish().expect("closes");
        let stored = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(golden.len(), stored.len());
        for i in 0..golden.len() {
            assert_eq!(golden.input(i), stored.input(i), "plaintext {i}");
            assert_eq!(golden.trace(i).samples(), stored.trace(i).samples());
        }
    }

    #[test]
    fn crashed_store_campaign_resumes_bit_identically() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(10);
        let golden = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("runs");
        let path = tmp("resume.qtrs");
        let ckpt = tmp("resume.ckpt.json");
        let resilience = ResilienceConfig {
            checkpoint_every: 4,
            ..ResilienceConfig::new()
        };
        let exec = ExecConfig { workers: 2 };

        // First chunk, checkpoint, then "crash" leaving a torn record.
        let mut first =
            StoreCampaignRunner::new(&slice, cfg, resilience, exec, &path, StoreOptions::new())
                .expect("creates");
        assert!(first.step_chunk().expect("chunk"));
        first.checkpoint().save(&ckpt).expect("saves");
        drop(first);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        file.write_all(&[0xDE, 0xAD, 0xBE]).expect("torn tail");
        drop(file);

        let checkpoint = StoreCheckpoint::load(&ckpt).expect("loads");
        assert_eq!(checkpoint.completed, 4);
        let mut resumed = StoreCampaignRunner::resume(&slice, cfg, resilience, exec, checkpoint)
            .expect("resumes");
        while resumed.step_chunk().expect("chunk") {}
        resumed.finish().expect("closes");

        let stored = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
        assert_eq!(golden.len(), stored.len());
        for i in 0..golden.len() {
            assert_eq!(golden.input(i), stored.input(i), "plaintext {i}");
            assert_eq!(
                golden.trace(i).samples(),
                stored.trace(i).samples(),
                "trace {i} must be bit-identical after crash + resume"
            );
        }
    }

    #[test]
    fn supervised_store_campaign_matches_fail_fast_when_clean() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(9);
        let golden = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("runs");
        let path = tmp("supervised_clean.qtrs");
        let mut runner = StoreCampaignRunner::new(
            &slice,
            cfg,
            ResilienceConfig {
                checkpoint_every: 4,
                ..ResilienceConfig::new()
            },
            ExecConfig { workers: 2 },
            &path,
            StoreOptions::new(),
        )
        .expect("creates")
        .with_supervisor(qdi_exec::SupervisorPolicy::new().without_backoff());
        while runner.step_chunk().expect("chunk") {}
        assert!(runner.quarantined().is_empty());
        assert!(runner.quarantine().is_empty());
        runner.finish().expect("closes");
        let stored = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(golden.len(), stored.len());
        for i in 0..golden.len() {
            assert_eq!(golden.input(i), stored.input(i), "plaintext {i}");
            assert_eq!(golden.trace(i).samples(), stored.trace(i).samples());
        }
    }

    #[test]
    fn quarantined_indices_ride_the_checkpoint_and_are_reattempted() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = noisy_cfg(6);
        // A budget nothing fits in, with budget escalation disabled:
        // every acquisition fails permanently.
        cfg.testbench.event_limit = 1;
        let resilience = ResilienceConfig {
            checkpoint_every: 3,
            max_retries: 0,
            budget_backoff: 2,
        };
        let exec = ExecConfig { workers: 2 };
        let policy = qdi_exec::SupervisorPolicy::new()
            .without_backoff()
            .with_retries(0);
        let path = tmp("supervised_quarantine.qtrs");
        let ckpt = tmp("supervised_quarantine.ckpt.json");

        let mut runner =
            StoreCampaignRunner::new(&slice, cfg, resilience, exec, &path, StoreOptions::new())
                .expect("creates")
                .with_supervisor(policy.clone());
        assert!(runner.step_chunk().expect("degrades, does not abort"));
        assert_eq!(runner.completed(), 3);
        assert_eq!(runner.quarantined(), &[0, 1, 2]);
        let manifest = runner.quarantine();
        assert_eq!(manifest.len(), 3);
        assert_eq!(
            manifest.entries[1].job_seed,
            qdi_exec::derive_seed(cfg.seed, 1),
            "manifest reports the true per-index seed"
        );
        assert!(manifest.entries[0].reason.contains("EventLimit"));
        runner.checkpoint().save(&ckpt).expect("saves");
        drop(runner);

        // The checkpoint carries the quarantine, and resume accepts a
        // store whose record count is completed - quarantined.
        let checkpoint = StoreCheckpoint::load(&ckpt).expect("loads");
        assert_eq!(checkpoint.completed, 3);
        assert_eq!(checkpoint.quarantined, vec![0, 1, 2]);
        let mut resumed = StoreCampaignRunner::resume(&slice, cfg, resilience, exec, checkpoint)
            .expect("resumes")
            .with_supervisor(policy);
        assert_eq!(resumed.quarantined(), &[0, 1, 2]);
        // Re-attempting under the same starved budget fails again: the
        // indices stay quarantined and the manifest is refreshed with
        // campaign-scope indices and reasons.
        let recovered = resumed.retry_quarantined().expect("retry pass runs");
        assert_eq!(recovered, 0);
        assert_eq!(resumed.quarantined(), &[0, 1, 2]);
        assert_eq!(resumed.quarantine().indices(), vec![0, 1, 2]);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(ckpt.with_extension("json.bak")).ok();
    }

    #[test]
    fn retry_quarantined_without_supervisor_is_rejected() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(2);
        let path = tmp("no_supervisor.qtrs");
        let mut runner = StoreCampaignRunner::new(
            &slice,
            cfg,
            ResilienceConfig::new(),
            ExecConfig { workers: 1 },
            &path,
            StoreOptions::new(),
        )
        .expect("creates");
        let err = runner.retry_quarantined().expect_err("needs a policy");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CampaignError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn store_resume_rejects_different_worker_count() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(6);
        let path = tmp("workers.qtrs");
        let resilience = ResilienceConfig {
            checkpoint_every: 3,
            ..ResilienceConfig::new()
        };
        let mut runner = StoreCampaignRunner::new(
            &slice,
            cfg,
            resilience,
            ExecConfig { workers: 2 },
            &path,
            StoreOptions::new(),
        )
        .expect("creates");
        assert!(runner.step_chunk().expect("chunk"));
        let checkpoint = runner.checkpoint();
        drop(runner);
        let err = StoreCampaignRunner::resume(
            &slice,
            cfg,
            resilience,
            ExecConfig { workers: 8 },
            checkpoint,
        )
        .expect_err("worker count mismatch");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CampaignError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn store_resume_rejects_foreign_config() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(6);
        let path = tmp("foreign.qtrs");
        let resilience = ResilienceConfig {
            checkpoint_every: 3,
            ..ResilienceConfig::new()
        };
        let exec = ExecConfig { workers: 2 };
        let mut runner =
            StoreCampaignRunner::new(&slice, cfg, resilience, exec, &path, StoreOptions::new())
                .expect("creates");
        assert!(runner.step_chunk().expect("chunk"));
        let checkpoint = runner.checkpoint();
        drop(runner);
        // Same worker count, different key: resuming would mix two
        // trace distributions in one store.
        let mut other = cfg;
        other.key = 0x43;
        let err = StoreCampaignRunner::resume(&slice, other, resilience, exec, checkpoint)
            .expect_err("config mismatch");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CampaignError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn budget_failures_are_rescued_bit_identically() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = noisy_cfg(3);
        // A budget far too small for one handshake cycle: the first
        // attempt fails budget-class; backoff 8x, 64x, 512x raises it
        // until the run fits.
        cfg.testbench.event_limit = 40;
        cfg.testbench.max_rounds = 40;
        let starved = run_parallel_campaign(&slice, &cfg, ExecConfig::serial())
            .expect_err("the configured budget alone cannot complete a trace");
        assert!(
            matches!(
                starved,
                SimError::EventLimit { .. } | SimError::SimTimeout { .. }
            ),
            "{starved:?}"
        );
        let resilience = ResilienceConfig {
            checkpoint_every: 64,
            max_retries: 3,
            budget_backoff: 8,
        };
        let path = tmp("rescued.qtrs");
        let mut runner = StoreCampaignRunner::new(
            &slice,
            cfg,
            resilience,
            ExecConfig { workers: 2 },
            &path,
            StoreOptions::new(),
        )
        .expect("creates");
        while runner.step_chunk().expect("escalation rescues every trace") {}
        runner.finish().expect("closes");
        let stored = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();

        // The rescued traces match a comfortably-budgeted, undisturbed run.
        let mut roomy = cfg;
        roomy.testbench.event_limit = 50_000_000;
        roomy.testbench.max_rounds = 1_000_000;
        let golden = run_parallel_campaign(&slice, &roomy, ExecConfig::serial()).expect("runs");
        assert_eq!(golden.len(), stored.len());
        for i in 0..golden.len() {
            assert_eq!(golden.input(i), stored.input(i), "plaintext {i}");
            assert_eq!(
                golden.trace(i).samples(),
                stored.trace(i).samples(),
                "rescued trace {i} must be bit-identical"
            );
        }
    }

    #[test]
    fn load_reports_missing_checkpoint_as_io_error() {
        let path = tmp("missing.ckpt.json");
        std::fs::remove_file(&path).ok();
        let err = StoreCheckpoint::load(&path).expect_err("missing file");
        assert!(matches!(err, CampaignError::Io(_)), "{err}");
    }
}
