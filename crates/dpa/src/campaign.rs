//! Trace-campaign configuration and the campaign kernel: drive the
//! gate-level AES byte slice with a plaintext and synthesize one power
//! trace per encryption. The engines that run whole campaigns on the
//! `qdi-exec` pool are [`crate::run_parallel_campaign`],
//! [`crate::run_parallel_campaign_supervised`] and the resumable
//! [`crate::StoreCampaignRunner`]; all three acquire through one
//! private campaign kernel that simulates each distinct plaintext once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use qdi_analog::{SynthConfig, Trace, TraceSynthesizer};
use qdi_crypto::gatelevel::{bit_values, slice::AesByteSlice};
use qdi_netlist::NetId;
use qdi_sim::{SimError, Testbench, TestbenchConfig, TestbenchRun};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How plaintexts are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlaintextSource {
    /// Independent uniform random bytes (known-plaintext attack).
    Random,
    /// Each of the 256 byte values exactly once per 256 traces, in a
    /// seeded pseudo-random order (chosen-plaintext attack). Balancing
    /// the codebook makes every bit and bit-pair partition exact, which
    /// removes plaintext-sampling noise from the bias estimates.
    FullCodebook,
}

/// Parameters of a trace campaign.
///
/// Serializable end to end: a `qdi-serve` job spec embeds this struct
/// verbatim, so a remote campaign is configured by exactly the same
/// knobs as a local one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of traces (`N` in the paper).
    pub traces: usize,
    /// The device's secret key byte.
    pub key: u8,
    /// RNG seed for plaintexts and noise.
    pub seed: u64,
    /// Plaintext generation strategy.
    pub plaintexts: PlaintextSource,
    /// Electrical synthesis configuration (noise included).
    pub synth: SynthConfig,
    /// Testbench configuration.
    pub testbench: TestbenchConfig,
}

impl CampaignConfig {
    /// A noiseless 256-trace random-plaintext campaign with key byte
    /// `key`.
    pub fn new(key: u8) -> Self {
        CampaignConfig {
            traces: 256,
            key,
            seed: 1,
            plaintexts: PlaintextSource::Random,
            synth: SynthConfig::default(),
            testbench: TestbenchConfig::default(),
        }
    }

    /// A chosen-plaintext campaign cycling the full byte codebook.
    pub fn full_codebook(key: u8) -> Self {
        let mut cfg = CampaignConfig::new(key);
        cfg.plaintexts = PlaintextSource::FullCodebook;
        cfg
    }
}

/// Draws the full plaintext schedule serially from the root RNG stream,
/// so the plaintext of acquisition `i` is a pure function of the config
/// — whichever worker later acquires it.
fn plaintext_schedule(cfg: &CampaignConfig) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut codebook: Vec<u8> = (0..=255).collect();
    (0..cfg.traces)
        .map(|n| match cfg.plaintexts {
            PlaintextSource::Random => rng.gen(),
            PlaintextSource::FullCodebook => {
                if n.is_multiple_of(256) {
                    // Fisher-Yates reshuffle per codebook pass.
                    for i in (1..codebook.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        codebook.swap(i, j);
                    }
                }
                codebook[n % 256]
            }
        })
        .collect()
}

/// Upper bound, in bytes of samples, on the noiseless class traces one
/// [`CampaignKernel`] keeps. The 256 classes of the benchmark slice's
/// 348-sample traces take 0.7 MB; a class whose trace would push the
/// total past the cap is simulated for every acquisition instead.
const CLASS_CACHE_BYTES: usize = 8 << 20;

/// Drives one four-phase computation of the slice: plaintext `pt` and
/// the configured key on the inputs, sinks on the outputs.
fn simulate(slice: &AesByteSlice, cfg: &CampaignConfig, pt: u8) -> Result<TestbenchRun, SimError> {
    let mut tb = Testbench::new(&slice.netlist, cfg.testbench)?;
    let (pbits, kbits) = (bit_values(pt), bit_values(cfg.key));
    for i in 0..8 {
        tb.source(slice.pt[i], vec![pbits[i]])?;
        tb.source(slice.key[i], vec![kbits[i]])?;
        tb.sink(slice.out[i])?;
    }
    tb.run()
}

/// Acquires the traces of one campaign by input class.
///
/// The simulator draws no randomness and noise comes from the per-index
/// RNG [`qdi_exec::job_rng`]`(cfg.seed, index)`, so acquisition `index`
/// is the noiseless trace of its plaintext plus that index's noise. The
/// kernel simulates and synthesizes each distinct plaintext once, keeps
/// the noiseless trace in a per-plaintext [`OnceLock`], and adds noise
/// per index: bit-identical to simulating every acquisition, and
/// independent of the worker that ran it or of how many attempts it
/// took, which is what makes per-trace retries sound.
///
/// Only successes are cached, so every failed acquisition still reports
/// its own error. A successful run does not depend on the event and
/// round budgets (they only decide whether a run fails), so a class
/// rescued by budget escalation serves later acquisitions at any budget.
/// The cache lives as long as the kernel: one engine call, or one
/// [`crate::StoreCampaignRunner`].
pub(crate) struct CampaignKernel<'a> {
    slice: &'a AesByteSlice,
    cfg: CampaignConfig,
    synth: TraceSynthesizer<'a>,
    pts: Vec<u8>,
    /// Noiseless trace per plaintext byte.
    classes: Vec<OnceLock<Trace>>,
    cap_bytes: usize,
    cached_bytes: AtomicUsize,
    simulated: AtomicUsize,
    hits: qdi_obs::metrics::Counter,
    misses: qdi_obs::metrics::Counter,
}

impl<'a> CampaignKernel<'a> {
    /// A kernel for the campaign `cfg` on `slice`, with the plaintext
    /// schedule drawn and an empty class cache.
    pub(crate) fn new(slice: &'a AesByteSlice, cfg: &CampaignConfig) -> Self {
        CampaignKernel::with_cap(slice, cfg, CLASS_CACHE_BYTES)
    }

    fn with_cap(slice: &'a AesByteSlice, cfg: &CampaignConfig, cap_bytes: usize) -> Self {
        CampaignKernel {
            slice,
            cfg: *cfg,
            synth: TraceSynthesizer::new(&slice.netlist, cfg.synth),
            pts: plaintext_schedule(cfg),
            classes: (0..256).map(|_| OnceLock::new()).collect(),
            cap_bytes,
            cached_bytes: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
            hits: qdi_obs::metrics::counter("dpa.class_cache.hits"),
            misses: qdi_obs::metrics::counter("dpa.class_cache.misses"),
        }
    }

    /// The campaign configuration.
    pub(crate) fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// The plaintext of acquisition `index`.
    pub(crate) fn plaintext(&self, index: usize) -> u8 {
        self.pts[index]
    }

    /// Simulations run so far: the number of distinct plaintexts
    /// acquired, unless a class failed, did not fit the cache, or was
    /// missed by two workers at once.
    pub(crate) fn classes_simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Acquisition `index`, simulated (on a cache miss) with the event
    /// and round budgets of the config multiplied by `budget`; pass 1
    /// for the configured budgets.
    pub(crate) fn acquire(&self, index: usize, budget: u64) -> Result<Trace, SimError> {
        let _prof =
            qdi_obs::span!(qdi_obs::Level::Trace, target: "qdi_dpa::campaign", "dpa.acquire");
        let pt = self.pts[index];
        let class = &self.classes[usize::from(pt)];
        let mut trace = if let Some(cached) = class.get() {
            self.hits.inc();
            cached.clone()
        } else {
            self.misses.inc();
            self.simulated.fetch_add(1, Ordering::Relaxed);
            let mut cfg = self.cfg;
            cfg.testbench.event_limit = cfg.testbench.event_limit.saturating_mul(budget);
            cfg.testbench.max_rounds = cfg.testbench.max_rounds.saturating_mul(budget);
            let run = simulate(self.slice, &cfg, pt)?;
            self.keep(class, self.synth.synthesize(&run.transitions))
        };
        let _noise =
            qdi_obs::span!(qdi_obs::Level::Trace, target: "qdi_dpa::campaign", "analog.noise");
        let mut rng = qdi_exec::job_rng(self.cfg.seed, index as u64);
        trace.add_gaussian_noise(&mut rng, self.cfg.synth.noise_sigma);
        Ok(trace)
    }

    /// Caches `trace` as its class's noiseless trace if it fits under the
    /// cap, and returns it.
    fn keep(&self, class: &OnceLock<Trace>, trace: Trace) -> Trace {
        let bytes = trace.len() * std::mem::size_of::<f64>();
        let before = self.cached_bytes.fetch_add(bytes, Ordering::Relaxed);
        // A concurrent worker may have cached the same class first; its
        // trace has the same bits, so either copy serves.
        if before + bytes > self.cap_bytes || class.set(trace.clone()).is_err() {
            self.cached_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
        trace
    }
}

/// The span in which `rails` make their rising (evaluation) transitions
/// in a reference simulation of plaintext `0x5A`, padded by `pad_ps` on
/// both sides. Without such a transition the span opens at 0 and closes
/// at the end of the run.
fn rising_window(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    rails: &[NetId],
    pad_ps: u64,
) -> Result<(u64, u64), SimError> {
    let run = simulate(slice, cfg, 0x5A)?;
    let rising = || {
        run.transitions
            .iter()
            .filter(|t| t.rising && rails.contains(&t.net))
            .map(|t| t.time_ps)
    };
    let first = rising().min().unwrap_or(0);
    let last = rising().max().unwrap_or(run.end_time_ps);
    Ok((first.saturating_sub(pad_ps), last + pad_ps))
}

/// Calibrates a point-of-interest window for attacks on the slice: the
/// time span in which the slice's *output rails* make their evaluation
/// transition (padded by `pad_ps` on both sides). An attacker obtains the
/// same window by profiling; here it comes from one reference simulation.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn output_window(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    pad_ps: u64,
) -> Result<(u64, u64), SimError> {
    let out_rails: Vec<NetId> = slice
        .out
        .iter()
        .flat_map(|&c| slice.netlist.channel(c).rails.clone())
        .collect();
    rising_window(slice, cfg, &out_rails, pad_ps)
}

/// Like [`output_window`] but calibrated on the AddRoundKey stage: the
/// span in which the XOR bank's latch rails (`ak.x{i}.h1/h2`) make their
/// evaluation transitions. This is the point of interest for the paper's
/// XOR selection function — before the S-box avalanche starts.
///
/// # Errors
///
/// Propagates simulator errors; returns [`SimError::BadEnvironment`] if
/// the slice was not generated by
/// [`qdi_crypto::gatelevel::slice::aes_first_round_slice`] (rail names not
/// found).
pub fn xor_stage_window(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    pad_ps: u64,
) -> Result<(u64, u64), SimError> {
    let mut rails = Vec::with_capacity(16);
    for i in 0..8 {
        for rail in ["h1", "h2"] {
            let name = format!("ak.x{i}.{rail}");
            let net = slice
                .netlist
                .find_net(&name)
                .ok_or_else(|| SimError::BadEnvironment {
                    reason: format!("slice has no net {name}; not a generated first-round slice"),
                })?;
            rails.push(net);
        }
    }
    rising_window(slice, cfg, &rails, pad_ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_attack_windowed, parallel_bias_signal, run_parallel_campaign};
    use crate::selection::{AesSboxSelect, AesXorSelect};
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
    use qdi_exec::ExecConfig;

    fn noisy_cfg(plaintexts: PlaintextSource, traces: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::full_codebook(0x3C);
        cfg.plaintexts = plaintexts;
        cfg.traces = traces;
        cfg.seed = 29;
        cfg.synth.noise_sigma = 0.02;
        cfg
    }

    /// The XOR slice with the rail-1 latch of bit `i` at `10 + 4·i` fF,
    /// so that every plaintext byte has its own noiseless trace (on the
    /// balanced slice, classes can share their bits).
    fn skewed_slice() -> AesByteSlice {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        for i in 0..8u8 {
            let rail = slice
                .netlist
                .find_net(&format!("ak.x{i}.h2"))
                .expect("rail");
            slice
                .netlist
                .set_routing_cap(rail, 10.0 + 4.0 * f64::from(i));
        }
        slice
    }

    /// Acquisition `index` rebuilt from public calls only: a fresh
    /// testbench, noiseless synthesis, then the index's own noise.
    fn replica(slice: &AesByteSlice, cfg: &CampaignConfig, pt: u8, index: usize) -> Trace {
        let mut tb = Testbench::new(&slice.netlist, cfg.testbench).expect("testbench");
        let (pbits, kbits) = (bit_values(pt), bit_values(cfg.key));
        for i in 0..8 {
            tb.source(slice.pt[i], vec![pbits[i]]).expect("pt source");
            tb.source(slice.key[i], vec![kbits[i]]).expect("key source");
            tb.sink(slice.out[i]).expect("sink");
        }
        let run = tb.run().expect("runs");
        let mut trace =
            TraceSynthesizer::new(&slice.netlist, cfg.synth).synthesize(&run.transitions);
        let mut rng = qdi_exec::job_rng(cfg.seed, index as u64);
        trace.add_gaussian_noise(&mut rng, cfg.synth.noise_sigma);
        trace
    }

    #[test]
    fn class_cached_campaign_equals_a_per_trace_replica_at_every_worker_count() {
        let slice = skewed_slice();
        // Three codebook passes, the last one partial, so every class is
        // served from the cache at least once.
        for source in [PlaintextSource::FullCodebook, PlaintextSource::Random] {
            let cfg = noisy_cfg(source, 2 * 256 + 17);
            let schedule = plaintext_schedule(&cfg);
            let golden: Vec<Trace> = (0..cfg.traces)
                .map(|i| replica(&slice, &cfg, schedule[i], i))
                .collect();
            for workers in [1, 2, 8] {
                let set =
                    run_parallel_campaign(&slice, &cfg, ExecConfig { workers }).expect("runs");
                assert_eq!(set.len(), cfg.traces);
                for (i, expected) in golden.iter().enumerate() {
                    assert_eq!(set.input(i), &[schedule[i]], "{source:?} plaintext {i}");
                    assert_eq!(
                        set.trace(i).samples(),
                        expected.samples(),
                        "{source:?} trace {i} @ {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn classes_past_the_cap_are_simulated_per_trace_with_the_same_bits() {
        let slice = skewed_slice();
        let cfg = noisy_cfg(PlaintextSource::FullCodebook, 300);
        let cached = CampaignKernel::new(&slice, &cfg);
        let pair = [cached.plaintext(0), cached.plaintext(1)];
        let noiseless = pair.map(|pt| {
            let run = simulate(&slice, &cfg, pt).expect("runs");
            cached.synth.synthesize(&run.transitions)
        });
        assert_ne!(
            noiseless[0].samples(),
            noiseless[1].samples(),
            "distinct plaintexts must give distinct traces, or the cache key goes untested"
        );
        let one_trace = cached.acquire(0, 1).expect("acquires").len() * 8;
        // No room at all, and room for a handful of classes.
        for cap in [0, 5 * one_trace] {
            let capped = CampaignKernel::with_cap(&slice, &cfg, cap);
            for i in 0..cfg.traces {
                assert_eq!(
                    capped.acquire(i, 1).expect("acquires").samples(),
                    cached.acquire(i, 1).expect("acquires").samples(),
                    "trace {i} with a {cap}-byte cap"
                );
            }
            assert!(
                capped.classes_simulated() > cfg.traces - 6,
                "past the cap every trace is simulated: {}",
                capped.classes_simulated()
            );
        }
        assert_eq!(cached.classes_simulated(), 256, "one simulation per class");
    }

    #[test]
    fn failures_are_not_cached_and_successes_serve_any_budget() {
        let slice = skewed_slice();
        let mut cfg = noisy_cfg(PlaintextSource::FullCodebook, 512);
        cfg.testbench.event_limit = 40;
        cfg.testbench.max_rounds = 40;
        let kernel = CampaignKernel::new(&slice, &cfg);
        let pt = kernel.plaintext(0);
        let twin = (256..512)
            .find(|&i| kernel.plaintext(i) == pt)
            .expect("the second pass repeats every plaintext");
        for _ in 0..2 {
            let err = kernel.acquire(0, 1).expect_err("the budget is too small");
            assert!(
                matches!(
                    err,
                    SimError::EventLimit { .. } | SimError::SimTimeout { .. }
                ),
                "{err:?}"
            );
        }
        assert_eq!(
            kernel.classes_simulated(),
            2,
            "a failure is simulated again"
        );
        let rescued = kernel
            .acquire(0, 1 << 20)
            .expect("an escalated budget fits");
        // The class is now cached, so the starved budget no longer
        // matters, and the noise still follows the index.
        let later = kernel.acquire(twin, 1).expect("served from the cache");
        assert_eq!(kernel.classes_simulated(), 3);
        let mut roomy = cfg;
        roomy.testbench = TestbenchConfig::default();
        assert_eq!(rescued.samples(), replica(&slice, &roomy, pt, 0).samples());
        assert_eq!(later.samples(), replica(&slice, &roomy, pt, twin).samples());
    }

    #[test]
    fn campaign_produces_aligned_traces() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = CampaignConfig::new(0x42);
        cfg.traces = 8;
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("runs");
        assert_eq!(set.len(), 8);
        let dt = set.trace(0).dt_ps();
        for i in 1..8 {
            assert_eq!(set.trace(i).dt_ps(), dt);
        }
    }

    #[test]
    fn balanced_slice_leaks_little() {
        // Pre-layout (all caps equal): the bias for the correct key is of
        // the same order as for wrong keys — the secured-QDI baseline.
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let key = 0x42;
        let mut cfg = CampaignConfig::new(key);
        cfg.traces = 64;
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("runs");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let correct =
            parallel_bias_signal(&set, &sel, key as u16, ExecConfig::serial()).expect("split");
        let peak = correct.abs_peak().expect("nonempty").1.abs();
        // All nets still carry the default Cd; rails are symmetric except
        // for tiny fanout-count differences, so the bias stays small
        // relative to a single gate's pulse (~10 fF * 1.2 V over ~70 ps
        // gives peak current ~0.35).
        assert!(peak < 0.1, "balanced slice peaked at {peak}");
    }

    #[test]
    fn unbalanced_rail_is_detected_by_xor_selection() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        // Unbalance the output rail-1 of XOR bit 0 (net ak.x0.h2 is the
        // co1 rail): valid-1 outputs now charge 4x the default.
        let h2 = slice.netlist.find_net("ak.x0.h2").expect("rail net");
        slice.netlist.set_routing_cap(h2, 32.0);
        let key = 0xB5;
        let mut cfg = CampaignConfig::new(key);
        cfg.traces = 64;
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("runs");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let correct =
            parallel_bias_signal(&set, &sel, key as u16, ExecConfig::serial()).expect("split");
        let peak = correct.abs_peak().expect("peak").1.abs();
        // The heavier rail both draws more charge and — exactly as the
        // paper's Fig. 7 observes — shifts every downstream transition of
        // the D=1 class, so the bias towers over the balanced baseline.
        assert!(peak > 1.0, "expected a strong DPA peak, got {peak}");
        // The XOR selection is linear: the complementary key bit produces
        // the exactly inverted partition, hence the negated bias signal.
        let flipped = parallel_bias_signal(&set, &sel, (key ^ 1) as u16, ExecConfig::serial())
            .expect("split");
        let mut sum = flipped.clone();
        sum.add_assign(&correct);
        assert!(
            sum.abs_peak().expect("peak").1.abs() < 1e-9,
            "T(k) + T(k^1) must cancel for a linear selection"
        );
    }

    #[test]
    fn sbox_slice_attack_ranks_correct_key_first_in_subset() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorSbox).expect("builds");
        // Unbalance one S-box output rail.
        let rail = slice.netlist.find_net("sb.b0.h1").expect("rail net");
        slice.netlist.set_routing_cap(rail, 40.0);
        let key = 0x6B;
        let mut cfg = CampaignConfig::new(key);
        cfg.traces = 96;
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig::serial()).expect("runs");
        let sel = AesSboxSelect { byte: 0, bit: 0 };
        // Rank the correct key against 15 decoys (a full 256-guess attack
        // lives in the benches).
        let guesses: Vec<u16> = (0..16).map(|i| (key as u16 + i * 13) & 0xFF).collect();
        let result = parallel_attack_windowed(&set, &sel, &guesses, None, ExecConfig::serial());
        assert_eq!(
            result.best().guess,
            key as u16,
            "scores: {:?}",
            &result.scores[..3]
        );
    }
}
