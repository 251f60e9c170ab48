//! Trace-campaign configuration and the per-acquisition kernel: drive
//! the gate-level AES byte slice with a plaintext and synthesize one
//! power trace per encryption. The engines that run whole campaigns on
//! the `qdi-exec` pool are [`crate::run_parallel_campaign`],
//! [`crate::run_parallel_campaign_supervised`] and the resumable
//! [`crate::StoreCampaignRunner`].

use qdi_analog::{SynthConfig, TraceSynthesizer};
use qdi_crypto::gatelevel::{bit_values, slice::AesByteSlice};
use qdi_sim::{SimError, Testbench, TestbenchConfig};
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
pub(crate) fn plaintext_schedule(cfg: &CampaignConfig) -> Vec<u8> {
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

/// Acquisition `index` of a campaign: simulates a four-phase computation
/// of the slice for plaintext `pt` and synthesizes its noisy
/// supply-current trace. The noise comes from the per-index RNG
/// [`qdi_exec::job_rng`]`(cfg.seed, index)` and the simulation itself is
/// deterministic, so a trace depends only on its index — never on the
/// worker that ran it or on how many attempts it took, which is what
/// makes per-trace retries sound.
pub(crate) fn acquire_trace(
    slice: &AesByteSlice,
    cfg: &CampaignConfig,
    synth: &TraceSynthesizer<'_>,
    pt: u8,
    index: usize,
) -> Result<qdi_analog::Trace, SimError> {
    let _prof = qdi_obs::span!(qdi_obs::Level::Trace, target: "qdi_dpa::campaign", "dpa.acquire");
    let mut tb = Testbench::new(&slice.netlist, cfg.testbench)?;
    let pbits = bit_values(pt);
    let kbits = bit_values(cfg.key);
    for i in 0..8 {
        tb.source(slice.pt[i], vec![pbits[i]])?;
        tb.source(slice.key[i], vec![kbits[i]])?;
        tb.sink(slice.out[i])?;
    }
    let run = tb.run()?;
    let mut noise_rng = qdi_exec::job_rng(cfg.seed, index as u64);
    Ok(synth.synthesize_noisy(&run.transitions, &mut noise_rng))
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
    let mut tb = Testbench::new(&slice.netlist, cfg.testbench)?;
    let pbits = bit_values(0x5A);
    let kbits = bit_values(cfg.key);
    for i in 0..8 {
        tb.source(slice.pt[i], vec![pbits[i]])?;
        tb.source(slice.key[i], vec![kbits[i]])?;
        tb.sink(slice.out[i])?;
    }
    let run = tb.run()?;
    let out_rails: Vec<_> = slice
        .out
        .iter()
        .flat_map(|&c| slice.netlist.channel(c).rails.clone())
        .collect();
    let mut first: Option<u64> = None;
    let mut last: Option<u64> = None;
    for t in &run.transitions {
        if t.rising && out_rails.contains(&t.net) {
            first = Some(first.map_or(t.time_ps, |f| f.min(t.time_ps)));
            last = Some(last.map_or(t.time_ps, |l| l.max(t.time_ps)));
        }
    }
    let first = first.unwrap_or(0);
    let last = last.unwrap_or(run.end_time_ps);
    Ok((first.saturating_sub(pad_ps), last + pad_ps))
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
    let mut tb = Testbench::new(&slice.netlist, cfg.testbench)?;
    let pbits = bit_values(0x5A);
    let kbits = bit_values(cfg.key);
    for i in 0..8 {
        tb.source(slice.pt[i], vec![pbits[i]])?;
        tb.source(slice.key[i], vec![kbits[i]])?;
        tb.sink(slice.out[i])?;
    }
    let run = tb.run()?;
    let mut first: Option<u64> = None;
    let mut last: Option<u64> = None;
    for t in &run.transitions {
        if t.rising && rails.contains(&t.net) {
            first = Some(first.map_or(t.time_ps, |f| f.min(t.time_ps)));
            last = Some(last.map_or(t.time_ps, |l| l.max(t.time_ps)));
        }
    }
    let first = first.unwrap_or(0);
    let last = last.unwrap_or(run.end_time_ps);
    Ok((first.saturating_sub(pad_ps), last + pad_ps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_attack_windowed, parallel_bias_signal, run_parallel_campaign};
    use crate::selection::{AesSboxSelect, AesXorSelect};
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
    use qdi_exec::ExecConfig;

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
