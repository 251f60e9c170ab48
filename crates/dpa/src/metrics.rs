//! Attack-quality metrics.

use qdi_exec::ExecConfig;
use serde::{Deserialize, Serialize};

use crate::parallel::parallel_attack_windowed;
use crate::selection::SelectionFunction;
use crate::traceset::TraceSet;

/// Result of a measurements-to-disclosure sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MtdResult {
    /// Smallest trace count at which the correct guess ranked first (and
    /// kept ranking first for every larger tested count), or `None` if it
    /// never stabilised within the set.
    pub traces_to_disclosure: Option<usize>,
    /// `(trace_count, rank_of_correct)` samples of the sweep.
    pub sweep: Vec<(usize, usize)>,
}

/// Sweeps prefixes of the trace set in steps of `step` and reports when
/// the correct guess first ranks (and stays) first — an estimate of the
/// "minimum number of messages" the paper's Section IV discusses.
///
/// # Panics
///
/// Panics if `step` is zero or `guesses` does not contain `correct`.
pub fn measurements_to_disclosure(
    set: &TraceSet,
    sel: &dyn SelectionFunction,
    correct: u16,
    guesses: &[u16],
    step: usize,
) -> MtdResult {
    assert!(step > 0, "step must be positive");
    assert!(
        guesses.contains(&correct),
        "guess list must include the correct key"
    );
    let mut sweep = Vec::new();
    let mut n = step;
    while n <= set.len() {
        let prefix = set.prefix(n);
        let result = parallel_attack_windowed(&prefix, sel, guesses, None, ExecConfig::serial());
        let rank = result.rank_of(correct).unwrap_or(usize::MAX);
        sweep.push((n, rank));
        n += step;
    }
    // Find the last position where the rank was not 0, then take the next
    // sample point (stability requirement).
    let last_bad = sweep.iter().rposition(|&(_, rank)| rank != 0);
    let traces_to_disclosure = match last_bad {
        None => sweep.first().map(|&(n, _)| n),
        Some(i) if i + 1 < sweep.len() => Some(sweep[i + 1].0),
        Some(_) => None,
    };
    MtdResult {
        traces_to_disclosure,
        sweep,
    }
}

/// Signal-to-noise of a bias trace: peak magnitude over the RMS of the
/// rest of the trace. Large values mean an exploitable DPA peak.
pub fn peak_to_rms(trace: &qdi_analog::Trace) -> f64 {
    let Some((_, peak)) = trace.abs_peak() else {
        return 0.0;
    };
    let rms = trace.rms();
    if rms <= f64::EPSILON {
        return 0.0;
    }
    peak.abs() / rms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::ClosureSelect;
    use qdi_analog::{Pulse, PulseShape, Trace};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn noisy_leaky_set(key: u8, n: usize, sigma: f64) -> TraceSet {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut set = TraceSet::new();
        for _ in 0..n {
            let p: u8 = rng.gen();
            let mut t = Trace::zeros(0, 10, 32);
            if qdi_crypto::aes::first_round_sbox(p, key) & 1 == 1 {
                t.add_pulse(
                    Pulse {
                        t0_ps: 100,
                        charge_fc: 4.0,
                        dur_ps: 40,
                    },
                    PulseShape::Triangular,
                );
            }
            t.add_gaussian_noise(&mut rng, sigma);
            set.push(vec![p], t);
        }
        set
    }

    fn sbox_sel() -> impl SelectionFunction {
        ClosureSelect::new("sbox-bit0", 256, |input: &[u8], g| {
            qdi_crypto::aes::first_round_sbox(input[0], g as u8) & 1 == 1
        })
    }

    #[test]
    fn mtd_disclosure_happens_with_enough_traces() {
        let key = 0x91;
        let set = noisy_leaky_set(key, 120, 0.02);
        let guesses: Vec<u16> = (0..8).map(|i| (key as u16 + i * 31) & 0xFF).collect();
        let sel = sbox_sel();
        let result = measurements_to_disclosure(&set, &sel, key as u16, &guesses, 20);
        assert_eq!(result.sweep.len(), 6);
        let mtd = result.traces_to_disclosure.expect("key should disclose");
        assert!(mtd <= 120);
    }

    #[test]
    fn more_noise_needs_more_traces() {
        let key = 0x91;
        let guesses: Vec<u16> = (0..8).map(|i| (key as u16 + i * 31) & 0xFF).collect();
        let sel = sbox_sel();
        let clean = noisy_leaky_set(key, 200, 0.0);
        let noisy = noisy_leaky_set(key, 200, 0.6);
        let mtd_clean = measurements_to_disclosure(&clean, &sel, key as u16, &guesses, 10)
            .traces_to_disclosure
            .expect("clean discloses");
        let mtd_noisy = measurements_to_disclosure(&noisy, &sel, key as u16, &guesses, 10)
            .traces_to_disclosure
            .unwrap_or(usize::MAX);
        assert!(
            mtd_noisy >= mtd_clean,
            "noise should not speed up disclosure: {mtd_clean} vs {mtd_noisy}"
        );
    }

    #[test]
    fn peak_to_rms_detects_isolated_peak() {
        let mut peaked = Trace::zeros(0, 10, 100);
        peaked.add_pulse(
            Pulse {
                t0_ps: 500,
                charge_fc: 5.0,
                dur_ps: 20,
            },
            PulseShape::Triangular,
        );
        let flat = Trace::zeros(0, 10, 100);
        assert!(peak_to_rms(&peaked) > 1.0);
        assert_eq!(peak_to_rms(&flat), 0.0);
    }

    #[test]
    #[should_panic(expected = "include the correct key")]
    fn mtd_requires_correct_in_guesses() {
        let set = noisy_leaky_set(1, 10, 0.0);
        let sel = sbox_sel();
        measurements_to_disclosure(&set, &sel, 1, &[2, 3], 5);
    }
}
