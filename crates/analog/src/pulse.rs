//! Current pulse primitives.

use serde::{Deserialize, Serialize};

/// One charging/discharging event: `charge_fc` femtocoulombs delivered
/// starting at `t0_ps`, with a nominal transition time `dur_ps`
/// (the paper's `Δt`, proportional to the switched capacitance).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pulse {
    /// Pulse start time, ps.
    pub t0_ps: u64,
    /// Total charge, fC (`C·Vdd` for a full-swing transition). Negative
    /// charges model differential measurements.
    pub charge_fc: f64,
    /// Nominal transition duration `Δt`, ps.
    pub dur_ps: u64,
}

/// The analytic shape used to spread a pulse's charge over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PulseShape {
    /// `i(t) = (Q/τ)·e^(−t/τ)` with `τ = Δt/3` — the first-order RC
    /// response of a CMOS output charging its load. Default.
    #[default]
    RcExponential,
    /// Symmetric triangle over `[0, Δt]` — a cruder shape used by the
    /// ablation benches to show the signature analysis is shape
    /// insensitive.
    Triangular,
}

impl PulseShape {
    /// Normalised current density at `rel_ps` after pulse start, such that
    /// the density integrates to 1 over the support (units 1/ps).
    pub fn density(self, rel_ps: f64, dur_ps: f64) -> f64 {
        let dur = dur_ps.max(1.0);
        match self {
            PulseShape::RcExponential => {
                let tau = dur / 3.0;
                if rel_ps < 0.0 {
                    0.0
                } else {
                    (-rel_ps / tau).exp() / tau
                }
            }
            PulseShape::Triangular => {
                if rel_ps < 0.0 || rel_ps > dur {
                    0.0
                } else {
                    let half = dur / 2.0;
                    let h = 2.0 / dur; // peak density so area = 1
                    if rel_ps <= half {
                        h * rel_ps / half
                    } else {
                        h * (dur - rel_ps) / half
                    }
                }
            }
        }
    }

    /// Cumulative fraction of the pulse charge delivered by `rel_ps` after
    /// pulse start. [`crate::Trace::add_pulse`] integrates per sample bin
    /// with CDF differences, so charge is conserved exactly whatever the
    /// sampling period.
    pub fn cdf(self, rel_ps: f64, dur_ps: f64) -> f64 {
        let dur = dur_ps.max(1.0);
        if rel_ps <= 0.0 {
            return 0.0;
        }
        match self {
            PulseShape::RcExponential => {
                let tau = dur / 3.0;
                1.0 - (-rel_ps / tau).exp()
            }
            PulseShape::Triangular => {
                if rel_ps >= dur {
                    return 1.0;
                }
                let half = dur / 2.0;
                if rel_ps <= half {
                    rel_ps * rel_ps / (dur * half)
                } else {
                    1.0 - (dur - rel_ps) * (dur - rel_ps) / (dur * half)
                }
            }
        }
    }

    /// Support length in ps after which the density is negligible.
    pub fn support_ps(self, dur_ps: u64) -> u64 {
        match self {
            // 6τ = 2Δt captures > 99.7 % of the exponential's charge.
            PulseShape::RcExponential => dur_ps.max(1).saturating_mul(2),
            PulseShape::Triangular => dur_ps.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn integrate(shape: PulseShape, dur: f64) -> f64 {
        let step = 0.01;
        let mut area = 0.0;
        let mut t = 0.0;
        while t < 4.0 * dur {
            area += shape.density(t, dur) * step;
            t += step;
        }
        area
    }

    #[test]
    fn densities_integrate_to_one() {
        for shape in [PulseShape::RcExponential, PulseShape::Triangular] {
            let area = integrate(shape, 50.0);
            assert!((area - 1.0).abs() < 0.02, "{shape:?}: area {area}");
        }
    }

    #[test]
    fn density_is_zero_before_start() {
        assert_eq!(PulseShape::RcExponential.density(-1.0, 50.0), 0.0);
        assert_eq!(PulseShape::Triangular.density(-1.0, 50.0), 0.0);
    }

    #[test]
    fn longer_duration_means_lower_peak() {
        // Same charge spread over a longer Δt gives a flatter pulse — the
        // mechanism behind eq. (12)'s C/Δt terms.
        let short = PulseShape::RcExponential.density(0.0, 30.0);
        let long = PulseShape::RcExponential.density(0.0, 120.0);
        assert!(short > long);
    }

    #[test]
    fn support_covers_shape() {
        assert_eq!(PulseShape::Triangular.support_ps(50), 50);
        assert_eq!(PulseShape::RcExponential.support_ps(50), 100);
        assert_eq!(PulseShape::RcExponential.support_ps(u64::MAX), u64::MAX);
        assert!(PulseShape::Triangular.density(51.0, 50.0) == 0.0);
    }
}
