//! Transition-log → current-trace synthesis.

use std::marker::PhantomData;

use qdi_netlist::{NetId, Netlist};
use qdi_sim::Transition;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::pulse::PulseShape;
use crate::trace::Trace;

/// Parameters of the electrical synthesis.
///
/// Serializable so campaign job specs (`qdi-serve`) can carry the full
/// electrical setup over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Supply voltage, volts.
    pub vdd_v: f64,
    /// Sampling period of the produced traces, ps.
    pub dt_ps: u64,
    /// Pulse shape.
    pub shape: PulseShape,
    /// Transition-time slope: `Δt = dt_k · R[kΩ] · C[fF]` ps — keep equal
    /// to the simulator's [`qdi_sim::LinearDelay::k`] so electrical and
    /// digital timing agree.
    pub dt_k: f64,
    /// Drive resistance assumed for environment-driven (primary input)
    /// nets, kΩ.
    pub input_drive_kohm: f64,
    /// Gaussian noise sigma added by [`TraceSynthesizer::synthesize_noisy`]
    /// (same units as trace samples).
    pub noise_sigma: f64,
}

impl SynthConfig {
    /// Defaults matching [`qdi_sim::LinearDelay::new`] and a 1.2 V supply.
    pub fn new() -> Self {
        SynthConfig {
            vdd_v: 1.2,
            dt_ps: 10,
            shape: PulseShape::RcExponential,
            dt_k: 0.6,
            input_drive_kohm: 4.0,
            noise_sigma: 0.0,
        }
    }

    /// Checks a configuration that arrives from outside the program (a
    /// served job spec) before any trace is synthesized on `netlist`:
    ///
    /// * `dt_ps` is in `1..=max_support_ps`;
    /// * `vdd_v`, `dt_k` and `input_drive_kohm` are finite and positive;
    /// * `noise_sigma` is finite and not negative;
    /// * no edge on `netlist` gives a pulse whose
    ///   [`PulseShape::support_ps`] exceeds `max_support_ps`.
    ///
    /// The last bound caps the memory [`TraceSynthesizer::new`] spends on
    /// its per-duration tables (DESIGN.md §4e) and the length of every
    /// trace.
    ///
    /// # Errors
    ///
    /// A reason naming the offending field.
    pub fn validate(&self, netlist: &Netlist, max_support_ps: u64) -> Result<(), String> {
        if self.dt_ps == 0 || self.dt_ps > max_support_ps {
            return Err(format!(
                "synth.dt_ps must be in 1..={max_support_ps}, got {}",
                self.dt_ps
            ));
        }
        for (field, v) in [
            ("vdd_v", self.vdd_v),
            ("dt_k", self.dt_k),
            ("input_drive_kohm", self.input_drive_kohm),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("synth.{field} must be finite and > 0, got {v}"));
            }
        }
        if !(self.noise_sigma.is_finite() && self.noise_sigma >= 0.0) {
            return Err(format!(
                "synth.noise_sigma must be finite and >= 0, got {}",
                self.noise_sigma
            ));
        }
        // Gate-driven pulses scale with `dt_k` alone, environment-driven
        // ones with `dt_k · input_drive_kohm`: checking gate-driven nets
        // first names the field that is actually out of range.
        for (field, gate_driven) in [("dt_k", true), ("input_drive_kohm", false)] {
            for net in netlist.nets().filter(|n| n.driver.is_some() == gate_driven) {
                let support = self.shape.support_ps(self.pulse_of(netlist, net.id).1);
                if support > max_support_ps {
                    return Err(format!(
                        "synth.{field}: net {} gets a {support} ps pulse, above the {max_support_ps} ps limit",
                        net.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Charge (fC) and duration `Δt` (ps) of one edge on `net`.
    fn pulse_of(&self, netlist: &Netlist, net: NetId) -> (f64, u64) {
        let (c_ff, r_kohm) = match netlist.net(net).driver {
            Some(gate) => (
                netlist.switched_cap_ff(gate),
                netlist.gate(gate).params.drive_res_kohm,
            ),
            None => (netlist.total_load_ff(net), self.input_drive_kohm),
        };
        let charge = c_ff * self.vdd_v;
        let dur = (self.dt_k * r_kohm * c_ff).max(1.0).round() as u64;
        (charge, dur)
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig::new()
    }
}

/// The pulse of every edge on one net: fixed by the netlist for the
/// synthesizer's lifetime.
#[derive(Debug, Clone, Copy)]
struct NetPulse {
    charge_fc: f64,
    /// Index into [`TraceSynthesizer::classes`].
    class: usize,
}

/// Everything that depends on a pulse duration `Δt` alone, shared by
/// every net with that duration.
#[derive(Debug, Clone)]
struct DurationClass {
    dur_ps: u64,
    support_ps: u64,
    /// `cdf[r] = shape.cdf(r, Δt)` for integer `r` from 0 up to `S_max`,
    /// or up to `dt − 1` past the first `r` where it reaches 1.0, whichever
    /// is first. A pulse's bins step by `dt` and stop at the first CDF of
    /// 1.0, so they never read past that.
    cdf: Vec<f64>,
}

impl DurationClass {
    fn new(shape: PulseShape, dur_ps: u64, dt_ps: u64, s_max: u64) -> Self {
        let dur = dur_ps as f64;
        let mut cdf = vec![0.0];
        let mut last = s_max;
        let mut r = 1;
        while r <= last {
            let c = shape.cdf(r as f64, dur);
            if c >= 1.0 {
                last = last.min(r.saturating_add(dt_ps.saturating_sub(1)));
            }
            cdf.push(c);
            r += 1;
        }
        DurationClass {
            dur_ps,
            support_ps: shape.support_ps(dur_ps),
            cdf,
        }
    }

    /// `shape.cdf(rel_ps, Δt)`, from the table when it covers `rel_ps`.
    fn cdf(&self, shape: PulseShape, rel_ps: u64) -> f64 {
        match self.cdf.get(rel_ps as usize) {
            Some(&c) => c,
            None => shape.cdf(rel_ps as f64, self.dur_ps as f64),
        }
    }
}

/// Turns simulator transition logs into supply-current traces.
///
/// Every edge contributes one pulse: charge `Q = C·Vdd` where
/// `C = Cl + Cpar + Csc` of the driving gate's output (or the net's load
/// capacitance alone for environment-driven nets), spread over
/// `Δt = k·R·C`. Both rising and falling edges draw supply/ground current
/// of the same polarity, as a current probe on the power pins sees.
///
/// Charge and `Δt` are fixed per net, so [`TraceSynthesizer::new`]
/// computes them once, with one CDF table per distinct `Δt`; a trace is
/// bit-identical to folding [`Trace::add_pulse`] over the log (DESIGN.md
/// §4e).
#[derive(Debug, Clone)]
pub struct TraceSynthesizer<'a> {
    cfg: SynthConfig,
    /// Indexed by [`NetId::index`].
    nets: Vec<NetPulse>,
    classes: Vec<DurationClass>,
    /// Metric handles resolved once per synthesizer, not per trace.
    pulses_metric: qdi_obs::metrics::Counter,
    samples_metric: qdi_obs::metrics::Counter,
    _netlist: PhantomData<&'a Netlist>,
}

impl<'a> TraceSynthesizer<'a> {
    /// Creates a synthesizer for `netlist`.
    pub fn new(netlist: &'a Netlist, cfg: SynthConfig) -> Self {
        let pulses: Vec<(f64, u64)> = netlist
            .nets()
            .map(|net| cfg.pulse_of(netlist, net.id))
            .collect();
        let mut durations: Vec<u64> = pulses.iter().map(|&(_, dur)| dur).collect();
        durations.sort_unstable();
        durations.dedup();
        // For a time-ordered log no bin ends more than the longest support
        // plus two sample periods after its pulse starts (DESIGN.md §4e).
        let s_max = durations
            .last()
            .map_or(0, |&dur| cfg.shape.support_ps(dur))
            .saturating_add(cfg.dt_ps.saturating_mul(2));
        let classes = durations
            .iter()
            .map(|&dur| DurationClass::new(cfg.shape, dur, cfg.dt_ps, s_max))
            .collect();
        let nets = pulses
            .into_iter()
            .map(|(charge_fc, dur)| NetPulse {
                charge_fc,
                class: durations
                    .binary_search(&dur)
                    .expect("every duration is listed"),
            })
            .collect();
        TraceSynthesizer {
            cfg,
            nets,
            classes,
            pulses_metric: qdi_obs::metrics::counter("analog.pulses"),
            samples_metric: qdi_obs::metrics::counter("analog.samples"),
            _netlist: PhantomData,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    /// Synthesizes a noiseless trace from a transition log.
    pub fn synthesize(&self, transitions: &[Transition]) -> Trace {
        let _span =
            qdi_obs::span!(qdi_obs::Level::Trace, target: "qdi_analog::synth", "analog.synth");
        let dt = self.cfg.dt_ps;
        let dt_f = dt as f64;
        let shape = self.cfg.shape;
        let mut trace = Trace::zeros(0, dt, 1);
        for t in transitions {
            let net = self.nets[t.net.index()];
            let class = &self.classes[net.class];
            // `Trace::add_pulse` with the table in place of `shape.cdf`:
            // same bins, same f64 expression, same early exit.
            trace.extend_to(t.time_ps + class.support_ps + dt);
            let start = (t.time_ps / dt) as usize;
            let mut rel = (start as u64 + 1) * dt - t.time_ps;
            let mut prev_cdf = 0.0;
            for s in &mut trace.samples_mut()[start..] {
                let cdf = class.cdf(shape, rel);
                *s += net.charge_fc * (cdf - prev_cdf) / dt_f;
                prev_cdf = cdf;
                if cdf >= 1.0 {
                    break;
                }
                rel += dt;
            }
        }
        self.pulses_metric.add(transitions.len() as u64);
        self.samples_metric.add(trace.len() as u64);
        qdi_obs::trace!(target: "qdi_analog::synth",
            pulses = transitions.len(),
            samples = trace.len(),
            charge_fc = trace.charge_fc(),
            "synthesized trace");
        trace
    }

    /// Synthesizes a trace and adds Gaussian noise of
    /// [`SynthConfig::noise_sigma`].
    pub fn synthesize_noisy<R: Rng>(&self, transitions: &[Transition], rng: &mut R) -> Trace {
        let mut trace = self.synthesize(transitions);
        let _span =
            qdi_obs::span!(qdi_obs::Level::Trace, target: "qdi_analog::synth", "analog.noise");
        trace.add_gaussian_noise(rng, self.cfg.noise_sigma);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::{cells, NetlistBuilder};
    use qdi_sim::{Testbench, TestbenchConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn xor_netlist() -> (
        Netlist,
        qdi_netlist::Channel,
        qdi_netlist::Channel,
        qdi_netlist::Channel,
    ) {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let out = b.output_channel("co", &cell.out.rails.clone(), ack);
        (b.finish().expect("valid"), a, bb, out)
    }

    fn run_xor(
        nl: &Netlist,
        a: &qdi_netlist::Channel,
        bb: &qdi_netlist::Channel,
        out: &qdi_netlist::Channel,
        av: usize,
        bv: usize,
    ) -> Vec<Transition> {
        let mut tb = Testbench::new(nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![av]).expect("src");
        tb.source(bb.id, vec![bv]).expect("src");
        tb.sink(out.id).expect("sink");
        tb.run().expect("completes").transitions
    }

    #[test]
    fn balanced_xor_traces_have_equal_charge() {
        let (nl, a, bb, out) = xor_netlist();
        let synth = TraceSynthesizer::new(&nl, SynthConfig::default());
        let charges: Vec<f64> = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .into_iter()
            .map(|(av, bv)| {
                synth
                    .synthesize(&run_xor(&nl, &a, &bb, &out, av, bv))
                    .charge_fc()
            })
            .collect();
        for w in charges.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-6,
                "balanced cell must draw identical charge: {charges:?}"
            );
        }
        assert!(charges[0] > 0.0);
    }

    #[test]
    fn unbalancing_one_net_changes_one_data_class_only() {
        // Enlarge the cap on m1 (fires only when a=0, b=0): the (0,0) trace
        // gains charge, the (1,1) trace must not.
        let (mut nl, a, bb, out) = xor_netlist();
        let m1 = nl.find_net("x.m1").expect("m1");
        let base_00;
        let base_11;
        {
            let synth = TraceSynthesizer::new(&nl, SynthConfig::default());
            base_00 = synth
                .synthesize(&run_xor(&nl, &a, &bb, &out, 0, 0))
                .charge_fc();
            base_11 = synth
                .synthesize(&run_xor(&nl, &a, &bb, &out, 1, 1))
                .charge_fc();
        }
        nl.set_routing_cap(m1, 32.0);
        let synth = TraceSynthesizer::new(&nl, SynthConfig::default());
        let new_00 = synth
            .synthesize(&run_xor(&nl, &a, &bb, &out, 0, 0))
            .charge_fc();
        let new_11 = synth
            .synthesize(&run_xor(&nl, &a, &bb, &out, 1, 1))
            .charge_fc();
        assert!(new_00 > base_00 + 1.0, "m1 fires for (0,0)");
        assert!((new_11 - base_11).abs() < 1e-6, "m1 idle for (1,1)");
    }

    #[test]
    fn noise_changes_trace_but_not_mean_much() {
        let (nl, a, bb, out) = xor_netlist();
        let cfg = SynthConfig {
            noise_sigma: 0.05,
            ..SynthConfig::default()
        };
        let synth = TraceSynthesizer::new(&nl, cfg);
        let log = run_xor(&nl, &a, &bb, &out, 0, 1);
        let clean = synth.synthesize(&log);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let noisy = synth.synthesize_noisy(&log, &mut rng);
        assert_eq!(clean.len(), noisy.len());
        assert!(clean.samples() != noisy.samples());
    }

    #[test]
    fn validate_names_the_field_behind_an_oversized_pulse() {
        let (nl, ..) = xor_netlist();
        let ok = SynthConfig::default();
        assert_eq!(ok.validate(&nl, 1000), Ok(()));
        for dt_k in [1e3, 1e300] {
            let slope = SynthConfig { dt_k, ..ok };
            let err = slope.validate(&nl, 1000).expect_err("too long");
            assert!(err.starts_with("synth.dt_k:"), "{err}");
        }
        let drive = SynthConfig {
            input_drive_kohm: 1e3,
            ..ok
        };
        let err = drive.validate(&nl, 1000).expect_err("too long");
        assert!(err.starts_with("synth.input_drive_kohm:"), "{err}");
        let nan = SynthConfig {
            noise_sigma: f64::NAN,
            ..ok
        };
        assert!(nan.validate(&nl, 1000).is_err());
    }

    #[test]
    fn input_edges_use_input_drive() {
        let mut b = NetlistBuilder::new("pi");
        let a = b.input_net("a");
        let y = b.gate(qdi_netlist::GateKind::Buf, "y", &[a]);
        b.mark_output(y);
        let nl = b.finish().expect("valid");
        let a = nl.find_net("a").expect("a");
        let synth = TraceSynthesizer::new(&nl, SynthConfig::default());
        let log = vec![Transition {
            time_ps: 100,
            net: a,
            rising: true,
        }];
        let trace = synth.synthesize(&log);
        let expected = nl.total_load_ff(a) * 1.2;
        assert!((trace.charge_fc() - expected).abs() < 0.3);
    }
}
