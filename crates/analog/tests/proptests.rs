//! Property-based tests of trace algebra and the electrical model.

use proptest::prelude::*;

use qdi_analog::{power, Pulse, PulseShape, SynthConfig, Trace, TraceSynthesizer};
use qdi_netlist::{cells, NetId, Netlist, NetlistBuilder};
use qdi_sim::Transition;
use rand::{Rng, SeedableRng};

fn arb_pulse() -> impl Strategy<Value = Pulse> {
    (0u64..2000, 0.1f64..50.0, 1u64..300).prop_map(|(t0_ps, charge_fc, dur_ps)| Pulse {
        t0_ps,
        charge_fc,
        dur_ps,
    })
}

/// The dual-rail XOR cell with every routing capacitance drawn
/// log-uniformly from 1–160 fF, the spread extraction gives a slice.
fn xor_with_caps(caps: &[f64]) -> Netlist {
    let mut b = NetlistBuilder::new("xor");
    let a = b.input_channel("a", 2);
    let bb = b.input_channel("b", 2);
    let ack = b.input_net("ack");
    let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
    b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
    b.output_channel("co", &cell.out.rails.clone(), ack);
    let mut nl = b.finish().expect("valid");
    for i in 0..nl.net_count() {
        nl.set_routing_cap(NetId::from_raw(i as u32), 160f64.powf(caps[i % caps.len()]));
    }
    nl
}

/// The synthesis reference: [`Trace::add_pulse`] folded over the log,
/// with each edge's charge and duration computed from the netlist.
fn add_pulse_reference(nl: &Netlist, cfg: &SynthConfig, log: &[Transition]) -> Trace {
    let mut trace = Trace::zeros(0, cfg.dt_ps, 1);
    for t in log {
        let net = nl.net(t.net);
        let (c_ff, r_kohm) = match net.driver {
            Some(g) => (nl.switched_cap_ff(g), nl.gate(g).params.drive_res_kohm),
            None => (nl.total_load_ff(t.net), cfg.input_drive_kohm),
        };
        let pulse = Pulse {
            t0_ps: t.time_ps,
            charge_fc: c_ff * cfg.vdd_v,
            dur_ps: (cfg.dt_k * r_kohm * c_ff).max(1.0).round() as u64,
        };
        trace.add_pulse(pulse, cfg.shape);
    }
    trace
}

fn bits(trace: &Trace) -> Vec<u64> {
    trace.samples().iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The table-driven synthesizer is bit-identical to the reference, on
    /// time-ordered logs (what the simulator emits) and on shuffled ones,
    /// whose late bins fall past the tables.
    #[test]
    fn synthesize_matches_add_pulse_bit_for_bit(
        caps in prop::collection::vec(0.0f64..1.0, 24..25),
        edges in prop::collection::vec((0u64..64, 0u64..4000), 1..60),
        triangular in any::<bool>(),
        dt_pick in 0usize..3,
        shuffle_seed in any::<u64>(),
    ) {
        let nl = xor_with_caps(&caps);
        let cfg = SynthConfig {
            dt_ps: [1, 7, 10][dt_pick],
            shape: if triangular { PulseShape::Triangular } else { PulseShape::RcExponential },
            ..SynthConfig::default()
        };
        let mut log: Vec<Transition> = edges
            .iter()
            .map(|&(net, time_ps)| Transition {
                time_ps,
                net: NetId::from_raw((net % nl.net_count() as u64) as u32),
                rising: net % 2 == 0,
            })
            .collect();
        log.sort_by_key(|t| t.time_ps);
        let synth = TraceSynthesizer::new(&nl, cfg);
        prop_assert_eq!(bits(&synth.synthesize(&log)), bits(&add_pulse_reference(&nl, &cfg, &log)));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(shuffle_seed);
        for i in (1..log.len()).rev() {
            log.swap(i, rng.gen_range(0..=i));
        }
        prop_assert_eq!(bits(&synth.synthesize(&log)), bits(&add_pulse_reference(&nl, &cfg, &log)));
    }

    /// Superposition: the charge of a sum of pulses is the sum of their
    /// charges, whatever the overlaps.
    #[test]
    fn superposition_conserves_charge(pulses in prop::collection::vec(arb_pulse(), 1..8),
                                      dt in 1u64..40) {
        let mut trace = Trace::zeros(0, dt, 4);
        let mut expected = 0.0;
        for p in &pulses {
            trace.add_pulse(*p, PulseShape::RcExponential);
            expected += p.charge_fc;
        }
        let got = trace.charge_fc();
        prop_assert!((got - expected).abs() < 0.01 * expected + 1e-9,
                     "{got} vs {expected}");
    }

    /// Averaging then differencing identical sets gives exactly zero.
    #[test]
    fn self_difference_is_zero(pulses in prop::collection::vec(arb_pulse(), 1..6)) {
        let mut t = Trace::zeros(0, 10, 8);
        for p in &pulses {
            t.add_pulse(*p, PulseShape::Triangular);
        }
        let avg = Trace::average([&t, &t, &t]);
        let diff = Trace::difference(&avg, &t);
        prop_assert!(diff.abs_area_fc() < 1e-9);
    }

    /// `abs_peak_in` over the full span equals `abs_peak`.
    #[test]
    fn windowed_peak_degenerates_to_global(p in arb_pulse()) {
        let mut t = Trace::zeros(0, 10, 8);
        t.add_pulse(p, PulseShape::Triangular);
        let global = t.abs_peak().expect("nonempty");
        let windowed = t.abs_peak_in(0, t.time_of(t.len() - 1) + 10).expect("nonempty");
        prop_assert_eq!(global, windowed);
    }

    /// Window charges partition: charge(0, mid) + charge(mid, end) equals
    /// the total charge.
    #[test]
    fn window_charges_partition(p in arb_pulse(), mid_frac in 0.1f64..0.9) {
        let mut t = Trace::zeros(0, 10, 8);
        t.add_pulse(p, PulseShape::RcExponential);
        let end = t.time_of(t.len() - 1) + 10;
        let mid = ((end as f64 * mid_frac) as u64 / 10) * 10; // bin aligned
        let parts = t.charge_in_fc(0, mid) + t.charge_in_fc(mid, end);
        prop_assert!((parts - t.charge_fc()).abs() < 1e-9);
    }

    /// Scaling a trace scales its peak and area linearly.
    #[test]
    fn scaling_is_linear(p in arb_pulse(), k in 0.1f64..10.0) {
        let mut t = Trace::zeros(0, 10, 8);
        t.add_pulse(p, PulseShape::Triangular);
        let area = t.abs_area_fc();
        let peak = t.abs_peak().expect("nonempty").1;
        t.scale(k);
        prop_assert!((t.abs_area_fc() - k * area).abs() < 1e-9 * (1.0 + k * area));
        prop_assert!((t.abs_peak().expect("nonempty").1 - k * peak).abs() < 1e-12 + 1e-9 * k);
    }

    /// The block power equation is additive over gates (eq. 3).
    #[test]
    fn block_power_is_additive(caps in prop::collection::vec(0.1f64..100.0, 1..10)) {
        let total = power::block_power_w(1.0, 1e8, &caps, 1.2);
        let sum: f64 = caps
            .iter()
            .map(|&c| power::block_power_w(1.0, 1e8, &[c], 1.2))
            .sum();
        prop_assert!((total - sum).abs() < 1e-18 + 1e-12 * total);
    }
}
