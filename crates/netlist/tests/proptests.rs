//! Property-based tests over netlist construction, analysis and I/O.

use proptest::prelude::*;

use qdi_netlist::{cells, graph, io, symmetry, Channel, GateKind, Netlist, NetlistBuilder};

/// Builds a random layered DAG of monotone gates: `widths[i]` gates at
/// level `i`, each reading 1–2 nets from the previous layer.
fn random_dag(widths: &[usize], edge_seed: u64) -> Netlist {
    let mut b = NetlistBuilder::new("dag");
    let mut prev: Vec<_> = (0..widths[0].max(1))
        .map(|i| b.input_net(format!("in{i}")))
        .collect();
    let mut state = edge_seed | 1;
    let mut next_u = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for (level, &width) in widths.iter().enumerate().skip(1) {
        let mut layer = Vec::with_capacity(width.max(1));
        for g in 0..width.max(1) {
            let a = prev[(next_u() as usize) % prev.len()];
            let c = prev[(next_u() as usize) % prev.len()];
            let kind = match next_u() % 3 {
                0 => GateKind::Or,
                1 => GateKind::And,
                _ => GateKind::Muller,
            };
            let inputs = if a == c {
                vec![a, prev[(g + 1) % prev.len()]]
            } else {
                vec![a, c]
            };
            let inputs = if inputs[0] == inputs[1] {
                vec![inputs[0]]
            } else {
                inputs
            };
            let out = if inputs.len() == 1 {
                b.gate(GateKind::Or, format!("g{level}_{g}"), &inputs)
            } else {
                b.gate(kind, format!("g{level}_{g}"), &inputs)
            };
            layer.push(out);
        }
        prev = layer;
    }
    for &n in &prev {
        b.mark_output(n);
    }
    b.finish().expect("random DAG is structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any layered DAG levelizes with Nc equal to its layer count.
    #[test]
    fn layered_dags_levelize(widths in prop::collection::vec(1usize..5, 2..6),
                             seed in any::<u64>()) {
        let nl = random_dag(&widths, seed);
        let lv = graph::levelize(&nl).expect("layered DAGs are acyclic");
        prop_assert_eq!(lv.nc(), widths.len() - 1);
        prop_assert_eq!(lv.gate_count(), nl.gate_count());
        // Every gate's level exceeds its data predecessors' levels.
        for gate in nl.gates() {
            for &input in &gate.inputs {
                if let Some(driver) = nl.net(input).driver {
                    prop_assert!(lv.level_of(gate.id) > lv.level_of(driver));
                }
            }
        }
    }

    /// The text format round-trips random DAGs byte-identically.
    #[test]
    fn io_round_trips_random_dags(widths in prop::collection::vec(1usize..5, 2..5),
                                  seed in any::<u64>(),
                                  cap in 1.0f64..100.0) {
        let mut nl = random_dag(&widths, seed);
        let first_gate = nl.gates().next().expect("nonempty").output;
        nl.set_routing_cap(first_gate, (cap * 100.0).round() / 100.0);
        let text = io::to_text(&nl);
        let parsed = io::from_text(&text).expect("round trip parses");
        prop_assert_eq!(io::to_text(&parsed), text);
        prop_assert_eq!(parsed.gate_count(), nl.gate_count());
    }

    /// The text parser classifies any input: byte soup, truncated
    /// prefixes and line-shuffled copies of valid output all end in
    /// `Ok` or a `ParseNetlistError`, never a panic.
    #[test]
    fn from_text_never_panics(widths in prop::collection::vec(1usize..5, 2..5),
                              seed in any::<u64>(),
                              cut in any::<usize>(),
                              shuffle_seed in any::<u64>(),
                              soup in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = io::to_text(&random_dag(&widths, seed));
        let prefix = &text[..cut % (text.len() + 1)];
        let mut lines: Vec<&str> = text.lines().collect();
        let mut state = shuffle_seed | 1;
        for i in (1..lines.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lines.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let shuffled = lines.join("\n");
        for input in [prefix, shuffled.as_str(), &String::from_utf8_lossy(&soup)] {
            let _ = io::from_text(input);
        }
        // A second header used to panic resolving nets into the new builder.
        let repeated = "netlist a\nnet x input\nnet y\nnet z\nnetlist b\ngate g C in=x,y out=z\n";
        prop_assert_eq!(io::from_text(repeated).map_err(|e| e.line).err(), Some(5));
    }

    /// dual_rail_fn2 cells are glitch-freely levelizable and their output
    /// channel reports balanced symmetry except for OR-arity skew.
    #[test]
    fn fn2_cells_always_levelize(truth_bits in 1u8..15) {
        let truth = [
            truth_bits & 1 != 0,
            truth_bits & 2 != 0,
            truth_bits & 4 != 0,
            truth_bits & 8 != 0,
        ];
        prop_assume!(truth.iter().any(|&t| t) && truth.iter().any(|&t| !t));
        let mut b = NetlistBuilder::new("fn2");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_fn2(&mut b, "g", &a, &bb, ack, truth);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        let nl = b.finish().expect("valid");
        let lv = graph::levelize(&nl).expect("acyclic");
        prop_assert_eq!(lv.nc(), 4);
    }

    /// Channel dissymmetry is scale invariant: multiplying every rail cap
    /// by the same factor leaves dA unchanged.
    #[test]
    fn criterion_is_scale_invariant(c0 in 1.0f64..100.0, c1 in 1.0f64..100.0,
                                    scale in 0.1f64..10.0) {
        let mut b = NetlistBuilder::new("t");
        let ch: Channel = b.input_channel("a", 2);
        let o = b.gate(GateKind::Or, "o", &[ch.rail(0), ch.rail(1)]);
        b.mark_output(o);
        let mut nl = b.finish().expect("valid");
        nl.set_routing_cap(ch.rail(0), c0);
        nl.set_routing_cap(ch.rail(1), c1);
        let d1 = nl.channel(ch.id).dissymmetry(&nl).expect("defined");
        nl.set_routing_cap(ch.rail(0), c0 * scale);
        nl.set_routing_cap(ch.rail(1), c1 * scale);
        let d2 = nl.channel(ch.id).dissymmetry(&nl).expect("defined");
        prop_assert!((d1 - d2).abs() < 1e-9 * d1.max(1.0));
    }

    /// Process mismatch stays within the requested spread and is
    /// deterministic in the seed.
    #[test]
    fn process_mismatch_is_bounded_and_deterministic(seed in any::<u64>(),
                                                     spread in 0.0f64..0.5) {
        let build = || {
            let mut b = NetlistBuilder::new("t");
            let a = b.input_net("a");
            let c = b.input_net("b");
            let m = b.gate(GateKind::Muller, "m", &[a, c]);
            let o = b.gate(GateKind::Or, "o", &[m, a]);
            b.mark_output(o);
            b.finish().expect("valid")
        };
        let reference = build();
        let mut nl1 = build();
        let mut nl2 = build();
        nl1.apply_process_mismatch(seed, spread);
        nl2.apply_process_mismatch(seed, spread);
        for (g1, (g2, g0)) in
            nl1.gates().zip(nl2.gates().zip(reference.gates()))
        {
            prop_assert_eq!(g1.params.cpar_ff, g2.params.cpar_ff);
            let lo = g0.params.cpar_ff * (1.0 - spread) - 1e-12;
            let hi = g0.params.cpar_ff * (1.0 + spread) + 1e-12;
            prop_assert!(g1.params.cpar_ff >= lo && g1.params.cpar_ff <= hi);
        }
    }

    /// The symmetry checker never reports a WCHB buffer as unbalanced
    /// whatever the channel arity.
    #[test]
    fn wchb_buffers_are_always_balanced(arity in 2usize..8) {
        let mut b = NetlistBuilder::new("hb");
        let a = b.input_channel("a", arity);
        let ack = b.input_net("ack");
        let cell = cells::wchb_buffer(&mut b, "hb", &a, ack);
        b.connect_input_acks(&[a.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        let nl = b.finish().expect("valid");
        let report = symmetry::check_channel(&nl, nl.channel(cell.out.id));
        prop_assert!(report.balanced, "{:?}", report.violations);
    }
}
