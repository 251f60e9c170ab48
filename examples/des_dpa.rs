//! The paper's DES selection function, `D(C1, P6, K0) = SBOX1(P6 ⊕ K0)(C1)`,
//! exercised against a gate-level dual-rail DES S-box slice
//! (6-bit key XOR followed by SBOX1).
//!
//! Run with: `cargo run --release --example des_dpa`

use qdi::analog::{SynthConfig, TraceSynthesizer};
use qdi::crypto::gatelevel::{bridge_ack, sbox::des_sbox_cell};
use qdi::dpa::selection::DesSboxSelect;
use qdi::dpa::{parallel_attack, TraceSet};
use qdi::exec::ExecConfig;
use qdi::netlist::{cells, Channel, NetId, Netlist, NetlistBuilder};
use qdi::sim::{Testbench, TestbenchConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const KEY6: u8 = 0b101_011;
const TRACES: usize = 256;

struct DesSlice {
    netlist: Netlist,
    pt: Vec<Channel>,
    key: Vec<Channel>,
    out: Vec<Channel>,
}

fn build_des_slice() -> Result<DesSlice, Box<dyn std::error::Error>> {
    let mut b = NetlistBuilder::new("des_slice");
    let pt: Vec<Channel> = (0..6)
        .map(|i| b.input_channel(format!("p{i}"), 2))
        .collect();
    let key: Vec<Channel> = (0..6)
        .map(|i| b.input_channel(format!("k{i}"), 2))
        .collect();
    let out_acks: Vec<NetId> = (0..4).map(|i| b.input_net(format!("oack{i}"))).collect();
    // 6-bit XOR bank latched on the S-box's shared acknowledge.
    let sbox_ack = b.net("sb.ack_fwd");
    let xors: Vec<cells::QdiCell> = (0..6)
        .map(|i| cells::dual_rail_xor(&mut b, &format!("x{i}"), &pt[i], &key[i], sbox_ack))
        .collect();
    for (i, cell) in xors.iter().enumerate() {
        b.connect_input_acks(&[pt[i].id, key[i].id], cell.ack_to_senders);
    }
    let xor_outs: Vec<&Channel> = xors.iter().map(|c| &c.out).collect();
    let sbox = des_sbox_cell(&mut b, "sb", 0, &xor_outs, &out_acks);
    bridge_ack(&mut b, "sb", sbox.ack_to_senders, sbox_ack);
    let out: Vec<Channel> = sbox
        .out
        .iter()
        .enumerate()
        .map(|(i, ch)| b.output_channel(format!("o{i}"), &ch.rails.clone(), out_acks[i]))
        .collect();
    Ok(DesSlice {
        netlist: b.finish()?,
        pt,
        key,
        out,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut slice = build_des_slice()?;
    println!(
        "gate-level DES SBOX1 slice: {} gates (key = {KEY6:06b})",
        slice.netlist.gate_count()
    );

    // Unbalance one S-box output rail, as an uncontrolled router would.
    let rail = slice.netlist.find_net("sb.b0.h1").expect("rail net");
    slice.netlist.set_routing_cap(rail, 36.0);

    // Trace campaign over random 6-bit plaintexts.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let synth = TraceSynthesizer::new(&slice.netlist, SynthConfig::default());
    let mut set = TraceSet::new();
    for _ in 0..TRACES {
        let p: u8 = rng.gen_range(0..64);
        let mut tb = Testbench::new(&slice.netlist, TestbenchConfig::default())?;
        for i in 0..6 {
            tb.source(slice.pt[i].id, vec![((p >> i) & 1) as usize])?;
            tb.source(slice.key[i].id, vec![((KEY6 >> i) & 1) as usize])?;
        }
        for o in &slice.out {
            tb.sink(o.id)?;
        }
        let run = tb.run()?;
        set.push(vec![p], synth.synthesize(&run.transitions));
    }

    // The paper's D function over all 64 subkey guesses.
    let sel = DesSboxSelect {
        sbox_index: 0,
        byte: 0,
        bit: 0,
    };
    let result = parallel_attack(&set, &sel, ExecConfig::serial());
    println!(
        "attack over {} traces with {}:",
        result.traces, result.selection
    );
    for score in result.scores.iter().take(5) {
        println!(
            "  guess {:06b}  peak {:.3} at {} ps",
            score.guess, score.peak_abs, score.peak_time_ps
        );
    }
    let rank = result.rank_of(KEY6 as u16).map(|r| r + 1);
    println!("true subkey {KEY6:06b} ranks {rank:?} of 64");
    assert_eq!(
        result.best().guess,
        KEY6 as u16,
        "the subkey should rank first"
    );
    Ok(())
}
