//! Property test of the parallel fault-campaign determinism contract:
//! for arbitrary campaign parameters, per-fault outcomes and outcome
//! counts are bit-identical across 1, 2 and 8 workers.

use proptest::prelude::*;

use qdi_exec::ExecConfig;
use qdi_fi::{default_injection_times, enumerate_faults, run_campaign, CampaignConfig};
use qdi_netlist::{cells, Netlist, NetlistBuilder};
use qdi_sim::FaultKind;

fn xor_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("xor");
    let a = b.input_channel("a", 2);
    let bb = b.input_channel("b", 2);
    let ack = b.input_net("ack");
    let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
    b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
    let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
    b.finish().expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn outcome_counts_are_bit_identical_across_1_2_and_8_workers(
        seed in any::<u64>(),
        tokens in 1usize..4,
        flips in any::<bool>(),
    ) {
        let nl = xor_netlist();
        let mut cfg = CampaignConfig::new();
        cfg.seed = seed;
        cfg.tokens = tokens;
        let models = if flips {
            vec![FaultKind::TransientFlip]
        } else {
            vec![FaultKind::StuckAt(false), FaultKind::StuckAt(true)]
        };
        let times = default_injection_times(&nl, &cfg).expect("golden anchors");
        let faults = enumerate_faults(&nl, &models, &times);
        prop_assert!(!faults.is_empty());

        let serial = run_campaign(&nl, &faults, &cfg, ExecConfig::serial())
            .expect("one-worker campaign");
        for workers in [2usize, 8] {
            let parallel =
                run_campaign(&nl, &faults, &cfg, ExecConfig { workers })
                    .expect("parallel campaign");
            prop_assert_eq!(serial.total, parallel.total);
            prop_assert_eq!(serial.masked, parallel.masked, "masked @ {} workers", workers);
            prop_assert_eq!(serial.deadlock, parallel.deadlock, "deadlock @ {}", workers);
            prop_assert_eq!(serial.livelock, parallel.livelock, "livelock @ {}", workers);
            prop_assert_eq!(serial.protocol, parallel.protocol, "protocol @ {}", workers);
            prop_assert_eq!(serial.silent, parallel.silent, "silent @ {}", workers);
            prop_assert_eq!(serial.aborted, parallel.aborted, "aborted @ {}", workers);
            prop_assert_eq!(serial.records.len(), parallel.records.len());
            for (a, b) in serial.records.iter().zip(&parallel.records) {
                prop_assert_eq!(&a.outcome, &b.outcome, "outcome of {}", a.detail);
            }
        }
    }
}
