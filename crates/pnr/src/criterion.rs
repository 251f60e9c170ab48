//! The paper's channel dissymmetry criterion and its reporting.
//!
//! Section VI defines, for a dual-rail channel with rail capacitances
//! `Cl0`, `Cl1`:
//!
//! ```text
//! dA = |Cl0 − Cl1| / min(Cl0, Cl1)
//! ```
//!
//! "The lower the value of dA, the more resistant to DPA the chip is."
//! Table 2 of the paper lists the most critical channels (highest `dA`)
//! for the hierarchical and flat AES layouts; [`criterion_table`] produces
//! that ranking for any extracted netlist, and [`stability_study`]
//! reproduces the observation that under the flat flow "the most sensitive
//! channels are never the same from one place and route to another".

use qdi_exec::{ExecConfig, Quarantine, SupervisorPolicy};
use qdi_netlist::{symmetry, ChannelId, Netlist};
use serde::{Deserialize, Serialize};

use crate::{place_and_route, PnrConfig, Strategy};

/// Criterion value of one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelCriterion {
    /// The channel.
    pub channel: ChannelId,
    /// Channel name.
    pub name: String,
    /// The dissymmetry criterion `dA`.
    pub d: f64,
    /// Rail capacitances in fF (`Cl0`, `Cl1`, ...).
    pub rail_caps_ff: Vec<f64>,
}

impl From<symmetry::ChannelSkew> for ChannelCriterion {
    fn from(row: symmetry::ChannelSkew) -> ChannelCriterion {
        ChannelCriterion {
            channel: row.channel,
            name: row.name,
            d: row.d_a,
            rail_caps_ff: row.rail_caps_ff,
        }
    }
}

/// Computes `dA` for every multi-rail channel, sorted worst first.
///
/// This is a reporting view over [`qdi_netlist::symmetry::capacitance_skew`],
/// which owns the single implementation of the eq. 13 criterion.
pub fn criterion_table(netlist: &Netlist) -> Vec<ChannelCriterion> {
    symmetry::capacitance_skew(netlist)
        .into_iter()
        .map(ChannelCriterion::from)
        .collect()
}

/// Like [`criterion_table`], restricted to *internal* channels — the ones
/// the paper's Table 2 reports. Boundary channels route to pads whose
/// symmetric bonding is outside the layout model.
pub fn internal_criterion_table(netlist: &Netlist) -> Vec<ChannelCriterion> {
    let internal: std::collections::HashSet<ChannelId> = netlist
        .channels()
        .filter(|c| c.role == qdi_netlist::ChannelRole::Internal)
        .map(|c| c.id)
        .collect();
    symmetry::capacitance_skew(netlist)
        .into_iter()
        .filter(|row| internal.contains(&row.channel))
        .map(ChannelCriterion::from)
        .collect()
}

/// The `k` most critical channels.
pub fn worst_channels(netlist: &Netlist, k: usize) -> Vec<ChannelCriterion> {
    let mut table = criterion_table(netlist);
    table.truncate(k);
    table
}

/// Formats a Table 2-style report: rank, channel, rail capacitances, `dA`.
pub fn format_table(rows: &[ChannelCriterion]) -> String {
    let mut out = String::new();
    out.push_str("rank  channel                              Cl0 | Cl1 (fF)      dA\n");
    for (i, row) in rows.iter().enumerate() {
        let caps = row
            .rail_caps_ff
            .iter()
            .map(|c| format!("{c:.1}"))
            .collect::<Vec<_>>()
            .join(" | ");
        out.push_str(&format!(
            "{:>4}  {:<36} {:<18} {:>5.2}\n",
            i + 1,
            row.name,
            caps,
            row.d
        ));
    }
    out
}

/// One seed's outcome in a stability study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedOutcome {
    /// The annealing seed.
    pub seed: u64,
    /// Worst channel name for this run.
    pub worst_channel: String,
    /// Its criterion value.
    pub worst_d: f64,
}

/// One seed's flow run of a stability study — shared by the fail-fast
/// and supervised drivers so their outcomes are bit-identical.
fn seed_outcome(netlist: &Netlist, strategy: Strategy, cfg: &PnrConfig, seed: u64) -> SeedOutcome {
    let mut nl = netlist.clone();
    let mut cfg = *cfg;
    cfg.anneal.seed = seed;
    place_and_route(&mut nl, strategy, &cfg);
    // Prefer internal channels (the paper's Table 2 scope); fall
    // back to all channels for IO-only fixtures.
    let mut worst = internal_criterion_table(&nl);
    if worst.is_empty() {
        worst = criterion_table(&nl);
    }
    let first = worst.first().expect("netlist has channels");
    SeedOutcome {
        seed,
        worst_channel: first.name.clone(),
        worst_d: first.d,
    }
}

/// Re-runs the flow across `seeds` and records the worst channel of each
/// run — the paper's evidence that the flat flow is "not under the
/// designer's control" is that these differ from run to run.
///
/// The per-seed annealing runs execute on the `qdi-exec` pool
/// ([`ExecConfig::serial`] runs them inline). Each run's randomness
/// comes from its own seed and results are merged in seed order, so the
/// outcome list is bit-identical at every worker count.
pub fn stability_study(
    netlist: &Netlist,
    strategy: Strategy,
    cfg: &PnrConfig,
    seeds: &[u64],
    exec: ExecConfig,
) -> Vec<SeedOutcome> {
    let mut span = qdi_obs::span("qdi_pnr::criterion", "stability_study")
        .field("seeds", seeds.len())
        .field("workers", exec.workers)
        .enter();
    // Inert unless `qdi_obs::progress` is enabled; feeds `qdi-mon watch`.
    let progress = qdi_obs::progress::task("pnr.stability_study", seeds.len());
    let outcomes = qdi_exec::run_indexed(&exec, seeds.len(), |i| {
        let outcome = seed_outcome(netlist, strategy, cfg, seeds[i]);
        progress.advance(1);
        outcome
    });
    progress.finish();
    span.record("outcomes", outcomes.len());
    outcomes
}

/// [`stability_study`] under a `qdi-exec` supervisor: a panicking or
/// overrunning annealing run is retried per `policy` and quarantined
/// when it keeps failing, instead of killing the study. Returns one
/// outcome per seed (`None` where quarantined, so surviving outcomes
/// keep their seed position) plus the quarantine manifest — its entries
/// report the failing *annealing seed* itself, the natural re-attempt
/// handle for a multi-seed study.
pub fn stability_study_supervised(
    netlist: &Netlist,
    strategy: Strategy,
    cfg: &PnrConfig,
    seeds: &[u64],
    exec: ExecConfig,
    policy: &SupervisorPolicy,
) -> (Vec<Option<SeedOutcome>>, Quarantine) {
    let mut span = qdi_obs::span("qdi_pnr::criterion", "stability_study_supervised")
        .field("seeds", seeds.len())
        .field("workers", exec.workers)
        .enter();
    let progress = qdi_obs::progress::task("pnr.stability_study", seeds.len());
    let root = seeds.first().copied().unwrap_or(0);
    let run = qdi_exec::run_supervised(&exec, policy, root, seeds.len(), |i| {
        let outcome = seed_outcome(netlist, strategy, cfg, seeds[i]);
        progress.advance(1);
        Ok::<_, String>(outcome)
    });
    progress.finish();
    let mut quarantine = run.quarantine;
    for entry in &mut quarantine.entries {
        // The job's randomness is its annealing seed, not a derived
        // pool seed: report the handle a re-attempt actually needs.
        entry.job_seed = seeds[entry.index];
    }
    let outcomes: Vec<Option<SeedOutcome>> = run
        .outcomes
        .into_iter()
        .map(qdi_exec::JobOutcome::into_value)
        .collect();
    span.record("outcomes", outcomes.iter().filter(|o| o.is_some()).count());
    span.record("quarantined", quarantine.len());
    (outcomes, quarantine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::{cells, NetlistBuilder};

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

    #[test]
    fn table_is_sorted_worst_first() {
        let mut nl = xor_netlist();
        place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        let table = criterion_table(&nl);
        assert!(!table.is_empty());
        for w in table.windows(2) {
            assert!(w[0].d >= w[1].d);
        }
    }

    #[test]
    fn pre_layout_criterion_is_zero() {
        // Before extraction every net carries the default Cd: dA = 0.
        let nl = xor_netlist();
        for row in criterion_table(&nl) {
            assert_eq!(row.d, 0.0, "{}", row.name);
        }
    }

    #[test]
    fn worst_channels_truncates() {
        let mut nl = xor_netlist();
        place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        assert_eq!(worst_channels(&nl, 2).len(), 2);
    }

    #[test]
    fn format_table_mentions_channels() {
        let mut nl = xor_netlist();
        place_and_route(&mut nl, Strategy::Flat, &PnrConfig::fast());
        let text = format_table(&worst_channels(&nl, 3));
        assert!(text.contains("dA"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn stability_study_covers_all_seeds() {
        let nl = xor_netlist();
        let outcomes = stability_study(
            &nl,
            Strategy::Flat,
            &PnrConfig::fast(),
            &[1, 2, 3],
            ExecConfig::serial(),
        );
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(o.worst_d >= 0.0);
            assert!(!o.worst_channel.is_empty());
        }
    }

    #[test]
    fn supervised_stability_study_matches_fail_fast_when_clean() {
        let nl = xor_netlist();
        let seeds = [1u64, 2, 3, 4];
        let golden = stability_study(
            &nl,
            Strategy::Flat,
            &PnrConfig::fast(),
            &seeds,
            ExecConfig::serial(),
        );
        let policy = SupervisorPolicy::new().without_backoff();
        let (outcomes, quarantine) = stability_study_supervised(
            &nl,
            Strategy::Flat,
            &PnrConfig::fast(),
            &seeds,
            ExecConfig { workers: 2 },
            &policy,
        );
        assert!(quarantine.is_empty());
        let outcomes: Vec<SeedOutcome> = outcomes.into_iter().map(Option::unwrap).collect();
        assert_eq!(golden, outcomes);
    }

    #[test]
    fn stability_study_is_worker_count_invariant() {
        let nl = xor_netlist();
        let seeds = [1u64, 2, 3, 4, 5];
        let golden = stability_study(
            &nl,
            Strategy::Flat,
            &PnrConfig::fast(),
            &seeds,
            ExecConfig::serial(),
        );
        for workers in [2usize, 8] {
            let parallel = stability_study(
                &nl,
                Strategy::Flat,
                &PnrConfig::fast(),
                &seeds,
                ExecConfig { workers },
            );
            assert_eq!(golden, parallel, "outcomes @ {workers} workers");
        }
    }
}
