//! Campaign driver: golden run, per-fault injection, classification.

use qdi_exec::{ExecConfig, Quarantine, SupervisorPolicy};
use qdi_netlist::Netlist;
use qdi_sim::{Fault, FaultPlan, SimError, TestbenchConfig, TimePs};
use serde::{Deserialize, Serialize};

use crate::harness::{output_values, OutputValues, Stimulus};
use crate::outcome::{classify, FaultOutcome};
use crate::report::{FaultRecord, FaultReport};

/// How a campaign drives the netlist.
///
/// Serializable so `qdi-serve` fault-injection job specs can carry it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Tokens pushed through every input channel per run.
    pub tokens: usize,
    /// Seed for the stimulus values.
    pub seed: u64,
    /// Simulator budget and environment timing, shared by the golden run
    /// and every injected run.
    pub testbench: TestbenchConfig,
}

impl CampaignConfig {
    /// Two tokens, seed 1, default testbench.
    #[must_use]
    pub fn new() -> CampaignConfig {
        CampaignConfig {
            tokens: 2,
            seed: 1,
            testbench: TestbenchConfig::default(),
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig::new()
    }
}

/// Derives injection times from a clean run: the quarter points (25%,
/// 50%, 75%) of the golden run's span, deduplicated — the window where
/// the circuit is actually computing.
///
/// # Errors
///
/// Propagates golden-run failures ([`SimError`]): a netlist that cannot
/// complete a clean run cannot anchor a campaign.
pub fn default_injection_times(
    netlist: &Netlist,
    cfg: &CampaignConfig,
) -> Result<Vec<TimePs>, SimError> {
    let stim = Stimulus::random(netlist, cfg.tokens, cfg.seed)?;
    let run = stim.run(netlist, &cfg.testbench, None)?;
    let end = run.end_time_ps.max(4);
    let mut times: Vec<TimePs> = [end / 4, end / 2, 3 * end / 4].to_vec();
    times.dedup();
    Ok(times)
}

/// The golden run both campaign entry points share, plus the per-fault
/// injection and the serial, fault-ordered report assembly.
struct Injector<'a> {
    netlist: &'a Netlist,
    faults: &'a [Fault],
    cfg: &'a CampaignConfig,
    stim: Stimulus,
    golden: OutputValues,
    // Inert unless `qdi_obs::progress` is enabled; feeds `qdi-mon watch`.
    progress: qdi_obs::progress::ProgressTask,
}

impl<'a> Injector<'a> {
    /// Attaches the stimulus and records the golden outputs.
    fn new(
        netlist: &'a Netlist,
        faults: &'a [Fault],
        cfg: &'a CampaignConfig,
    ) -> Result<Injector<'a>, SimError> {
        let stim = Stimulus::random(netlist, cfg.tokens, cfg.seed)?;
        let golden = output_values(&stim.run(netlist, &cfg.testbench, None)?);
        qdi_obs::metrics::counter("fi.runs").inc();
        Ok(Injector {
            netlist,
            faults,
            cfg,
            stim,
            golden,
            progress: qdi_obs::progress::task("fi.campaign", faults.len()),
        })
    }

    /// Replays the stimulus with fault `i` injected and classifies the
    /// run against the golden outputs.
    fn inject(&self, i: usize) -> FaultOutcome {
        let plan = FaultPlan::single(self.faults[i]);
        let result = self
            .stim
            .run(self.netlist, &self.cfg.testbench, Some(&plan));
        let outcome = classify(self.netlist, &self.golden, &result);
        self.progress.advance(1);
        outcome
    }

    /// Builds the report. Records and outcome counters are materialized
    /// serially in fault order, so metrics and report rows are
    /// schedule-independent.
    fn finish(
        self,
        span: &mut qdi_obs::SpanGuard,
        outcomes: impl IntoIterator<Item = FaultOutcome>,
    ) -> FaultReport {
        self.progress.finish();
        qdi_obs::metrics::counter("fi.runs").add(self.faults.len() as u64);
        let records: Vec<FaultRecord> = self
            .faults
            .iter()
            .zip(outcomes)
            .map(|(fault, outcome)| {
                qdi_obs::metrics::counter(&format!("fi.outcome.{}", outcome.mnemonic())).inc();
                FaultRecord::new(self.netlist, fault, outcome)
            })
            .collect();
        let report = FaultReport::new(self.netlist, self.faults, records);
        span.record("detected", report.detected() as f64);
        span.record("silent", report.silent as f64);
        for outcome in FaultOutcome::all() {
            span.record(outcome.mnemonic(), report.count(outcome) as f64);
        }
        report
    }
}

fn campaign_span(
    name: &'static str,
    faults: &[Fault],
    cfg: &CampaignConfig,
    exec: ExecConfig,
) -> qdi_obs::SpanGuard {
    qdi_obs::span("qdi_fi::campaign", name)
        .field("faults", faults.len())
        .field("tokens", cfg.tokens)
        .field("workers", exec.workers)
        .enter()
}

/// Runs a fault campaign: one golden run, then one injected run per
/// fault on the `qdi-exec` work-stealing pool, each classified against
/// the golden outputs. [`ExecConfig::serial`] runs every injection
/// inline on the calling thread.
///
/// The simulation is deterministic and every injected run is independent
/// (faults never interact), so the report — per-fault outcomes, counts
/// and coverage — is bit-identical at every worker count.
///
/// # Errors
///
/// Returns [`SimError`] if the stimulus cannot attach or the *golden*
/// run fails — a circuit that deadlocks without faults has no baseline.
/// Injected-run failures are never errors; they classify as outcomes.
pub fn run_campaign(
    netlist: &Netlist,
    faults: &[Fault],
    cfg: &CampaignConfig,
    exec: ExecConfig,
) -> Result<FaultReport, SimError> {
    let mut span = campaign_span("run_campaign", faults, cfg, exec);
    let injector = Injector::new(netlist, faults, cfg)?;
    let outcomes = qdi_exec::run_indexed(&exec, faults.len(), |i| injector.inject(i));
    Ok(injector.finish(&mut span, outcomes))
}

/// [`run_campaign`] under a `qdi-exec` supervisor: a panicking or
/// overrunning injected run is retried per `policy` and, when it keeps
/// failing, recorded as [`FaultOutcome::Aborted`] (a harness verdict,
/// not a circuit verdict) instead of killing the campaign. The
/// quarantine manifest is returned beside the report so the aborted
/// sites can be re-attempted.
///
/// Classification itself never fails — injected-run simulator errors
/// already classify as outcomes — so quarantine here means the job
/// *infrastructure* failed (panic or timeout). Golden-run failures
/// still propagate: a circuit without a baseline has no campaign.
///
/// # Errors
///
/// As [`run_campaign`]: stimulus attachment or golden-run failures only.
pub fn run_campaign_supervised(
    netlist: &Netlist,
    faults: &[Fault],
    cfg: &CampaignConfig,
    exec: ExecConfig,
    policy: &SupervisorPolicy,
) -> Result<(FaultReport, Quarantine), SimError> {
    let mut span = campaign_span("run_campaign_supervised", faults, cfg, exec);
    let injector = Injector::new(netlist, faults, cfg)?;
    let run = qdi_exec::run_supervised(&exec, policy, cfg.seed, faults.len(), |i| {
        Ok::<_, String>(injector.inject(i))
    });
    span.record("quarantined", run.quarantine.len());
    // A quarantined injection is a harness failure, not a circuit
    // verdict: record it as an aborted run.
    let outcomes = run
        .outcomes
        .into_iter()
        .map(|job| job.into_value().unwrap_or(FaultOutcome::Aborted));
    Ok((injector.finish(&mut span, outcomes), run.quarantine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::enumerate_faults;
    use qdi_netlist::{cells, NetlistBuilder};
    use qdi_sim::{FaultKind, FaultSite};

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
    fn empty_campaign_reports_nothing() {
        let nl = xor_netlist();
        let report =
            run_campaign(&nl, &[], &CampaignConfig::new(), ExecConfig::serial()).expect("runs");
        assert_eq!(report.total, 0);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.coverage.len(), 1);
        assert_eq!(report.coverage[0].injected, 0);
    }

    #[test]
    fn stuck_at_on_a_rail_driver_is_detected() {
        let nl = xor_netlist();
        // Stick every gate output low, permanently: the handshake can
        // never complete, so every fault must surface as a detection.
        let faults: Vec<Fault> = nl
            .gates()
            .map(|g| Fault::new(FaultSite::Gate(g.id), FaultKind::StuckAt(false), 0))
            .collect();
        let report =
            run_campaign(&nl, &faults, &CampaignConfig::new(), ExecConfig::serial()).expect("runs");
        assert_eq!(report.total, faults.len());
        assert_eq!(
            report.silent, 0,
            "dual-rail gates must not corrupt silently"
        );
        assert!(
            report.detected() > 0,
            "stuck-at-0 on rail drivers must stall the handshake: {}",
            report.to_text()
        );
        let classified: usize = FaultOutcome::all().iter().map(|&o| report.count(o)).sum();
        assert_eq!(classified, report.total, "every run lands in one class");
    }

    #[test]
    fn supervised_campaign_matches_unsupervised_when_clean() {
        let nl = xor_netlist();
        let cfg = CampaignConfig::new();
        let faults: Vec<Fault> = nl
            .gates()
            .map(|g| Fault::new(FaultSite::Gate(g.id), FaultKind::StuckAt(false), 0))
            .collect();
        let exec = ExecConfig { workers: 2 };
        let golden = run_campaign(&nl, &faults, &cfg, exec).expect("runs");
        let policy = SupervisorPolicy::new().without_backoff();
        let (report, quarantine) =
            run_campaign_supervised(&nl, &faults, &cfg, exec, &policy).expect("runs");
        assert!(quarantine.is_empty(), "clean campaign quarantines nothing");
        assert_eq!(report.total, golden.total);
        assert_eq!(report.aborted, 0);
        for (a, b) in golden.records.iter().zip(&report.records) {
            assert_eq!(a.outcome, b.outcome, "{}", a.detail);
        }
    }

    #[test]
    fn injection_times_fall_inside_the_golden_span() {
        let nl = xor_netlist();
        let cfg = CampaignConfig::new();
        let times = default_injection_times(&nl, &cfg).expect("derives");
        assert!(!times.is_empty());
        let stim = Stimulus::random(&nl, cfg.tokens, cfg.seed).expect("builds");
        let run = stim.run(&nl, &cfg.testbench, None).expect("runs");
        for &t in &times {
            assert!(
                t > 0 && t < run.end_time_ps,
                "{t} outside (0, {})",
                run.end_time_ps
            );
        }
        let faults = enumerate_faults(&nl, &[FaultKind::TransientFlip], &times);
        let report = run_campaign(&nl, &faults, &cfg, ExecConfig::serial()).expect("runs");
        assert_eq!(report.total, faults.len());
    }
}
