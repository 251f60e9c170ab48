//! Job specifications — the JSON wire format a tenant POSTs to
//! `/v1/jobs`.
//!
//! A spec embeds the same config structs the library APIs take
//! ([`qdi_dpa::CampaignConfig`], [`qdi_fi::campaign::CampaignConfig`],
//! [`qdi_pnr::Strategy`]), so a remote campaign is configured by
//! exactly the knobs a local run would use and the server never
//! re-interprets science parameters. Everything else here is service
//! metadata: tenant, priority class, display name.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use qdi_core::FlowConfig;
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::{CampaignConfig, ResilienceConfig};
use qdi_netlist::Netlist;

/// Scheduling priority *within* one tenant's queue. Fair sharing
/// across tenants always dominates: a tenant cannot jump another
/// tenant's turn by marking everything `High` (see
/// [`crate::scheduler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Scheduled before the tenant's other queued jobs.
    High,
    /// Default.
    Normal,
    /// Scheduled only when the tenant has nothing better queued.
    Low,
}

impl Priority {
    /// Rank for ordering (lower schedules first).
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A DPA trace-acquisition campaign on the gate-level AES byte slice,
/// checkpointed to a per-tenant `.qtrs` store
/// ([`qdi_dpa::StoreCampaignRunner`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpaJobSpec {
    /// Slice stage: `"xor"` (the paper's `D` target) or `"sbox"`.
    pub stage: String,
    /// The campaign proper — identical to a local run's config.
    pub campaign: CampaignConfig,
    /// Checkpoint cadence and retry policy; the default checkpoints
    /// every 64 traces. `checkpoint_every` is also the scheduling
    /// quantum: the server re-evaluates fair share at every chunk.
    pub resilience: Option<ResilienceConfig>,
    /// Worker threads for this job's acquisition pool (default 1).
    /// Part of the checkpoint fingerprint: a resumed job must use the
    /// same value, so it rides in the spec rather than server config.
    pub exec_workers: Option<usize>,
    /// Bias signals `T = A0 − A1` to compute into the final report.
    pub attack: Option<AttackSpec>,
}

/// Which bias signals the completed campaign's report should carry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackSpec {
    /// Selection function: `"xor"` ([`qdi_dpa::selection::AesXorSelect`])
    /// or `"sbox"` ([`qdi_dpa::selection::AesSboxSelect`]).
    pub selection: String,
    /// Targeted bit of the selection function (0 = LSB).
    pub bit: u8,
    /// Key guesses (key bytes, 0..=255) to difference the traces under.
    /// Defaults to the device key from the campaign config (sanity: the
    /// right guess must show the signature peak).
    pub guesses: Option<Vec<u16>>,
}

/// A fault-injection campaign over the byte slice's gates
/// ([`qdi_fi::run_campaign`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FiJobSpec {
    /// Slice stage to build the target netlist for: `"xor"` | `"sbox"`.
    pub stage: String,
    /// Stimulus/seed/testbench configuration.
    pub campaign: qdi_fi::campaign::CampaignConfig,
    /// Fault models as a CSV over `seu,stuck0,stuck1,delay,glitch`
    /// (parsed by [`qdi_fi::parse_models`]).
    pub models: String,
    /// Injection times in ps; derived from a golden run when omitted.
    pub times_ps: Option<Vec<u64>>,
    /// Optional uniform subsample of the fault cross product.
    pub sample: Option<usize>,
}

/// A placement stability study ([`qdi_pnr::stability_study`])
/// on the AES column datapath.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PnrJobSpec {
    /// Flat (AES_v2) or Hierarchical (AES_v1) flow.
    pub strategy: qdi_pnr::Strategy,
    /// Annealing seeds, one flow run per seed.
    pub seeds: Vec<u64>,
    /// Annealing effort override (default 40).
    pub moves_per_gate: Option<u64>,
}

/// What to run. Externally tagged on the wire:
/// `{"Dpa": {...}}` / `{"Fi": {...}}` / `{"Pnr": {...}}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobKind {
    /// DPA trace campaign.
    Dpa(DpaJobSpec),
    /// Fault-injection campaign.
    Fi(FiJobSpec),
    /// P&R stability study.
    Pnr(PnrJobSpec),
}

impl JobKind {
    /// Short label for listings.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Dpa(_) => "dpa",
            JobKind::Fi(_) => "fi",
            JobKind::Pnr(_) => "pnr",
        }
    }
}

/// A submitted job: tenant + service metadata + the campaign itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Owning tenant; namespaces the artifact directory and the fair
    /// share. `[A-Za-z0-9_-]{1,64}`.
    pub tenant: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Priority within the tenant's own queue (default `Normal`).
    pub priority: Option<Priority>,
    /// The campaign to run.
    pub kind: JobKind,
}

/// Upper bound on `campaign.traces` a single job may request.
pub const MAX_TRACES: usize = 1_000_000;

/// Upper bound, ps, on the longest pulse support
/// ([`qdi_analog::PulseShape::support_ps`]) a job's `campaign.synth` may
/// give on its stage slice, and on its sample period `dt_ps`.
///
/// It caps what [`qdi_analog::TraceSynthesizer::new`] allocates before
/// the first trace, outside the per-trace supervisor: one CDF table per
/// distinct pulse duration, each at most `S_max + 1` entries of 8 bytes,
/// where `S_max = longest support + 2·dt_ps ≤ 3 × 40 000 ps`. The
/// `"sbox"` slice has 13 distinct durations (4 on `"xor"`), from the
/// default `dt_k` up to the largest one admitted here, so its tables
/// stay within 13 × 120 001 × 8 B ≈ 12.5 MB (10.6 MB measured at the
/// largest admitted `dt_k` and `dt_ps`). The default config's longest
/// support is 480 ps on `"sbox"` and 128 ps on `"xor"`.
pub const MAX_PULSE_SUPPORT_PS: u64 = 40_000;

fn valid_tenant(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn valid_stage(stage: &str) -> bool {
    matches!(stage, "xor" | "sbox")
}

/// The netlist a valid DPA `stage` runs on, built once per process so
/// that validating a spec does not rebuild it.
fn stage_netlist(stage: &str) -> &'static Netlist {
    static XOR: OnceLock<Netlist> = OnceLock::new();
    static SBOX: OnceLock<Netlist> = OnceLock::new();
    let (cell, slice_stage) = match stage {
        "xor" => (&XOR, SliceStage::XorOnly),
        // `valid_stage` admits only "xor" and "sbox".
        _ => (&SBOX, SliceStage::XorSbox),
    };
    cell.get_or_init(|| {
        aes_first_round_slice("serve", slice_stage)
            .expect("the generated first-round slices are valid")
            .netlist
    })
}

impl JobSpec {
    /// Validates service-level invariants (tenant charset, stage names,
    /// bounded trace/seed counts), a DPA job's synthesis parameters
    /// ([`qdi_analog::SynthConfig::validate`] against
    /// [`MAX_PULSE_SUPPORT_PS`]) and the simulator budgets of DPA and FI
    /// jobs ([`qdi_sim::TestbenchConfig::validate`]), which would
    /// otherwise fail every trace, never stop, or allocate without bound
    /// before the first. Other science parameters are left to the
    /// library layer, which reports its own errors.
    ///
    /// # Errors
    ///
    /// A human-readable reason suitable for a 422 response body.
    pub fn validate(&self) -> Result<(), String> {
        if !valid_tenant(&self.tenant) {
            return Err(format!(
                "tenant {:?} must match [A-Za-z0-9_-]{{1,64}}",
                self.tenant
            ));
        }
        if let Some(name) = &self.name {
            if name.len() > 128 {
                return Err("name exceeds 128 bytes".into());
            }
        }
        match &self.kind {
            JobKind::Dpa(dpa) => {
                if !valid_stage(&dpa.stage) {
                    return Err(format!("stage {:?} must be \"xor\" or \"sbox\"", dpa.stage));
                }
                if dpa.campaign.traces == 0 || dpa.campaign.traces > MAX_TRACES {
                    return Err(format!(
                        "campaign.traces must be in 1..={MAX_TRACES}, got {}",
                        dpa.campaign.traces
                    ));
                }
                dpa.campaign
                    .synth
                    .validate(stage_netlist(&dpa.stage), MAX_PULSE_SUPPORT_PS)?;
                dpa.campaign.testbench.validate()?;
                if dpa.exec_workers == Some(0) {
                    return Err("exec_workers must be at least 1".into());
                }
                if let Some(attack) = &dpa.attack {
                    if !matches!(attack.selection.as_str(), "xor" | "sbox") {
                        return Err(format!(
                            "attack.selection {:?} must be \"xor\" or \"sbox\"",
                            attack.selection
                        ));
                    }
                    if attack.bit > 7 {
                        return Err("attack.bit must be 0..=7".into());
                    }
                    if let Some(guesses) = &attack.guesses {
                        if guesses.is_empty() || guesses.len() > 256 {
                            return Err("attack.guesses must hold 1..=256 entries".into());
                        }
                        // The AES selections take the guess as a key byte;
                        // a larger value would alias `guess mod 256`.
                        if let Some(guess) = guesses.iter().find(|&&g| g > 255) {
                            return Err(format!(
                                "attack.guesses entry {guess} is not a key byte (0..=255)"
                            ));
                        }
                    }
                }
            }
            JobKind::Fi(fi) => {
                if !valid_stage(&fi.stage) {
                    return Err(format!("stage {:?} must be \"xor\" or \"sbox\"", fi.stage));
                }
                qdi_fi::parse_models(&fi.models)
                    .map_err(|m| format!("unknown fault model {m:?}"))?;
                fi.campaign.testbench.validate()?;
                if fi.sample == Some(0) {
                    return Err("sample must be at least 1".into());
                }
            }
            JobKind::Pnr(pnr) => {
                if pnr.seeds.is_empty() || pnr.seeds.len() > 64 {
                    return Err("seeds must hold 1..=64 entries".into());
                }
                if pnr.moves_per_gate == Some(0) {
                    return Err("moves_per_gate must be at least 1".into());
                }
            }
        }
        Ok(())
    }

    /// The effective priority (default `Normal`).
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority.unwrap_or(Priority::Normal)
    }
}

/// Builds a DPA job spec from a local [`FlowConfig`] — the bridge from
/// "I ran this on my workstation" to "submit the same campaign to the
/// team server": the embedded campaign config, worker count and
/// supervisor preference transfer verbatim.
#[must_use]
pub fn dpa_spec_from_flow(tenant: &str, flow: &FlowConfig) -> JobSpec {
    JobSpec {
        tenant: tenant.to_owned(),
        name: Some("flow-campaign".into()),
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign: flow.campaign,
            resilience: None,
            exec_workers: Some(flow.workers.max(1)),
            attack: Some(AttackSpec {
                selection: "xor".into(),
                bit: 0,
                guesses: None,
            }),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dpa_spec() -> JobSpec {
        JobSpec {
            tenant: "alice".into(),
            name: None,
            priority: None,
            kind: JobKind::Dpa(DpaJobSpec {
                stage: "xor".into(),
                campaign: CampaignConfig::new(0x42),
                resilience: None,
                exec_workers: None,
                attack: None,
            }),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let spec = dpa_spec();
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: JobSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.tenant, "alice");
        match back.kind {
            JobKind::Dpa(dpa) => assert_eq!(dpa.campaign, CampaignConfig::new(0x42)),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn optional_fields_may_be_omitted_on_the_wire() {
        let campaign = serde_json::to_string(&CampaignConfig::new(7)).expect("serializes");
        let json = format!(
            "{{\"tenant\":\"bob\",\"kind\":{{\"Dpa\":{{\"stage\":\"xor\",\"campaign\":{campaign}}}}}}}"
        );
        let spec: JobSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(spec.priority(), Priority::Normal);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn rejects_bad_tenant_and_stage() {
        let mut spec = dpa_spec();
        spec.tenant = "../escape".into();
        assert!(spec.validate().is_err());
        let mut spec = dpa_spec();
        if let JobKind::Dpa(dpa) = &mut spec.kind {
            dpa.stage = "des".into();
        }
        assert!(spec.validate().is_err());
        let with_guesses = |guesses: Vec<u16>| {
            let mut spec = dpa_spec();
            if let JobKind::Dpa(dpa) = &mut spec.kind {
                dpa.attack = Some(AttackSpec {
                    selection: "sbox".into(),
                    bit: 0,
                    guesses: Some(guesses),
                });
            }
            spec.validate()
        };
        assert!(with_guesses(vec![0, 66, 255]).is_ok());
        let err = with_guesses(vec![66, 256]).expect_err("256 is not a key byte");
        assert!(err.contains("attack.guesses"), "{err}");
    }

    #[test]
    fn testbench_budgets_are_checked_for_dpa_and_fi_jobs() {
        let fi_spec = |testbench| JobSpec {
            tenant: "alice".into(),
            name: None,
            priority: None,
            kind: JobKind::Fi(FiJobSpec {
                stage: "xor".into(),
                campaign: qdi_fi::campaign::CampaignConfig {
                    testbench,
                    ..qdi_fi::campaign::CampaignConfig::new()
                },
                models: "seu".into(),
                times_ps: None,
                sample: None,
            }),
        };
        let dpa_spec_with = |testbench| {
            let mut spec = dpa_spec();
            if let JobKind::Dpa(dpa) = &mut spec.kind {
                dpa.campaign.testbench = testbench;
            }
            spec
        };
        let default = qdi_sim::TestbenchConfig::default();
        let tight = qdi_sim::TestbenchConfig {
            event_limit: 40,
            max_rounds: 40,
            ..default
        };
        assert!(dpa_spec_with(tight).validate().is_ok());
        assert!(fi_spec(tight).validate().is_ok());
        let unbounded = qdi_sim::TestbenchConfig {
            event_limit: u64::MAX,
            ..default
        };
        let mut deaf = default;
        deaf.watchdog.livelock_toggles = 0;
        for (cfg, field) in [
            (unbounded, "testbench.event_limit"),
            (deaf, "testbench.watchdog.livelock_toggles"),
        ] {
            for spec in [dpa_spec_with(cfg), fi_spec(cfg)] {
                let err = spec.validate().expect_err("rejected");
                assert!(err.contains(field), "{err}");
            }
        }
    }

    #[test]
    fn flow_config_maps_to_a_valid_spec() {
        let flow = FlowConfig::new(qdi_pnr::Strategy::Flat, 0);
        let spec = dpa_spec_from_flow("team", &flow);
        assert!(spec.validate().is_ok());
        match spec.kind {
            JobKind::Dpa(dpa) => {
                assert_eq!(dpa.campaign, flow.campaign);
                assert_eq!(dpa.exec_workers, Some(flow.workers.max(1)));
            }
            other => panic!("wrong kind {other:?}"),
        }
    }
}
