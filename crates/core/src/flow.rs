//! The secure design flow of the paper's Section VI.
//!
//! Steps, in order:
//!
//! 1. **Structural lint** — the `qdi-lint` structural registry (validity,
//!    cycles, encoding, acknowledgement, rail symmetry) verifies the
//!    premise of the paper's Section II countermeasures; deny-level
//!    findings abort the flow before any layout effort is spent.
//! 2. **Symbolic lint** — the `qdi-sym` verifier proves every level's
//!    transition count and nominal weighted activity input-independent
//!    (`QDI0201`–`QDI0203`), or refutes it with a witness input pair
//!    that replays in `qdi-sim`; runs pre-layout because extraction
//!    cannot change its nominal-capacitance verdict.
//! 3. **Place and route** — flat (the uncontrolled reference, AES_v2) or
//!    hierarchical with constrained regions (the proposed methodology,
//!    AES_v1).
//! 4. **Extraction** — routed net capacitances are written back into the
//!    netlist.
//! 5. **Electrical lint** — the `qdi-lint` electrical registry evaluates
//!    the eq. 13 dissymmetry criterion and the eqs. 10–12 per-level
//!    residual on the extracted capacitances; deny-level findings abort
//!    the flow (by default the deny tier is off — see
//!    [`FlowConfig::new`]).
//! 6. **Criterion evaluation** — every channel's dissymmetry `dA` is
//!    tabulated; channels above the alert threshold are flagged (Table 2).
//! 7. **Leakage ranking** — the eq.-12 analytic estimate orders channels
//!    by predicted DPA bias.
//! 8. **DPA evaluation** (slice flow only) — a trace campaign plus the
//!    full attack quantify the layout's actual resistance.

use std::fmt;

use qdi_crypto::gatelevel::slice::AesByteSlice;
use qdi_dpa::{campaign, parallel_attack, selection::SelectionFunction, AttackResult};
use qdi_lint::{LintConfig, LintReport, Registry};
use qdi_netlist::Netlist;
use qdi_pnr::{criterion, place_and_route, ChannelCriterion, PnrConfig, Strategy};
use qdi_sim::SimError;
use serde::{Deserialize, Serialize};

use crate::leakage::{rank_channel_leakage, ChannelLeakage};

/// Why a flow run aborted.
#[derive(Debug)]
pub enum FlowError {
    /// A lint stage produced deny-level findings; the embedded report
    /// carries them with full context.
    Lint {
        /// Which stage denied: `"pre-route"` (structural registry) or
        /// `"post-extraction"` (electrical registry).
        stage: &'static str,
        /// The findings of the stage that denied.
        report: LintReport,
    },
    /// The DPA evaluation's simulation failed.
    Sim(SimError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Lint { stage, report } => write!(
                f,
                "{stage} lint denied netlist `{}`: {} error(s), {} warning(s)",
                report.netlist,
                report.deny_count(),
                report.warn_count()
            ),
            FlowError::Sim(err) => write!(f, "simulation failed: {err}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SimError> for FlowError {
    fn from(err: SimError) -> Self {
        FlowError::Sim(err)
    }
}

/// What the flow does when a step fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowPolicy {
    /// Abort at the first failing step (historical behaviour): lint
    /// denials and simulation failures become [`FlowError`]s and no
    /// report is produced.
    #[default]
    FailFast,
    /// Keep going: a failing step is recorded as a
    /// [`StepStatus::Failed`] outcome, steps that depend on it are
    /// recorded as [`StepStatus::Skipped`], and the flow still returns a
    /// (partial) report. Use this for overnight sweeps where one broken
    /// layout must not sink the batch.
    ContinueOnError,
}

/// How one flow step ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepStatus {
    /// The step ran and produced its artifact.
    Completed,
    /// The step failed; under [`FlowPolicy::ContinueOnError`] the flow
    /// carried on without its artifact.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
    /// The step was not run because an earlier step failed.
    Skipped {
        /// Which failure caused the skip.
        reason: String,
    },
}

/// Per-step outcome of a flow run, in execution order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Step name, matching the telemetry step names
    /// (`lint_structural`, `place_and_route`, …, `campaign`, `attack`).
    pub step: String,
    /// How the step ended.
    pub status: StepStatus,
}

impl StepOutcome {
    fn completed(step: &str) -> Self {
        StepOutcome {
            step: step.to_owned(),
            status: StepStatus::Completed,
        }
    }

    fn failed(step: &str, error: impl fmt::Display) -> Self {
        StepOutcome {
            step: step.to_owned(),
            status: StepStatus::Failed {
                error: error.to_string(),
            },
        }
    }

    fn skipped(step: &str, reason: impl fmt::Display) -> Self {
        StepOutcome {
            step: step.to_owned(),
            status: StepStatus::Skipped {
                reason: reason.to_string(),
            },
        }
    }

    /// `true` when the step completed.
    pub fn is_completed(&self) -> bool {
        self.status == StepStatus::Completed
    }
}

/// Post-route fill step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FillStep {
    /// No fill (the paper's published flow).
    None,
    /// Balance channel rails to within the given relative tolerance.
    Channels {
        /// Residual `dA` tolerated after padding.
        tolerance: f64,
    },
    /// Balance every structurally corresponding net of the rail cones —
    /// the full eq.-12 fix (see [`qdi_pnr::fill::balance_cones`]).
    Cones,
}

/// Configuration of a flow run.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Place-and-route strategy (the paper's AES_v1 vs AES_v2 axis).
    pub strategy: Strategy,
    /// Place-and-route knobs.
    pub pnr: PnrConfig,
    /// Optional post-route capacitive fill.
    pub fill: FillStep,
    /// `dA` above which a channel is flagged as a leakage risk. Kept in
    /// sync with the electrical lint: the flow copies this value into
    /// [`LintConfig::da_warn`] before the post-extraction lint stage, so
    /// the flagged list and the `QDI0009` warnings always agree.
    pub criterion_alert: f64,
    /// How many worst channels to keep in the report.
    pub worst_k: usize,
    /// Trace campaign for the DPA evaluation step (slice flow).
    pub campaign: campaign::CampaignConfig,
    /// Worker threads for the trace-campaign step on the `qdi-exec`
    /// pool: `1` (the default) runs inline on the calling thread, `0`
    /// means "all cores". Per-index noise seeding makes the traces
    /// bit-identical at every worker count (see [`qdi_dpa::parallel`]).
    pub workers: usize,
    /// Lint severities and thresholds for both lint stages. The flow
    /// default disables the `dA` deny tier (`da_deny = None`): routed
    /// layouts legitimately reach `dA` well above 1 (Table 2), so hard
    /// failing there is an opt-in policy, e.g.
    /// `cfg.lint.da_deny = Some(2.0)`.
    pub lint: LintConfig,
    /// What to do when a step fails (lint denial, campaign simulation
    /// error): abort with a [`FlowError`] or record the failure in the
    /// report's [`StepOutcome`] list and keep going.
    pub policy: FlowPolicy,
    /// Supervisor policy for the trace-campaign step. When set under
    /// [`FlowPolicy::ContinueOnError`], acquisitions that panic, error
    /// or overrun are retried and then quarantined instead of sinking
    /// the whole evaluation: the attack runs on the surviving traces and
    /// [`SliceFlowReport::quarantine`] carries the manifest. Ignored
    /// under [`FlowPolicy::FailFast`], where a failure is supposed to
    /// abort.
    pub supervisor: Option<qdi_exec::SupervisorPolicy>,
    /// Turns on the process-wide progress facility
    /// ([`qdi_obs::progress`]) before the run, so the campaign and any
    /// nested parallel loops register live tasks `qdi-mon watch` can
    /// tail. Off by default (inert handles, one relaxed load per
    /// registration). Enabling is one-way: a `false` here never switches
    /// the facility off for other concurrent users.
    pub progress: bool,
    /// Ticks the global time-series recorder
    /// ([`qdi_obs::timeseries`]) after every flow step and embeds the
    /// per-metric rollups in [`StaticFlowReport::timeseries`]. Off by
    /// default (zero cost: no tick calls are made).
    pub timeseries: bool,
    /// Turns on the wall-clock attribution profiler
    /// ([`qdi_obs::prof`]) before the run and embeds a
    /// [`qdi_obs::prof::ProfSummary`] (top regions by self time, pool
    /// totals) in [`StaticFlowReport::profile`]. Off by default — the
    /// instrumented hot paths then cost one relaxed atomic load each.
    /// Like `progress`, enabling is one-way for the process; the full
    /// profile stays available via [`qdi_obs::prof::report`] for a
    /// `.qprof` dump.
    pub profile: bool,
}

impl FlowConfig {
    /// Defaults: hierarchical strategy, medium-effort annealing, alert at
    /// `dA > 0.5`, a 256-trace noiseless campaign with key byte `key`,
    /// structural lints at their natural severities and no `dA` deny tier.
    pub fn new(strategy: Strategy, key: u8) -> Self {
        let mut lint = LintConfig::default();
        lint.da_deny = None;
        FlowConfig {
            strategy,
            pnr: PnrConfig::default(),
            fill: FillStep::None,
            criterion_alert: 0.5,
            worst_k: 10,
            campaign: campaign::CampaignConfig::new(key),
            workers: 1,
            lint,
            policy: FlowPolicy::FailFast,
            supervisor: None,
            progress: false,
            timeseries: false,
            profile: false,
        }
    }
}

/// Report of the static (layout-only) flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticFlowReport {
    /// Netlist name.
    pub netlist: String,
    /// Strategy used.
    pub strategy: Strategy,
    /// Gate count.
    pub gates: usize,
    /// Channels whose rails are *not* logically balanced (should be empty
    /// for a secured QDI design).
    pub unbalanced_channels: Vec<String>,
    /// Die area, µm².
    pub die_area_um2: f64,
    /// Total estimated wirelength, µm.
    pub total_wirelength_um: f64,
    /// Worst channels by `dA` (Table 2 rows).
    pub worst_channels: Vec<ChannelCriterion>,
    /// Maximum `dA` over all channels.
    pub max_criterion: f64,
    /// Channels whose `dA` exceeds the alert threshold.
    pub flagged_channels: Vec<String>,
    /// Top channels by the eq.-12 analytic leakage estimate.
    pub leakage_ranking: Vec<ChannelLeakage>,
    /// Fill report, when a fill step ran.
    pub fill: Option<qdi_pnr::fill::FillReport>,
    /// `true` when the symbolic verifier proved every level's transition
    /// count and nominal weighted activity input-independent — no
    /// `QDI0201`/`QDI0202` finding at any severity (an unproven level
    /// counts as not balanced).
    pub symbolic_balanced: bool,
    /// Witness input pairs carried by symbolic refutations; each replays
    /// in `qdi-sim` with nonzero bias (`qdi_sim::replay_witness`).
    pub symbolic_witnesses: Vec<qdi_netlist::WitnessPair>,
    /// Findings of all lint stages (pre-route structural, symbolic,
    /// post-extraction electrical). Under [`FlowPolicy::FailFast`] a
    /// report is only produced when no stage denied, so everything here
    /// is warn level or below; under [`FlowPolicy::ContinueOnError`]
    /// deny-level findings appear here and the corresponding step is
    /// marked failed in [`StaticFlowReport::steps`].
    pub lint: LintReport,
    /// Per-step outcomes, in execution order. Under
    /// [`FlowPolicy::FailFast`] every entry is completed (a failure
    /// aborts the run before a report exists); under
    /// [`FlowPolicy::ContinueOnError`] failed and skipped steps are
    /// recorded here.
    pub steps: Vec<StepOutcome>,
    /// Per-step wall time and metric deltas for the run.
    pub telemetry: qdi_obs::Telemetry,
    /// Per-metric time-series rollups (min/max/mean/p50/p90/p99) over
    /// the run, recorded when [`FlowConfig::timeseries`] is on; `None`
    /// otherwise.
    pub timeseries: Option<qdi_obs::TimeseriesSummary>,
    /// Wall-clock attribution summary (top regions by self time, pool
    /// totals), recorded when [`FlowConfig::profile`] is on; `None`
    /// otherwise.
    pub profile: Option<qdi_obs::prof::ProfSummary>,
}

impl StaticFlowReport {
    /// Steps that did not complete (failed or skipped). Empty under
    /// [`FlowPolicy::FailFast`].
    pub fn incomplete_steps(&self) -> impl Iterator<Item = &StepOutcome> {
        self.steps.iter().filter(|s| !s.is_completed())
    }

    /// Renders a terminal summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "secure flow [{:?}] on {} ({} gates)\n",
            self.strategy, self.netlist, self.gates
        ));
        out.push_str(&format!(
            "  balance: {}\n",
            if self.unbalanced_channels.is_empty() {
                "all channels logically balanced".to_owned()
            } else {
                format!("{} unbalanced channels!", self.unbalanced_channels.len())
            }
        ));
        out.push_str(&format!(
            "  die area: {:.0} um2, wirelength: {:.0} um\n",
            self.die_area_um2, self.total_wirelength_um
        ));
        out.push_str(&format!(
            "  max dA: {:.3} ({} channels flagged above {:.2})\n",
            self.max_criterion,
            self.flagged_channels.len(),
            0.5
        ));
        out.push_str(&format!(
            "  symbolic: {}\n",
            if self.symbolic_balanced {
                "per-level activity proved input-independent".to_owned()
            } else {
                format!(
                    "NOT proved balanced ({} replayable witness(es))",
                    self.symbolic_witnesses.len()
                )
            }
        ));
        out.push_str(&format!(
            "  lint: {} warning(s), {} finding(s) total\n",
            self.lint.warn_count(),
            self.lint.len()
        ));
        for step in self.incomplete_steps() {
            match &step.status {
                StepStatus::Failed { error } => {
                    out.push_str(&format!("  step {} FAILED: {}\n", step.step, error));
                }
                StepStatus::Skipped { reason } => {
                    out.push_str(&format!("  step {} skipped: {}\n", step.step, reason));
                }
                StepStatus::Completed => {}
            }
        }
        out.push_str(&criterion::format_table(&self.worst_channels));
        out
    }
}

/// Runs the static flow; the netlist's net capacitances are overwritten by
/// extraction.
///
/// # Errors
///
/// Under [`FlowPolicy::FailFast`] (the default), returns
/// [`FlowError::Lint`] when either lint stage (pre-route structural,
/// post-extraction electrical) produces deny-level findings. Under
/// [`FlowPolicy::ContinueOnError`] lint denials never abort: the denying
/// stage is recorded as failed in [`StaticFlowReport::steps`], its
/// findings stay in the report, and the remaining steps still run.
pub fn run_static_flow(
    netlist: &mut Netlist,
    cfg: &FlowConfig,
) -> Result<StaticFlowReport, FlowError> {
    qdi_obs::init_from_env();
    if cfg.progress {
        qdi_obs::progress::set_enabled(true);
    }
    if cfg.profile {
        qdi_obs::prof::set_enabled(true);
    }
    let tick = || {
        if cfg.timeseries {
            qdi_obs::timeseries::tick();
        }
    };
    let mut flow_span = qdi_obs::span("qdi_core::flow", "static_flow")
        .field("netlist", netlist.name())
        .field("strategy", format!("{:?}", cfg.strategy))
        .field("gates", netlist.gate_count())
        .enter();
    let mut telemetry = qdi_obs::Telemetry::new();
    let mut steps: Vec<StepOutcome> = Vec::new();

    // Stage 1: structural lints gate the layout effort. The rail-symmetry
    // findings double as the report's unbalanced-channel list.
    let mut lint = telemetry.step("qdi_core::flow", "lint_structural", || {
        Registry::structural().run(netlist, &cfg.lint)
    });
    lint.emit_to_obs();
    tick();
    if lint.deny_count() > 0 {
        match cfg.policy {
            FlowPolicy::FailFast => {
                // Push buffered telemetry out before the early return so
                // an aborted run still leaves a complete JSONL trail.
                qdi_obs::flush();
                return Err(FlowError::Lint {
                    stage: "pre-route",
                    report: lint,
                });
            }
            FlowPolicy::ContinueOnError => {
                steps.push(StepOutcome::failed(
                    "lint_structural",
                    format!("pre-route lint denied with {} error(s)", lint.deny_count()),
                ));
            }
        }
    } else {
        steps.push(StepOutcome::completed("lint_structural"));
    }
    let unbalanced: Vec<String> = lint
        .with_code(qdi_lint::RAIL_SYMMETRY)
        .map(|d| d.subject.name().to_owned())
        .collect();

    // Stage 1b: the symbolic verifier proves (or refutes with replayable
    // witnesses) per-level data independence. Runs pre-layout: it works
    // at nominal capacitances, so extraction cannot change its verdict.
    let symbolic = telemetry.step("qdi_core::flow", "lint_symbolic", || {
        Registry::symbolic().run(netlist, &cfg.lint)
    });
    symbolic.emit_to_obs();
    tick();
    if symbolic.deny_count() > 0 {
        match cfg.policy {
            FlowPolicy::FailFast => {
                qdi_obs::flush();
                return Err(FlowError::Lint {
                    stage: "symbolic",
                    report: symbolic,
                });
            }
            FlowPolicy::ContinueOnError => {
                steps.push(StepOutcome::failed(
                    "lint_symbolic",
                    format!(
                        "symbolic lint denied with {} error(s)",
                        symbolic.deny_count()
                    ),
                ));
            }
        }
    } else {
        steps.push(StepOutcome::completed("lint_symbolic"));
    }
    // Balanced = no count/activity finding at any severity (a warn-level
    // QDI0201 means "unproven", which is not a proof of balance).
    let symbolic_balanced = symbolic
        .with_code(qdi_lint::SYM_TRANSITION_COUNT)
        .chain(symbolic.with_code(qdi_lint::SYM_ACTIVITY_IMBALANCE))
        .next()
        .is_none();
    let symbolic_witnesses: Vec<qdi_netlist::WitnessPair> = symbolic
        .diagnostics
        .iter()
        .filter_map(|d| d.witness.clone())
        .collect();
    lint.merge(symbolic);

    let pnr = telemetry.step("qdi_core::flow", "place_and_route", || {
        place_and_route(netlist, cfg.strategy, &cfg.pnr)
    });
    steps.push(StepOutcome::completed("place_and_route"));
    tick();
    let fill_report = telemetry.step("qdi_core::flow", "fill", || match cfg.fill {
        FillStep::None => None,
        FillStep::Channels { tolerance } => {
            Some(qdi_pnr::fill::balance_channels(netlist, tolerance))
        }
        FillStep::Cones => Some(qdi_pnr::fill::balance_cones(netlist)),
    });
    steps.push(StepOutcome::completed("fill"));
    tick();

    // Stage 2: electrical lints on the extracted (and possibly filled)
    // capacitances. `criterion_alert` stays the single flagging knob.
    let mut electrical_cfg = cfg.lint.clone();
    electrical_cfg.da_warn = cfg.criterion_alert;
    let electrical = telemetry.step("qdi_core::flow", "lint_electrical", || {
        Registry::electrical().run(netlist, &electrical_cfg)
    });
    electrical.emit_to_obs();
    tick();
    if electrical.deny_count() > 0 {
        match cfg.policy {
            FlowPolicy::FailFast => {
                qdi_obs::flush();
                return Err(FlowError::Lint {
                    stage: "post-extraction",
                    report: electrical,
                });
            }
            FlowPolicy::ContinueOnError => {
                steps.push(StepOutcome::failed(
                    "lint_electrical",
                    format!(
                        "post-extraction lint denied with {} error(s)",
                        electrical.deny_count()
                    ),
                ));
            }
        }
    } else {
        steps.push(StepOutcome::completed("lint_electrical"));
    }
    let flagged: Vec<String> = electrical
        .with_code(qdi_lint::CHANNEL_DISSYMMETRY)
        .map(|d| d.subject.name().to_owned())
        .collect();
    lint.merge(electrical);

    let table = telemetry.step("qdi_core::flow", "criterion_table", || {
        criterion::criterion_table(netlist)
    });
    steps.push(StepOutcome::completed("criterion_table"));
    tick();
    let max_criterion = table.first().map_or(0.0, |c| c.d);
    let mut leakage = telemetry.step("qdi_core::flow", "leakage_ranking", || {
        rank_channel_leakage(netlist)
    });
    steps.push(StepOutcome::completed("leakage_ranking"));
    tick();
    leakage.truncate(cfg.worst_k);
    flow_span.record("max_criterion", max_criterion);
    flow_span.record("flagged_channels", flagged.len());
    flow_span.record("lint_findings", lint.len());
    flow_span.record("wall_ms", telemetry.total_wall_ms);
    Ok(StaticFlowReport {
        netlist: netlist.name().to_owned(),
        strategy: cfg.strategy,
        gates: netlist.gate_count(),
        unbalanced_channels: unbalanced,
        die_area_um2: pnr.die_area_um2,
        total_wirelength_um: pnr.total_wirelength_um,
        worst_channels: table.into_iter().take(cfg.worst_k).collect(),
        max_criterion,
        flagged_channels: flagged,
        leakage_ranking: leakage,
        fill: fill_report,
        symbolic_balanced,
        symbolic_witnesses,
        lint,
        steps,
        telemetry,
        timeseries: cfg.timeseries.then(qdi_obs::timeseries::summary),
        profile: cfg.profile.then(|| qdi_obs::prof::summary(10)),
    })
}

/// Report of the full flow including the DPA evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceFlowReport {
    /// The layout-only portion. Its [`StaticFlowReport::steps`] list
    /// also carries the `campaign` and `attack` outcomes.
    pub layout: StaticFlowReport,
    /// Full attack result; `None` when the DPA evaluation failed under
    /// [`FlowPolicy::ContinueOnError`] (see the `campaign`/`attack`
    /// entries of `layout.steps` for why).
    pub attack: Option<AttackResult>,
    /// 0-based rank of the device's true key byte in the attack scores.
    pub correct_key_rank: Option<usize>,
    /// Bias peak of the best guess (0.0 when the attack did not run).
    pub best_peak: f64,
    /// Ghost ratio, best peak / runner-up peak (0.0 when the attack did
    /// not run).
    pub ghost_ratio: f64,
    /// Quarantine manifest of a supervised campaign
    /// ([`FlowConfig::supervisor`]): `Some` whenever the supervised path
    /// ran (empty on a clean run), `None` otherwise. Non-empty means the
    /// attack scores come from a partial trace set.
    #[serde(default)]
    pub quarantine: Option<qdi_exec::Quarantine>,
}

impl SliceFlowReport {
    /// Renders a terminal summary.
    pub fn to_text(&self) -> String {
        let mut out = self.layout.to_text();
        match &self.attack {
            Some(attack) => out.push_str(&format!(
                "  DPA [{}], {} traces: best guess 0x{:02x} (peak {:.3}, ghost ratio {:.2}), \
                 true key rank {}\n",
                attack.selection,
                attack.traces,
                attack.best().guess,
                self.best_peak,
                self.ghost_ratio,
                self.correct_key_rank
                    .map_or("unranked".to_owned(), |r| (r + 1).to_string()),
            )),
            None => out.push_str("  DPA evaluation did not run (see step outcomes above)\n"),
        }
        if let Some(quarantine) = &self.quarantine {
            if !quarantine.is_empty() {
                out.push_str(&format!(
                    "  quarantine: {} acquisition(s) failed permanently — \
                     attack scores come from a partial trace set\n",
                    quarantine.len()
                ));
            }
        }
        out
    }
}

/// Runs the full flow on a first-round byte slice: static flow, then a
/// trace campaign against the extracted layout, then the attack.
///
/// # Errors
///
/// Under [`FlowPolicy::FailFast`] (the default), returns
/// [`FlowError::Lint`] when a lint stage denies the netlist and
/// [`FlowError::Sim`] when the trace campaign's simulation fails. Under
/// [`FlowPolicy::ContinueOnError`] a campaign failure yields a partial
/// report instead: `attack` is `None` and the `campaign`/`attack` step
/// outcomes record the failure.
pub fn run_slice_flow(
    slice: &mut AesByteSlice,
    sel: &dyn SelectionFunction,
    cfg: &FlowConfig,
) -> Result<SliceFlowReport, FlowError> {
    let mut layout = run_static_flow(&mut slice.netlist, cfg)?;
    // The supervised campaign path is graceful degradation, so it only
    // engages when the flow is already committed to continuing on error.
    let supervised = match cfg.policy {
        FlowPolicy::ContinueOnError => cfg.supervisor.as_ref(),
        FlowPolicy::FailFast => None,
    };
    let exec = qdi_exec::ExecConfig {
        workers: cfg.workers,
    };
    let mut quarantine = None;
    let set = if let Some(policy) = supervised {
        let run = layout.telemetry.step("qdi_core::flow", "campaign", || {
            qdi_dpa::run_parallel_campaign_supervised(slice, &cfg.campaign, exec, policy)
        });
        if cfg.timeseries {
            qdi_obs::timeseries::tick();
        }
        if run.is_complete() {
            layout.steps.push(StepOutcome::completed("campaign"));
        } else {
            layout.steps.push(StepOutcome::failed(
                "campaign",
                format!(
                    "{} of {} acquisitions quarantined",
                    run.quarantine.len(),
                    cfg.campaign.traces
                ),
            ));
        }
        let survivors_empty = run.traces.is_empty();
        quarantine = Some(run.quarantine);
        if survivors_empty {
            layout.steps.push(StepOutcome::skipped(
                "attack",
                "no traces survived the campaign",
            ));
            return Ok(SliceFlowReport {
                layout,
                attack: None,
                correct_key_rank: None,
                best_peak: 0.0,
                ghost_ratio: 0.0,
                quarantine,
            });
        }
        run.traces
    } else {
        let set = layout.telemetry.step("qdi_core::flow", "campaign", || {
            qdi_dpa::run_parallel_campaign(slice, &cfg.campaign, exec)
        });
        if cfg.timeseries {
            qdi_obs::timeseries::tick();
        }
        match set {
            Ok(set) => {
                layout.steps.push(StepOutcome::completed("campaign"));
                set
            }
            Err(err) => match cfg.policy {
                FlowPolicy::FailFast => {
                    qdi_obs::flush();
                    return Err(FlowError::Sim(err));
                }
                FlowPolicy::ContinueOnError => {
                    layout
                        .steps
                        .push(StepOutcome::failed("campaign", format!("{err:?}")));
                    layout
                        .steps
                        .push(StepOutcome::skipped("attack", "campaign failed"));
                    return Ok(SliceFlowReport {
                        layout,
                        attack: None,
                        correct_key_rank: None,
                        best_peak: 0.0,
                        ghost_ratio: 0.0,
                        quarantine: None,
                    });
                }
            },
        }
    };
    let result = layout.telemetry.step("qdi_core::flow", "attack", || {
        parallel_attack(&set, sel, exec)
    });
    layout.steps.push(StepOutcome::completed("attack"));
    if cfg.timeseries {
        qdi_obs::timeseries::tick();
        // Refresh the embedded rollups so they cover the DPA steps too.
        layout.timeseries = Some(qdi_obs::timeseries::summary());
    }
    if cfg.profile {
        // Same refresh for the profile: the campaign and attack are the
        // hot part a profile is usually after.
        layout.profile = Some(qdi_obs::prof::summary(10));
    }
    let correct_key_rank = result.rank_of(cfg.campaign.key as u16);
    let best_peak = result.best().peak_abs;
    let ghost_ratio = result.ghost_ratio();
    Ok(SliceFlowReport {
        layout,
        attack: Some(result),
        correct_key_rank,
        best_peak,
        ghost_ratio,
        quarantine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
    use qdi_dpa::selection::AesXorSelect;
    use qdi_netlist::{cells, NetlistBuilder};

    fn fast_cfg(strategy: Strategy, key: u8) -> FlowConfig {
        let mut cfg = FlowConfig::new(strategy, key);
        cfg.pnr = PnrConfig::fast();
        cfg.campaign.traces = 24;
        cfg
    }

    #[test]
    fn supervised_slice_flow_quarantines_and_still_reports() {
        // The supervisor is honoured at every worker count, one included.
        for workers in [1usize, 2] {
            let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
            let mut cfg = fast_cfg(Strategy::Flat, 0x42);
            cfg.policy = FlowPolicy::ContinueOnError;
            cfg.workers = workers;
            cfg.campaign.traces = 6;
            // A budget no acquisition fits in, with the supervisor's
            // retries off: every acquisition quarantines.
            cfg.campaign.testbench.event_limit = 1;
            cfg.supervisor = Some(
                qdi_exec::SupervisorPolicy::new()
                    .without_backoff()
                    .with_retries(0),
            );
            let sel = AesXorSelect { byte: 0, bit: 0 };
            let report = run_slice_flow(&mut slice, &sel, &cfg).expect("partial report, not abort");
            let quarantine = report.quarantine.as_ref().expect("supervised path ran");
            assert_eq!(quarantine.len(), 6, "workers = {workers}");
            assert!(report.attack.is_none());
            assert!(report
                .layout
                .steps
                .iter()
                .any(|s| s.step == "campaign" && matches!(s.status, StepStatus::Failed { .. })));
            assert!(report
                .layout
                .steps
                .iter()
                .any(|s| s.step == "attack" && matches!(s.status, StepStatus::Skipped { .. })));
            let text = report.to_text();
            assert!(text.contains("quarantine"), "{text}");
        }
    }

    #[test]
    fn supervised_slice_flow_clean_run_attacks_normally() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = fast_cfg(Strategy::Flat, 0x42);
        cfg.policy = FlowPolicy::ContinueOnError;
        cfg.workers = 2;
        cfg.campaign.traces = 8;
        cfg.supervisor = Some(qdi_exec::SupervisorPolicy::new().without_backoff());
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let report = run_slice_flow(&mut slice, &sel, &cfg).expect("runs");
        let quarantine = report.quarantine.as_ref().expect("supervised path ran");
        assert!(quarantine.is_empty());
        assert!(report.attack.is_some());
        assert!(report
            .layout
            .steps
            .iter()
            .any(|s| s.step == "campaign" && s.is_completed()));
    }

    #[test]
    fn static_flow_reports_balanced_xor() {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        let mut nl = b.finish().expect("valid");
        let report = run_static_flow(&mut nl, &fast_cfg(Strategy::Flat, 0)).expect("passes lint");
        assert!(report.unbalanced_channels.is_empty());
        assert!(
            report.symbolic_balanced,
            "{}",
            report.lint.render_human(false)
        );
        assert!(report.symbolic_witnesses.is_empty());
        assert!(report.die_area_um2 > 0.0);
        assert!(!report.worst_channels.is_empty());
        assert!(report.max_criterion >= 0.0);
        let text = report.to_text();
        assert!(text.contains("max dA"));
        assert!(text.contains("proved input-independent"), "{text}");
    }

    #[test]
    fn static_flow_refutes_unbalanced_cell_with_witness() {
        let mut b = NetlistBuilder::new("xor_unbalanced");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor_unbalanced(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        let mut nl = b.finish().expect("valid");

        // Fail-fast: the symbolic stage denies before any layout effort.
        let err = run_static_flow(&mut nl, &fast_cfg(Strategy::Flat, 0))
            .expect_err("symbolic stage must deny");
        match &err {
            FlowError::Lint { stage, report } => {
                assert_eq!(*stage, "symbolic");
                assert!(report.deny_count() > 0);
            }
            other => panic!("expected lint error, got {other:?}"),
        }

        // Continue-on-error: the run completes, the step is failed, and
        // the report carries the replayable witnesses.
        let mut cfg = fast_cfg(Strategy::Flat, 0);
        cfg.policy = FlowPolicy::ContinueOnError;
        let report = run_static_flow(&mut nl, &cfg).expect("continues");
        assert!(!report.symbolic_balanced);
        assert!(!report.symbolic_witnesses.is_empty());
        assert!(report
            .steps
            .iter()
            .any(|s| s.step == "lint_symbolic" && !s.is_completed()));
        assert!(report.to_text().contains("NOT proved balanced"));
    }

    #[test]
    fn static_flow_report_serializes_populated_telemetry() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let report =
            run_static_flow(&mut slice.netlist, &fast_cfg(Strategy::Flat, 0)).expect("passes lint");
        let step_names: Vec<&str> = report
            .telemetry
            .steps
            .iter()
            .map(|s| s.step.as_str())
            .collect();
        assert_eq!(
            step_names,
            vec![
                "lint_structural",
                "lint_symbolic",
                "place_and_route",
                "fill",
                "lint_electrical",
                "criterion_table",
                "leakage_ranking"
            ]
        );
        assert!(report.telemetry.total_wall_ms > 0.0);
        let pnr_step = report
            .telemetry
            .step_named("place_and_route")
            .expect("step recorded");
        assert!(
            pnr_step
                .counters
                .iter()
                .any(|c| c.name == "pnr.moves_attempted"),
            "place_and_route step must carry annealing counter deltas: {:?}",
            pnr_step.counters
        );
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(
            json.contains("\"telemetry\""),
            "report JSON must embed the telemetry block"
        );
        assert!(json.contains("place_and_route"));
    }

    #[test]
    fn slice_flow_telemetry_includes_dpa_steps() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let report =
            run_slice_flow(&mut slice, &sel, &fast_cfg(Strategy::Flat, 0)).expect("flow completes");
        let telemetry = &report.layout.telemetry;
        assert!(telemetry.step_named("campaign").is_some());
        assert!(telemetry.step_named("attack").is_some());
        let campaign = telemetry.step_named("campaign").expect("campaign step");
        assert!(
            campaign
                .counters
                .iter()
                .any(|c| c.name == "dpa.traces" && c.value > 0.0),
            "campaign step must record trace counters: {:?}",
            campaign.counters
        );
    }

    #[test]
    fn slice_flow_parallel_campaign_is_worker_count_invariant() {
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let mut rankings = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
            let mut cfg = fast_cfg(Strategy::Flat, 0x42);
            cfg.workers = workers;
            // Noise makes the check bite: a campaign whose noise stream
            // depended on the worker count would move the peak.
            cfg.campaign.synth.noise_sigma = 0.02;
            let report = run_slice_flow(&mut slice, &sel, &cfg).expect("flow completes");
            let attack = report.attack.as_ref().expect("attack ran");
            assert_eq!(attack.traces, 24);
            rankings.push(attack.scores.clone());
        }
        // The attack runs on the same pool, so every guess's score — not
        // only the best — must match.
        for (workers, scores) in [2, 4].into_iter().zip(&rankings[1..]) {
            assert_eq!(
                rankings[0], *scores,
                "attack scores at {workers} workers must match 1 worker"
            );
        }
    }

    #[test]
    fn slice_flow_runs_end_to_end() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let cfg = fast_cfg(Strategy::Flat, 0x42);
        let report = run_slice_flow(&mut slice, &sel, &cfg).expect("flow completes");
        let attack = report.attack.as_ref().expect("attack ran");
        assert_eq!(attack.traces, 24);
        assert!(!attack.scores.is_empty());
        assert!(report.to_text().contains("DPA"));
        assert!(
            report.layout.steps.iter().all(StepOutcome::is_completed),
            "fail-fast success must record only completed steps: {:?}",
            report.layout.steps
        );
        let names: Vec<&str> = report
            .layout
            .steps
            .iter()
            .map(|s| s.step.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "lint_structural",
                "lint_symbolic",
                "place_and_route",
                "fill",
                "lint_electrical",
                "criterion_table",
                "leakage_ranking",
                "campaign",
                "attack"
            ]
        );
    }

    #[test]
    fn hierarchical_flow_bounds_criterion_better_on_average() {
        // The paper's Table 2 comparison in miniature: on the byte slice,
        // the hierarchical flow should not exceed the flat flow's worst
        // criterion (strict inequality needs the bigger benches; here we
        // assert the direction on averages over two seeds).
        let base = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut max_flat: f64 = 0.0;
        let mut max_hier: f64 = 0.0;
        for seed in [11u64, 12] {
            for (strategy, acc) in [
                (Strategy::Flat, &mut max_flat),
                (Strategy::Hierarchical, &mut max_hier),
            ] {
                let mut nl = base.netlist.clone();
                let mut cfg = fast_cfg(strategy, 0);
                cfg.pnr.anneal.seed = seed;
                let report = run_static_flow(&mut nl, &cfg).expect("passes lint");
                *acc = acc.max(report.max_criterion);
            }
        }
        assert!(
            max_hier <= max_flat * 1.5,
            "hierarchical {max_hier} should not blow past flat {max_flat}"
        );
    }

    #[test]
    fn fill_step_zeroes_the_criterion() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = fast_cfg(Strategy::Flat, 0);
        cfg.fill = FillStep::Channels { tolerance: 0.0 };
        let report = run_static_flow(&mut slice.netlist, &cfg).expect("passes lint");
        let fill = report.fill.expect("fill ran");
        assert!(fill.max_criterion_before > 0.0);
        assert!(
            report.max_criterion < 1e-9,
            "criterion after fill: {}",
            report.max_criterion
        );
    }

    #[test]
    fn cone_fill_reduces_leakage_estimates() {
        let base = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut plain = base.netlist.clone();
        let mut filled = base.netlist.clone();
        let cfg = fast_cfg(Strategy::Flat, 0);
        let mut fill_cfg = fast_cfg(Strategy::Flat, 0);
        fill_cfg.fill = FillStep::Cones;
        let r_plain = run_static_flow(&mut plain, &cfg).expect("passes lint");
        let r_filled = run_static_flow(&mut filled, &fill_cfg).expect("passes lint");
        let top = |r: &StaticFlowReport| r.leakage_ranking.first().map_or(0.0, |l| l.bias_estimate);
        assert!(
            top(&r_filled) < 0.2 * top(&r_plain).max(1e-12),
            "cone fill must collapse the leakage estimate: {} vs {}",
            top(&r_filled),
            top(&r_plain)
        );
    }

    #[test]
    fn flow_report_embeds_lint_findings() {
        // Post-route layouts always carry some residual dissymmetry (Table 2
        // shows dA well above the 0.5 alert line even for the hierarchical
        // flow), so the embedded lint report must agree with the flagged
        // list derived from the same criterion.
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let report =
            run_static_flow(&mut slice.netlist, &fast_cfg(Strategy::Flat, 0)).expect("passes lint");
        assert_eq!(report.lint.deny_count(), 0, "default flow must not deny");
        let lint_flagged: Vec<&str> = report
            .lint
            .with_code(qdi_lint::CHANNEL_DISSYMMETRY)
            .map(|d| d.subject.name())
            .collect();
        assert_eq!(
            lint_flagged,
            report
                .flagged_channels
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
            "flagged channels must mirror the QDI0009 findings"
        );
        assert!(
            !lint_flagged.is_empty(),
            "flat fast P&R leaves dA above the 0.5 alert on at least one channel"
        );
        assert!(report.to_text().contains("lint:"));
    }

    #[test]
    fn strict_deny_threshold_aborts_the_flow_post_extraction() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = fast_cfg(Strategy::Flat, 0);
        cfg.lint.da_deny = Some(0.05); // far below any routed layout's dA
        let err = run_static_flow(&mut slice.netlist, &cfg).expect_err("must deny");
        match err {
            FlowError::Lint { stage, report } => {
                assert_eq!(stage, "post-extraction");
                assert!(report.deny_count() > 0);
                assert!(report
                    .denied()
                    .all(|d| d.code == qdi_lint::CHANNEL_DISSYMMETRY));
                let text = err_text(&FlowError::Lint { stage, report });
                assert!(text.contains("post-extraction lint denied"), "{text}");
            }
            other => panic!("expected a lint error, got {other:?}"),
        }
    }

    #[test]
    fn broken_netlist_aborts_the_flow_pre_route() {
        let mut b = NetlistBuilder::new("broken");
        let floating = b.net("floating");
        let out = b.gate(qdi_netlist::GateKind::Buf, "g", &[floating]);
        b.mark_output(out);
        let mut nl = b.finish_unchecked();
        let err = run_static_flow(&mut nl, &fast_cfg(Strategy::Flat, 0)).expect_err("must deny");
        match err {
            FlowError::Lint { stage, report } => {
                assert_eq!(stage, "pre-route");
                assert!(report.deny_count() > 0);
            }
            other => panic!("expected a lint error, got {other:?}"),
        }
    }

    #[test]
    fn continue_on_error_surfaces_lint_denial_in_partial_report() {
        let mut b = NetlistBuilder::new("broken");
        let floating = b.net("floating");
        let out = b.gate(qdi_netlist::GateKind::Buf, "g", &[floating]);
        b.mark_output(out);
        let mut nl = b.finish_unchecked();
        let mut cfg = fast_cfg(Strategy::Flat, 0);
        cfg.policy = FlowPolicy::ContinueOnError;
        let report = run_static_flow(&mut nl, &cfg).expect("partial report, not an abort");
        assert!(report.lint.deny_count() > 0, "deny findings must be kept");
        let failed: Vec<&str> = report.incomplete_steps().map(|s| s.step.as_str()).collect();
        assert_eq!(failed, vec!["lint_structural"]);
        assert!(
            matches!(report.steps[0].status, StepStatus::Failed { .. }),
            "{:?}",
            report.steps[0]
        );
        // The later steps still ran: P&R produced a die, the criterion
        // table was tabulated.
        assert!(report.die_area_um2 > 0.0);
        assert!(report.to_text().contains("step lint_structural FAILED"));
    }

    #[test]
    fn continue_on_error_returns_partial_slice_report_when_campaign_fails() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let mut cfg = fast_cfg(Strategy::Flat, 0x42);
        // An event budget far too small for even one handshake cycle.
        cfg.campaign.testbench.event_limit = 10;
        cfg.campaign.testbench.max_rounds = 10;

        // Fail-fast: the whole flow aborts.
        let mut ff_slice = slice.clone();
        let err = run_slice_flow(&mut ff_slice, &sel, &cfg).expect_err("fail-fast aborts");
        assert!(matches!(err, FlowError::Sim(_)), "{err}");

        // Continue-on-error: the layout report survives, the DPA part is
        // marked failed/skipped.
        cfg.policy = FlowPolicy::ContinueOnError;
        let report = run_slice_flow(&mut slice, &sel, &cfg).expect("partial report");
        assert!(report.attack.is_none());
        assert_eq!(report.correct_key_rank, None);
        assert!(report.layout.die_area_um2 > 0.0, "layout portion completed");
        let incomplete: Vec<(&str, &StepStatus)> = report
            .layout
            .incomplete_steps()
            .map(|s| (s.step.as_str(), &s.status))
            .collect();
        assert_eq!(incomplete.len(), 2, "{incomplete:?}");
        assert_eq!(incomplete[0].0, "campaign");
        assert!(matches!(incomplete[0].1, StepStatus::Failed { .. }));
        assert_eq!(incomplete[1].0, "attack");
        assert!(matches!(incomplete[1].1, StepStatus::Skipped { .. }));
        assert!(report.to_text().contains("DPA evaluation did not run"));
    }

    fn err_text(err: &FlowError) -> String {
        format!("{err}")
    }

    #[test]
    fn timeseries_knob_embeds_rollups_in_the_report() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = fast_cfg(Strategy::Flat, 0);
        assert!(
            run_static_flow(&mut slice.netlist.clone(), &cfg)
                .expect("passes lint")
                .timeseries
                .is_none(),
            "off by default"
        );
        cfg.timeseries = true;
        let report = run_static_flow(&mut slice.netlist, &cfg).expect("passes lint");
        let ts = report.timeseries.as_ref().expect("summary embedded");
        assert!(ts.ticks >= 6, "one tick per static step, got {}", ts.ticks);
        assert!(
            ts.series.iter().any(|s| s.name == "pnr.moves_attempted"),
            "annealing counters must appear in the rollups"
        );
        let json = serde_json::to_string(&report).expect("serializes");
        assert!(json.contains("\"timeseries\""));
    }

    #[test]
    fn profile_knob_embeds_attribution_summary() {
        let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = fast_cfg(Strategy::Flat, 0);
        assert!(
            run_static_flow(&mut slice.netlist.clone(), &cfg)
                .expect("passes lint")
                .profile
                .is_none(),
            "off by default"
        );
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let mut cfg = fast_cfg(Strategy::Flat, 0x42);
        cfg.profile = true;
        cfg.workers = 2;
        let report = run_slice_flow(&mut slice, &sel, &cfg).expect("flow completes");
        let profile = report.layout.profile.as_ref().expect("summary embedded");
        // Every span is a frame now, so `anneal` holds most of
        // `pnr.place_route`'s time: look for the span in the top paths.
        assert!(
            profile.top_regions.iter().any(|r| r
                .path
                .split(qdi_obs::prof::PATH_SEP)
                .any(|f| f == "pnr.place_route")),
            "place-and-route span must be attributed: {:?}",
            profile.top_regions
        );
        assert!(
            profile
                .top_regions
                .iter()
                .any(|r| r.path.contains("dpa.acquire")),
            "campaign acquisition must be attributed: {:?}",
            profile.top_regions
        );
        let pool = profile
            .pool
            .as_ref()
            .expect("pool totals from the campaign");
        assert!(pool.jobs >= 24, "one pool job per trace: {pool:?}");
        let json = serde_json::to_string(&report.layout).expect("serializes");
        assert!(json.contains("\"profile\""));
        qdi_obs::prof::set_enabled(false);
        qdi_obs::prof::reset();
    }

    #[test]
    fn hierarchical_flow_costs_area() {
        let base = aes_first_round_slice("s", SliceStage::XorSbox).expect("builds");
        let mut nl_flat = base.netlist.clone();
        let mut nl_hier = base.netlist.clone();
        let flat =
            run_static_flow(&mut nl_flat, &fast_cfg(Strategy::Flat, 0)).expect("passes lint");
        let hier = run_static_flow(&mut nl_hier, &fast_cfg(Strategy::Hierarchical, 0))
            .expect("passes lint");
        assert!(
            hier.die_area_um2 > flat.die_area_um2,
            "hierarchical should cost area: {} vs {}",
            hier.die_area_um2,
            flat.die_area_um2
        );
    }
}
