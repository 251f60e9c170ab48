//! Four-phase protocol conformance checking.
//!
//! Reconstructs, from a transition log, the phase sequence of every channel
//! (paper Fig. 2: valid data → acknowledge → return to zero → acknowledge
//! release) and flags violations of the 1-of-N invariant and of the phase
//! order.

use serde::{Deserialize, Serialize};

use qdi_netlist::diag::{Diagnostic, LintCode, Severity, Subject};
use qdi_netlist::{Channel, ChannelId, Netlist};

use crate::simulator::{TimePs, Transition};

/// `QDI0101`: more than one rail high — the "unused" row of the paper's
/// Table 1 (dynamic counterpart of the static `QDI0005` encoding lint).
pub const ILLEGAL_ENCODING: LintCode = LintCode(101);
/// `QDI0102`: a rail or acknowledge edge outside the four-phase order of
/// the paper's Fig. 2.
pub const PHASE_ORDER: LintCode = LintCode(102);

/// What kind of protocol rule a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// The 1-of-N invariant: at most one rail high at any time.
    IllegalEncoding,
    /// The four-phase sequencing: valid → capture → return-to-zero →
    /// release.
    PhaseOrder,
}

impl ViolationKind {
    /// The stable lint code (`QDI01xx` range: dynamic analysis).
    pub fn code(self) -> LintCode {
        match self {
            ViolationKind::IllegalEncoding => ILLEGAL_ENCODING,
            ViolationKind::PhaseOrder => PHASE_ORDER,
        }
    }
}

/// One protocol violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolViolation {
    /// Time of the offending edge.
    pub time_ps: TimePs,
    /// Which protocol rule was broken.
    pub kind: ViolationKind,
    /// Explanation.
    pub detail: String,
}

/// Conformance report for one channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolReport {
    /// The checked channel.
    pub channel: ChannelId,
    /// Channel name.
    pub channel_name: String,
    /// Number of complete communications (valid phases) observed.
    pub communications: usize,
    /// Violations in time order.
    pub violations: Vec<ProtocolViolation>,
}

impl ProtocolReport {
    /// `true` when no violation was observed.
    pub fn conformant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders every violation as a [`Diagnostic`] — the same type, codes
    /// and renderers (`Diagnostic::render`, JSON via serde) the static
    /// `qdi-lint` passes use, so dynamic findings drop into the same
    /// tooling. Simulation-time violations are always deny-level: a
    /// non-conformant trace voids the QDI model outright.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.violations
            .iter()
            .map(|v| {
                Diagnostic::new(
                    v.kind.code(),
                    Severity::Deny,
                    Subject::Channel {
                        id: self.channel,
                        name: self.channel_name.clone(),
                    },
                    format!("t = {} ps: {}", v.time_ps, v.detail),
                )
                .with_help(match v.kind {
                    ViolationKind::IllegalEncoding => {
                        "a 1-of-N channel must never drive two rails high (Table 1); \
                         check the minterm recombination logic"
                            .to_string()
                    }
                    ViolationKind::PhaseOrder => {
                        "four-phase order is valid data, acknowledge capture, return \
                         to zero, acknowledge release (Fig. 2)"
                            .to_string()
                    }
                })
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// All rails low, acknowledge released (ready).
    Idle,
    /// One rail high, waiting for acknowledge capture.
    Valid,
    /// One rail high, acknowledge captured (low).
    Acked,
    /// Rails returned to zero, waiting for acknowledge release.
    Rtz,
}

/// Replays the transition log against `channel` and reports conformance.
///
/// The log must start from the idle state (all rails low, acknowledge
/// high), which is what [`crate::Testbench`] produces.
pub fn check_channel(channel: &Channel, transitions: &[Transition]) -> ProtocolReport {
    let mut rail_levels = vec![false; channel.arity()];
    let mut phase = Phase::Idle;
    let mut communications = 0usize;
    let mut violations = Vec::new();

    for t in transitions {
        if Some(t.net) == channel.ack {
            match (phase, t.rising) {
                (Phase::Valid, false) => phase = Phase::Acked,
                (Phase::Rtz, true) => phase = Phase::Idle,
                (Phase::Idle, true) | (Phase::Acked, false) => {} // re-assertion, harmless
                _ => violations.push(ProtocolViolation {
                    time_ps: t.time_ps,
                    kind: ViolationKind::PhaseOrder,
                    detail: format!(
                        "acknowledge edge ({}) out of phase {:?}",
                        if t.rising { "release" } else { "capture" },
                        phase
                    ),
                }),
            }
            continue;
        }
        let Some(idx) = channel.rails.iter().position(|&r| r == t.net) else {
            continue;
        };
        rail_levels[idx] = t.rising;
        let high = rail_levels.iter().filter(|&&v| v).count();
        if high > 1 {
            violations.push(ProtocolViolation {
                time_ps: t.time_ps,
                kind: ViolationKind::IllegalEncoding,
                detail: format!("more than one rail high on {}", channel.name),
            });
            continue;
        }
        match (phase, t.rising) {
            (Phase::Idle, true) => {
                phase = Phase::Valid;
                communications += 1;
            }
            (Phase::Acked, false) => phase = Phase::Rtz,
            // Without an acknowledge net we cannot see captures; accept
            // valid -> invalid directly.
            (Phase::Valid, false) if channel.ack.is_none() => phase = Phase::Rtz,
            _ => violations.push(ProtocolViolation {
                time_ps: t.time_ps,
                kind: ViolationKind::PhaseOrder,
                detail: format!(
                    "rail edge ({}) out of phase {:?} on {}",
                    if t.rising { "rise" } else { "fall" },
                    phase,
                    channel.name
                ),
            }),
        }
    }
    ProtocolReport {
        channel: channel.id,
        channel_name: channel.name.clone(),
        communications,
        violations,
    }
}

/// Checks every channel of the netlist against the log.
pub fn check_all(netlist: &Netlist, transitions: &[Transition]) -> Vec<ProtocolReport> {
    netlist
        .channels()
        .map(|c| check_channel(c, transitions))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Testbench, TestbenchConfig};
    use qdi_netlist::{cells, NetlistBuilder};

    fn xor_run() -> (Netlist, Vec<Transition>) {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let out = b.output_channel("co", &cell.out.rails.clone(), ack);
        let nl = b.finish().expect("valid");
        let mut tb = Testbench::new(&nl, TestbenchConfig::default()).expect("tb");
        tb.source(a.id, vec![0, 1]).expect("src");
        tb.source(bb.id, vec![1, 1]).expect("src");
        tb.sink(out.id).expect("sink");
        let run = tb.run().expect("completes");
        (nl, run.transitions)
    }

    #[test]
    fn xor_run_is_conformant_on_all_channels() {
        let (nl, log) = xor_run();
        for report in check_all(&nl, &log) {
            assert!(
                report.conformant(),
                "{}: {:?}",
                report.channel_name,
                report.violations
            );
            assert_eq!(report.communications, 2, "{}", report.channel_name);
        }
    }

    #[test]
    fn detects_double_rail_high() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let o = b.gate(qdi_netlist::GateKind::Or, "o", &[a.rail(0), a.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        let ch = nl.channel(a.id).clone();
        let log = vec![
            Transition {
                time_ps: 10,
                net: ch.rail(0),
                rising: true,
            },
            Transition {
                time_ps: 20,
                net: ch.rail(1),
                rising: true,
            },
        ];
        let report = check_channel(&ch, &log);
        assert!(!report.conformant());
        assert!(report.violations[0].detail.contains("more than one rail"));
        assert_eq!(report.violations[0].kind, ViolationKind::IllegalEncoding);
    }

    #[test]
    fn violations_render_as_shared_diagnostics() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let o = b.gate(qdi_netlist::GateKind::Or, "o", &[a.rail(0), a.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        let ch = nl.channel(a.id).clone();
        let log = vec![
            Transition {
                time_ps: 10,
                net: ch.rail(0),
                rising: true,
            },
            Transition {
                time_ps: 20,
                net: ch.rail(1),
                rising: true,
            },
        ];
        let report = check_channel(&ch, &log);
        let diags = report.diagnostics();
        assert_eq!(diags.len(), report.violations.len());
        let first = &diags[0];
        assert_eq!(first.code, ILLEGAL_ENCODING);
        assert_eq!(first.severity, Severity::Deny);
        assert_eq!(first.subject.name(), "a");
        // Same renderers as the static lints: rustc-style text and JSON.
        let text = first.render(false);
        assert!(text.starts_with("error[QDI0101]"), "{text}");
        assert!(text.contains("t = 20 ps"), "{text}");
        let json = serde_json::to_string(first).expect("renders");
        assert!(json.contains("\"code\""), "{json}");
    }

    #[test]
    fn detects_premature_rtz() {
        // Rail falls while the channel is still in the Valid phase (no
        // acknowledge capture seen) on a channel *with* an ack net.
        let mut b = NetlistBuilder::new("t");
        let a = b.input_channel("a", 2);
        let ackn = b.input_net("ka");
        b.connect_input_acks(&[a.id], ackn);
        let o = b.gate(qdi_netlist::GateKind::Or, "o", &[a.rail(0), a.rail(1)]);
        b.mark_output(o);
        let nl = b.finish().expect("valid");
        let ch = nl.channel(a.id).clone();
        let log = vec![
            Transition {
                time_ps: 10,
                net: ch.rail(0),
                rising: true,
            },
            Transition {
                time_ps: 20,
                net: ch.rail(0),
                rising: false,
            },
        ];
        let report = check_channel(&ch, &log);
        assert!(!report.conformant());
    }
}
