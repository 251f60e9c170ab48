//! Rustc-style diagnostics for netlist analyses.
//!
//! Every static pass of `qdi-lint` and every dynamic check of `qdi-sim`
//! (the four-phase protocol checker) reports its findings through the
//! types in this module, so structural and simulation-time findings share
//! one severity model, one set of stable lint codes, and one pair of
//! renderers: a human-readable rustc-style text form ([`Diagnostic::render`])
//! and a machine-readable JSON object (via `serde`, one object per line).
//!
//! A diagnostic points at a *subject* — a gate, net or channel — and may
//! carry any number of secondary [`Label`]s giving the fan-in or handshake
//! context, plus an optional fix-it hint:
//!
//! ```text
//! error[QDI0009]: channel `a` dissymmetry dA = 1.000 reaches the deny threshold 1.000
//!   --> channel a (ch0)
//!    = rail a.r0 (n0): Cl = 8.00 fF
//!    = rail a.r1 (n1): Cl = 16.00 fF
//!    = help: add 8.00 fF of capacitive fill to rail a.r0 (eq. 13, Section VI)
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ChannelId, GateId, NetId};

/// Lint severity, in increasing order of gravity.
///
/// The ordering is meaningful: configs may *escalate* (`warn` → `deny`)
/// or *silence* (`→ allow`) a lint, and reports count findings per level.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Severity {
    /// The finding is recorded but suppressed from human output.
    Allow,
    /// A warning: reported, but does not fail a flow or a CLI run.
    #[default]
    Warn,
    /// An error: fails the `qdi-lint` CLI and hard-fails the secure flow.
    Deny,
}

impl Severity {
    /// The rustc-style label (`warning`, `error`, ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Allow => "allowed",
            Severity::Warn => "warning",
            Severity::Deny => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A stable lint code, e.g. `QDI0004`.
///
/// Codes are never reused or renumbered; machine consumers key on them.
/// The `QDI00xx` range is static (netlist-structure) analysis, `QDI01xx`
/// is dynamic (simulation-time) analysis, `QDI02xx` is symbolic
/// (data-independence proofs of `qdi-sym`), and `QDI03xx` is runtime
/// supervision (quarantined campaign jobs reported by
/// `qdi-exec::supervisor`: `QDI0301` panic, `QDI0302` timeout,
/// `QDI0303` retries-exhausted error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LintCode(pub u16);

impl LintCode {
    /// Renders as `QDI0001`.
    #[must_use]
    pub fn as_string(self) -> String {
        format!("QDI{:04}", self.0)
    }

    /// Parses `QDI0001` (case-insensitive) or a bare number back to a code.
    #[must_use]
    pub fn parse(s: &str) -> Option<LintCode> {
        let digits = s
            .strip_prefix("QDI")
            .or_else(|| s.strip_prefix("qdi"))
            .unwrap_or(s);
        digits.parse().ok().map(LintCode)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QDI{:04}", self.0)
    }
}

/// What a diagnostic (or one of its labels) points at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Subject {
    /// A gate, by id and name.
    Gate {
        /// Gate id within the netlist.
        id: GateId,
        /// Gate name.
        name: String,
    },
    /// A net, by id and name.
    Net {
        /// Net id within the netlist.
        id: NetId,
        /// Net name.
        name: String,
    },
    /// A channel, by id and name.
    Channel {
        /// Channel id within the netlist.
        id: ChannelId,
        /// Channel name.
        name: String,
    },
    /// The netlist as a whole.
    Netlist {
        /// Netlist name.
        name: String,
    },
}

impl Subject {
    /// The subject's name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Subject::Gate { name, .. }
            | Subject::Net { name, .. }
            | Subject::Channel { name, .. }
            | Subject::Netlist { name } => name,
        }
    }

    /// The subject kind as a lowercase word.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Subject::Gate { .. } => "gate",
            Subject::Net { .. } => "net",
            Subject::Channel { .. } => "channel",
            Subject::Netlist { .. } => "netlist",
        }
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Gate { id, name } => write!(f, "gate {name} ({id})"),
            Subject::Net { id, name } => write!(f, "net {name} ({id})"),
            Subject::Channel { id, name } => write!(f, "channel {name} ({id})"),
            Subject::Netlist { name } => write!(f, "netlist {name}"),
        }
    }
}

/// A secondary annotation on a diagnostic: a related object plus a note,
/// e.g. one rail of an unbalanced channel, or one hop of a combinational
/// cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Label {
    /// What the label points at.
    pub subject: Subject,
    /// Short explanation tied to that object.
    pub note: String,
}

impl Label {
    /// Convenience constructor.
    pub fn new(subject: Subject, note: impl Into<String>) -> Label {
        Label {
            subject,
            note: note.into(),
        }
    }
}

/// One input-channel assignment of a witness: `channel` takes `value`
/// (the index of the 1-of-N rail that fires).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelValue {
    /// Input channel name.
    pub channel: String,
    /// 1-of-N value presented on the channel.
    pub value: usize,
}

/// A concrete pair of input vectors refuting a balance claim: replaying
/// `lo` and `hi` through the simulator exhibits `delta` of imbalance in
/// `metric` (transitions, or capacitance-weighted activity in fF).
///
/// Attached to symbolic-verifier diagnostics (`QDI0201`/`QDI0202`) so a
/// refutation is machine-replayable, not just a prose claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WitnessPair {
    /// The input vector minimizing the metric.
    pub lo: Vec<ChannelValue>,
    /// The input vector maximizing the metric.
    pub hi: Vec<ChannelValue>,
    /// What is being compared, e.g. `transitions at level 4`.
    pub metric: String,
    /// `metric(hi) − metric(lo)` as predicted symbolically.
    pub delta: f64,
}

impl WitnessPair {
    /// The value assigned to `channel` in the given side, if any.
    fn side_value(side: &[ChannelValue], channel: &str) -> Option<usize> {
        side.iter()
            .find(|cv| cv.channel == channel)
            .map(|cv| cv.value)
    }

    /// The `lo`-side value for `channel` (defaults to 0 when absent).
    #[must_use]
    pub fn lo_value(&self, channel: &str) -> usize {
        Self::side_value(&self.lo, channel).unwrap_or(0)
    }

    /// The `hi`-side value for `channel` (defaults to 0 when absent).
    #[must_use]
    pub fn hi_value(&self, channel: &str) -> usize {
        Self::side_value(&self.hi, channel).unwrap_or(0)
    }

    /// Compact one-line rendering, e.g. `{a=0, b=0} vs {a=0, b=1}`.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let side = |vals: &[ChannelValue]| {
            let inner: Vec<String> = vals
                .iter()
                .map(|cv| format!("{}={}", cv.channel, cv.value))
                .collect();
            format!("{{{}}}", inner.join(", "))
        };
        format!("{} vs {}", side(&self.lo), side(&self.hi))
    }
}

/// One finding of a static or dynamic analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// Effective severity (after any config overrides).
    pub severity: Severity,
    /// One-line statement of the problem.
    pub message: String,
    /// The primary object the finding is about.
    pub subject: Subject,
    /// Context labels (fan-in, cycle path, rail capacitances, ...).
    pub labels: Vec<Label>,
    /// Fix-it hint, when the lint knows one.
    pub help: Option<String>,
    /// Replayable refutation, when the finding carries one (`QDI02xx`).
    pub witness: Option<WitnessPair>,
}

impl Diagnostic {
    /// Starts a diagnostic with no labels and no help text.
    pub fn new(
        code: LintCode,
        severity: Severity,
        subject: Subject,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            subject,
            labels: Vec::new(),
            help: None,
            witness: None,
        }
    }

    /// Appends a context label (builder style).
    #[must_use]
    pub fn with_label(mut self, subject: Subject, note: impl Into<String>) -> Diagnostic {
        self.labels.push(Label::new(subject, note));
        self
    }

    /// Sets the fix-it hint (builder style).
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Attaches a replayable witness pair (builder style).
    #[must_use]
    pub fn with_witness(mut self, witness: WitnessPair) -> Diagnostic {
        self.witness = Some(witness);
        self
    }

    /// Renders the rustc-style text form, optionally with ANSI colors.
    #[must_use]
    pub fn render(&self, color: bool) -> String {
        use std::fmt::Write as _;
        let (sev_on, bold_on, off) = if color {
            match self.severity {
                Severity::Deny => ("\x1b[1;31m", "\x1b[1m", "\x1b[0m"),
                Severity::Warn => ("\x1b[1;33m", "\x1b[1m", "\x1b[0m"),
                Severity::Allow => ("\x1b[2m", "\x1b[1m", "\x1b[0m"),
            }
        } else {
            ("", "", "")
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{sev_on}{}[{}]{off}{bold_on}: {}{off}",
            self.severity.label(),
            self.code,
            self.message
        );
        let _ = writeln!(out, "  --> {}", self.subject);
        for label in &self.labels {
            let _ = writeln!(out, "   = {}: {}", label.subject, label.note);
        }
        if let Some(witness) = &self.witness {
            let _ = writeln!(
                out,
                "   = {bold_on}witness{off}: {} (Δ {} = {:.3})",
                witness.render_compact(),
                witness.metric,
                witness.delta
            );
        }
        if let Some(help) = &self.help {
            let _ = writeln!(out, "   = {bold_on}help{off}: {help}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new(
            LintCode(9),
            Severity::Deny,
            Subject::Channel {
                id: ChannelId::from_raw(0),
                name: "a".into(),
            },
            "channel `a` dissymmetry dA = 1.000 reaches the deny threshold 1.000",
        )
        .with_label(
            Subject::Net {
                id: NetId::from_raw(0),
                name: "a.r0".into(),
            },
            "Cl = 8.00 fF",
        )
        .with_help("add 8.00 fF of capacitive fill to rail a.r0 (eq. 13)")
    }

    #[test]
    fn code_round_trips() {
        assert_eq!(LintCode(9).as_string(), "QDI0009");
        assert_eq!(LintCode::parse("QDI0009"), Some(LintCode(9)));
        assert_eq!(LintCode::parse("qdi0102"), Some(LintCode(102)));
        assert_eq!(LintCode::parse("7"), Some(LintCode(7)));
        assert_eq!(LintCode::parse("nope"), None);
    }

    #[test]
    fn severity_orders_allow_warn_deny() {
        assert!(Severity::Allow < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
        assert_eq!(Severity::Deny.label(), "error");
    }

    #[test]
    fn render_is_rustc_shaped() {
        let text = sample().render(false);
        assert!(text.starts_with("error[QDI0009]: channel `a`"), "{text}");
        assert!(text.contains("--> channel a (ch0)"), "{text}");
        assert!(text.contains("= net a.r0 (n0): Cl = 8.00 fF"), "{text}");
        assert!(text.contains("= help: add 8.00 fF"), "{text}");
    }

    #[test]
    fn render_with_color_wraps_severity() {
        let text = sample().render(true);
        assert!(text.contains("\x1b[1;31merror[QDI0009]\x1b[0m"), "{text}");
    }

    #[test]
    fn serializes_to_json() {
        let diag = sample();
        let json = serde_json::to_string(&diag).expect("renders");
        assert!(json.contains("\"code\""), "{json}");
        assert!(json.contains("\"severity\""), "{json}");
        assert!(json.contains("Deny"), "{json}");
    }
}
