//! The result of a lint run: a serializable collection of diagnostics
//! with human, JSON-Lines and `qdi-obs` renderers.

use serde::{Deserialize, Serialize};

use qdi_netlist::diag::{Diagnostic, LintCode, Severity};

/// All findings of one lint run over one netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    /// Name of the linted netlist.
    pub netlist: String,
    /// Findings in pass/emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wraps findings for `netlist`.
    pub fn new(netlist: impl Into<String>, diagnostics: Vec<Diagnostic>) -> LintReport {
        LintReport {
            netlist: netlist.into(),
            diagnostics,
        }
    }

    /// An empty report.
    #[must_use]
    pub fn empty(netlist: impl Into<String>) -> LintReport {
        LintReport::new(netlist, Vec::new())
    }

    /// Total number of findings (including allowed ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// `true` when no finding was recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when nothing at warn level or above was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity == Severity::Allow)
    }

    /// Number of findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of deny-level findings.
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// Number of warn-level findings.
    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Iterates over the deny-level findings.
    pub fn denied(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
    }

    /// Findings carrying `code`.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Appends all findings of `other` (a later stage over the same
    /// netlist) to this report.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Renders every non-allowed finding rustc-style, followed by a
    /// one-line summary. Returns an empty string for clean reports.
    #[must_use]
    pub fn render_human(&self, color: bool) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            if diag.severity == Severity::Allow {
                continue;
            }
            out.push_str(&diag.render(color));
            out.push('\n');
        }
        if !out.is_empty() {
            out.push_str(&format!(
                "qdi-lint: {} error{}, {} warning{} on netlist `{}`\n",
                self.deny_count(),
                if self.deny_count() == 1 { "" } else { "s" },
                self.warn_count(),
                if self.warn_count() == 1 { "" } else { "s" },
                self.netlist
            ));
        }
        out
    }

    /// Renders every finding (allowed ones included — machine consumers
    /// filter themselves) as JSON-Lines: one object per finding.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(
                &qdi_obs::serde_json::to_string(diag).expect("a diagnostic always renders"),
            );
            out.push('\n');
        }
        out
    }

    /// Renders every non-allowed finding as a GitHub Actions workflow
    /// command (`::error ...` / `::warning ...`), one line per finding,
    /// so CI runs annotate directly. The netlist objects have no
    /// file/line mapping; the annotation carries the lint code as title
    /// and the subject inside the message.
    #[must_use]
    pub fn render_github(&self) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            let command = match diag.severity {
                Severity::Allow => continue,
                Severity::Warn => "warning",
                Severity::Deny => "error",
            };
            let mut message = format!("{}: {}", diag.subject, diag.message);
            if let Some(witness) = &diag.witness {
                message.push_str(&format!(
                    " [witness: {} ({} delta {:.3})]",
                    witness.render_compact(),
                    witness.metric,
                    witness.delta
                ));
            }
            out.push_str(&format!(
                "::{command} title={}::{}\n",
                github_escape_property(&diag.code.as_string()),
                github_escape_data(&message)
            ));
        }
        out
    }

    /// Emits every non-allowed finding as a `qdi-obs` event (target
    /// `qdi_lint`, level warn/error), so any installed sink — JSONL,
    /// Chrome trace, memory — receives the machine-readable findings.
    pub fn emit_to_obs(&self) {
        for diag in &self.diagnostics {
            let level = match diag.severity {
                Severity::Allow => continue,
                Severity::Warn => qdi_obs::Level::Warn,
                Severity::Deny => qdi_obs::Level::Error,
            };
            if qdi_obs::enabled(level, "qdi_lint") {
                qdi_obs::emit_event(
                    level,
                    "qdi_lint",
                    diag.message.clone(),
                    vec![
                        ("code".to_string(), diag.code.as_string().into()),
                        ("severity".to_string(), diag.severity.label().into()),
                        ("subject".to_string(), diag.subject.to_string().into()),
                        ("netlist".to_string(), self.netlist.as_str().into()),
                    ],
                );
            }
        }
    }
}

/// Escapes workflow-command message data (`%`, CR, LF).
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes workflow-command property values (data escapes plus `:`, `,`).
fn github_escape_property(s: &str) -> String {
    github_escape_data(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_netlist::diag::Subject;
    use qdi_netlist::NetId;

    fn report() -> LintReport {
        let net = Subject::Net {
            id: NetId::from_raw(0),
            name: "a".into(),
        };
        LintReport::new(
            "t",
            vec![
                Diagnostic::new(LintCode(1), Severity::Deny, net.clone(), "boom"),
                Diagnostic::new(LintCode(3), Severity::Warn, net.clone(), "meh"),
                Diagnostic::new(LintCode(3), Severity::Allow, net, "hidden"),
            ],
        )
    }

    #[test]
    fn counts_by_severity() {
        let r = report();
        assert_eq!(r.len(), 3);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_clean());
        assert!(LintReport::empty("t").is_clean());
        assert_eq!(r.with_code(LintCode(3)).count(), 2);
    }

    #[test]
    fn human_rendering_skips_allowed_and_summarises() {
        let text = report().render_human(false);
        assert!(text.contains("error[QDI0001]"), "{text}");
        assert!(text.contains("warning[QDI0003]"), "{text}");
        assert!(!text.contains("hidden"), "{text}");
        assert!(text.contains("1 error, 1 warning on netlist `t`"), "{text}");
    }

    #[test]
    fn jsonl_has_one_object_per_finding() {
        let jsonl = report().to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn github_rendering_annotates_and_escapes() {
        let mut r = report();
        r.diagnostics[0].message = "multi\nline % message".into();
        let text = r.render_github();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "allowed finding skipped: {text}");
        assert!(
            lines[0].starts_with("::error title=QDI0001::"),
            "{}",
            lines[0]
        );
        assert!(
            lines[0].contains("multi%0Aline %25 message"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("::warning title=QDI0003::"),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("net a (n0)"), "{}", lines[1]);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = report();
        let b = report();
        a.merge(b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn round_trips_through_serde_json_value() {
        let r = report();
        let json = serde_json::to_string(&r).expect("renders");
        assert!(json.contains("\"netlist\":\"t\""), "{json}");
        assert!(json.contains("QDI") || json.contains("\"code\""), "{json}");
    }
}
