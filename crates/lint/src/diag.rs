//! Structured lint diagnostics: rule ids, severities, subjects.

use std::fmt;

/// How serious a diagnostic is.
///
/// `Error` marks a structural defect (the design cannot mean what it
/// says); `Warning` marks redundancy that synthesis or an ECO probably
/// left behind; `Info` marks expected don't-care slack (paper §3.1) that
/// the fault analysis exploits rather than forbids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected slack, reported for visibility.
    Info,
    /// Likely-unintended redundancy.
    Warning,
    /// A structural defect.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{s}")
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `unreachable-state`.
    pub rule: &'static str,
    /// How serious it is.
    pub severity: Severity,
    /// The net, cell, state, or register the rule fired on.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.subject, self.message
        )
    }
}

/// The result of a lint run: every diagnostic, in rule order.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report's findings into this one.
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of `Error`-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Whether the report is clean at `Error` severity.
    pub fn is_error_free(&self) -> bool {
        self.error_count() == 0
    }

    /// Canonicalizes the report for stable CI diffing: diagnostics are
    /// sorted by (severity descending, rule, subject, message) and
    /// repeats of the same rule id on the same subject are emitted
    /// once. The sort is total, so two reports over the same
    /// design render byte-identically regardless of rule evaluation
    /// order.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.cmp(b.rule))
                .then_with(|| a.subject.cmp(&b.subject))
                .then_with(|| a.message.cmp(&b.message))
        });
        self.diagnostics
            .dedup_by(|a, b| a.rule == b.rule && a.subject == b.subject);
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn diagnostics_render_rule_and_subject() {
        let d = Diagnostic {
            rule: "constant-net",
            severity: Severity::Warning,
            subject: "x".into(),
            message: "net is stuck at 0".into(),
        };
        assert_eq!(d.to_string(), "warning[constant-net] x: net is stuck at 0");
    }

    #[test]
    fn report_counts_by_severity() {
        let mut r = LintReport::new();
        assert!(r.is_error_free());
        r.push(Diagnostic {
            rule: "a",
            severity: Severity::Error,
            subject: String::new(),
            message: String::new(),
        });
        r.push(Diagnostic {
            rule: "b",
            severity: Severity::Info,
            subject: String::new(),
            message: String::new(),
        });
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(!r.is_error_free());
    }

    #[test]
    fn normalize_dedupes_and_stable_sorts() {
        let d = |rule, severity, subject: &str, message: &str| Diagnostic {
            rule,
            severity,
            subject: subject.into(),
            message: message.into(),
        };
        let mut r = LintReport::new();
        r.push(d("b-rule", Severity::Info, "n2", "later"));
        r.push(d("a-rule", Severity::Warning, "n1", "dup"));
        r.push(d("a-rule", Severity::Warning, "n1", "dup"));
        r.push(d("a-rule", Severity::Error, "n0", "first"));
        // Same rule, another subject: both survive.
        r.push(d("a-rule", Severity::Warning, "n3", "dup"));
        r.normalize();
        let rendered: Vec<String> = r.diagnostics.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "error[a-rule] n0: first",
                "warning[a-rule] n1: dup",
                "warning[a-rule] n3: dup",
                "info[b-rule] n2: later",
            ]
        );
        // Idempotent: a second pass changes nothing.
        let before = r.diagnostics.clone();
        r.normalize();
        assert_eq!(before, r.diagnostics);
    }
}
