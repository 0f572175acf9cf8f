//! Structured diagnostics for static analyses.
//!
//! Both the Luna plan analyzer (`luna::analyze`) and the Sycamore pipeline
//! linter (`sycamore::lint`) emit [`Diagnostic`] values: machine-readable
//! findings with a stable code, a severity, a pointer into the plan's JSON
//! rendering, and an optional suggested fix. Machine-readable diagnostics are
//! what make the planner repair loop possible — the planner LLM is re-prompted
//! with the rendered diagnostics and asked for a corrected plan (the DocETL
//! agentic-rewrite pattern applied to Luna's validation stage).

use std::fmt;

/// How bad a finding is.
///
/// `Error` findings make a plan unexecutable (the executor refuses it);
/// `Warning` findings likely change the answer; `Hint` findings are
/// optimization opportunities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Hint,
    Warning,
    Error,
}

impl Severity {
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Hint => "hint",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable kebab-case code, e.g. `"unknown-field"`. Every code is
    /// documented in DESIGN.md (enforced by `cargo xtask lint`).
    pub code: &'static str,
    pub severity: Severity,
    /// The plan node (or pipeline stage index) the finding is about.
    pub node_id: Option<usize>,
    /// Path into the plan's JSON rendering, e.g. `nodes[2].path`.
    pub path: String,
    pub message: String,
    /// A suggested fix, when the analysis can propose one.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            node_id: None,
            path: String::new(),
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Error, message)
    }

    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Warning, message)
    }

    pub fn hint(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Hint, message)
    }

    pub fn at_node(mut self, node_id: usize) -> Diagnostic {
        self.node_id = Some(node_id);
        self
    }

    pub fn at_path(mut self, path: impl Into<String>) -> Diagnostic {
        self.path = path.into();
        self
    }

    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Renders as JSON (an `aryn_core::Value`) for telemetry export and for
    /// feeding back to the planner LLM.
    pub fn to_value(&self) -> crate::Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("code".to_string(), crate::Value::from(self.code));
        m.insert(
            "severity".to_string(),
            crate::Value::from(self.severity.label()),
        );
        if let Some(id) = self.node_id {
            m.insert("node".to_string(), crate::Value::Int(id as i64));
        }
        if !self.path.is_empty() {
            m.insert("path".to_string(), crate::Value::from(self.path.as_str()));
        }
        m.insert(
            "message".to_string(),
            crate::Value::from(self.message.as_str()),
        );
        if let Some(s) = &self.suggestion {
            m.insert("suggestion".to_string(), crate::Value::from(s.as_str()));
        }
        crate::Value::Object(m)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(id) = self.node_id {
            write!(f, " out_{id}")?;
        }
        if !self.path.is_empty() {
            write!(f, " @ {}", self.path)?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (help: {s})")?;
        }
        Ok(())
    }
}

/// True when any diagnostic is `Error` severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders diagnostics one per line, errors first, for prompts and terminals.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.node_id.cmp(&b.node_id))
            .then(a.code.cmp(b.code))
    });
    let mut out = String::new();
    for d in sorted {
        out.push_str(&format!("- {d}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Hint);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn display_includes_all_parts() {
        let d = Diagnostic::error("unknown-field", "field `altitude` does not exist")
            .at_node(3)
            .at_path("nodes[3].path")
            .with_suggestion("use `fatal` instead");
        let s = d.to_string();
        assert!(s.contains("error[unknown-field]"));
        assert!(s.contains("out_3"));
        assert!(s.contains("nodes[3].path"));
        assert!(s.contains("altitude"));
        assert!(s.contains("help:"));
    }

    #[test]
    fn render_puts_errors_first() {
        let diags = vec![
            Diagnostic::hint("a-hint", "h").at_node(0),
            Diagnostic::error("an-error", "e").at_node(5),
            Diagnostic::warning("a-warning", "w").at_node(1),
        ];
        let r = render(&diags);
        let epos = r.find("an-error").unwrap();
        let wpos = r.find("a-warning").unwrap();
        let hpos = r.find("a-hint").unwrap();
        assert!(epos < wpos && wpos < hpos);
        assert!(has_errors(&diags));
    }

    #[test]
    fn to_value_roundtrips_fields() {
        let v = Diagnostic::warning("type-mismatch", "msg").at_node(2).to_value();
        assert_eq!(v.get("code").and_then(crate::Value::as_str), Some("type-mismatch"));
        assert_eq!(v.get("severity").and_then(crate::Value::as_str), Some("warning"));
        assert_eq!(v.get("node").and_then(crate::Value::as_int), Some(2));
    }
}
