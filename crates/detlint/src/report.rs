//! Findings, suppressions, and the human / JSON renderings.
//!
//! JSON is hand-rolled (the workspace builds offline, no serde) and kept
//! deterministic: findings are emitted in (file, line, rule) order, so the
//! report is byte-identical across runs — CI diffs it like every other
//! artifact in this repository.

use crate::rules::RuleCode;
use std::fmt::Write as _;

/// One unsuppressed rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: RuleCode,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The offending line's code text, trimmed.
    pub snippet: String,
}

/// A finding covered by a reasoned `detlint: allow` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// Suppressed rule.
    pub rule: RuleCode,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number of the covered finding.
    pub line: usize,
    /// The annotation's justification.
    pub reason: String,
}

/// The whole-workspace (or whole-fixture) lint result.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Suppressions, sorted by (file, line, rule).
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Crates that contributed files.
    pub crates: Vec<String>,
}

impl Report {
    /// True when no unsuppressed finding remains.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Canonical ordering for deterministic output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// The human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "vampos-detlint: {} file(s) scanned across {} crate(s)",
            self.files_scanned,
            self.crates.len()
        );
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: {} [{}]", f.file, f.line, f.message, f.rule);
            if !f.snippet.is_empty() {
                let _ = writeln!(out, "    {}", f.snippet);
            }
        }
        for s in &self.suppressed {
            let _ = writeln!(
                out,
                "{}:{}: suppressed [{}] — reason: {}",
                s.file, s.line, s.rule, s.reason
            );
        }
        let _ = writeln!(
            out,
            "{} finding(s), {} suppressed — {}",
            self.findings.len(),
            self.suppressed.len(),
            if self.is_clean() { "clean" } else { "DIRTY" }
        );
        out
    }

    /// The machine-readable report.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"tool\": \"vampos-detlint\",");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "  \"crates\": [{}],",
            self.crates
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("  \"rules\": [\n");
        for (i, rule) in RuleCode::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"code\": \"{}\", \"name\": \"{}\"}}{}",
                rule,
                rule.name(),
                if i + 1 < RuleCode::ALL.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}{}",
                f.rule,
                json_escape(&f.file),
                f.line,
                json_escape(&f.message),
                json_escape(&f.snippet),
                if i + 1 < self.findings.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"suppressed\": [\n");
        for (i, s) in self.suppressed.iter().enumerate() {
            let _ =
                writeln!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}{}",
                s.rule,
                json_escape(&s.file),
                s.line,
                json_escape(&s.reason),
                if i + 1 < self.suppressed.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"summary\": {{\"findings\": {}, \"suppressed\": {}, \"clean\": {}}}",
            self.findings.len(),
            self.suppressed.len(),
            self.is_clean()
        );
        out.push_str("}\n");
        out
    }
}

/// Escapes a string for inclusion in a JSON string literal. Its own copy
/// (not `vampos_telemetry::text`): this crate is dependency-free by charter.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut report = Report {
            findings: vec![Finding {
                rule: RuleCode::D001,
                file: "crates/x/src/lib.rs".to_owned(),
                line: 4,
                message: "`std::collections::HashMap` imported here".to_owned(),
                snippet: "use std::collections::HashMap;".to_owned(),
            }],
            suppressed: vec![Suppressed {
                rule: RuleCode::D002,
                file: "crates/y/src/lib.rs".to_owned(),
                line: 9,
                reason: "boot \"banner\" only".to_owned(),
            }],
            files_scanned: 2,
            crates: vec!["x".to_owned(), "y".to_owned()],
        };
        report.sort();
        report
    }

    #[test]
    fn human_report_names_files_rules_and_verdict() {
        let text = sample().render_human();
        assert!(text.contains("crates/x/src/lib.rs:4:"));
        assert!(text.contains("[D001]"));
        assert!(text.contains("suppressed [D002]"));
        assert!(text.contains("DIRTY"));
    }

    #[test]
    fn json_report_is_balanced_and_escaped() {
        let json = sample().render_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.contains("\"findings\": 1"));
        assert!(json.contains("boot \\\"banner\\\" only"));
        assert!(json.contains("\"clean\": false"));
    }

    #[test]
    fn escaping_covers_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
