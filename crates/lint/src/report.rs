//! Deterministic renderers for a lint run.
//!
//! Like every artifact in this repository, lint output is a pure function
//! of the scanned sources: findings are sorted by `(file, line, rule)`,
//! paths are workspace-relative, and no clock, hostname or absolute path
//! ever enters the bytes. CI runs the scan twice and `cmp`s the JSON.

use crate::rules::{Finding, ALL_RULES};
use fdn_lab::Json;

/// The outcome of linting a file set.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Every finding, sorted.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Collects `findings` (in any order) into a report.
    pub fn new(files_scanned: usize, mut findings: Vec<Finding>) -> Self {
        findings.sort();
        LintReport {
            files_scanned,
            findings,
        }
    }

    /// True when the gate passes (no findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report as deterministic JSON.
    pub fn to_json_string(&self) -> String {
        Json::obj(vec![
            ("tool", Json::Str("fdn-lint".to_string())),
            ("version", Json::Num(2.0)),
            ("files_scanned", Json::Num(self.files_scanned as f64)),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            let mut fields = vec![
                                ("file", Json::Str(f.file.clone())),
                                ("line", Json::Num(f.line as f64)),
                                ("rule", Json::Str(f.rule.name().to_string())),
                                ("message", Json::Str(f.message.clone())),
                            ];
                            // Flow findings carry the source→sink call path;
                            // P1 findings have none.
                            if !f.path.is_empty() {
                                fields.push((
                                    "path",
                                    Json::Arr(
                                        f.path.iter().map(|p| Json::Str(p.clone())).collect(),
                                    ),
                                ));
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Renders the report as markdown: the rule table (with rationale) plus
    /// a findings table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# fdn-lint report\n\n");
        out.push_str(&format!(
            "{} file(s) scanned — {} finding(s)\n\n",
            self.files_scanned,
            self.findings.len()
        ));
        out.push_str("## Rules\n\n| rule | title | rationale |\n|------|-------|----------|\n");
        for rule in ALL_RULES {
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                rule.name(),
                rule.title(),
                rule.rationale()
            ));
        }
        out.push_str("\n## Findings\n\n");
        if self.findings.is_empty() {
            out.push_str("No findings.\n");
        } else {
            out.push_str("| location | rule | message |\n|----------|------|--------|\n");
            for f in &self.findings {
                out.push_str(&format!(
                    "| {}:{} | {} | {} |\n",
                    f.file,
                    f.line,
                    f.rule.name(),
                    f.message.replace('|', "\\|")
                ));
            }
        }
        out
    }

    /// Renders the report as compact human-readable text (the default CLI
    /// format): one `file:line rule message` per finding.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {} [{}] {}\n",
                f.file,
                f.line,
                f.rule.title(),
                f.rule.name(),
                f.message
            ));
            for (i, hop) in f.path.iter().enumerate() {
                out.push_str(&format!(
                    "    {} {hop}\n",
                    if i == 0 { "source" } else { "  via " }
                ));
            }
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }

    /// Renders the report as GitHub Actions workflow commands, one
    /// `::error` per finding, so findings annotate the offending lines
    /// inline on PRs.
    pub fn to_github(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let mut message = f.message.clone();
            if !f.path.is_empty() {
                message.push_str(&format!(" [path: {}]", f.path.join(" -> ")));
            }
            out.push_str(&format!(
                "::error file={},line={},title={} {}::{}\n",
                github_escape_property(&f.file),
                f.line,
                f.rule.name(),
                github_escape_property(f.rule.title()),
                github_escape_data(&message)
            ));
        }
        out
    }
}

/// Escapes the message part of a GitHub workflow command (`%`, CR, LF).
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command property value (message escapes plus the
/// property delimiters `:` and `,`).
fn github_escape_property(s: &str) -> String {
    github_escape_data(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    fn finding(file: &str, line: u32, rule: RuleId) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: format!("violation in {file}"),
            path: Vec::new(),
        }
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let a = LintReport::new(
            2,
            vec![
                finding("b.rs", 2, RuleId::P1),
                finding("a.rs", 9, RuleId::F3),
            ],
        );
        let b = LintReport::new(
            2,
            vec![
                finding("a.rs", 9, RuleId::F3),
                finding("b.rs", 2, RuleId::P1),
            ],
        );
        assert_eq!(a.to_json_string(), b.to_json_string());
        let json = a.to_json_string();
        assert!(json.find("a.rs").unwrap() < json.find("b.rs").unwrap());
        assert!(!a.is_clean());
        assert!(LintReport::new(2, Vec::new()).is_clean());
    }

    #[test]
    fn github_format_escapes_and_levels() {
        let p1 = finding("a.rs", 1, RuleId::P1);
        let mut flow = finding("b,c.rs", 2, RuleId::F3);
        flow.message = "taint\nacross lines: 100%".to_string();
        flow.path = vec![
            "x::src (a.rs:1)".to_string(),
            "x::sink (b.rs:9)".to_string(),
        ];
        let report = LintReport::new(2, vec![p1, flow]);
        let gh = report.to_github();
        assert!(gh.contains("::error file=a.rs,line=1,title=P1 "));
        assert!(gh.contains("::error file=b%2Cc.rs,line=2,title=F3 "));
        assert!(gh.contains("taint%0Aacross lines: 100%25"));
        assert!(gh.contains("[path: x::src (a.rs:1) -> x::sink (b.rs:9)]"));
        assert!(!gh.contains("\n\n"), "one command per line");
    }

    #[test]
    fn flow_path_renders_in_json_and_text_only_when_present() {
        let p1 = finding("a.rs", 1, RuleId::P1);
        let mut flowf = finding("a.rs", 3, RuleId::F2);
        flowf.path = vec![
            "m::rows (a.rs:3)".to_string(),
            "m::render (a.rs:9)".to_string(),
        ];
        let report = LintReport::new(1, vec![p1, flowf]);
        let json = report.to_json_string();
        // Exactly one finding carries a "path" array.
        assert_eq!(json.matches("\"path\"").count(), 1);
        let text = report.to_text();
        assert!(text.contains("source m::rows (a.rs:3)"));
        assert!(text.contains("  via  m::render (a.rs:9)"));
    }

    #[test]
    fn markdown_contains_rule_table_and_findings() {
        let report = LintReport::new(1, vec![finding("a.rs", 1, RuleId::F2)]);
        let md = report.to_markdown();
        assert!(md.contains("| F2 |"));
        assert!(md.contains("a.rs:1"));
        assert!(md.contains("iteration order"));
    }
}
