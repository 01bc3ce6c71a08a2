//! The committed findings baseline (`lint-baseline.json`).
//!
//! The gate contract mirrors `fdn-lab diff`: a finding already recorded in
//! the baseline is *grandfathered* (reported, exit 0); a finding absent from
//! it is *new* (exit 2). Baseline entries that no longer match any finding
//! are *stale* and reported so the file can be re-tightened — the intended
//! trajectory of the baseline is monotonically toward empty, which is how
//! this repository ships it.
//!
//! An entry matches on `(file, rule, line)` exactly. Line churn therefore
//! invalidates entries — deliberately: a grandfathered violation that moves
//! has been touched, and touched code should either fix the violation or
//! justify it with an inline pragma.

use crate::rules::{Finding, RuleId};
use fdn_lab::{Field, Json};

/// One grandfathered finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Workspace-relative, forward-slash path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// The grandfathered rule.
    pub rule: RuleId,
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Grandfathered findings, sorted.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// An empty baseline (the default when no file exists).
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Builds a baseline grandfathering exactly `findings`.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut entries: Vec<BaselineEntry> = findings
            .iter()
            .map(|f| BaselineEntry {
                file: f.file.clone(),
                line: f.line,
                rule: f.rule,
            })
            .collect();
        entries.sort();
        entries.dedup();
        Baseline { entries }
    }

    /// True when `finding` is grandfathered.
    pub fn contains(&self, finding: &Finding) -> bool {
        self.entries
            .iter()
            .any(|e| e.file == finding.file && e.line == finding.line && e.rule == finding.rule)
    }

    /// Entries that match none of `findings` — candidates for removal.
    pub fn stale(&self, findings: &[Finding]) -> Vec<BaselineEntry> {
        self.entries
            .iter()
            .filter(|e| {
                !findings
                    .iter()
                    .any(|f| e.file == f.file && e.line == f.line && e.rule == f.rule)
            })
            .cloned()
            .collect()
    }

    /// Renders the baseline as deterministic JSON (sorted entries, stable
    /// field order, trailing newline).
    pub fn to_json_string(&self) -> String {
        let mut entries = self.entries.clone();
        entries.sort();
        Json::obj(vec![
            ("tool", Json::Str("fdn-lint".to_string())),
            ("version", Json::Num(1.0)),
            ("findings", entries.to_json()),
        ])
        .render()
    }

    /// Parses a baseline document.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text)?;
        if doc.get("tool").and_then(Json::as_str) != Some("fdn-lint") {
            return Err("not an fdn-lint baseline (missing `\"tool\": \"fdn-lint\"`)".to_string());
        }
        let mut entries: Vec<BaselineEntry> = doc.read("findings")?;
        entries.sort();
        Ok(Baseline { entries })
    }
}

/// One `findings` element: `{"file", "line", "rule"}`.
impl Field for BaselineEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("file", self.file.to_json()),
            ("line", self.line.to_json()),
            ("rule", Json::Str(self.rule.name().to_string())),
        ])
    }

    fn from_json(f: &Json) -> Result<Self, String> {
        let rule: String = f.read("rule")?;
        Ok(BaselineEntry {
            file: f.read("file")?,
            line: f.read("line")?,
            rule: RuleId::parse(&rule).ok_or_else(|| format!("has unknown rule `{rule}`"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: RuleId) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: String::new(),
            path: Vec::new(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let found = vec![
            finding("b.rs", 2, RuleId::D6),
            finding("a.rs", 9, RuleId::D1),
        ];
        let base = Baseline::from_findings(&found);
        let reparsed = Baseline::parse(&base.to_json_string()).unwrap();
        assert_eq!(base, reparsed);
        assert!(found.iter().all(|f| reparsed.contains(f)));
        assert!(reparsed.stale(&found).is_empty());
        // Sorted regardless of input order.
        assert_eq!(reparsed.entries[0].file, "a.rs");
    }

    #[test]
    fn add_and_remove_move_the_gate() {
        let base = Baseline::from_findings(&[finding("a.rs", 1, RuleId::D5)]);
        // A different line is NOT grandfathered.
        assert!(!base.contains(&finding("a.rs", 2, RuleId::D5)));
        // A fixed finding leaves the entry stale.
        let stale = base.stale(&[]);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "a.rs");
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(Baseline::parse("{\"findings\": []}").is_err());
        assert!(Baseline::parse("not json").is_err());
    }
}
