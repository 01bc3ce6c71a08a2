//! Inline suppression pragmas.
//!
//! A finding is suppressed by a **line-comment** pragma of the form
//!
//! ```text
//! // fdn-lint: allow(F3) -- worker count only; merged bytes are cmp-gated
//! // fdn-lint: allow(F2, F3) -- order-independent fold over a lookup table
//! ```
//!
//! The rule list names one or more rule ids; the `--` reason is
//! **mandatory** — an allow without a written justification is itself a
//! finding ([`crate::rules::RuleId::P1`]), because the pragma trail is the
//! documentation of every sanctioned exception to the flow rules (clippy's
//! lexical rules use `#[expect(<lint>, reason = "…")]` the same way).
//!
//! A pragma governs the line it appears on (trailing-comment form) and, when
//! it stands alone on its line, the next line that carries any code token.
//! Doc comments between a pragma and its target do not break the link;
//! attributes (which are code) do. Pragmas inside string literals are
//! invisible here by construction: the scanner only surfaces *comments*.

use crate::rules::RuleId;
use crate::scanner::ScannedFile;

/// One parsed `fdn-lint: allow(…) -- …` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-indexed line of the comment carrying the pragma.
    pub line: u32,
    /// Rules the pragma allows.
    pub rules: Vec<RuleId>,
    /// The written justification (text after `--`).
    pub reason: String,
}

/// A malformed `fdn-lint:` directive (unknown rule, missing reason, or
/// unparseable shape) — reported as a finding, never honoured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedPragma {
    /// 1-indexed line of the offending comment.
    pub line: u32,
    /// What was wrong with it.
    pub problem: String,
}

/// The pragma layer's view of one file: valid suppressions plus malformed
/// directives.
#[derive(Debug, Clone, Default)]
pub struct Pragmas {
    /// Well-formed pragmas.
    pub allows: Vec<Pragma>,
    /// Directives that mentioned `fdn-lint:` but did not parse.
    pub malformed: Vec<MalformedPragma>,
    /// For each pragma (same order as `allows`): the set of lines it
    /// governs.
    targets: Vec<Vec<u32>>,
}

impl Pragmas {
    /// True when `rule` is suppressed at `line` by some pragma.
    pub fn suppresses(&self, rule: RuleId, line: u32) -> bool {
        self.allows
            .iter()
            .zip(&self.targets)
            .any(|(p, lines)| p.rules.contains(&rule) && lines.contains(&line))
    }
}

/// The marker every directive starts with.
const MARKER: &str = "fdn-lint:";

/// Extracts pragmas from a scanned file.
///
/// A directive must be the *first* thing in its comment (after any extra
/// `/`/`!` doc markers and whitespace): `// fdn-lint: allow(…) -- …`. Prose
/// that merely mentions `fdn-lint:` mid-sentence — this crate's own
/// documentation, say — is not a directive and is ignored.
pub fn collect(file: &ScannedFile) -> Pragmas {
    let code_lines = file.code_lines();
    let mut out = Pragmas::default();
    for comment in &file.comments {
        let head = comment.text.trim_start_matches(['/', '!']).trim_start();
        let Some(directive) = head.strip_prefix(MARKER) else {
            continue;
        };
        let directive = directive.trim();
        match parse_directive(directive) {
            Ok((rules, reason)) => {
                let mut lines = vec![comment.line];
                // Standalone pragma: also govern the next code line. A
                // trailing pragma shares its line with code, in which case
                // the comment line itself is the only target.
                if !code_lines.contains(&comment.line) {
                    if let Some(&next) = code_lines.iter().find(|&&l| l > comment.line) {
                        lines.push(next);
                    }
                }
                out.allows.push(Pragma {
                    line: comment.line,
                    rules,
                    reason: reason.to_string(),
                });
                out.targets.push(lines);
            }
            Err(problem) => out.malformed.push(MalformedPragma {
                line: comment.line,
                problem,
            }),
        }
    }
    out
}

/// Parses `allow(F2, F3) -- reason` into rules + reason.
fn parse_directive(directive: &str) -> Result<(Vec<RuleId>, &str), String> {
    let rest = directive
        .strip_prefix("allow")
        .ok_or_else(|| format!("expected `allow(...)`, found `{directive}`"))?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "missing `(` after `allow`".to_string())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "missing `)` in rule list".to_string())?;
    let (list, after) = rest.split_at(close);
    let mut rules = Vec::new();
    for part in list.split(',') {
        let name = part.trim();
        if name.is_empty() {
            return Err("empty rule list".to_string());
        }
        let rule = RuleId::parse(name).ok_or_else(|| format!("unknown rule id `{name}`"))?;
        if !rules.contains(&rule) {
            rules.push(rule);
        }
    }
    let after = after[1..].trim_start(); // past `)`
    let reason = after
        .strip_prefix("--")
        .map(str::trim)
        .ok_or_else(|| "missing `-- <reason>` justification".to_string())?;
    if reason.is_empty() {
        return Err("empty `-- <reason>` justification".to_string());
    }
    Ok((rules, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    #[test]
    fn trailing_pragma_governs_its_own_line() {
        let file = scan("let x = env(); // fdn-lint: allow(F3) -- trailing\nlet y = 1;");
        let pragmas = collect(&file);
        assert!(pragmas.suppresses(RuleId::F3, 1));
        assert!(!pragmas.suppresses(RuleId::F3, 2));
    }

    #[test]
    fn standalone_pragma_governs_next_code_line() {
        let src =
            "// fdn-lint: allow(F2, F3) -- multi-rule\n/// doc comment\nlet x = 1;\nlet y = 2;";
        let pragmas = collect(&scan(src));
        assert!(pragmas.suppresses(RuleId::F2, 3));
        assert!(pragmas.suppresses(RuleId::F3, 3));
        assert!(!pragmas.suppresses(RuleId::F2, 4));
        assert!(!pragmas.suppresses(RuleId::P1, 3));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let pragmas = collect(&scan("// fdn-lint: allow(F2)\nlet x = 1;"));
        assert!(pragmas.allows.is_empty());
        assert_eq!(pragmas.malformed.len(), 1);
        assert!(pragmas.malformed[0].problem.contains("reason"));
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let pragmas = collect(&scan(
            "// fdn-lint: allow(D1) -- now a clippy lint\nlet x = 1;",
        ));
        assert!(pragmas.allows.is_empty());
        assert!(pragmas.malformed[0].problem.contains("unknown rule"));
    }

    #[test]
    fn pragma_inside_string_is_invisible() {
        let pragmas = collect(&scan("let s = \"fdn-lint: allow(F3) -- nope\";"));
        assert!(pragmas.allows.is_empty());
        assert!(pragmas.malformed.is_empty());
    }
}
