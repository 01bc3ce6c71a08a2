//! The rules `fdn-lint` reports, and the path policy that scopes them.
//!
//! Every rule guards one way nondeterminism could leak into the
//! byte-compared artifacts this repo's CI gates (`campaign`/`frontier`/
//! `trace` reports, checked with `cmp` across reruns, thread counts and
//! shard splits):
//!
//! | rule | guards against |
//! |------|----------------|
//! | F2   | map-iteration-order taint reaching a sink without a sorting boundary |
//! | F3   | environment-dependence taint (env vars, thread counts) reaching a sink |
//! | P1   | malformed `fdn-lint:` pragmas (never honoured, always reported) |
//!
//! F2 and F3 are *flow* rules computed over the call graph of the scanned
//! file set (see [`crate::flow`]). The lexical rules D1–D6 are compiler and
//! clippy lints, configured in the root `clippy.toml` and
//! `[workspace.lints]` and opted out of per module with a reasoned
//! `#[expect]`. Where the flow analysis cannot prove safety (a map-to-map
//! difference whose order never reaches bytes), the escape hatch is an
//! inline pragma whose mandatory `-- reason` documents the argument.

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Map-iteration-order taint reaching a sink without sorting.
    F2,
    /// Environment-dependence taint reaching a sink.
    F3,
    /// Malformed suppression pragma.
    P1,
}

/// All rules, in report order.
pub const ALL_RULES: [RuleId; 3] = [RuleId::F2, RuleId::F3, RuleId::P1];

impl RuleId {
    /// Parses a rule id (`"F2"`, `"F3"`, `"P1"`).
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES.into_iter().find(|r| r.name() == s)
    }

    /// The canonical id string.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::F2 => "F2",
            RuleId::F3 => "F3",
            RuleId::P1 => "P1",
        }
    }

    /// One-line rule title for report headers.
    pub fn title(self) -> &'static str {
        match self {
            RuleId::F2 => "map-iteration-order taint reaches a sink unsorted",
            RuleId::F3 => "environment dependence reaches a sink",
            RuleId::P1 => "malformed fdn-lint pragma",
        }
    }

    /// Why the rule exists — the determinism rationale rendered into the
    /// markdown report and the README rule table.
    pub fn rationale(self) -> &'static str {
        match self {
            RuleId::F2 => {
                "HashMap/HashSet iteration order leaking through helpers into rendered bytes is \
                 the classic nondeterminism bug; a path is clean only if it passes an explicit \
                 sort or an ordered (BTree) collection before the sink."
            }
            RuleId::F3 => {
                "Environment variables and detected thread counts vary per machine; any value \
                 derived from them that reaches a byte-gated artifact breaks the cross-machine \
                 cmp contract."
            }
            RuleId::P1 => {
                "A suppression without a parseable rule list and written reason is a silent \
                 hole in the contract; it is reported instead of honoured."
            }
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative, forward-slash file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable description of the specific violation.
    pub message: String,
    /// For flow rules (F2, F3): the source→sink call path, each entry
    /// `module::Owner::fn (file:line)`. Empty for P1.
    pub path: Vec<String>,
}

/// Which files the flow rules analyze.
///
/// Test, bench and example trees are skipped by default: their output and
/// timing never feed byte-gated artifacts. `apply_all_rules` (the CLI's
/// `--apply-all-rules`) analyzes them too, which is how the
/// seeded-violation fixture under `tests/fixtures/` is exercised in CI
/// despite living on a test path.
#[derive(Debug, Clone, Default)]
pub struct PathPolicy {
    /// Analyze test, bench and example paths as well.
    pub apply_all_rules: bool,
}

impl PathPolicy {
    /// True for paths under a test/bench/example tree, unless
    /// `apply_all_rules` is set.
    pub(crate) fn is_test_path(&self, path: &str) -> bool {
        !self.apply_all_rules
            && (path.starts_with("tests/")
                || path.starts_with("examples/")
                || path.contains("/tests/")
                || path.contains("/benches/")
                || path.contains("/examples/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_sources;

    fn lint_with(path: &str, src: &str, policy: &PathPolicy) -> Vec<Finding> {
        lint_sources(&[(path.to_string(), src.to_string())], policy)
    }

    fn all(src: &str) -> Vec<Finding> {
        lint_with(
            "crates/x/src/lib.rs",
            src,
            &PathPolicy {
                apply_all_rules: true,
            },
        )
    }

    fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
        findings.iter().map(|f| f.rule).collect()
    }

    /// An environment read inside a render function: one F3 seed.
    const ENV_IN_SINK: &str =
        "fn render_plan() -> usize { std::env::var(\"N\").map_or(0, |v| v.len()) }";

    #[test]
    fn each_rule_fires_on_its_pattern() {
        let f = all(
            "fn render_rows(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().cloned().collect() }",
        );
        assert_eq!(rules_of(&f), vec![RuleId::F2]);
        let f = all(ENV_IN_SINK);
        assert_eq!(rules_of(&f), vec![RuleId::F3]);
        let f = all("// fdn-lint: allow(F3)\nfn ok() {}");
        assert_eq!(rules_of(&f), vec![RuleId::P1]);
    }

    #[test]
    fn path_policy_scopes_rules() {
        let policy = PathPolicy::default();
        // Flow rules skip test, bench and example trees by default.
        for path in [
            "crates/lab/tests/campaign.rs",
            "tests/equivalence.rs",
            "examples/quickstart.rs",
            "crates/bench/benches/end_to_end.rs",
        ] {
            assert!(lint_with(path, ENV_IN_SINK, &policy).is_empty(), "{path}");
        }
        assert_eq!(
            lint_with("crates/x/src/lib.rs", ENV_IN_SINK, &policy).len(),
            1
        );
        // The vendored shims are inert even under `apply_all_rules`.
        let every = PathPolicy {
            apply_all_rules: true,
        };
        assert!(lint_with("crates/shims/rand/src/lib.rs", ENV_IN_SINK, &every).is_empty());
        assert_eq!(
            lint_with("tests/equivalence.rs", ENV_IN_SINK, &every).len(),
            1
        );
        // P1 is never path-gated: a broken suppression is a hole anywhere.
        let broken = "// fdn-lint: allow(F2)\nfn ok() {}";
        assert_eq!(
            rules_of(&lint_with("tests/equivalence.rs", broken, &policy)),
            vec![RuleId::P1]
        );
    }

    #[test]
    fn pragma_suppresses_and_documents() {
        let src = "fn render_plan() -> usize {\n\
                   // fdn-lint: allow(F3) -- the length never reaches report bytes\n\
                   std::env::var(\"N\").map_or(0, |v| v.len()) }";
        assert!(all(src).is_empty());
        // The same code without a reason: finding survives, pragma reported.
        let src = "fn render_plan() -> usize {\n\
                   // fdn-lint: allow(F3)\n\
                   std::env::var(\"N\").map_or(0, |v| v.len()) }";
        assert_eq!(rules_of(&all(src)), vec![RuleId::P1, RuleId::F3]);
    }

    #[test]
    fn pragma_in_string_does_not_suppress() {
        let src = "fn render_plan() -> usize {\n\
                   let s = \"fdn-lint: allow(F3) -- smuggled\";\n\
                   std::env::var(\"N\").map_or(0, |v| v.len()) }";
        assert_eq!(rules_of(&all(src)), vec![RuleId::F3]);
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let f = all(&format!("#[cfg(test)] mod tests {{ {ENV_IN_SINK} }}"));
        assert!(f.is_empty(), "{f:?}");
    }
}
