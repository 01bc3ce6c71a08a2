//! Scanner and pragma edge cases, exercised through the public library API
//! exactly as the CLI uses it: `lint_sources` with the permissive
//! `apply_all_rules` policy. Every probe sits in a report sink (a `render*`
//! function), so an environment read that leaks out of a comment or string
//! becomes a visible F3 finding, and a pragma that leaks into one hides it.

use fdn_lint::{build_graph, lint_sources, Finding, LintReport, PathPolicy, RuleId};

fn lint(source: &str) -> Vec<Finding> {
    lint_sources(
        &[("crates/x/src/lib.rs".to_string(), source.to_string())],
        &PathPolicy {
            apply_all_rules: true,
        },
    )
}

/// Lints `body` as the body of a report sink.
fn lint_in_sink(body: &str) -> Vec<Finding> {
    lint(&format!("fn render_probe() {{ {body} }}"))
}

fn rules(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn raw_strings_hide_violations_at_every_hash_depth() {
    for body in [
        r###"let s = r"std::env::var(N)";"###,
        r###"let s = r#"std::env::var("N") "quoted""#;"###,
        r###"let s = r##"std::env::var("N") "# still inside"##;"###,
        r###"let s = br#"std::env::var("N") bytes"#;"###,
    ] {
        assert!(lint_in_sink(body).is_empty(), "leak in {body}");
    }
    // The raw string terminates where its guard count says: code after the
    // close is live again.
    let body = r###"let s = r#"quiet"#; std::env::var("N");"###;
    assert_eq!(rules(&lint_in_sink(body)), vec![RuleId::F3]);
}

#[test]
fn nested_block_comments_track_depth() {
    let body =
        r#"/* outer /* inner std::env::var("A") */ still comment env::var("B") */ let x = 1;"#;
    assert!(lint_in_sink(body).is_empty());
    // An unbalanced opener swallows the rest of the file (forgiving EOF).
    assert!(lint_in_sink(r#"/* /* env::var("A") */ std::env::var("B");"#).is_empty());
    // …but a balanced pair does not swallow trailing code.
    let body = r#"/* /* a */ b */ std::env::var("N");"#;
    assert_eq!(rules(&lint_in_sink(body)), vec![RuleId::F3]);
}

#[test]
fn char_literals_and_lifetimes_do_not_desync_the_scanner() {
    // A quote-heavy gauntlet: if any of these desynchronized the scanner,
    // the read on line 3 would vanish, or the string's content would leak
    // and seed the finding on line 2 instead.
    let src = "fn render_probe() {\n\
               let a = '\"'; let b = '\\''; let c: &'static str = \"std::env::var(N)\";\n\
               std::env::var(\"N\");\n\
               }";
    let findings = lint(src);
    assert_eq!(rules(&findings), vec![RuleId::F3]);
    assert_eq!(findings[0].line, 3);
}

#[test]
fn pragma_inside_string_must_not_suppress() {
    let src = "fn render_probe() {\n\
               let s = \"fdn-lint: allow(F3) -- smuggled\";\n\
               std::env::var(\"N\");\n\
               }";
    assert_eq!(rules(&lint(src)), vec![RuleId::F3]);
    // Same text as a *comment* does suppress.
    let src = "fn render_probe() {\n\
               // fdn-lint: allow(F3) -- genuine\n\
               std::env::var(\"N\");\n\
               }";
    assert!(lint(src).is_empty());
}

#[test]
fn multi_rule_pragmas_cover_exactly_their_rules() {
    let probe = |pragma: &str| {
        lint(&format!(
            "fn render_probe(m: &HashMap<u32, u32>) {{\n\
             {pragma}\n\
             let n = std::env::var(\"N\"); let k: Vec<_> = m.keys().collect();\n\
             }}"
        ))
    };
    assert!(probe("// fdn-lint: allow(F2, F3) -- both on one line").is_empty());
    // The pragma names F3 only: F2 still fires.
    assert_eq!(
        rules(&probe("// fdn-lint: allow(F3) -- worker count only")),
        vec![RuleId::F2]
    );
    // Duplicate rule ids in one pragma are tolerated.
    assert!(probe("// fdn-lint: allow(F2, F2, F3) -- dup").is_empty());
}

#[test]
fn doc_comments_mentioning_the_marker_are_not_directives() {
    // Prose *about* pragmas (like this crate's own docs) must neither
    // suppress nor be reported as malformed.
    let src = "//! The `// fdn-lint: allow(<rule>) -- <reason>` form.\nfn ok() {}";
    assert!(lint(src).is_empty());
}

#[test]
fn crlf_sources_keep_line_numbers_and_pragma_reasons() {
    let unix = "fn render_probe() {\n    let n = std::env::var(\"N\");\n}\n";
    let dos = unix.replace('\n', "\r\n");
    let a = lint(unix);
    let b = lint(&dos);
    assert_eq!(rules(&a), vec![RuleId::F3]);
    assert_eq!(
        (a[0].line, a[0].rule),
        (b[0].line, b[0].rule),
        "CRLF must not shift finding lines"
    );

    // A trailing '\r' left on the comment text would corrupt the pragma's
    // `-- reason` tail (or turn the pragma into a P1).
    let src = "fn render_probe() {\r\n\
               // fdn-lint: allow(F3) -- worker count only\r\n\
               let n = std::env::var(\"N\");\r\n\
               }\r\n";
    assert!(
        lint(src).is_empty(),
        "CRLF pragma must suppress without firing P1: {:?}",
        lint(src)
    );
}

#[test]
fn shebang_line_is_inert_and_does_not_shift_lines() {
    let src = "#!/usr/bin/env run-cargo-script\n\
               fn render_probe() { let n = std::env::var(\"N\"); }\n";
    let findings = lint(src);
    assert_eq!(rules(&findings), vec![RuleId::F3]);
    assert_eq!(findings[0].line, 2, "shebang occupies line 1");
}

#[test]
fn raw_strings_inside_macro_invocations_stay_opaque() {
    // The raw string rides inside a macro's token tree — its contents
    // (including the unbalanced quote and a would-be read) are data.
    let src = "fn fingerprint_row() {\n\
               let q = write!(w, r#\"std::env::var(\"N\") \" unsafe {{\"#);\n\
               let n = std::env::var(\"N\");\n\
               }\n";
    let findings = lint(src);
    assert_eq!(rules(&findings), vec![RuleId::F3], "{findings:?}");
    assert_eq!(findings[0].line, 3, "only the real read counts");
}

#[test]
fn impl_with_multi_line_where_clause_keeps_method_ownership() {
    let src = "struct Frontier<T> { items: Vec<T> }\n\
               impl<T> Frontier<T>\n\
               where\n\
                   T: Clone + Ord,\n\
                   T: Default,\n\
               {\n\
                   fn render_frontier(&self) -> u64 {\n\
                       helper()\n\
                   }\n\
               }\n\
               fn helper() -> u64 { 0 }\n";
    let g = build_graph(&[("crates/x/src/lib.rs".to_string(), src.to_string())]);
    let caller = g
        .fns
        .iter()
        .position(|f| f.name == "render_frontier")
        .expect("method inside where-clause impl is extracted");
    assert_eq!(
        g.fns[caller].owner.as_deref(),
        Some("Frontier"),
        "multi-line where clause must not detach the method from its impl"
    );
    // The call edge out of the method still resolves to the free helper.
    let helper = g.fns.iter().position(|f| f.name == "helper").unwrap();
    assert!(
        g.internal_callees_of(caller).contains(&helper),
        "missing render_frontier -> helper edge"
    );
}

#[test]
fn findings_order_is_stable_for_identical_content() {
    let src = "// fdn-lint: allow(F3)\n\
               fn render_probe() {\n\
               let n = std::env::var(\"N\");\n\
               }\n\
               // fdn-lint: allow(F2)\n";
    let a = LintReport::new(1, lint(src)).to_json_string();
    let b = LintReport::new(1, lint(src)).to_json_string();
    assert_eq!(a, b);
    // Sorted by line within the file.
    let at = |line: u32| a.find(&format!("\"line\": {line},")).unwrap();
    assert!(at(1) < at(3) && at(3) < at(5), "{a}");
}
