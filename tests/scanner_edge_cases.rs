//! Lexical edge cases of the determinism gate. Each file in
//! `tests/fixtures/lexical/` is one module of a throwaway package that clippy
//! lints once, with the workspace's lint tables and `clippy.toml`. An
//! environment read (D7) is the probe's signal: a read hidden in a comment or
//! string must not trip, a real read after such text must trip on its own
//! line, and an exception (`#[expect]`) must suppress only where it is an
//! attribute, not where it is text.

mod clippy_gate;

use clippy_gate::{clippy_package, workspace_root, ClippyRun};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

const D2: &str = "clippy::disallowed_types";
const D7: &str = "clippy::disallowed_methods";
const STALE: &str = "unfulfilled_lint_expectations";

/// Writes every probe as a module of one package and lints it once. Two
/// probes are derived: `crlf_dos` is `crlf` with CRLF line ends, and
/// `order_copy` is `order` verbatim.
fn run() -> &'static ClippyRun {
    static RUN: OnceLock<ClippyRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut probes = BTreeMap::new();
        for entry in std::fs::read_dir(workspace_root().join("tests/fixtures/lexical")).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            probes.insert(name, std::fs::read_to_string(&path).unwrap());
        }
        let crlf = probes["crlf"].replace("\r\n", "\n").replace('\n', "\r\n");
        probes.insert("crlf_dos".to_string(), crlf);
        probes.insert("order_copy".to_string(), probes["order"].clone());
        let src = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-probes/src");
        let _ = std::fs::remove_dir_all(&src);
        std::fs::create_dir_all(&src).unwrap();
        let mut lib = String::from("//! Lexical probes of the determinism gate.\n\n");
        for (name, source) in &probes {
            std::fs::write(src.join(format!("{name}.rs")), source).unwrap();
            lib.push_str(&format!("pub mod {name};\n"));
        }
        std::fs::write(src.join("lib.rs"), lib).unwrap();
        clippy_package("clippy-probes", &src.join("lib.rs"))
    })
}

/// `(line, lint)` for every diagnostic in `probe`, in the order clippy
/// emitted them. Every one must be at error level.
fn findings_in_order(probe: &str) -> Vec<(u32, String)> {
    let run = run();
    assert!(
        !run.status.success() && !run.diagnostics.is_empty(),
        "the probes must trip the gate:\n{}",
        run.stderr
    );
    let file = format!("{probe}.rs");
    let mut out = Vec::new();
    for d in run.diagnostics.iter().filter(|d| d.file == file) {
        assert_eq!(d.level, "error", "{}", d.rendered);
        out.push((d.line, d.lint.clone()));
    }
    out
}

/// `(line, lint)` for every diagnostic in `probe`, sorted.
fn findings(probe: &str) -> Vec<(u32, String)> {
    let mut out = findings_in_order(probe);
    out.sort();
    out.dedup();
    out
}

fn at(line: u32, lint: &str) -> (u32, String) {
    (line, lint.to_string())
}

#[test]
fn raw_strings_hide_violations_at_every_hash_depth() {
    // Reads inside raw strings of every guard depth are data; the raw
    // string ends where its guard count says, so code after it is live.
    assert_eq!(findings("raw_strings"), vec![at(5, D7)]);
}

#[test]
fn nested_block_comments_track_depth() {
    // Block comments nest, and a balanced pair does not swallow the code
    // after it. (An unbalanced opener is a compile error.)
    assert_eq!(findings("nested_comments"), vec![at(2, D7)]);
}

#[test]
fn char_literals_and_lifetimes_do_not_desync_the_scanner() {
    // If the quotes desynchronized the lexer, the read on line 3 would
    // vanish, or the string's content would trip line 2 instead.
    assert_eq!(findings("char_literals"), vec![at(3, D7)]);
}

#[test]
fn pragma_inside_string_must_not_suppress() {
    // The exception as a string is data; as an attribute it suppresses.
    assert_eq!(findings("expect_in_string"), vec![at(3, D7)]);
}

#[test]
fn multi_rule_pragmas_cover_exactly_their_rules() {
    // An attribute covers exactly the lints it names; a lint named twice
    // leaves one expectation unfulfilled, which is an error.
    assert_eq!(
        findings("multi_lint_expect"),
        vec![at(8, D2), at(12, STALE)]
    );
}

#[test]
fn doc_comments_mentioning_the_marker_are_not_directives() {
    // Prose about exceptions neither suppresses nor counts as a reason-less
    // exception.
    assert_eq!(findings("doc_comments"), vec![at(5, D7)]);
}

#[test]
fn crlf_sources_keep_line_numbers_and_pragma_reasons() {
    // The second read sits under a reasoned exception; a '\r' left on the
    // reason would corrupt it and make that exception fail.
    assert_eq!(findings("crlf"), vec![at(2, D7)]);
    assert_eq!(findings("crlf_dos"), findings("crlf"), "CRLF shifted lines");
}

#[test]
fn shebang_line_is_inert_and_does_not_shift_lines() {
    assert_eq!(findings("shebang"), vec![at(2, D7)], "shebang is line 1");
}

#[test]
fn raw_strings_inside_macro_invocations_stay_opaque() {
    // An unbalanced quote, `unsafe {` and a read inside a macro's raw
    // string are data; only the real read counts.
    assert_eq!(findings("macro_raw_string"), vec![at(4, D7)]);
}

#[test]
fn impl_with_multi_line_where_clause_keeps_method_ownership() {
    // The impl's exception covers its method across the where clause; the
    // free helper the method calls is outside it and still trips.
    assert_eq!(findings("where_clause_impl"), vec![at(10, D7)]);
}

#[test]
fn findings_order_is_stable_for_identical_content() {
    let a = findings_in_order("order");
    assert_eq!(a, vec![at(2, D7), at(3, D2), at(4, D7)]);
    assert_eq!(a, findings_in_order("order_copy"));
}
