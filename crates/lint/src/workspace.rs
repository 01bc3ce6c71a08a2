//! Workspace file discovery.
//!
//! Walks a root directory for `.rs` sources in **sorted path order** — the
//! file order is part of the byte-determinism contract of the JSON report.
//!
//! The walk is extension-driven, not directory-list-driven: every `.rs`
//! file under the root is included unless a rule below excludes it, so the
//! root `examples/` and `tests/` trees, per-crate `tests/`, `benches/` and
//! `src/bin/` directories, and the vendored `crates/shims/` all get linted
//! without being enumerated anywhere (the shims are instead made inert by
//! the *path policies*, not by the walk). The only exclusions are:
//!
//! - build output (`target/`) and dot-prefixed directories (VCS metadata,
//!   editor state),
//! - this crate's seeded-violation corpus (any `tests/fixtures/`
//!   directory), whose files are deliberate rule trips and are only ever
//!   linted when passed to the CLI explicitly.
//!
//! `lint_gate.rs` pins the walked set against an independent enumeration of
//! the real tree, so a gap here fails CI rather than silently un-linting a
//! source tree.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into (dot-prefixed directories are
/// skipped unconditionally).
const SKIP_DIRS: [&str; 1] = ["target"];

/// Path suffix of the seeded-violation corpus, excluded from default walks.
const FIXTURE_MARKER: &str = "tests/fixtures";

/// Recursively collects every `.rs` file under `root`, sorted by path.
pub fn discover(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if normalize(&path).ends_with(FIXTURE_MARKER) {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Renders `path` relative to `root` with forward slashes — the canonical
/// path form used in findings and pragma lookups.
pub fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    normalize(rel)
}

fn normalize(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/ws");
        let rel = relative(root, Path::new("/ws/crates/lab/src/report.rs"));
        assert_eq!(rel, "crates/lab/src/report.rs");
    }

    #[test]
    fn discover_skips_fixtures_and_target() {
        let dir = std::env::temp_dir().join(format!("fdn-lint-walk-{}", std::process::id()));
        let fixtures = dir.join("tests/fixtures");
        let target = dir.join("target");
        let src = dir.join("src");
        for d in [&fixtures, &target, &src] {
            std::fs::create_dir_all(d).unwrap();
        }
        std::fs::write(fixtures.join("violations.rs"), "unsafe {}").unwrap();
        std::fs::write(target.join("gen.rs"), "unsafe {}").unwrap();
        std::fs::write(src.join("b.rs"), "fn b() {}").unwrap();
        std::fs::write(src.join("a.rs"), "fn a() {}").unwrap();
        let found = discover(&dir).unwrap();
        let rels: Vec<String> = found.iter().map(|p| relative(&dir, p)).collect();
        assert_eq!(rels, vec!["src/a.rs", "src/b.rs"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
