//! Structural fences: rules about the shape of the source tree that no
//! behavioural test can see, checked by reading the files themselves.
//! Each `#[test]` is one fence; its doc comment says what it keeps out
//! and why.

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` (relative to the root), recursively, skipping
/// build output; sorted, so a failure names files in a stable order.
fn files_under(dir: &str) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&root().join(dir), &mut out);
    out.sort();
    out
}

/// The `.rs` files under `dir`.
fn rust_files_under(dir: &str) -> Vec<PathBuf> {
    files_under(dir)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect()
}

/// `path` relative to the root, for messages.
fn shown(path: &Path) -> String {
    path.strip_prefix(root()).unwrap_or(path).display().to_string()
}

/// The file's shipping lines as `(line number, text)`: everything above
/// its first column-0 `#[cfg(test)]`, less the lines that are only a
/// `//` comment (doc comments included).
fn shipping_lines(path: &Path) -> Vec<(usize, String)> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .enumerate()
        .take_while(|(_, line)| !line.starts_with("#[cfg(test)]"))
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .map(|(i, line)| (i + 1, line.to_string()))
        .collect()
}

/// `file:line` of every shipping line under `dir` that `bad` matches.
fn shipping_hits(dir: &str, bad: impl Fn(&str) -> bool) -> Vec<String> {
    rust_files_under(dir)
        .iter()
        .flat_map(|path| {
            shipping_lines(path)
                .into_iter()
                .filter(|(_, line)| bad(line))
                .map(move |(n, _)| format!("{}:{n}", shown(path)))
        })
        .collect()
}

/// Does `line` read a field named exactly `reference`?
fn reads_reference_field(line: &str) -> bool {
    line.match_indices(".reference").any(|(at, m)| {
        line[at + m.len()..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'))
    })
}

/// One engine core. The simulator is components over one core state and
/// one engine path (DESIGN §11): no source file of it outgrows 800
/// lines, no shipping engine code reads a `.reference` field, and the
/// retired second path (its flag, its setters, its queue variant, the
/// oracle that diffed the two) stays gone everywhere. Each optimization
/// is held to a test-only referent instead. Shipping simulator code
/// holds no `unreachable!`: a lookup that cannot fail is written as one
/// borrow, not re-checked.
#[test]
fn one_engine_core() {
    let long: Vec<String> = rust_files_under("crates/sim/src")
        .iter()
        .filter_map(|path| {
            let n = fs::read_to_string(path).expect("readable").lines().count();
            (n > 800).then(|| format!("{} ({n} lines)", shown(path)))
        })
        .collect();
    assert!(long.is_empty(), "over 800 lines: {long:?}");

    let found = shipping_hits("crates/sim/src/engine", reads_reference_field);
    assert!(found.is_empty(), "reference flag read in: {found:?}");

    let found = shipping_hits("crates/sim/src", |line| line.contains("unreachable!"));
    assert!(found.is_empty(), "unreachable! in shipping simulator code: {found:?}");

    // The retired path's names, anywhere in the sources but this file,
    // which has to spell them.
    let retired = [
        "use_reference_engine",
        "with_reference_engine",
        "new_reference",
        "check_engine_equivalence",
        "QueueImpl",
        "Topo::reference",
    ];
    let this = root().join(file!());
    let back: Vec<String> = ["crates", "tests", "examples", "src"]
        .iter()
        .flat_map(|dir| files_under(dir))
        .filter(|path| *path != this)
        .flat_map(|path| {
            let text = String::from_utf8_lossy(&fs::read(&path).expect("readable")).into_owned();
            retired
                .iter()
                .filter(|name| text.contains(*name))
                .map(|name| format!("{}: {name}", shown(&path)))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(back.is_empty(), "second engine path is back: {back:?}");
}

#[test]
fn the_reference_rule_matches_a_field_read_only() {
    assert!(reads_reference_field("if self.reference {"));
    assert!(reads_reference_field("let r = cfg.reference"));
    assert!(!reads_reference_field("let r = cfg.reference_count;"));
    assert!(!reads_reference_field("see the reference engine"));
}
