//! The `PYTOND_*` inventory: the set of `"PYTOND_…"` string literals in the
//! non-test source under `crates/` and `shims/` must equal the variables
//! the README's environment table lists. An undocumented knob cannot land,
//! and a deleted one cannot linger in the table.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every `.rs` file under `dir`, integration-test directories excluded.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "tests") {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `PYTOND_…` names in `text`; with `quoted`, only whole string
/// literals (`"PYTOND_X"`).
fn names(text: &str, quoted: bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (at, _) in text.match_indices("PYTOND_") {
        let rest = &text[at..];
        let len = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        let is_literal = text[..at].ends_with('"') && rest[len..].starts_with('"');
        if len > "PYTOND_".len() && (is_literal || !quoted) {
            out.insert(rest[..len].to_string());
        }
    }
    out
}

#[test]
fn readme_table_lists_exactly_the_variables_the_code_reads() {
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        sources(&Path::new(ROOT).join(dir), &mut files);
    }
    let mut read = BTreeSet::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap();
        // Unit-test modules sit at the end of their file.
        let product = text.split("#[cfg(test)]").next().unwrap();
        read.extend(names(product, true));
    }

    let readme = fs::read_to_string(Path::new(ROOT).join("README.md")).unwrap();
    let section = readme
        .split("\n## Environment variables\n")
        .nth(1)
        .expect("README has an environment-variable section");
    let section = section.split("\n## ").next().unwrap();
    let rows: Vec<&str> = section
        .lines()
        .filter(|l| l.starts_with("| `PYTOND_"))
        .collect();
    let mut documented = BTreeSet::new();
    for row in &rows {
        // The first cell names the row's variables.
        let first = row.split('|').nth(1).unwrap();
        let found = names(first, false);
        assert!(!found.is_empty(), "README row names no variable: {row}");
        documented.extend(found);
    }

    assert_eq!(
        read.difference(&documented).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "read by the code but missing from the README table"
    );
    assert_eq!(
        documented.difference(&read).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "listed in the README table but read nowhere"
    );
}
