//! Structural lint for the lockcheck boundary — compiled and run by
//! `scripts/ci.sh` (`rustc scripts/lint.rs && ./lint <repo root>`), no
//! cargo involvement, no dependencies.
//!
//! One rule, scoped to first-party `.rs` sources (`crates/`, `src/`,
//! excluding `crates/lockcheck` and anything under `vendor/` or `target/`):
//! **no hidden locks.** Every lock must go through the
//! `actorspace_lockcheck` wrappers so the `--features lockcheck` build
//! instruments it and `lock.<class>.*` timing counts it; a raw lock would
//! be invisible to both. So no first-party source names `parking_lot`, and
//! none names `std::sync::{Mutex, RwLock, Condvar}` above its first
//! `#[cfg(test)]` (test code may use std locks). Only `crates/lockcheck`
//! (the wrapper itself) and the vendored crates are exempt.
//!
//! Comments and string literals are stripped (preserving line numbers)
//! before matching, so prose mentioning `parking_lot` is fine.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = PathBuf::from(root);
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();

    let mut errors = Vec::new();
    for f in &files {
        if f.starts_with(root.join("crates/lockcheck")) {
            continue;
        }
        let Ok(text) = fs::read_to_string(f) else {
            continue;
        };
        let code = strip_comments_and_strings(&text);
        let shown = f.strip_prefix(&root).unwrap_or(f).display();
        for (ln, line) in code.lines().enumerate() {
            if line.contains("parking_lot") {
                errors.push(format!(
                    "{shown}:{}: raw `parking_lot` outside crates/lockcheck — \
                     use the actorspace_lockcheck wrappers",
                    ln + 1
                ));
            }
        }
        for (ln, what) in std_locks_outside_tests(&code) {
            errors.push(format!(
                "{shown}:{ln}: `std::sync::{what}` outside test code — \
                 use the actorspace_lockcheck wrappers"
            ));
        }
    }

    if errors.is_empty() {
        println!("lockcheck lint: ok ({} files)", files.len());
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("lockcheck lint: {e}");
        }
        eprintln!("lockcheck lint: {} violation(s)", errors.len());
        ExitCode::FAILURE
    }
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "vendor" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Blanks comments and string literals with spaces (newlines kept), so
/// later passes see code tokens at their original line numbers.
fn strip_comments_and_strings(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                while i < b.len() && b[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let mut depth = 1;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        i += 1;
                        out.push(' ');
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        i += 1;
                        out.push(' ');
                    }
                    out.push(if b[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
                continue;
            }
            '"' => {
                // String literal (raw strings lose their hashes — fine for
                // matching purposes).
                out.push('"');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                    if b[i] == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    }
                    out.push(if b[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
                continue;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Finds `std::sync::Mutex` / `RwLock` / `Condvar` named above the first
/// `#[cfg(test)]`, directly or inside a `use std::sync::{…}` group.
/// Returns (1-based line, type name).
fn std_locks_outside_tests(code: &str) -> Vec<(usize, &'static str)> {
    const LOCKS: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
    const PREFIX: &str = "std::sync::";
    let code = &code[..code.find("#[cfg(test)]").unwrap_or(code.len())];
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(PREFIX) {
        let start = from + pos + PREFIX.len();
        let rest = &code[start..];
        // The names this path reaches: a `{…}` group or one identifier.
        let end = if rest.starts_with('{') {
            let mut depth = 0usize;
            rest.char_indices()
                .find(|&(_, c)| {
                    match c {
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                    depth == 0
                })
                .map_or(rest.len(), |(i, _)| i + 1)
        } else {
            rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len())
        };
        let mut at = start;
        for word in rest[..end].split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if let Some(&lock) = LOCKS.iter().find(|&&l| l == word) {
                hits.push((code[..at].matches('\n').count() + 1, lock));
            }
            at += word.len() + 1;
        }
        from = start + end;
    }
    hits
}
