//! The line and panic-site ratchet. Per crate it counts the non-test
//! lines — each `src/` file up to its first `#[cfg(test)]` — and the
//! panic sites in them: `assert!`, `assert_eq!`, `assert_ne!`,
//! `unwrap()`, `expect(`, `panic!` and `unreachable!` as whole tokens,
//! outside comments. The system crates (every crate under `crates/` but
//! the `bench` harness and `test-support`) are held to
//! `baselines/ratchet.txt`; `bench` and `benchmark/src` are reported and
//! not held. A change that moves a count commits the table this test
//! prints (`cargo test --test ratchet -- --nocapture` shows it on a pass).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The committed table, relative to the repository root.
const TABLE: &str = "baselines/ratchet.txt";

/// The directory under `crates/` of the harness, reported and not held.
const HARNESS: &str = "bench";

/// The directory under `crates/` of the test helpers, not counted.
const TEST_HELPERS: &str = "test-support";

/// The tokens counted as panic sites, each where no identifier character
/// precedes it (so `debug_assert!` and `expect_err(` are not counted).
const PANIC_SITES: [&str; 7] = [
    "assert!",
    "assert_eq!",
    "assert_ne!",
    "unwrap()",
    "expect(",
    "panic!",
    "unreachable!",
];

/// `(non-test lines, panic sites)` of one source file.
fn count_source(src: &str) -> (usize, usize) {
    let lines: Vec<&str> = src
        .lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .collect();
    let code = strip_comments(&lines.join("\n"));
    let sites = PANIC_SITES.iter().map(|site| {
        (code.match_indices(site))
            .filter(|&(i, _)| {
                let before = code[..i].chars().next_back();
                !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            })
            .count()
    });
    (lines.len(), sites.sum())
}

/// `src` with every `//` comment cut to its line end; a `//` inside a
/// string literal is not a comment.
fn strip_comments(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let (mut in_str, mut in_comment) = (false, false);
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if in_comment {
            in_comment = c != '\n';
            if !in_comment {
                out.push(c);
            }
            continue;
        }
        match c {
            '\\' if in_str => {
                out.push(c);
                out.extend(chars.next());
                continue;
            }
            '"' => in_str = !in_str,
            // The character literal '"' opens no string.
            '\'' if !in_str && chars.peek() == Some(&'"') => {
                out.push(c);
                out.extend(chars.next());
                continue;
            }
            '/' if !in_str && chars.peek() == Some(&'/') => {
                in_comment = true;
                continue;
            }
            _ => {}
        }
        out.push(c);
    }
    out
}

/// `(non-test lines, panic sites)` of every `.rs` file under `dir`.
fn count_dir(dir: &Path) -> (usize, usize) {
    let mut total = (0, 0);
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("a directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let (lines, sites) = if path.is_dir() {
            count_dir(&path)
        } else if path.extension().is_some_and(|x| x == "rs") {
            count_source(&fs::read_to_string(&path).expect("a UTF-8 source file"))
        } else {
            continue;
        };
        total = (total.0 + lines, total.1 + sites);
    }
    total
}

/// The package name in `dir/Cargo.toml`.
fn package_name(dir: &Path) -> String {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("a crate manifest");
    let line = (manifest.lines())
        .find(|l| l.starts_with("name"))
        .expect("a package name");
    line.split('"').nth(1).expect("a quoted name").to_string()
}

/// The counts of every crate under `crates/`, system crates first: `(name,
/// counts, held)`, then `benchmark/src`, not held.
fn measure(root: &Path) -> Vec<(String, (usize, usize), bool)> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("the crates directory")
        .map(|e| e.expect("a directory entry").path())
        .collect();
    dirs.sort();
    let mut rows: Vec<_> = (dirs.iter())
        .filter(|d| !d.ends_with(TEST_HELPERS))
        .map(|d| {
            let held = !d.ends_with(HARNESS);
            (package_name(d), count_dir(&d.join("src")), held)
        })
        .collect();
    rows.sort_by_key(|r| (!r.2, r.0.clone()));
    rows.push((
        "benchmark/src".to_string(),
        count_dir(&root.join("benchmark/src")),
        false,
    ));
    rows
}

/// The table as committed: the held rows and their total.
fn render(rows: &[(String, (usize, usize), bool)]) -> String {
    let mut out = String::from(
        "# Non-test lines and panic sites per system crate, held by tests/ratchet.rs.\n\
         # crate lines panic_sites\n",
    );
    let held: Vec<_> = rows.iter().filter(|r| r.2).collect();
    for (name, (lines, sites), _) in &held {
        out += &format!("{name:<14} {lines:>6} {sites:>4}\n");
    }
    let lines: usize = held.iter().map(|r| r.1 .0).sum();
    let sites: usize = held.iter().map(|r| r.1 .1).sum();
    out += &format!("{:<14} {lines:>6} {sites:>4}\n", "total");
    out
}

/// The committed table as `name → (lines, panic sites)`.
fn parse(table: &str) -> BTreeMap<String, (usize, usize)> {
    (table.lines())
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let num = |s: &str| s.parse().unwrap_or_else(|_| panic!("{TABLE}: {l}"));
            (f[0].to_string(), (num(f[1]), num(f[2])))
        })
        .collect()
}

#[test]
fn every_system_crate_keeps_its_committed_line_and_panic_site_counts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rows = measure(root);
    let table = render(&rows);
    let mut report = table.clone();
    for (name, (lines, sites), held) in &rows {
        if !held {
            report += &format!("{name:<14} {lines:>6} {sites:>4}  (not held)\n");
        }
    }
    println!("{report}");
    let committed = fs::read_to_string(root.join(TABLE)).expect("the committed table");
    let (want, got) = (parse(&committed), parse(&table));
    let moved: Vec<String> = (want.keys().chain(got.keys()))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .filter(|name| want.get(*name) != got.get(*name))
        .map(|name| format!("{name}: {:?} -> {:?}", want.get(name), got.get(name)))
        .collect();
    assert!(
        moved.is_empty(),
        "counts differ from {TABLE} ((lines, panic sites)):\n{}\n\ncommit this as {TABLE}:\n{table}",
        moved.join("\n")
    );
}

#[test]
fn a_count_stops_at_the_test_module_and_skips_comments_and_longer_names() {
    let src = r#"// assert!(a) in a comment
fn f(x: Option<u8>) -> u8 {
    assert!(true); assert_eq!(1, 1); // panic!("not counted")
    debug_assert!(true);
    let s = "// assert!(a string, not a comment)"; assert_ne!(s, "");
    let q = '"'; x.expect("y"); x.unwrap(); x.unwrap_or(0); x.expect_err("z");
    if false { unreachable!() } panic!("{q}")
}
#[cfg(test)]
mod tests { fn g() { panic!() } }
"#;
    // Not a comment, so the string's `assert!(` counts too.
    assert_eq!(count_source(src), (8, 8));
}
