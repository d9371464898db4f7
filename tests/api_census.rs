//! The half of the conventions gate that no compiler or clippy lint can
//! carry, run by `cargo test` (README § Static analysis).
//!
//! **`S1.caller`: code whose only caller is a test is not product.** A
//! non-test library `pub fn` that no other file names, and that its own file
//! names only where it is defined and under `#[cfg(test)]` / `#[test]`, fails
//! [`every_pub_fn_has_a_caller_outside_its_own_tests`]: delete it with the
//! tests that have no other subject, or give it a caller. Callers are
//! `tests/`, `examples/`, `src/bin/` and `benchmark/src`. The census counts
//! *names*, so a caller-less fn whose name a field or another fn shares is
//! invisible to it. [`every_product_lib_opts_into_the_clippy_carried_rules`]
//! checks that every product crate opts into the rules clippy carries, and
//! [`only_the_facade_declares_a_prelude`] that no crate grows a second
//! re-export path. [`every_privacy_pin_names_an_item_its_crate_declares`]
//! keeps the `compile_fail,E0432` doctests that pin an item as private from
//! outliving the item: once it is deleted, the pin fails to compile for the
//! wrong reason.
//! The scrub and the per-file scan are `tests/common/{lexer,scan}.rs`, whose
//! unit tests the facade's `src/lib.rs` runs too.

#[path = "common/lexer.rs"]
mod lexer;
#[path = "common/scan.rs"]
mod scan;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lexer::{is_ident_char, scrub};
use scan::{mentions, test_only_pub_fns};

/// The workspace root, which holds this test's package.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir` (none if it does not exist), outside
/// subdirectories named `bin`: binaries are callers, not library code.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return files;
    };
    for entry in entries {
        let path = entry.expect("directory entries are readable").path();
        if path.is_dir() {
            if !path.ends_with("bin") {
                files.extend(rs_files(&path));
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// The packages the gate covers: the root facade and every crate under
/// `crates/` but the `compat` shims.
fn packages() -> Vec<PathBuf> {
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ is readable");
    let mut packages: Vec<PathBuf> = crates
        .map(|entry| entry.expect("directory entries are readable").path())
        .filter(|path| !path.ends_with("compat"))
        .collect();
    packages.push(root().to_path_buf());
    packages
}

/// Every library source file: each package's `src/` without `src/bin/`,
/// sorted.
fn library_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = packages()
        .iter()
        .flat_map(|package| rs_files(&package.join("src")))
        .collect();
    files.sort();
    files
}

#[test]
fn every_pub_fn_has_a_caller_outside_its_own_tests() {
    let library = library_files();
    assert!(
        library.len() > 50,
        "expected every library crate: {library:?}"
    );
    let mut callers = rs_files(&root().join("benchmark/src"));
    for package in packages() {
        for dir in ["tests", "examples", "src/bin"] {
            callers.extend(rs_files(&package.join(dir)));
        }
    }
    let sources: Vec<String> = library
        .iter()
        .chain(&callers)
        .map(std::fs::read_to_string)
        .collect::<Result<_, _>>()
        .expect("listed files are readable");
    let census = mentions(sources.iter().map(String::as_str));
    let mut found = Vec::new();
    for (path, src) in library.iter().zip(&sources) {
        let path = path.strip_prefix(root()).unwrap_or(path).display();
        for (line, name) in test_only_pub_fns(src, &census) {
            found.push(format!("{path}:{line}: `pub fn {name}`"));
        }
    }
    assert!(
        found.is_empty(),
        "S1.caller: mentioned only by their own file's tests — delete each with the tests \
         that have no other subject, or give it a caller:\n{}",
        found.join("\n")
    );
}

/// A new crate that forgets the deny line, or a `clippy.toml` that loses a
/// path, fails `cargo test` — no clippy run needed to notice.
#[test]
fn every_product_lib_opts_into_the_clippy_carried_rules() {
    const DENY: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
        clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented,\
        clippy::iter_over_hash_type,clippy::disallowed_methods,\
        clippy::allow_attributes_without_reason";
    const PATHS: &str = "std::time::Instant::now std::time::SystemTime::now \
        scream_scheduling::schedule::Schedule::slots \
        std::collections::HashSet::iter std::collections::HashSet::drain \
        std::collections::HashMap::iter std::collections::HashMap::iter_mut \
        std::collections::HashMap::keys std::collections::HashMap::values \
        std::collections::HashMap::values_mut std::collections::HashMap::drain \
        std::collections::HashMap::into_keys std::collections::HashMap::into_values";
    // The census's own scope, so the two halves of the gate cannot drift.
    let mut libs = library_files();
    libs.retain(|path| path.ends_with("src/lib.rs"));
    assert!(libs.len() >= 11, "facade + ten crates: {libs:?}");
    for lib in libs {
        let src = std::fs::read_to_string(&lib).expect("listed file is readable");
        let squashed: String = src.chars().filter(|c| !c.is_whitespace()).collect();
        // F1.eq's scope: the three crates whose floats decide verdicts.
        let verdict = ["traffic", "resilience", "analysis"]
            .iter()
            .any(|krate| lib.starts_with(root().join("crates").join(krate)));
        let float_cmp = if verdict { ",clippy::float_cmp" } else { "" };
        let want = format!("{DENY}{float_cmp}))]");
        assert!(squashed.contains(&want), "{lib:?} must open with {want}");
    }
    let toml = std::fs::read_to_string(root().join("clippy.toml")).expect("clippy.toml exists");
    for path in PATHS.split_whitespace() {
        let entry = format!("path = \"{path}\"");
        assert!(toml.contains(&entry), "clippy.toml must list {entry}");
    }
}

/// One re-export path: a crate's items are imported from its root, and the
/// facade's `scream::prelude` is the one glob, naming each item once. A
/// crate that grows its own `prelude` again fails `cargo test`.
#[test]
fn only_the_facade_declares_a_prelude() {
    let declares = |lib: &Path| {
        std::fs::read_to_string(lib)
            .expect("listed file is readable")
            .lines()
            .any(|line| line.trim_start().starts_with("pub mod prelude"))
    };
    let facade = root().join("src/lib.rs");
    assert!(declares(&facade), "the facade keeps `scream::prelude`");
    let crates: Vec<PathBuf> = library_files()
        .into_iter()
        .filter(|path| path.ends_with("src/lib.rs") && *path != facade)
        .collect();
    assert!(crates.len() >= 10, "ten crates: {crates:?}");
    let with_prelude: Vec<&PathBuf> = crates.iter().filter(|lib| declares(lib)).collect();
    assert!(
        with_prelude.is_empty(),
        "import from the crate root; only the facade has a prelude: {with_prelude:?}"
    );
}

/// The keywords that open a named item.
const ITEM_KEYWORDS: [&str; 9] = [
    "struct", "enum", "union", "trait", "type", "fn", "const", "static", "mod",
];

/// The names a source file declares as items, read from its scrubbed text:
/// each identifier that follows an item keyword.
fn declared_names(src: &str) -> BTreeSet<String> {
    let scrubbed = scrub(src);
    let words: Vec<&str> = scrubbed
        .split(|c: char| !is_ident_char(c))
        .filter(|word| !word.is_empty())
        .collect();
    words
        .windows(2)
        .filter(|pair| ITEM_KEYWORDS.contains(&pair[0]))
        .map(|pair| pair[1].to_string())
        .collect()
}

/// A `compile_fail,E0432` doctest whose one line is `use <crate>::Name;`
/// pins `Name` as private to its crate. It fails to compile for the right
/// reason only while the crate's `src/` still declares `Name`; a pin on a
/// deleted item passes for nothing, so it goes with the item.
#[test]
fn every_privacy_pin_names_an_item_its_crate_declares() {
    let (mut pins, mut stale) = (0, Vec::new());
    for package in packages() {
        let manifest =
            std::fs::read_to_string(package.join("Cargo.toml")).expect("every package has one");
        let name = manifest
            .lines()
            .find_map(|line| line.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("the manifest names its package");
        let krate = name.replace('-', "_");
        let files = rs_files(&package.join("src"));
        let sources: Vec<String> = files
            .iter()
            .map(std::fs::read_to_string)
            .collect::<Result<_, _>>()
            .expect("listed files are readable");
        let declared: BTreeSet<String> =
            sources.iter().flat_map(|src| declared_names(src)).collect();
        for (path, src) in files.iter().zip(&sources) {
            let doc: Vec<&str> = src
                .lines()
                .map(|line| {
                    let line = line.trim_start();
                    let text = line
                        .strip_prefix("//!")
                        .or_else(|| line.strip_prefix("///"));
                    text.unwrap_or("").trim()
                })
                .collect();
            for (at, pair) in doc.windows(2).enumerate() {
                if pair[0] != "```compile_fail,E0432" {
                    continue;
                }
                let pinned = pair[1]
                    .strip_prefix(&format!("use {krate}::"))
                    .and_then(|rest| rest.strip_suffix(';'));
                let Some(item) = pinned else {
                    continue;
                };
                pins += 1;
                if !declared.contains(item) {
                    let path = path.strip_prefix(root()).unwrap_or(path).display();
                    stale.push(format!("{path}:{}: `use {krate}::{item};`", at + 2));
                }
            }
        }
    }
    assert!(pins >= 4, "expected netsim's privacy pins, found {pins}");
    assert!(
        stale.is_empty(),
        "privacy pins on items their crate no longer declares — delete each with its item:\n{}",
        stale.join("\n")
    );
}
