//! `srclint` — the workspace's hand-rolled source lint (no external deps).
//!
//! The simulation crates run on **virtual time** (`simclock`): any wall-clock
//! API in non-test code silently breaks determinism and the identity oracles,
//! and a stray `unwrap()`/`expect()` in library code turns a recoverable
//! inner-I/O condition into a panic. The compiler cannot enforce either rule,
//! so CI runs this scanner over the virtual-time crates:
//!
//! * **deny wall-clock**: `Instant::now`, `SystemTime`, `thread::sleep`;
//! * **deny hand-paired gate leases**: `enter_op(`/`exit_op(` anywhere but
//!   the gate itself (`migrate.rs`) and the RAII `Lease` (`tiers.rs`);
//! * **deny compare-and-swap loops** (`compare_exchange`, `fetch_update`):
//!   a lock-free structure saves host time only, and every number these
//!   crates report is virtual time — one would have to argue its way in
//!   through a reviewed change to this rule (the allowlist holds the one
//!   that did: the simulated DIMM's partial-word store);
//! * **deny host-clock timeouts** (`.wait_for(`, `Duration::from_`): a
//!   timeout decides an interleaving by the host's clock, not the model's;
//!   every wait is for an exact notification, and there is no allowlist;
//! * **deny `unwrap()`/`expect()`** outside the reviewed allowlist below.
//!
//! The rules apply to non-test code only — `#[cfg(test)] mod … { … }`
//! blocks, `tests.rs`/`*_tests.rs` files and doc/line comments are skipped.
//! Exit status is non-zero when any violation is found, so the CI lint job
//! fails the build.
//!
//! `srclint --loc` prints, with the same stripping, the non-test,
//! non-comment, non-blank code lines of every crate under `crates/` — the
//! size figure simplification PRs are held to — with every file above
//! [`BIG_FILE`] lines listed under its crate, and exits non-zero when a
//! crate listed in [`LOC_CEILINGS`] has outgrown its ceiling.

use std::path::{Path, PathBuf};

/// Crates whose sources must stay wall-clock-free.
const CRATES: &[&str] = &["core", "nvmm", "fiosim", "traffic", "simclock"];

/// APIs that read or consume wall-clock time.
const WALL_CLOCK: &[&str] = &["Instant::now", "SystemTime", "thread::sleep"];

/// The migration gate's lease calls, and the only files that may spell them:
/// everyone else holds a `tiers::Lease`, which `?`, an early return or an
/// unwind cannot leak.
const LEASE_CALLS: &[&str] = &["enter_op(", "exit_op("];
const LEASE_FILES: &[&str] = &["core/src/migrate.rs", "core/src/tiers.rs"];

/// Compare-and-swap loops: the building block of lock-free structures,
/// which buy host time and no virtual time.
const CAS_CALLS: &[&str] = &["compare_exchange", "fetch_update"];

/// Reviewed `(file suffix, line needle)` sites that may spell one. The DIMM
/// stores a partial word of its word-packed image with one CAS: that is how
/// the model keeps each byte single-copy atomic for loads that take no lock,
/// and it charges no virtual time.
const ALLOW_CAS: &[(&str, &str)] = &[("nvmm/src/dimm.rs", "cell.fetch_update(")];

/// Host-clock timeouts.
const HOST_TIMEOUTS: &[&str] = &[".wait_for(", "Duration::from_"];

/// Reviewed `(file suffix, line needle)` pairs where `unwrap()`/`expect()`
/// in non-test code is deliberate: each one documents an invariant whose
/// violation is a bug in *this* workspace, not a recoverable condition.
/// Keep the needle specific enough to pin one call site.
const ALLOW_PANIC: &[(&str, &str)] = &[
    // Invariant messages: a failure here is internal state corruption.
    ("core/src/cleanup.rs", "entry references a closed fd"),
    ("core/src/cache.rs", "the caller locked every written page"),
    ("core/src/cache.rs", "just installed"),
    ("core/src/cache.rs", "one page per miss"),
    // Thread spawning: no meaningful recovery from a failed spawn at mount.
    ("core/src/cache.rs", "spawn cleanup worker"),
    // Fixed-width header/field decoding: the slices are always 4/8 bytes.
    ("core/src/log.rs", ".try_into().expect("),
    // Crash simulation requires the durable mirror the profile enabled.
    ("nvmm/src/dimm.rs", "crash semantics unavailable"),
    // Histogram bin guaranteed set on the taken branch.
    ("fiosim/src/lib.rs", "bin set"),
    // Reading back the completion entry pushed one statement earlier.
    ("fiosim/src/uring.rs", "just recorded"),
    // A worker is only `ready` while its script has a next op.
    ("traffic/src/engine.rs", "ready worker has an op"),
    // std Mutex poisoning is unreachable: no panic can happen under these
    // locks (pure arithmetic), and simclock cannot depend on parking_lot.
    ("simclock/src/resource.rs", "channel lock"),
    ("simclock/src/resource.rs", "at least one channel"),
];

/// Code-line ceilings of `srclint --loc`, by crate under `crates/`: the
/// figure the crate's last simplification reached, so that what a
/// simplification removed does not grow back unnoticed. Raising a ceiling
/// is a reviewed one-line diff here, by no more than what a measured change
/// had to add.
const LOC_CEILINGS: &[(&str, usize)] = &[("core", 4737), ("nvmm", 882), ("vfs", 2484)];

/// Code lines above which `--loc` names a file under its crate: the split
/// candidates, as a number CI shows.
const BIG_FILE: usize = 600;

fn main() {
    let root = workspace_root();
    if std::env::args().any(|a| a == "--loc") {
        if !print_loc(&root) {
            std::process::exit(1);
        }
        return;
    }
    let mut violations: Vec<String> = Vec::new();
    let mut scanned = 0usize;
    for krate in CRATES {
        let src = root.join("crates").join(krate).join("src");
        for file in rs_files(&src) {
            scanned += 1;
            scan_file(&root, &file, &mut violations);
        }
    }
    if violations.is_empty() {
        println!("srclint: {scanned} files clean");
        return;
    }
    eprintln!("srclint: {} violation(s):", violations.len());
    for v in &violations {
        eprintln!("  {v}");
    }
    std::process::exit(1);
}

/// Prints the code-line count of every crate under `crates/`, and the total;
/// `false` when a crate exceeds its entry in [`LOC_CEILINGS`].
fn print_loc(root: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return true;
    };
    let mut crates: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    crates.sort();
    let (mut total, mut within) = (0, true);
    for krate in crates.iter().filter(|p| p.is_dir()) {
        let (mut lines, mut big) = (0, Vec::new());
        for file in rs_files(&krate.join("src")) {
            let here = code_lines(&std::fs::read_to_string(&file).unwrap_or_default());
            lines += here;
            if here > BIG_FILE {
                big.push((here, file));
            }
        }
        let name = krate.file_name().unwrap_or_default().to_string_lossy();
        match LOC_CEILINGS.iter().find(|(listed, _)| *listed == name) {
            Some((_, ceiling)) if lines > *ceiling => {
                println!("{lines:>7}  crates/{name}  EXCEEDS its ceiling of {ceiling}");
                within = false;
            }
            Some((_, ceiling)) => println!("{lines:>7}  crates/{name}  (ceiling {ceiling})"),
            None => println!("{lines:>7}  crates/{name}"),
        }
        for (here, file) in big {
            let file = file.strip_prefix(krate).unwrap_or(&file);
            println!("{here:>11}  {}", file.display());
        }
        total += lines;
    }
    println!("{total:>7}  total (non-test, non-comment, non-blank lines)");
    within
}

/// The workspace root: `CARGO_MANIFEST_DIR` when cargo provides it (it
/// always does for `cargo run --bin srclint`), the current directory
/// otherwise.
fn workspace_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// All `.rs` files under `dir`, recursively, in sorted order (deterministic
/// reports), excluding whole-file test modules (`tests.rs`, `*_tests.rs`).
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rs_files(&path));
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let is_test_file = name == "tests.rs" || name.ends_with("_tests.rs");
        if name.ends_with(".rs") && !is_test_file {
            out.push(path);
        }
    }
    out
}

/// The non-test, non-comment, non-blank lines of `text`.
fn code_lines(text: &str) -> usize {
    let mut lines = 0;
    for_each_code_line(text, |_, _, code| lines += usize::from(!code.trim().is_empty()));
    lines
}

fn scan_file(root: &Path, path: &Path, violations: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        violations.push(format!("{}: unreadable", path.display()));
        return;
    };
    let rel = path.strip_prefix(root).unwrap_or(path);
    scan_text(&rel.to_string_lossy().replace('\\', "/"), &text, violations);
}

/// Checks every rule on `text`, the source of the file at `rel`.
fn scan_text(rel: &str, text: &str, violations: &mut Vec<String>) {
    for_each_code_line(text, |lineno, raw, line| {
        for api in WALL_CLOCK {
            if line.contains(api) {
                violations
                    .push(format!("{rel}:{lineno}: wall-clock API `{api}` in virtual-time code"));
            }
        }
        for call in CAS_CALLS {
            let allowed = ALLOW_CAS
                .iter()
                .any(|(file, needle)| rel.ends_with(file) && line.contains(needle));
            if line.contains(call) && !allowed {
                violations.push(format!(
                    "{rel}:{lineno}: compare-and-swap `{call}` in virtual-time code (a lock \
                     does the same in virtual time)"
                ));
            }
        }
        if HOST_TIMEOUTS.iter().any(|t| line.contains(t)) {
            violations.push(format!(
                "{rel}:{lineno}: host-clock timeout in virtual-time code (wait for an exact \
                 notification instead)"
            ));
        }
        for call in LEASE_CALLS {
            if line.contains(call) && !LEASE_FILES.iter().any(|file| rel.ends_with(file)) {
                violations.push(format!(
                    "{rel}:{lineno}: hand-paired gate lease `{call}…)` (hold a `tiers::Lease`)"
                ));
            }
        }
        let panicky = line.contains(".unwrap()") || line.contains(".expect(");
        if panicky {
            let allowed = ALLOW_PANIC
                .iter()
                .any(|(file, needle)| rel.ends_with(file) && raw.contains(needle));
            if !allowed {
                violations.push(format!(
                    "{rel}:{lineno}: unwrap()/expect() in non-test code (add a reviewed \
                     allowlist entry in src/bin/srclint.rs if deliberate)"
                ));
            }
        }
    });
}

/// Calls `f(line number, raw line, line without comments)` for every line
/// of `text` outside `#[cfg(test)] mod … { … }` blocks (the attribute lines
/// themselves are skipped too).
fn for_each_code_line(text: &str, mut f: impl FnMut(usize, &str, &str)) {
    // Brace-tracked exclusion of `#[cfg(test)] mod … { … }` (and
    // `#[cfg(all(test, …))]`) blocks: after the attribute, skip until the
    // module's braces balance again. A plain block scanner is enough — the
    // tree never puts an unbalanced brace in a string literal at module
    // scope, and rustfmt keeps the attribute and `mod` adjacent.
    let mut in_test_block = false;
    let mut depth: i32 = 0;
    let mut pending_test_attr = false;
    let mut carry = Carry::Code;

    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comments(raw, &mut carry);
        let trimmed = line.trim();

        if in_test_block {
            depth += brace_delta(&line);
            if depth <= 0 {
                in_test_block = false;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)") || trimmed.starts_with("#[cfg(all(test") {
            pending_test_attr = true;
            continue;
        }
        if pending_test_attr {
            // The attribute may gate a `use`, an item, or the test module
            // itself; only a `mod` opens a block we must skip. An attribute
            // stack (`#[cfg(test)]` + `#[allow(…)]`) keeps the flag alive.
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                if trimmed.ends_with(';') {
                    pending_test_attr = false; // out-of-line test module file
                } else {
                    in_test_block = true;
                    pending_test_attr = false;
                    depth = brace_delta(&line);
                    if depth <= 0 {
                        in_test_block = false;
                    }
                }
                continue;
            }
            if !trimmed.starts_with("#[") {
                pending_test_attr = false;
            }
            continue;
        }
        f(lineno + 1, raw, &line);
    }
}

/// Where the scanner is when a line ends: a block comment and a string
/// literal may both run on into the next line.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Carry {
    Code,
    BlockComment,
    Str,
}

/// Strips line comments and (statefully) block comments. String literal
/// contents are left in place, which is fine for the needles we search, but
/// a `//` or `/*` inside one opens no comment; a `'"'` char literal opens no
/// string.
fn strip_comments(line: &str, carry: &mut Carry) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let at = |i: usize| bytes.get(i).copied();
    let mut i = 0;
    while i < bytes.len() {
        let mut len = 1;
        match (*carry, bytes[i], at(i + 1)) {
            (Carry::BlockComment, b'*', Some(b'/')) => {
                *carry = Carry::Code;
                i += 2;
                continue;
            }
            (Carry::BlockComment, ..) => {
                i += 1;
                continue;
            }
            (Carry::Str, b'\\', _) => len = 2,
            (Carry::Str, b'"', _) => *carry = Carry::Code,
            (Carry::Code, b'/', Some(b'/')) => break, // line comment (incl. doc comments)
            (Carry::Code, b'/', Some(b'*')) => {
                *carry = Carry::BlockComment;
                i += 2;
                continue;
            }
            (Carry::Code, b'"', _) => *carry = Carry::Str,
            // A char literal: `'\x'` (escaped) or `'x'`; a lone `'` is a lifetime.
            (Carry::Code, b'\'', Some(b'\\')) => {
                let close =
                    bytes.get(i + 3..).and_then(|rest| rest.iter().position(|&b| b == b'\''));
                len = close.map_or(1, |end| end + 4);
            }
            (Carry::Code, b'\'', _) if at(i + 2) == Some(b'\'') => len = 3,
            _ => {}
        }
        for &b in &bytes[i..(i + len).min(bytes.len())] {
            out.push(b as char);
        }
        i += len;
    }
    out
}

fn brace_delta(line: &str) -> i32 {
    let mut d = 0;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `/*` inside a string literal opens no block comment: the lines
    /// after it are still linted.
    #[test]
    fn a_comment_opener_in_a_string_hides_no_later_line() {
        let text = "let placement = \"placement of /hot/**: {n}\";\nlet t = Instant::now();\n";
        let mut violations = Vec::new();
        scan_text("core/src/x.rs", text, &mut violations);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("core/src/x.rs:2: wall-clock API `Instant::now`"));
    }

    /// `--loc` counts every code line of a file holding such a string, and
    /// none of its comments.
    #[test]
    fn a_comment_opener_in_a_string_is_counted_as_code() {
        let text = r#"fn f() -> String {
    let quote = '"'; // a char literal opens no string
    let escaped = "a \" then /* and // in one string";
    /* a real
       block comment */
    format!("{quote}{escaped} placement of /hot/**")
}
"#;
        assert_eq!(code_lines(text), 5);
    }
}
