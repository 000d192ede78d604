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
//!   through a reviewed change to this rule;
//! * **deny host-clock timeouts** (`.wait_for(`, `Duration::from_`): a
//!   timeout decides an interleaving by the host's clock, not the model's;
//!   the reviewed allowlist holds the polls still waiting for exact
//!   notifications and may only shrink;
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

/// Host-clock timeouts, and the reviewed `(file suffix, line needle)` sites
/// that may still spell one: the stripe's 1 ms poll for cleanup work.
/// Entries leave this list; none join it.
const HOST_TIMEOUTS: &[&str] = &[".wait_for(", "Duration::from_"];
const ALLOW_TIMEOUT: &[(&str, &str)] = &[("core/src/log.rs", "self.work_cv.wait_for(")];

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
const LOC_CEILINGS: &[(&str, usize)] = &[("core", 4864), ("vfs", 2577)];

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
            let text = std::fs::read_to_string(&file).unwrap_or_default();
            let mut here = 0;
            for_each_code_line(&text, |_, _, code| here += usize::from(!code.trim().is_empty()));
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

fn scan_file(root: &Path, path: &Path, violations: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        violations.push(format!("{}: unreadable", path.display()));
        return;
    };
    let rel = path.strip_prefix(root).unwrap_or(path);
    let rel = rel.to_string_lossy().replace('\\', "/");

    for_each_code_line(&text, |lineno, raw, line| {
        for api in WALL_CLOCK {
            if line.contains(api) {
                violations
                    .push(format!("{rel}:{lineno}: wall-clock API `{api}` in virtual-time code"));
            }
        }
        for call in CAS_CALLS {
            if line.contains(call) {
                violations.push(format!(
                    "{rel}:{lineno}: compare-and-swap `{call}` in virtual-time code (a lock \
                     does the same in virtual time)"
                ));
            }
        }
        let timeout = HOST_TIMEOUTS.iter().any(|t| line.contains(t));
        let allowed = ALLOW_TIMEOUT
            .iter()
            .any(|(file, needle)| rel.ends_with(file) && line.contains(needle));
        if timeout && !allowed {
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
    let mut in_block_comment = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comments(raw, &mut in_block_comment);
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

/// Strips line comments and (statefully) block comments; string literal
/// contents are left in place, which is fine for the needles we search.
fn strip_comments(line: &str, in_block: &mut bool) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if *in_block {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if bytes[i] == b'/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                break; // line comment (incl. doc comments)
            }
            if bytes[i + 1] == b'*' {
                *in_block = true;
                i += 2;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
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
