#![forbid(unsafe_code)]
//! Repo automation tasks (the cargo-xtask pattern — a plain binary crate,
//! no external dependencies, invoked as `cargo run -p xtask -- <task>`).
//!
//! Tasks:
//!
//! * `forbid-unsafe` — asserts every first-party crate root carries
//!   `#![forbid(unsafe_code)]` (vendored crates are exempt).
//! * `clippy` — runs the pedantic lint subset the repo holds itself to,
//!   with `-D warnings`.
//! * `lint` — both of the above.
//! * `analyze` — the `metaopt-analyze` correctness gate: ANxxx source
//!   lints over every first-party crate. Deny-by-default; see
//!   `DESIGN.md` §14.
//! * `verify` — `lint` + `analyze`; the CI entry point.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The pedantic subset: high signal-to-noise lints only; the full
/// `clippy::pedantic` group is too opinionated for a solver codebase
/// (float comparisons and index arithmetic are the domain).
const PEDANTIC: &[&str] = &[
    "clippy::cloned_instead_of_copied",
    "clippy::inefficient_to_string",
    "clippy::map_unwrap_or",
    "clippy::needless_continue",
    "clippy::redundant_closure_for_method_calls",
    "clippy::semicolon_if_nothing_returned",
    "clippy::dbg_macro",
    "clippy::todo",
];

fn workspace_root() -> PathBuf {
    // crates/xtask/Cargo.toml -> ../..
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

/// Every first-party crate root: `src/lib.rs` of the workspace package and
/// of each `crates/*` member (binary-only members contribute `src/main.rs`).
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = vec![root.join("src/lib.rs")];
    let crates = root.join("crates");
    let mut entries: Vec<_> = std::fs::read_dir(&crates)
        .expect("crates/ directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for dir in entries {
        let lib = dir.join("src/lib.rs");
        let main = dir.join("src/main.rs");
        if lib.is_file() {
            roots.push(lib);
        } else if main.is_file() {
            roots.push(main);
        }
    }
    roots.retain(|p| p.is_file());
    roots
}

fn forbid_unsafe(root: &Path) -> Result<(), String> {
    let mut missing = Vec::new();
    for path in crate_roots(root) {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        if !text.contains("#![forbid(unsafe_code)]") {
            missing.push(path.display().to_string());
        }
    }
    if missing.is_empty() {
        println!("forbid-unsafe: ok ({} crate roots audited)", crate_roots(root).len());
        Ok(())
    } else {
        Err(format!(
            "crate roots missing #![forbid(unsafe_code)]:\n  {}",
            missing.join("\n  ")
        ))
    }
}

fn clippy(root: &Path) -> Result<(), String> {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root).args(["clippy", "--workspace", "--all-targets"]);
    // Vendored offline subsets are exempt, like for the unsafe audit.
    for vendored in ["rand", "proptest", "criterion"] {
        cmd.args(["--exclude", vendored]);
    }
    cmd.args(["--", "-D", "warnings"]);
    for lint in PEDANTIC {
        cmd.args(["-W", lint]);
    }
    println!("clippy: -D warnings + {} pedantic lints", PEDANTIC.len());
    let status = cmd.status().map_err(|e| format!("spawn cargo clippy: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err("clippy reported violations".into())
    }
}

/// The `metaopt-analyze` source lints; they must be completely clean.
fn analyze(root: &Path) -> Result<(), String> {
    let report = metaopt_analyze::analyze_workspace(root)
        .map_err(|e| format!("analyze: reading workspace sources: {e}"))?;
    for d in report.diagnostics() {
        eprintln!("{d}");
    }
    if report.has_errors() {
        return Err(format!("analyze: source lints failed ({})", report.summary()));
    }
    println!("analyze: source lints ok ({})", report.summary());
    Ok(())
}

fn main() -> ExitCode {
    let task = std::env::args().nth(1).unwrap_or_default();
    let root = workspace_root();
    let result = match task.as_str() {
        "forbid-unsafe" => forbid_unsafe(&root),
        "clippy" => clippy(&root),
        "lint" => forbid_unsafe(&root).and_then(|()| clippy(&root)),
        "analyze" => analyze(&root),
        "verify" => forbid_unsafe(&root)
            .and_then(|()| clippy(&root))
            .and_then(|()| analyze(&root)),
        _ => Err("usage: cargo run -p xtask -- <verify|lint|analyze|forbid-unsafe|clippy>".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xtask: {msg}");
            ExitCode::FAILURE
        }
    }
}
