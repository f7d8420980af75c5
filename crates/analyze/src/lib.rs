#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # metaopt-analyze
//!
//! The workspace correctness analyzer: deny-by-default static gates over
//! the codebase itself, in the same spirit as `metaopt-modelcheck`'s
//! MC0xx gates over the model IR: a hand-rolled token/AST-lite scanner
//! over every first-party crate emitting stable `ANxxx` diagnostics —
//! determinism (AN0xx), concurrency (AN1xx), panic-freedom (AN2xx),
//! journal/protocol vocabulary coverage (AN3xx), and suppression hygiene
//! (AN4xx). Run via `cargo run -p xtask -- analyze`.
//!
//! The lints are catalogued, with rationale, in `DESIGN.md` §14.
//!
//! ## Suppressions
//!
//! A diagnostic is suppressed by a justified annotation on (or directly
//! above) the offending line:
//!
//! ```text
//! // an:allow(AN001): the poll deadline for a live client must track
//! // real time.
//! let deadline = Instant::now() + timeout;
//! ```
//!
//! The justification after the `:` is mandatory (AN402) and stale
//! suppressions that no longer mask anything are themselves errors
//! (AN401), so the suppression set cannot rot.

pub mod lints;
pub mod scan;
pub mod vocab;

use std::fmt;
use std::path::{Path, PathBuf};

/// How serious a diagnostic is. Everything the gate denies is an
/// [`Severity::Error`]; the analyzer currently emits nothing weaker, but
/// the taxonomy mirrors `metaopt-modelcheck` so future advisory lints
/// slot in without reshaping the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note.
    Info,
    /// Suspicious but not gating.
    Warning,
    /// Gating: `xtask analyze` fails while any of these exist.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where a diagnostic points: a file plus a 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Workspace-relative path (`crates/milp/src/parallel.rs`).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte offset within the line).
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.col)
    }
}

/// One analyzer finding with a stable code.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code (`AN001` … `AN402`); never renumbered.
    pub code: &'static str,
    /// Severity (the gate denies errors).
    pub severity: Severity,
    /// Where.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

/// A collection of diagnostics from one analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Moves every diagnostic of `other` into `self`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All diagnostics, in file/line order after [`Report::sort`].
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The error-severity subset.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether anything gating was found.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the report is completely empty.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any diagnostic carries `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Sorts diagnostics by (file, line, col, code) for stable output.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (&a.span.file, a.span.line, a.span.col, a.code)
                .cmp(&(&b.span.file, b.span.line, b.span.col, b.code))
        });
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        let errors = self.errors().count();
        format!(
            "{} diagnostic(s), {} error(s)",
            self.diagnostics.len(),
            errors
        )
    }
}

/// Collects every first-party `.rs` file under `root` (the workspace
/// root): `src/` plus each `crates/*/src/`, skipping `vendor/` and build
/// output entirely. Paths come back sorted and workspace-relative.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            stack.push(entry.path().join("src"));
        }
    }
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Collects every integration-test `.rs` file (`crates/*/tests/`). These
/// are not linted (tests may unwrap and panic freely) but the AN3xx
/// vocabulary checks need them: the jobs-journal reference model lives in
/// one.
pub fn workspace_test_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let tests = entry.path().join("tests");
            let Ok(tests_entries) = std::fs::read_dir(&tests) else {
                continue;
            };
            for t in tests_entries.flatten() {
                let path = t.path();
                if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs every source lint (AN0xx–AN4xx) over the workspace at `root`.
/// This is what `cargo run -p xtask -- analyze` gates on.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let parse_all = |files: Vec<PathBuf>| -> std::io::Result<Vec<scan::SourceFile>> {
        let mut out = Vec::new();
        for path in files {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(scan::SourceFile::parse(&rel, &text));
        }
        Ok(out)
    };
    let sources = parse_all(workspace_sources(root)?)?;
    let test_sources = parse_all(workspace_test_sources(root)?)?;
    let mut report = lints::run(&sources);
    report.merge(vocab::run(&sources, &test_sources));
    report.sort();
    Ok(report)
}
