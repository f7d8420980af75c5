#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Shared helpers for the figure-regeneration harnesses (`src/bin/fig*.rs`)
//! and the criterion benches.
//!
//! Every harness prints its series to stdout in a small aligned table *and*
//! writes a CSV next to it (under `target/figures/`), so EXPERIMENTS.md can
//! quote numbers directly. Budgets scale with the `METAOPT_BUDGET_SECS`
//! environment variable (default 30 s per search) so the full suite can be
//! run quickly (`METAOPT_BUDGET_SECS=5`) or at paper fidelity
//! (`METAOPT_BUDGET_SECS=600`).

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Per-search time budget in seconds (`METAOPT_BUDGET_SECS`, default 30).
pub fn budget_secs() -> f64 {
    std::env::var("METAOPT_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30.0)
}

/// Whether to run reduced-size "quick" sweeps (`METAOPT_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var("METAOPT_QUICK").is_ok_and(|v| v == "1" || v == "true")
}

/// A simple CSV writer for experiment series.
pub struct CsvOut {
    rows: Vec<Vec<String>>,
    path: PathBuf,
}

impl CsvOut {
    /// Creates a CSV that will be written to `target/figures/<name>.csv`.
    pub fn new(name: &str, header: &[&str]) -> Self {
        let mut rows = Vec::new();
        rows.push(header.iter().map(ToString::to_string).collect());
        CsvOut {
            rows,
            path: PathBuf::from("target/figures").join(format!("{name}.csv")),
        }
    }

    /// Appends a row.
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().collect());
    }

    /// Writes the CSV to disk and returns its path.
    pub fn flush(&self) -> std::io::Result<PathBuf> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::File::create(&self.path)?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        Ok(self.path.clone())
    }

    /// Pretty-prints the table to stdout.
    pub fn print(&self) {
        if self.rows.is_empty() {
            return;
        }
        let cols = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        for (ri, r) in self.rows.iter().enumerate() {
            let line: Vec<String> = r
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            // an:allow(AN105): the aligned table *is* the harness output,
            // not logging — stdout is the product here.
            println!("  {}", line.join("  "));
            if ri == 0 {
                // an:allow(AN105): same stdout-table contract as above.
                println!(
                    "  {}",
                    widths
                        .iter()
                        .map(|w| "-".repeat(*w))
                        .collect::<Vec<_>>()
                        .join("  ")
                );
            }
        }
    }
}

/// Formats a float with 4 decimals for tables.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let mut c = CsvOut::new("unit_test_csv", &["a", "b"]);
        c.row(["1".into(), "2".into()]);
        let p = c.flush().unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        c.print();
    }

    #[test]
    fn env_budget_default() {
        // Do not mutate the environment (tests run in parallel); just check
        // the default path yields a positive number.
        assert!(budget_secs() > 0.0);
    }
}
