//! # elfie-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section IV), plus the ablation studies listed in
//! DESIGN.md. Each experiment lives in [`experiments`] and prints the same
//! rows/series the paper reports; `cargo bench` runs them all through the
//! `paper_tables` bench target.
//!
//! Scales are reduced (millions of instructions instead of billions) so
//! the full evaluation runs on a laptop; EXPERIMENTS.md records the
//! paper-reported vs measured values.
//!
//! The [`harness`] module is the other half of the crate: `elfie bench`,
//! the standing perf-regression gate that runs the ablations as measured
//! scenarios, snapshots them into versioned `BENCH_*.json` documents,
//! and compares fresh runs against those baselines with noise-aware
//! thresholds. It is the only code that measures a perf claim: the
//! ablations it gates reach `paper_tables` as rendered scenario results.

pub mod experiments;
pub mod harness;

/// Formats a fraction as a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(0.052), "+5.20%");
        assert_eq!(pct(-0.01), "-1.00%");
    }
}
