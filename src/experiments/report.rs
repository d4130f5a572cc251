//! Plain-text table rendering and CSV output for the experiment harness.
//! (No serde: tables are small and the formats are trivial.)

use std::io::Write as _;
use std::path::Path;

/// A rendered results table: headers plus rows of cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (ragged rows are padded when rendering).
    pub rows: Vec<Vec<String>>,
    /// Title printed above the table.
    pub title: String,
}

impl Table {
    /// Start a table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.into(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Format a percentage cell (`None` → `-`, the paper's "evaluation was
    /// not possible" marker).
    pub fn pct(value: Option<f64>) -> String {
        match value {
            Some(v) => format!("{:.2}", 100.0 * v),
            None => "-".to_string(),
        }
    }

    /// Render as an aligned monospace table.
    pub fn render(&self) -> String {
        let cols = self.headers.len().max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        fn cell(row: &[String], c: usize) -> &str {
            row.get(c).map(String::as_str).unwrap_or("")
        }
        let mut widths = vec![0usize; cols];
        for (c, w) in widths.iter_mut().enumerate() {
            *w = self
                .rows
                .iter()
                .map(|r| cell(r, c).len())
                .chain(std::iter::once(cell(&self.headers, c).len()))
                .max()
                .unwrap_or(0);
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("## {}\n", self.title));
        }
        let fmt_row = |row: &[String]| {
            let mut line = String::new();
            for (c, w) in widths.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", cell(row, c), w = *w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Write as CSV (RFC-4180-enough for these tables: cells are quoted only
    /// when they contain commas or quotes).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        writeln!(w, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","))?;
        for row in &self.rows {
            writeln!(w, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","))?;
        }
        w.flush()
    }
}

/// Directory where the bench harness drops CSV/JSON artifacts: `results/`
/// under the current directory, or `GOGGLES_RESULTS_DIR` when set. The
/// fallback is resolved at run time, never from the build's source tree, so
/// a binary built in one checkout writes into the checkout it runs in.
/// `cargo bench` runs with the *package* directory as CWD; set
/// `GOGGLES_RESULTS_DIR` there to collect artifacts elsewhere.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("GOGGLES_RESULTS_DIR")
        .map_or_else(|| std::path::PathBuf::from("results"), std::path::PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_falls_back_to_the_working_directory() {
        // Without the override the path must be relative, so it resolves
        // against wherever the binary runs, not where it was built.
        if std::env::var_os("GOGGLES_RESULTS_DIR").is_none() {
            assert_eq!(results_dir(), std::path::PathBuf::from("results"));
        }
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["Dataset", "Acc"]);
        t.push_row(vec!["CUB".into(), "97.83".into()]);
        t.push_row(vec!["PN-Xray".into(), "74.39".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        // title + header + separator + 2 rows
        assert_eq!(lines.len(), 5);
        let col = lines[3].find("97.83").unwrap();
        assert_eq!(lines[4].find("74.39").unwrap(), col);
    }

    #[test]
    fn pct_formats_and_dashes() {
        assert_eq!(Table::pct(Some(0.97834)), "97.83");
        assert_eq!(Table::pct(None), "-");
    }

    #[test]
    fn csv_round_trip_and_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["plain".into(), "with,comma".into()]);
        t.push_row(vec!["with\"quote".into(), "z".into()]);
        let dir = std::env::temp_dir().join("goggles_report_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("\"with,comma\""));
        assert!(content.contains("\"with\"\"quote\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.push_row(vec!["1".into()]);
        let s = t.render();
        assert!(s.lines().count() >= 3);
    }
}
