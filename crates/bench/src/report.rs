//! Plain-text table rendering for the figure binaries.
//!
//! The binaries print the regenerated data series as aligned text tables (one
//! row per x-axis point, one column per series), which is the closest
//! ASCII-friendly analogue of the paper's figures and is easy to diff or pipe
//! into a plotting tool.

use serde::{Deserialize, Serialize};

/// A simple column-aligned table.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells does not match the number of headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Appends a row of floating-point values after the given x-axis label,
    /// formatted with one decimal place.
    pub fn push_values(&mut self, x: impl std::fmt::Display, values: &[f64]) {
        let mut cells = vec![x.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.1}")));
        self.push_row(cells);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders the table as plain comma-separated CSV: the header row plus
    /// one row per data row, fields joined by `,` and every row terminated
    /// by `\n` (no CRLF, no quoting, no title). The cells are written as
    /// they were pushed, so a report's CSV and aligned text can never drift
    /// apart.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Fig. X", &["density", "FDD", "PDD"]);
        t.push_values(1000, &[55.0, 44.123]);
        t.push_values(25_000, &[60.5, 50.0]);
        let text = t.render();
        assert!(text.starts_with("# Fig. X"));
        assert!(text.contains("density"));
        assert!(text.contains("55.0"));
        assert!(text.contains("44.1"));
        assert_eq!(t.row_count(), 2);
        // Every data line has the same number of columns.
        let lines: Vec<&str> = text.lines().skip(3).collect();
        assert!(lines.iter().all(|l| l.split_whitespace().count() == 3));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
