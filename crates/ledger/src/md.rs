//! The one aligned-pipe markdown table renderer. `aro-sim` re-exports
//! [`MdTable`] as its experiment `Table`, so `repro report` analyses and
//! experiment reports render through the same code.

/// A titled table with a header row, rendered as GitHub markdown or CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MdTable {
    /// An empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The header row.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// A cell by (row, column).
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders as a GitHub-style markdown table (aligned pipes).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain(std::iter::once(self.headers[c].len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let render_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", dashes.join("-|-")));
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (header first).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats nanoseconds as milliseconds with three decimals.
#[must_use]
pub fn ms(ns: u128) -> String {
    #[allow(clippy::cast_precision_loss)]
    let v = ns as f64 / 1e6;
    format!("{v:.3}")
}

/// Formats a signed relative change as a percentage (`+12.3 %`).
#[must_use]
pub fn pct_delta(old: f64, new: f64) -> String {
    if old == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1} %", (new - old) / old * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_pipes() {
        let mut t = MdTable::new("T", &["a", "long-header"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### T\n\n| a | long-header |\n"));
        assert!(md.contains("| 1 | 2           |"));
        t.push_row(vec!["333".into(), "4".into()]);
        assert!(t.to_markdown().contains("| 333 | 4           |"));
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.cell(1, 0), "333");
    }

    #[test]
    fn table_csv() {
        let mut t = MdTable::new("Demo", &["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = MdTable::new("Demo", &["x", "y"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(2_500_000), "2.500");
        assert_eq!(pct_delta(100.0, 125.0), "+25.0 %");
        assert_eq!(pct_delta(100.0, 80.0), "-20.0 %");
        assert_eq!(pct_delta(0.0, 80.0), "n/a");
    }
}
