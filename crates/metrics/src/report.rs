//! Aligned-table and CSV rendering for the figure-regeneration binaries.

use std::fmt::Write as _;

/// A simple column-aligned text table (the `fig*` binaries print the
/// paper's series as rows).
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// New table with a title line and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    /// Panics when the cell count differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of floats rendered with `precision` decimals, prefixed
    /// by a label cell.
    pub fn row_f64(&mut self, label: &str, values: &[f64], precision: usize) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.precision$}")));
        self.row(&cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV (header + rows, comma-separated).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["scheme", "energy"]);
        t.row(&["greedy".into(), "3.10".into()]);
        t.row(&["partition".into(), "1.83".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("scheme"));
        assert!(s.contains("partition"));
        // Columns aligned: all lines after the rule are the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn row_f64_formats_with_precision() {
        let mut t = Table::new("", &["erp", "a", "b"]);
        t.row_f64("0.6", &[1.23456, 7.0], 2);
        assert!(t.to_csv().contains("0.6,1.23,7.00"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["only one".into()]);
    }
}
