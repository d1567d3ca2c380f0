//! Plain-text table rendering for the experiment harnesses.
//!
//! Every bench binary prints its table/figure data through [`Table`] so the
//! output format (and `EXPERIMENTS.md` transcripts) stay uniform.

use std::fmt;

use crate::flow::Placement;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use svmsyn::report::Table;
/// let mut t = Table::new("Demo", &["kernel", "cycles"]);
/// t.row(&["matmul", "123456"]);
/// let s = t.to_string();
/// assert!(s.contains("matmul"));
/// assert!(s.contains("Demo"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        let mut row: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        let mut row = cells;
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::with_capacity(ncols);
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                parts.push(format!("{cell:<width$}", width = widths[i]));
            }
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "|-{}-|", sep.join("-|-"))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a cycle count with thousands separators for readability.
pub fn fmt_cycles(c: u64) -> String {
    let s = c.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(ch);
    }
    out
}

/// Formats a ratio like `3.42x`.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a placement vector one letter per thread, like `HSH`
/// (`H` hardware, `S` software).
pub fn placement_code(placements: &[Placement]) -> String {
    placements
        .iter()
        .map(|p| match p {
            Placement::Hardware => 'H',
            Placement::Software => 'S',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("T", &["name", "value"]);
        t.row(&["a", "1"]);
        t.row(&["long-name", "22"]);
        let s = t.to_string();
        assert!(s.contains("== T =="));
        let lines: Vec<&str> = s.lines().collect();
        // All data/header lines have equal width.
        let widths: Vec<usize> = lines[1..].iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("T", &["a", "b", "c"]);
        t.row(&["only-one"]);
        assert!(t.to_string().contains("only-one"));
    }

    #[test]
    fn row_owned_works() {
        let mut t = Table::new("T", &["x"]);
        t.row_owned(vec!["y".to_string()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn cycle_formatting() {
        assert_eq!(fmt_cycles(0), "0");
        assert_eq!(fmt_cycles(999), "999");
        assert_eq!(fmt_cycles(1000), "1_000");
        assert_eq!(fmt_cycles(1234567), "1_234_567");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(3.417), "3.42x");
        assert_eq!(fmt_ratio(0.5), "0.50x");
    }

    #[test]
    fn placement_formatting() {
        use Placement::{Hardware, Software};
        assert_eq!(placement_code(&[Hardware, Software, Hardware]), "HSH");
        assert_eq!(placement_code(&[]), "");
    }
}
