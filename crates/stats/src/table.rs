//! Minimal ASCII table rendering for harness output.
//!
//! Every `exp_*` binary prints its paper-vs-measured rows through this
//! type so experiment reports are uniform.

use std::fmt;

/// A simple left-padded ASCII table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    ///
    /// # Panics
    /// On arity mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (cell, w) in cells.iter().zip(&widths) {
                write!(f, " {cell:>w$} |")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Format a float compactly for table cells (4 significant digits,
/// scientific for very small/large magnitudes).
#[must_use]
pub fn fmt_g(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if (1e-3..1e6).contains(&a) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["k", "value"]);
        t.row(vec!["8", "1.25"]).row(vec!["1024", "0.003"]);
        let s = t.to_string();
        assert!(s.contains("| 1024 |"), "{s}");
        assert!(s.lines().count() == 4);
        // All lines equal width.
        let widths: Vec<usize> = s.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Table::new(vec!["a", "b"]).row(vec!["1"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_g(0.0), "0");
        assert_eq!(fmt_g(1.5), "1.5000");
        assert!(fmt_g(1e-9).contains('e'));
        assert!(fmt_g(-3.2e9).contains('e'));
    }

    #[test]
    fn empty_table() {
        let t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_string().lines().count(), 2);
    }
}
