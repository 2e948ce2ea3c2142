//! Minimal plain-text table rendering for the `experiments` binary.

use std::fmt;

/// A plain-text table: the `experiments` binary prints one per reproduced
/// claim, in the same rows/series shape as EXPERIMENTS.md records.
///
/// # Example
///
/// ```
/// use snapshot_bench::report::Table;
///
/// let mut t = Table::new("demo", &["n", "ops"]);
/// t.row(&["2", "24"]);
/// t.row(&["4", "80"]);
/// let text = t.to_string();
/// assert!(text.contains("demo"));
/// assert!(text.contains("80"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extra cells are kept.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        writeln!(f, "## {}", self.title)?;
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map_or("", String::as_str);
                write!(f, " {cell:>width$} |")?;
            }
            writeln!(f)
        };
        render(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("t", &["algorithm", "n"]);
        t.row(&["bounded", "4"]);
        t.row(&["unbounded", "16"]);
        let s = t.to_string();
        assert!(s.contains("## t"));
        assert!(s.lines().count() >= 4);
        // All data lines have the same length (aligned).
        let lens: Vec<usize> = s.lines().skip(1).map(str::len).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = Table::new("e", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
