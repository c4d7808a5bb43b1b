//! Query results.

use std::fmt;
use sysr_rss::Tuple;

/// The rows a statement produced, with output column names.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Tuple>,
}

impl ResultSet {
    pub fn new(columns: Vec<String>, rows: Vec<Tuple>) -> Self {
        ResultSet { columns, rows }
    }

    pub fn empty() -> Self {
        ResultSet { columns: Vec::new(), rows: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for ResultSet {
    /// Render as an aligned text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.values().iter().map(|v| v.to_string()).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if let Some(w) = widths.get_mut(i) {
                    *w = (*w).max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for w in &widths {
                write!(f, "+{}", "-".repeat(w + 2))?;
            }
            writeln!(f, "+")
        };
        line(f)?;
        for (i, c) in self.columns.iter().enumerate() {
            write!(f, "| {:width$} ", c, width = widths.get(i).copied().unwrap_or(0))?;
        }
        writeln!(f, "|")?;
        line(f)?;
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "| {:width$} ", cell, width = widths.get(i).copied().unwrap_or(0))?;
            }
            writeln!(f, "|")?;
        }
        line(f)?;
        writeln!(f, "({} row{})", self.rows.len(), if self.rows.len() == 1 { "" } else { "s" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysr_rss::tuple;

    #[test]
    fn display_renders_table() {
        let rs = ResultSet::new(
            vec!["NAME".into(), "SAL".into()],
            vec![tuple!["SMITH", 100], tuple!["JONES", 20000]],
        );
        let text = rs.to_string();
        assert!(text.contains("NAME"), "{text}");
        assert!(text.contains("'SMITH'"), "{text}");
        assert!(text.contains("(2 rows)"), "{text}");
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn empty_result() {
        let rs = ResultSet::empty();
        assert!(rs.is_empty());
        assert!(rs.to_string().contains("(0 rows)"));
    }
}
