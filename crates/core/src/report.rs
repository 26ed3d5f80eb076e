//! Report output: fixed-width ASCII tables (paper-style) and CSV files.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows, each the width of the header.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width does not match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "# {}", self.title);
        }
        let line = |out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
                if i == ncol - 1 {
                    out.push_str("+\n");
                }
            }
        };
        line(&mut out);
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "| {:>w$} ", h, w = widths[i]);
        }
        out.push_str("|\n");
        line(&mut out);
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "| {:>w$} ", c, w = widths[i]);
            }
            out.push_str("|\n");
        }
        line(&mut out);
        out
    }

    /// Write as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes, or newlines).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut s = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        s.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            s.push('\n');
        }
        fs::write(path, s)
    }
}

/// Render a numeric series as a one-line Unicode sparkline (8 levels),
/// for quick terminal plots of repetition times or frequency traces.
pub fn sparkline(series: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    series
        .iter()
        .map(|&v| GLYPHS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

/// Format a microsecond value the way the paper's tables do (two
/// decimals).
pub fn fmt_us(us: f64) -> String {
    format!("{us:.2}")
}

/// Format a ratio/CV with four decimals.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["run", "time"]);
        t.row(&["1", "124020.18"].map(String::from));
        t.row(&["2", "9.5"].map(String::from));
        let s = t.render();
        assert!(s.contains("# Demo"));
        assert!(s.contains("| 124020.18 |"));
        assert!(s.lines().all(|l| l.starts_with('#')
            || l.starts_with('+')
            || l.starts_with('|')));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new("x", &["a", "b"]).row(&["only-one"].map(String::from));
    }

    #[test]
    fn csv_round_trip_with_quoting() {
        let dir = std::env::temp_dir().join("ompvar_table_test");
        let path = dir.join("t.csv");
        let mut t = Table::new("q", &["name", "value"]);
        t.row(&["plain", "1"].map(String::from));
        t.row(&["has,comma", "2"].map(String::from));
        t.row(&["has\"quote", "3"].map(String::from));
        t.write_csv(&path).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.starts_with("name,value\n"));
        assert!(s.contains("\"has,comma\",2"));
        assert!(s.contains("\"has\"\"quote\",3"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparkline_levels() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s, "▁▂▃▄▅▆▇█");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0]), "▁▁");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_us(124020.184), "124020.18");
        assert_eq!(fmt_ratio(0.12345), "0.1235");
    }
}
