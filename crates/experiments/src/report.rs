//! Result tables: pretty printing and CSV export.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use subcore_persist::record::write_atomic;

/// Escapes one CSV field per RFC 4180: fields containing a comma, quote, or
/// line break are wrapped in double quotes with inner quotes doubled. Every
/// free-form string written to a CSV (table row labels, app/design names,
/// paths) must pass through here — a benchmark named `scan,filter` would
/// otherwise corrupt its row.
pub fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// A labeled result table (one per figure/table of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier, e.g. `fig09_all_apps`.
    pub name: String,
    /// Human-readable headline.
    pub title: String,
    /// Column headers (not counting the leading row-label column).
    pub columns: Vec<String>,
    /// Rows: label plus one value per column (`NaN` renders empty).
    pub rows: Vec<(String, Vec<f64>)>,
    /// Gap notes: cells the sweep could not fill (failed, timed-out, or
    /// aborted jobs), rendered under the table so a gap is never silent.
    pub annotations: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            name: name.into(),
            title: title.into(),
            columns,
            rows: Vec::new(),
            annotations: Vec::new(),
        }
    }

    /// Notes a cell this table could not fill (the value renders as `-`;
    /// the note explains why).
    pub fn note_gap(&mut self, note: impl Into<String>) {
        self.annotations.push(note.into());
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width must match columns");
        self.rows.push((label.into(), values));
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let label_w = self.rows.iter().map(|(l, _)| l.len()).chain([4]).max().unwrap().max(4);
        let col_w = self.columns.iter().map(|c| c.len().max(9)).collect::<Vec<_>>();
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.name, self.title);
        let _ = write!(out, "{:label_w$}", "app");
        for (c, w) in self.columns.iter().zip(&col_w) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for (v, w) in values.iter().zip(&col_w) {
                if v.is_nan() {
                    let _ = write!(out, "  {:>w$}", "-");
                } else {
                    let _ = write!(out, "  {v:>w$.3}");
                }
            }
            let _ = writeln!(out);
        }
        for note in &self.annotations {
            let _ = writeln!(out, "  ! gap: {note}");
        }
        out
    }

    /// Renders the table as CSV (fields escaped via [`csv_field`]). Gap
    /// annotations append as `# gap: …` trailer lines — they never collide
    /// with row labels, so lookup-by-label readers skip them.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "app");
        for c in &self.columns {
            let _ = write!(out, ",{}", csv_field(c));
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{}", csv_field(label));
            for v in values {
                if v.is_nan() {
                    let _ = write!(out, ",");
                } else {
                    let _ = write!(out, ",{v:.6}");
                }
            }
            let _ = writeln!(out);
        }
        for note in &self.annotations {
            let _ = writeln!(out, "# gap: {}", note.replace(['\n', '\r'], " "));
        }
        out
    }

    /// Writes `<dir>/<name>.csv` atomically (a killed run never leaves a
    /// truncated table behind).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_csv(&self, dir: &Path) -> io::Result<()> {
        write_atomic(&dir.join(format!("{}.csv", self.name)), self.to_csv())
    }

    /// Mean of one column (ignores NaN rows).
    pub fn column_mean(&self, col: usize) -> f64 {
        let vals: Vec<f64> =
            self.rows.iter().map(|(_, v)| v[col]).filter(|v| !v.is_nan()).collect();
        crate::runner::mean(&vals)
    }

    /// Value at (row label, column header), if present.
    pub fn get(&self, row: &str, col: &str) -> Option<f64> {
        let ci = self.columns.iter().position(|c| c == col)?;
        let (_, vals) = self.rows.iter().find(|(l, _)| l == row)?;
        let v = vals[ci];
        (!v.is_nan()).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("fig00", "demo", vec!["a".into(), "b".into()]);
        t.push_row("x", vec![1.0, 2.0]);
        t.push_row("y", vec![3.0, f64::NAN]);
        t
    }

    #[test]
    fn render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("fig00"));
        assert!(s.contains("demo"));
        assert!(s.contains("1.000"));
        assert!(s.contains('-'));
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "app,a,b");
        assert!(lines[1].starts_with("x,1.000000,2.000000"));
        assert_eq!(lines[2], "y,3.000000,");
    }

    #[test]
    fn column_mean_skips_nan() {
        let t = sample();
        assert!((t.column_mean(0) - 2.0).abs() < 1e-12);
        assert!((t.column_mean(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn get_by_labels() {
        let t = sample();
        assert_eq!(t.get("x", "b"), Some(2.0));
        assert_eq!(t.get("y", "b"), None);
        assert_eq!(t.get("z", "a"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        sample().push_row("bad", vec![1.0]);
    }

    #[test]
    fn csv_field_escapes_delimiters_and_quotes() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("scan,filter"), "\"scan,filter\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn to_csv_escapes_labels_and_headers() {
        let mut t = Table::new("f", "t", vec!["speedup, rba".into()]);
        t.push_row("q1,lineitem", vec![1.5]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().map(str::trim_end).collect();
        assert_eq!(lines[0], "app,\"speedup, rba\"");
        assert_eq!(lines[1], "\"q1,lineitem\",1.500000");
    }

    #[test]
    fn gap_annotations_render_and_survive_csv() {
        let mut t = sample();
        t.note_gap("x/rba: panic: injected fault (2 attempt(s))");
        let text = t.render();
        assert!(text.contains("! gap: x/rba"), "render missing gap note:\n{text}");
        let csv = t.to_csv();
        assert!(csv.lines().last().unwrap().starts_with("# gap: x/rba"), "csv: {csv}");
        // Trailer lines never shadow a row label for lookup-by-label readers.
        assert!(!csv.lines().any(|l| l.starts_with("x,") && l.contains("gap")));
    }

    #[test]
    fn save_csv_writes_file() {
        let dir = std::env::temp_dir().join("subcore-table-test");
        sample().save_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("fig00.csv")).unwrap();
        assert!(content.starts_with("app,a,b"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

impl Table {
    /// Renders one column as a horizontal ASCII bar chart (the closest a
    /// terminal gets to the paper's figures). Bars are scaled to the
    /// column's maximum; NaN rows are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn render_bars(&self, col: usize) -> String {
        use std::fmt::Write as _;
        assert!(col < self.columns.len(), "column {col} out of range");
        let label_w = self.rows.iter().map(|(l, _)| l.len()).chain([4]).max().unwrap();
        let max = self
            .rows
            .iter()
            .map(|(_, v)| v[col])
            .filter(|v| v.is_finite())
            .fold(f64::MIN, f64::max);
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} [{}]", self.name, self.title, self.columns[col]);
        if !max.is_finite() || max <= 0.0 {
            return out;
        }
        for (label, values) in &self.rows {
            let v = values[col];
            if !v.is_finite() {
                continue;
            }
            let width = ((v / max) * 50.0).round().max(0.0) as usize;
            let _ = writeln!(out, "{label:label_w$} {v:8.3} |{}", "#".repeat(width));
        }
        out
    }
}

#[cfg(test)]
mod bar_tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let mut t = Table::new("b", "bars", vec!["x".into()]);
        t.push_row("half", vec![1.0]);
        t.push_row("full", vec![2.0]);
        t.push_row("skip", vec![f64::NAN]);
        let s = t.render_bars(0);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 bars, NaN skipped");
        let full_hashes = lines[2].matches('#').count();
        let half_hashes = lines[1].matches('#').count();
        assert_eq!(full_hashes, 50);
        assert_eq!(half_hashes, 25);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bars_validate_column() {
        let t = Table::new("b", "bars", vec!["x".into()]);
        let _ = t.render_bars(1);
    }
}
