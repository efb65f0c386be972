//! Experiment reports: an aligned text table for stdout plus a JSON
//! document (`<out>/<id>.json`) for downstream plotting.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde_json::{json, Map, Value};

/// A tabular experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    meta: Map<String, Value>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report with the given column names; the registry titles
    /// it (see [`Report::titled`]).
    ///
    /// # Panics
    /// On an empty column list — a table without columns is a bug in the
    /// experiment, not a run-time condition.
    pub fn new(columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a report needs at least one column");
        Report {
            title: String::new(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            meta: Map::new(),
            notes: Vec::new(),
        }
    }

    /// Sets the title.
    pub fn titled(mut self, title: &str) -> Self {
        self.title = title.to_string();
        self
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Appends a free-text line shown above the table (the case study's
    /// occupancy bars); not part of the JSON document.
    pub fn note(&mut self, line: String) -> &mut Self {
        self.notes.push(line);
        self
    }

    /// Attaches a metadata key (mode, seed, cluster size, ...).
    pub fn meta(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.meta.insert(key.to_string(), value.into());
        self
    }

    /// Appends one row; the length must match the column count.
    pub fn row(&mut self, values: Vec<Value>) -> &mut Self {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push(values);
        self
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let fmt_cell = |v: &Value| -> String {
            match v {
                Value::Number(n) => {
                    if let Some(f) = n.as_f64() {
                        if f.fract() == 0.0 && f.abs() < 1e15 {
                            format!("{f}")
                        } else {
                            format!("{f:.4}")
                        }
                    } else {
                        n.to_string()
                    }
                }
                Value::String(s) => s.clone(),
                other => other.to_string(),
            }
        };
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(fmt_cell).collect()).collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        for (k, v) in &self.meta {
            out.push_str(&format!("#   {k} = {v}\n"));
        }
        for line in &self.notes {
            out.push_str(line);
            out.push('\n');
        }
        let header: Vec<String> =
            self.columns.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// The JSON document: `title`, `meta`, `columns`, `rows`.
    pub fn to_json(&self) -> Value {
        json!({
            "title": self.title,
            "meta": self.meta,
            "columns": self.columns,
            "rows": self.rows,
        })
    }

    /// Writes the JSON document to `<dir>/<id>.json`, creating `dir`.
    pub fn write(&self, dir: &Path, id: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{id}.json"));
        let body = serde_json::to_string_pretty(&self.to_json()).map_err(io::Error::other)?;
        fs::write(&path, body)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new(&["mnl", "fr"]).titled("Test table");
        r.row(vec![10.into(), 0.512345.into()]);
        r.row(vec![100.into(), 0.25.into()]);
        let text = r.render();
        assert!(text.contains("Test table"));
        assert!(text.contains("0.5123"));
        assert!(text.contains("100"));
        let lines: Vec<&str> = text.lines().collect();
        // Header and data rows align right.
        assert!(lines.iter().any(|l| l.trim_start().starts_with("mnl")));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = Report::new(&["a", "b"]);
        r.row(vec![1.into()]);
    }

    #[test]
    fn meta_is_rendered() {
        let mut r = Report::new(&["a"]);
        r.meta("mode", "smoke");
        r.note("a note".into());
        r.row(vec![1.into()]);
        assert!(r.render().contains("mode = \"smoke\""));
        assert!(r.render().contains("\na note\n"));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_column_list_is_rejected() {
        Report::new(&[]);
    }

    #[test]
    fn written_document_parses_back() {
        let dir = std::env::temp_dir().join(format!("vmr-report-{}", std::process::id()));
        let mut r = Report::new(&["a", "b"]).titled("T");
        r.row(vec![1.into(), f64::NAN.into()]);
        let path = r.write(&dir, "t").unwrap();
        assert_eq!(path, dir.join("t.json"));
        let doc: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc["title"], "T");
        assert_eq!(doc["rows"][0][0], 1);
        assert!(doc["rows"][0][1].is_null(), "NaN is written as null");
        let _ = fs::remove_dir_all(&dir);
    }
}
