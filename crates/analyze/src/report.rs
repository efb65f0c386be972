//! Report rendering: human text and JSON.

use crate::Finding;
use serde::Serialize;

/// Aggregate counts for one analysis run.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Files analyzed.
    pub files: usize,
    /// All findings, including waived ones.
    pub total: usize,
    /// Findings excused by an inline waiver.
    pub waived: usize,
    /// Findings without a waiver — these fail `--deny`.
    pub new: usize,
    /// Analysis wall time (lex + lint only, excluding process startup).
    pub elapsed_ms: u64,
}

/// The full machine-readable report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Aggregate counts.
    pub summary: Summary,
    /// Every finding, waiver state included.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Builds a report, deriving the summary counts from the findings.
    pub fn new(files: usize, findings: Vec<Finding>, elapsed_ms: u64) -> Self {
        let waived = findings.iter().filter(|f| f.waived).count();
        let total = findings.len();
        Report {
            summary: Summary { files, total, waived, new: total - waived, elapsed_ms },
            findings,
        }
    }

    /// New (unwaived) findings — the `--deny` gate.
    pub fn new_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// The human-readable report. `quiet` elides waived findings (the
    /// summary still counts them).
    pub fn human(&self, quiet: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let status = if f.waived {
                if quiet {
                    continue;
                }
                match &f.waive_reason {
                    Some(r) => format!(" [waived: {r}]"),
                    None => " [waived]".to_string(),
                }
            } else {
                String::new()
            };
            out.push_str(&format!("{}:{}: {} {}{}\n", f.path, f.line, f.lint, f.message, status));
            if !f.snippet.is_empty() {
                out.push_str(&format!("    | {}\n", f.snippet));
            }
        }
        let s = &self.summary;
        out.push_str(&format!(
            "vmr-analyze: {} files, {} findings ({} waived, {} new) in {} ms\n",
            s.files, s.total, s.waived, s.new, s.elapsed_ms
        ));
        out
    }

    /// The JSON report (findings + summary).
    pub fn json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(waived: bool) -> Finding {
        Finding {
            lint: "P001".to_string(),
            path: "crates/serve/src/server.rs".to_string(),
            line: 7,
            message: "`.unwrap()` in a request-path module".to_string(),
            snippet: "let x = y.unwrap();".to_string(),
            waived,
            waive_reason: waived.then(|| "test rig".to_string()),
        }
    }

    #[test]
    fn summary_counts() {
        let r = Report::new(3, vec![finding(false), finding(true), finding(false)], 12);
        assert_eq!(r.summary.total, 3);
        assert_eq!(r.summary.waived, 1);
        assert_eq!(r.summary.new, 2);
        assert_eq!(r.new_findings().count(), 2);
    }

    #[test]
    fn quiet_elides_waived() {
        let r = Report::new(1, vec![finding(true)], 1);
        let loud = r.human(false);
        let quiet = r.human(true);
        assert!(loud.contains("[waived: test rig]"));
        assert!(!quiet.contains("waived: test rig"));
        assert!(quiet.contains("1 waived"));
    }

    #[test]
    fn json_is_parseable() {
        let r = Report::new(1, vec![finding(false)], 1);
        let v: serde_json::Value = serde_json::from_str(&r.json()).unwrap();
        assert_eq!(v["summary"]["new"].as_u64(), Some(1));
        assert_eq!(v["findings"][0]["lint"].as_str(), Some("P001"));
    }
}
