//! Inline waiver comments.
//!
//! A finding can be acknowledged in place with a waiver comment:
//!
//! ```text
//! seen.iter().any(p) // vmr-analyze: allow(D001) reason="order-insensitive membership test"
//! ```
//!
//! or on its own line, applying to the next line of code:
//!
//! ```text
//! // vmr-analyze: allow(P001) reason="index bounded by the len check above"
//! let word = &rest[0..8];
//! ```
//!
//! Grammar: `vmr-analyze: allow(ID[,ID...]) reason="non-empty text"`.
//! Only plain `//` comments participate — doc comments (`///`, `//!`)
//! are prose and may *describe* the waiver format (as this module does)
//! without being parsed. A comment that starts with the `vmr-analyze:`
//! marker but doesn't parse is itself a finding (W001), and a waiver
//! that matches no finding is stale and flagged too (W002) so waivers
//! can't silently outlive the code they excused.

use crate::lexer::{Token, TokenKind};

/// The lint IDs a waiver may name.
pub const WAIVABLE: &[&str] = &["D001", "P001", "A001", "F001", "L001", "H001"];

/// One parsed waiver comment.
#[derive(Debug)]
pub struct Waiver {
    /// Line of the comment itself.
    pub line: u32,
    /// Line of code the waiver covers (same line for trailing
    /// comments, the next significant line for own-line comments);
    /// `None` if no code follows.
    pub target: Option<u32>,
    /// Lint IDs this waiver excuses.
    pub ids: Vec<String>,
    /// The mandatory human reason.
    pub reason: String,
    /// Set when a finding consumes this waiver.
    pub used: bool,
}

/// All waivers in a file plus the malformed ones (line, error).
#[derive(Debug, Default)]
pub struct WaiverSet {
    /// Well-formed waivers, in source order.
    pub waivers: Vec<Waiver>,
    /// Malformed `vmr-analyze:` comments (line, parse error) — W001.
    pub malformed: Vec<(u32, String)>,
}

impl WaiverSet {
    /// Consumes a waiver covering `line` for `lint`, returning its
    /// reason. First matching waiver wins.
    pub fn claim(&mut self, lint: &str, line: u32) -> Option<String> {
        let w = self
            .waivers
            .iter_mut()
            .find(|w| w.target == Some(line) && w.ids.iter().any(|id| id == lint))?;
        w.used = true;
        Some(w.reason.clone())
    }
}

/// The marker that opens a waiver comment.
const MARKER: &str = "vmr-analyze:";

/// Parses `allow(ID,...) reason="..."`; returns (ids, reason) or an
/// error message for W001.
fn parse_body(body: &str) -> Result<(Vec<String>, String), String> {
    let body = body.trim();
    let rest = body
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(ID[,ID])` after marker".to_string())?;
    let close = rest.find(')').ok_or_else(|| "unclosed `allow(` id list".to_string())?;
    let mut ids = Vec::new();
    for raw in rest[..close].split(',') {
        let id = raw.trim();
        if !WAIVABLE.contains(&id) {
            return Err(format!("unknown lint id `{id}` (waivable: {})", WAIVABLE.join(", ")));
        }
        ids.push(id.to_string());
    }
    let tail = rest[close + 1..].trim();
    let reason = tail
        .strip_prefix("reason=\"")
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| "expected `reason=\"...\"` after id list".to_string())?;
    if reason.trim().is_empty() {
        return Err("waiver reason must be non-empty".to_string());
    }
    Ok((ids, reason.to_string()))
}

/// Is this token significant code (can be a waiver target)?
fn significant(t: &Token) -> bool {
    !matches!(t.kind, TokenKind::Ws | TokenKind::LineComment | TokenKind::BlockComment)
}

/// Extracts all waivers from a token stream.
pub fn collect(src: &str, tokens: &[Token]) -> WaiverSet {
    let mut set = WaiverSet::default();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let text = t.text(src);
        let after = &text[2..]; // past "//"
                                // Doc comments are documentation, not directives.
        if after.starts_with('/') || after.starts_with('!') {
            continue;
        }
        let Some(body) = after.trim_start().strip_prefix(MARKER) else {
            continue;
        };
        match parse_body(body) {
            Err(e) => set.malformed.push((t.line, e)),
            Ok((ids, reason)) => {
                // Trailing comment: significant code earlier on the same
                // line. Own-line comment: targets the next significant
                // token's line.
                let trailing = tokens[..i].iter().any(|p| p.line == t.line && significant(p));
                let target = if trailing {
                    Some(t.line)
                } else {
                    tokens[i + 1..].iter().find(|p| significant(p)).map(|p| p.line)
                };
                set.waivers.push(Waiver { line: t.line, target, ids, reason, used: false });
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn waivers(src: &str) -> WaiverSet {
        collect(src, &lex(src))
    }

    #[test]
    fn trailing_waiver_targets_same_line() {
        let src =
            "let a = 1;\nlet b = x.unwrap(); // vmr-analyze: allow(P001) reason=\"test rig\"\n";
        let set = waivers(src);
        assert_eq!(set.waivers.len(), 1);
        assert_eq!(set.waivers[0].target, Some(2));
        assert_eq!(set.waivers[0].ids, vec!["P001"]);
    }

    #[test]
    fn own_line_waiver_targets_next_code_line() {
        let src = "// vmr-analyze: allow(D001,F001) reason=\"both fine here\"\n\n// unrelated\nlet c = y;\n";
        let set = waivers(src);
        assert_eq!(set.waivers[0].target, Some(4));
        assert_eq!(set.waivers[0].ids, vec!["D001", "F001"]);
    }

    #[test]
    fn malformed_forms_are_w001() {
        for src in [
            "// vmr-analyze: allow(P001)\nlet x = 1;", // no reason
            "// vmr-analyze: allow(P001) reason=\"\"\nlet x = 1;", // empty reason
            "// vmr-analyze: allow(Q999) reason=\"huh\"\nlet x = 1;", // unknown id
            "// vmr-analyze: disable(P001) reason=\"huh\"\nlet x = 1;", // wrong verb
            "// vmr-analyze: allow(P001 reason=\"huh\"\nlet x = 1;", // unclosed
        ] {
            let set = waivers(src);
            assert_eq!(set.malformed.len(), 1, "should be malformed: {src}");
            assert!(set.waivers.is_empty());
        }
    }

    #[test]
    fn doc_comments_are_ignored() {
        let src = "/// vmr-analyze: allow(P001) reason=\"format example\"\n//! vmr-analyze: nonsense\nfn f() {}\n";
        let set = waivers(src);
        assert!(set.waivers.is_empty());
        assert!(set.malformed.is_empty());
    }

    #[test]
    fn claim_marks_used() {
        let src = "let b = x.unwrap(); // vmr-analyze: allow(P001) reason=\"r\"\n";
        let mut set = waivers(src);
        assert_eq!(set.claim("P001", 1).as_deref(), Some("r"));
        assert!(set.waivers[0].used);
        // A line-level waiver covers every finding of that lint on the
        // line, so a second claim succeeds too.
        assert_eq!(set.claim("P001", 1).as_deref(), Some("r"));
        assert!(set.claim("D001", 1).is_none());
    }
}
