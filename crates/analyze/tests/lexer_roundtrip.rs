//! Lexer totality: for ANY input, the token spans partition the input
//! exactly, so re-emission is byte-identical. Proven two ways — a
//! property test over adversarial fragment soups (the shimmed proptest
//! has no String strategy, so inputs are built as index vectors into a
//! fragment table), and a sweep over every real `.rs` file in the
//! workspace, the dependency shims' `src/` trees (all their Rust)
//! included.

use proptest::prelude::*;
use vmr_analyze::lexer::{lex, reemit};

/// Fragments chosen to stress every lexer mode boundary: string/char
/// escapes, raw strings with varying hash counts, nested and
/// unterminated comments, lifetimes vs chars, numeric edge shapes
/// (`1..2`, `1.0e-3`, `0xff`), multibyte identifiers, and stray bytes.
const FRAGMENTS: &[&str] = &[
    " ",
    "\n",
    "\t",
    "\r\n",
    "\"",
    "\\\"",
    "\\\\",
    "\"abc\"",
    "\"a\\\"b\"",
    "b\"bytes\"",
    "r\"raw\"",
    "r#\"hash\"#",
    "r##\"two\"##",
    "r#",
    "r\"",
    "#\"",
    "'",
    "'a'",
    "'\\n'",
    "'\\''",
    "'static",
    "'_",
    "&'a str",
    "//",
    "// line\n",
    "///doc\n",
    "//!inner\n",
    "/*",
    "*/",
    "/* x */",
    "/* a /* nested */ b */",
    "/** doc */",
    "0",
    "1..2",
    "1.0",
    "1.",
    ".5",
    "1e9",
    "1.0e-3",
    "1E+4",
    "0xff_u8",
    "0b10",
    "1_000",
    "2.0f32",
    "e-3",
    "ident",
    "_under",
    "r",
    "b",
    "br",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    "::",
    "..",
    "...",
    "..=",
    "->",
    "=>",
    "#",
    "#!",
    "!",
    "?",
    ";",
    ",",
    ".",
    "=",
    "==",
    "&&",
    "let x = y.unwrap();",
    "fn f() {}",
    "#[cfg(test)]",
    "π",
    "数",
    "émigré",
    "\u{1F980}",
    "r#ident",
    "b'x'",
    "b'\\n'",
];

/// One full roundtrip check with partition assertions.
fn check(src: &str) {
    let toks = lex(src);
    assert_eq!(reemit(src, &toks), src, "re-emission differs for {src:?}");
    let mut pos = 0usize;
    for t in &toks {
        assert_eq!(t.start, pos, "gap/overlap at byte {pos} in {src:?}");
        assert!(t.end > t.start, "empty token at byte {pos} in {src:?}");
        pos = t.end;
    }
    assert_eq!(pos, src.len(), "tokens do not cover {src:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fragment_soup_roundtrips(idx in prop::collection::vec(0usize..FRAGMENTS.len(), 0..64)) {
        let src: String = idx.iter().map(|&i| FRAGMENTS[i]).collect();
        let toks = lex(&src);
        prop_assert_eq!(reemit(&src, &toks), src.clone());
        let mut pos = 0usize;
        for t in &toks {
            prop_assert_eq!(t.start, pos);
            prop_assert!(t.end > t.start);
            pos = t.end;
        }
        prop_assert_eq!(pos, src.len());
    }
}

#[test]
fn every_fragment_alone_roundtrips() {
    for f in FRAGMENTS {
        check(f);
    }
}

#[test]
fn every_workspace_file_roundtrips() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let files = vmr_analyze::walk::workspace_files(&root).expect("walk workspace");
    assert!(files.len() > 100, "workspace walk looks truncated: {}", files.len());
    for f in &files {
        let src = std::fs::read_to_string(&f.abs).expect("read source");
        check(&src);
    }
}
