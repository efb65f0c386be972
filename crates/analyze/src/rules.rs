//! The lint rules.
//!
//! Each rule is a pure function over the significant-token view of one
//! file, scoped by [`Config`] path lists and exempting test ranges.
//! Rules emit [`Raw`] findings (lint id + line + message); waivers are
//! applied in `lib.rs` after all rules run.
//!
//! The rules are deliberately syntactic — they match token shapes, not
//! types. That makes them fast and total, at the cost of needing exact
//! scope lists and occasional waivers; the fixture suites pin down the
//! shapes each rule must and must not match.

use crate::config::{in_scope, Config};
use crate::lexer::{Token, TokenKind};
use crate::scope::FileScope;

/// A rule hit before waiver processing.
#[derive(Debug)]
pub struct Raw {
    /// Stable lint id.
    pub lint: &'static str,
    /// 1-based line of the offense.
    pub line: u32,
    /// What's wrong and what to do instead.
    pub message: String,
}

/// Shared per-file context handed to every rule.
pub struct Ctx<'a> {
    /// Workspace-relative path (the scope key).
    pub path: &'a str,
    /// Full file source.
    pub src: &'a str,
    /// The lexed token stream.
    pub tokens: &'a [Token],
    /// Significant-token view, depths, test ranges.
    pub scope: &'a FileScope,
    /// Per-lint path scopes.
    pub cfg: &'a Config,
}

impl<'a> Ctx<'a> {
    /// The token behind significant-index `i` (panics only on internal
    /// index bugs, which the fixture suites would catch).
    fn tok(&self, i: usize) -> &'a Token {
        &self.tokens[self.scope.sig[i]]
    }

    fn text(&self, i: usize) -> &'a str {
        self.tok(i).text(self.src)
    }

    /// Is significant token `i` inside a `#[cfg(test)]`/`#[test]` body?
    fn is_test(&self, i: usize) -> bool {
        self.scope.is_test(self.tok(i).start)
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.tok(i).kind == TokenKind::Ident && self.text(i) == name
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        self.tok(i).kind == TokenKind::Punct && self.text(i) == p
    }
}

/// Is the file under a `tests/` directory, i.e. test code wholesale?
fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// Runs every rule over one file. T001 runs on every walked file; the
/// production-invariant lints skip `tests/` files, which are test code
/// wholesale, and the vendored `shims/`.
pub fn run_all(ctx: &Ctx) -> Vec<Raw> {
    let mut out = Vec::new();
    t001(ctx, &mut out);
    if !is_test_file(ctx.path) && !ctx.path.starts_with("shims/") {
        d001(ctx, &mut out);
        p001(ctx, &mut out);
        a001(ctx, &mut out);
        f001(ctx, &mut out);
        l001(ctx, &mut out);
        h001(ctx, &mut out);
    }
    out.sort_by_key(|r| (r.line, r.lint));
    out
}

/// One piece of a T001 pattern (syntax on
/// [`Tombstone::pattern`](crate::config::Tombstone::pattern)).
enum Piece<'p> {
    /// An identifier or number; the flags say whether a prefix / a
    /// suffix may precede / follow the text.
    Word { text: &'p str, any_before: bool, any_after: bool },
    /// A string literal containing the text.
    Str(&'p str),
    /// One punctuation byte.
    Punct(&'p str),
    /// Any tokens to the end of the line or the next `;`, whichever
    /// comes last.
    Gap,
}

fn pieces(pattern: &str) -> Vec<Piece<'_>> {
    let mut out = Vec::new();
    let mut rest = pattern.trim_start();
    while !rest.is_empty() {
        if let Some(quoted) = rest.strip_prefix('"') {
            let end = quoted.find('"').unwrap_or(quoted.len());
            out.push(Piece::Str(&quoted[..end]));
            rest = quoted.get(end + 1..).unwrap_or("").trim_start();
            continue;
        }
        let end = rest.find(' ').unwrap_or(rest.len());
        let word = &rest[..end];
        rest = rest[end..].trim_start();
        let text = word.trim_matches('*');
        if word == "..." {
            out.push(Piece::Gap);
        } else if !text.is_empty() && text.bytes().all(|b| b == b'_' || b.is_ascii_alphanumeric()) {
            let any_before = word.starts_with('*');
            let any_after = word.ends_with('*');
            out.push(Piece::Word { text, any_before, any_after });
        } else {
            out.extend((0..word.len()).map(|k| Piece::Punct(&word[k..k + 1])));
        }
    }
    out
}

/// Matches `pieces` from significant token `i` on, pushing the index of
/// every token a non-gap piece matched onto `hit`.
fn match_from(ctx: &Ctx, pieces: &[Piece], i: usize, hit: &mut Vec<usize>) -> bool {
    let Some((first, rest)) = pieces.split_first() else {
        return true;
    };
    let ok = match *first {
        Piece::Gap => return match_after_gap(ctx, rest, i, hit),
        _ if i >= ctx.scope.sig.len() => false,
        Piece::Word { text, any_before, any_after } => {
            let txt = ctx.text(i);
            matches!(ctx.tok(i).kind, TokenKind::Ident | TokenKind::NumLit)
                && match (any_before, any_after) {
                    (false, false) => txt == text,
                    (true, false) => txt.ends_with(text),
                    (false, true) => txt.starts_with(text),
                    (true, true) => txt.contains(text),
                }
        }
        Piece::Str(text) => ctx.tok(i).kind == TokenKind::StrLit && ctx.text(i).contains(text),
        Piece::Punct(p) => ctx.is_punct(i, p),
    };
    ok && {
        hit.push(i);
        match_from(ctx, rest, i + 1, hit)
    }
}

/// A gap, then `rest`: the gap skips tokens on the line of the last
/// matched token, and past it up to the first `;`.
fn match_after_gap(ctx: &Ctx, rest: &[Piece], i: usize, hit: &mut Vec<usize>) -> bool {
    let Some(line) = hit.last().map(|&j| ctx.tok(j).line) else {
        return false;
    };
    let mut crossed_semi = false;
    for j in i..=ctx.scope.sig.len() {
        let mark = hit.len();
        if match_from(ctx, rest, j, hit) {
            return true;
        }
        hit.truncate(mark);
        if j == ctx.scope.sig.len() || (crossed_semi && ctx.tok(j).line != line) {
            return false;
        }
        crossed_semi |= ctx.is_punct(j, ";");
    }
    false
}

/// T001 — tombstones: a spelling a commit deleted must not come back
/// (one row of [`crate::config::TOMBSTONES`] each). The rows are matched
/// over significant tokens, so a name in a comment is not a match; a
/// row that expects matches checks them as a multiset per file.
fn t001(ctx: &Ctx, out: &mut Vec<Raw>) {
    let test_file = is_test_file(ctx.path);
    for row in ctx.cfg.tombstones.iter().filter(|t| in_scope(ctx.path, t.scope)) {
        let pieces = pieces(row.pattern);
        // A file without the pattern's longest word cannot match it.
        let longest = pieces
            .iter()
            .filter_map(|p| match p {
                Piece::Word { text, .. } | Piece::Str(text) => Some(*text),
                _ => None,
            })
            .max_by_key(|t| t.len());
        if row.expect.is_empty() && longest.is_some_and(|w| !ctx.src.contains(w)) {
            continue;
        }
        let mut left = row.expect.to_vec();
        let mut hit = Vec::new();
        for i in 0..ctx.scope.sig.len() {
            hit.clear();
            if (row.tests_exempt && (test_file || ctx.is_test(i)))
                || !match_from(ctx, &pieces, i, &mut hit)
            {
                continue;
            }
            let text = hit.iter().map(|&j| ctx.text(j)).collect::<Vec<_>>().join(" ");
            if let Some(k) = left.iter().position(|e| *e == text) {
                left.swap_remove(k);
                continue;
            }
            let only = match row.expect {
                [] => String::new(),
                kept => format!(" (only {} stays)", kept.join(", ")),
            };
            out.push(Raw {
                lint: "T001",
                line: ctx.tok(i).line,
                message: format!("`{text}` was deleted in {}{only}; {}", row.commit, row.reason),
            });
        }
        for e in left {
            out.push(Raw {
                lint: "T001",
                line: 1,
                message: format!(
                    "`{e}` must stay in this file ({}: {}); if it moved, move its T001 row too",
                    row.commit, row.reason
                ),
            });
        }
    }
}

/// D001 — determinism: raw HashMap/HashSet iteration in plan-producing
/// modules, whose order is per process. (The per-PM reverse index needs
/// no clause: `ClusterState` keeps it in ascending id after every
/// mutation.)
fn d001(ctx: &Ctx, out: &mut Vec<Raw>) {
    if !in_scope(ctx.path, &ctx.cfg.d001_paths) {
        return;
    }
    let n = ctx.scope.sig.len();
    // In-file idents bound to a HashMap/HashSet (declared `x: HashMap<...>`,
    // borrowed `x: &HashMap<...>` / `x: &mut HashMap<...>`, or
    // `let x = HashMap::new()`, and the HashSet equivalents).
    let mut map_vars: Vec<&str> = Vec::new();
    for i in 0..n {
        if ctx.tok(i).kind != TokenKind::Ident {
            continue;
        }
        let t = ctx.text(i);
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        let mut j = i;
        while j >= 1 && matches!(ctx.text(j - 1), "&" | "mut") {
            j -= 1;
        }
        if j >= 2 && ctx.tok(j - 1).kind == TokenKind::Punct {
            let p = ctx.text(j - 1);
            if (p == ":" || p == "=") && ctx.tok(j - 2).kind == TokenKind::Ident {
                let name = ctx.text(j - 2);
                if !map_vars.contains(&name) {
                    map_vars.push(name);
                }
            }
        }
    }
    for i in 0..n {
        if ctx.is_test(i) || ctx.tok(i).kind != TokenKind::Ident {
            continue;
        }
        let t = ctx.text(i);
        // `map.iter()` / `.keys()` / `.values()` on a known hash
        // container: iteration order is unspecified.
        if map_vars.contains(&t)
            && i + 2 < n
            && ctx.is_punct(i + 1, ".")
            && matches!(
                ctx.text(i + 2),
                "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut"
            )
        {
            out.push(Raw {
                lint: "D001",
                line: ctx.tok(i).line,
                message: format!(
                    "unordered iteration over hash container `{t}` in a plan-producing \
                     module; collect and sort by a canonical key first"
                ),
            });
        }
        // `for x in &map {` / `for x in map {` — the other raw-iteration
        // spelling.
        if t == "in" && ctx.tok(i).kind == TokenKind::Ident {
            let mut j = i + 1;
            if j < n && ctx.is_punct(j, "&") {
                j += 1;
            }
            if j + 1 < n
                && ctx.tok(j).kind == TokenKind::Ident
                && map_vars.contains(&ctx.text(j))
                && ctx.is_punct(j + 1, "{")
            {
                out.push(Raw {
                    lint: "D001",
                    line: ctx.tok(j).line,
                    message: format!(
                        "unordered iteration over hash container `{}` in a plan-producing \
                         module; collect and sort by a canonical key first",
                        ctx.text(j)
                    ),
                });
            }
        }
    }
}

/// P001 — panic-safety: `unwrap`/`expect`, panicking macros, and
/// unchecked indexing in request-path serve modules. The daemon's
/// contract (PR 7) is that malformed input and poisoned state degrade
/// into structured `WireError`s; a panic tears down the connection
/// thread and, under a poisoned lock, cascades. `debug_assert*` is
/// exempt (compiled out of release builds).
fn p001(ctx: &Ctx, out: &mut Vec<Raw>) {
    if !in_scope(ctx.path, &ctx.cfg.p001_paths) {
        return;
    }
    // Keywords that may directly precede `[` without forming an index
    // expression (`&mut [u8]`, `dyn [..]`, `return [..]`, ...).
    const NON_EXPR_BEFORE_BRACKET: &[&str] = &[
        "mut", "dyn", "ref", "in", "as", "return", "break", "continue", "else", "move", "where",
        "impl", "for", "if", "while", "loop", "let", "pub", "use", "const", "static", "type", "fn",
        "enum", "struct", "trait", "mod", "unsafe", "match", "box",
    ];
    let n = ctx.scope.sig.len();
    for i in 0..n {
        if ctx.is_test(i) {
            continue;
        }
        let t = ctx.tok(i);
        let txt = ctx.text(i);
        if t.kind == TokenKind::Ident {
            let method_call =
                i >= 1 && ctx.is_punct(i - 1, ".") && i + 1 < n && ctx.is_punct(i + 1, "(");
            if method_call && (txt == "unwrap" || txt == "expect") {
                out.push(Raw {
                    lint: "P001",
                    line: t.line,
                    message: format!(
                        "`.{txt}()` in a request-path module; propagate a structured error \
                         (`WireError`/`SimError`) instead of panicking the daemon"
                    ),
                });
            }
            let is_macro = i + 1 < n && ctx.is_punct(i + 1, "!");
            if is_macro
                && matches!(
                    txt,
                    "panic"
                        | "unreachable"
                        | "todo"
                        | "unimplemented"
                        | "assert"
                        | "assert_eq"
                        | "assert_ne"
                )
            {
                out.push(Raw {
                    lint: "P001",
                    line: t.line,
                    message: format!(
                        "`{txt}!` in a request-path module; the daemon must degrade via \
                         structured errors, not panic (debug_assert* is allowed)"
                    ),
                });
            }
        }
        if t.kind == TokenKind::Punct && ctx.text(i) == "[" && i >= 1 {
            let p = ctx.tok(i - 1);
            let ptxt = ctx.text(i - 1);
            let expr_end = (p.kind == TokenKind::Ident && !NON_EXPR_BEFORE_BRACKET.contains(&ptxt))
                || (p.kind == TokenKind::Punct && (ptxt == ")" || ptxt == "]"));
            if expr_end {
                out.push(Raw {
                    lint: "P001",
                    line: t.line,
                    message: format!(
                        "unchecked indexing `{ptxt}[..]` in a request-path module; use \
                         `get`/`get_mut` or waive with the bound that makes it infallible"
                    ),
                });
            }
        }
    }
}

/// A001 — atomics-ordering audit. `Relaxed` provides no inter-thread
/// ordering: fine for monotone telemetry counters, wrong anywhere a
/// load is supposed to observe writes that happened-before. Allowed
/// only in the audited allow-list. Conversely `SeqCst` in hot paths is
/// a full fence per access — flagged so the cost is a decision, not a
/// default.
fn a001(ctx: &Ctx, out: &mut Vec<Raw>) {
    let relaxed_ok = in_scope(ctx.path, &ctx.cfg.a001_relaxed_allow);
    let seqcst_hot = in_scope(ctx.path, &ctx.cfg.a001_seqcst_hot);
    if relaxed_ok && !seqcst_hot {
        return;
    }
    for i in 0..ctx.scope.sig.len() {
        if ctx.is_test(i) || ctx.tok(i).kind != TokenKind::Ident {
            continue;
        }
        let t = ctx.text(i);
        if t == "Relaxed" && !relaxed_ok {
            out.push(Raw {
                lint: "A001",
                line: ctx.tok(i).line,
                message: "`Ordering::Relaxed` outside the audited allow-list; use \
                          Acquire/Release (or add this file to the telemetry allow-list with \
                          rationale)"
                    .to_string(),
            });
        }
        if t == "SeqCst" && seqcst_hot {
            out.push(Raw {
                lint: "A001",
                line: ctx.tok(i).line,
                message: "`SeqCst` in a hot-path module is a full fence per access; \
                          Acquire/Release is almost always sufficient here"
                    .to_string(),
            });
        }
    }
}

/// F001 — precision boundary: narrowing `as f32` casts outside the
/// `Scalar` impl. The inference stack is generic over its element type
/// and every f64 → f32 rounding goes through `Scalar::from_f64` /
/// `from_usize` (weights cast once at load, features at the arena
/// boundary); a stray narrowing cast elsewhere silently changes which
/// values carry reduced precision, or rounds twice. Widening `as f64` is
/// allowed everywhere (lossless for every f32).
fn f001(ctx: &Ctx, out: &mut Vec<Raw>) {
    if !in_scope(ctx.path, &ctx.cfg.f001_paths)
        || ctx.cfg.f001_tier_files.iter().any(|f| f == ctx.path)
    {
        return;
    }
    let n = ctx.scope.sig.len();
    for i in 0..n.saturating_sub(1) {
        if ctx.is_test(i) {
            continue;
        }
        if ctx.is_ident(i, "as") && ctx.is_ident(i + 1, "f32") {
            out.push(Raw {
                lint: "F001",
                line: ctx.tok(i).line,
                message: "narrowing `as f32` cast outside the `Scalar` impl \
                          (crates/nn/src/scalar.rs); route through `Scalar::from_f64` / \
                          `from_usize`"
                    .to_string(),
            });
        }
    }
}

/// L001 — lock discipline: blocking file I/O lexically inside a scope
/// that acquired a session lock. Holding a session lock across disk
/// I/O stalls every request for that session (and the accept path, if
/// it's the sessions map). Lexical only: a guard moved across a
/// function boundary (e.g. `durable_append`, which logs-then-acks by
/// design) is invisible to this rule and documented as such.
fn l001(ctx: &Ctx, out: &mut Vec<Raw>) {
    if !in_scope(ctx.path, &ctx.cfg.l001_paths) {
        return;
    }
    const IO_IDENTS: &[&str] = &[
        "File",
        "OpenOptions",
        "read_to_string",
        "read_dir",
        "create_dir",
        "create_dir_all",
        "remove_file",
        "rename",
        "sync_all",
        "sync_data",
        "canonicalize",
    ];
    let n = ctx.scope.sig.len();
    for i in 0..n {
        // `lock_recover` is this workspace's poison-recovering spelling
        // of `Mutex::lock` (crates/serve/src/sync.rs).
        if ctx.is_test(i) || !(ctx.is_ident(i, "lock") || ctx.is_ident(i, "lock_recover")) {
            continue;
        }
        let call = i >= 1 && ctx.is_punct(i - 1, ".") && i + 1 < n && ctx.is_punct(i + 1, "(");
        if !call {
            continue;
        }
        // Walk the receiver chain backwards (idents, `.`, `()` pairs)
        // looking for a session-ish name.
        let mut j = i - 1;
        let mut sessiony = false;
        let mut steps = 0;
        while j > 0 && steps < 12 {
            let txt = ctx.text(j);
            match ctx.tok(j).kind {
                TokenKind::Ident => {
                    if txt.contains("session") {
                        sessiony = true;
                    }
                }
                TokenKind::Punct if matches!(txt, "." | ")" | "(") => {}
                _ => break,
            }
            j -= 1;
            steps += 1;
        }
        if !sessiony {
            continue;
        }
        // From the lock site to the close of the enclosing brace, any
        // file-I/O ident runs under the held lock.
        let d = ctx.scope.depth[i];
        let mut k = i + 1;
        while k < n {
            if ctx.scope.depth[k] < d || (ctx.scope.depth[k] == d && ctx.is_punct(k, "}")) {
                break;
            }
            if ctx.tok(k).kind == TokenKind::Ident {
                let t = ctx.text(k);
                if IO_IDENTS.contains(&t) || t == "fs" {
                    out.push(Raw {
                        lint: "L001",
                        line: ctx.tok(k).line,
                        message: format!(
                            "file I/O (`{t}`) inside a scope holding a session lock (acquired \
                             line {}); do the I/O before or after the critical section",
                            ctx.tok(i).line
                        ),
                    });
                }
            }
            k += 1;
        }
    }
}

/// H001 — crate-root hygiene: every crate root (`src/lib.rs` /
/// `src/main.rs` under `crates/`) must carry `#![forbid(unsafe_code)]`.
/// `src/bin/*` targets inherit review via their crate's lib and are
/// exempt.
fn h001(ctx: &Ctx, out: &mut Vec<Raw>) {
    let parts: Vec<&str> = ctx.path.split('/').collect();
    let is_root = parts.len() == 4
        && parts[0] == "crates"
        && parts[2] == "src"
        && (parts[3] == "lib.rs" || parts[3] == "main.rs");
    if !is_root {
        return;
    }
    let n = ctx.scope.sig.len();
    let mut found = false;
    for i in 0..n.saturating_sub(7) {
        if ctx.is_punct(i, "#")
            && ctx.is_punct(i + 1, "!")
            && ctx.is_punct(i + 2, "[")
            && ctx.is_ident(i + 3, "forbid")
            && ctx.is_punct(i + 4, "(")
            && ctx.is_ident(i + 5, "unsafe_code")
            && ctx.is_punct(i + 6, ")")
            && ctx.is_punct(i + 7, "]")
        {
            found = true;
            break;
        }
    }
    if !found {
        out.push(Raw {
            lint: "H001",
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}
