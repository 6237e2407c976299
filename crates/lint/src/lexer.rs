//! A hand-rolled Rust lexer.
//!
//! Produces a flat token stream with byte spans and line/column positions.
//! The lexer is *total*: any byte sequence lexes without panicking, and the
//! concatenation of token slices plus the (whitespace-only, for valid Rust)
//! gaps between them reconstructs the input exactly — a property the
//! proptest suite enforces. Handled Rust-isms that trip naive tokenizers:
//!
//! * nested block comments (`/* /* */ */`) and doc forms (`///`, `//!`,
//!   `/**`, `/*!`);
//! * raw strings with arbitrary hash fences (`r##"…"##`), byte strings,
//!   raw byte strings, and raw *identifiers* (`r#fn`), which share a
//!   prefix with raw strings;
//! * lifetimes vs char literals (`'a` vs `'a'`, `'static`, `'\u{1F600}'`);
//! * float vs field-access dots (`1.0` vs `tuple.0.1` vs `1.method()`),
//!   exponents, and type suffixes;
//! * a shebang line (`#!/usr/bin/env …`) which is *not* an inner
//!   attribute (`#![…]`).
//!
//! Unterminated literals/comments extend to end of input rather than
//! erroring: the linter must keep going on code mid-edit.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers like `r#fn`).
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// A char literal `'x'`, including escapes.
    Char,
    /// A byte literal `b'x'`.
    Byte,
    /// A string literal `"…"`.
    Str,
    /// A raw string literal `r"…"` / `r#"…"#`.
    RawStr,
    /// A byte string `b"…"`.
    ByteStr,
    /// A raw byte string `br#"…"#`.
    RawByteStr,
    /// A numeric literal. `float` is true for `1.0`, `1e3`, `1f64`, …
    Num {
        /// Whether the literal is a float (decimal point, exponent, or
        /// `f32`/`f64` suffix).
        float: bool,
    },
    /// `// …` comment; `doc` marks `///` and `//!` forms.
    LineComment {
        /// Whether this is a doc comment.
        doc: bool,
    },
    /// `/* … */` comment (nesting-aware); `doc` marks `/**` and `/*!`.
    BlockComment {
        /// Whether this is a doc comment.
        doc: bool,
    },
    /// An operator or delimiter, maximally munched (`==`, `::`, `..=`, …).
    Punct,
    /// A `#!…` shebang on the first line.
    Shebang,
    /// A byte that fits no other class (emitted verbatim, never fatal).
    Unknown,
}

/// One lexed token with its exact byte span and position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the first byte.
    pub col: u32,
}

impl Token {
    /// The token's text within `src` (the string it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// Whether the token is any kind of comment.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment { .. } | TokenKind::BlockComment { .. }
        )
    }
}

/// Multi-character operators, longest first so maximal munch is a simple
/// first-match scan.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "->", "=>", "::", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one *char* (UTF-8 aware) and updates line/col.
    fn bump(&mut self) {
        if let Some(&b) = self.bytes.get(self.pos) {
            let width = utf8_width(b);
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.pos = (self.pos + width).min(self.bytes.len());
        }
    }

    /// Advances while `pred` holds on the current byte.
    fn eat_while(&mut self, mut pred: impl FnMut(u8) -> bool) {
        while let Some(b) = self.peek(0) {
            if pred(b) {
                self.bump();
            } else {
                break;
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// The tokens code is made of: `tokens` without comments and the shebang.
pub fn code_tokens(tokens: &[Token]) -> Vec<Token> {
    tokens
        .iter()
        .filter(|t| !t.is_comment() && t.kind != TokenKind::Shebang)
        .copied()
        .collect()
}

/// Lexes `src` completely. Never panics; see module docs for guarantees.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();

    // Shebang: `#!` at offset 0 not followed by `[` (which would be an
    // inner attribute like `#![allow(…)]`).
    if src.starts_with("#!") && !src[2..].trim_start().starts_with('[') {
        let (line, col) = (cur.line, cur.col);
        cur.eat_while(|b| b != b'\n');
        out.push(Token {
            kind: TokenKind::Shebang,
            start: 0,
            end: cur.pos,
            line,
            col,
        });
    }

    while let Some(b) = cur.peek(0) {
        if b.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        let start = cur.pos;
        let (line, col) = (cur.line, cur.col);
        let kind = lex_one(&mut cur, b);
        // Defensive: guarantee forward progress on any input.
        if cur.pos == start {
            cur.bump();
        }
        out.push(Token {
            kind,
            start,
            end: cur.pos,
            line,
            col,
        });
    }
    out
}

fn lex_one(cur: &mut Cursor<'_>, b: u8) -> TokenKind {
    match b {
        b'/' if cur.peek(1) == Some(b'/') => line_comment(cur),
        b'/' if cur.peek(1) == Some(b'*') => block_comment(cur),
        b'r' if matches!(cur.peek(1), Some(b'"') | Some(b'#')) => raw_or_ident(cur, false),
        b'b' => byte_ish(cur),
        b'"' => {
            string_body(cur);
            TokenKind::Str
        }
        b'\'' => quote_ish(cur),
        b'0'..=b'9' => number(cur),
        _ if is_ident_start(b) => {
            cur.eat_while(is_ident_continue);
            TokenKind::Ident
        }
        _ => punct(cur),
    }
}

fn line_comment(cur: &mut Cursor<'_>) -> TokenKind {
    let start = cur.pos;
    cur.eat_while(|b| b != b'\n');
    let text = &cur.src[start..cur.pos];
    // `///x` is doc, `////x` is not; `//!` is doc.
    let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
    TokenKind::LineComment { doc }
}

fn block_comment(cur: &mut Cursor<'_>) -> TokenKind {
    let start = cur.pos;
    cur.bump(); // /
    cur.bump(); // *
    let mut depth = 1u32;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some(b'/'), Some(b'*')) => {
                depth += 1;
                cur.bump();
                cur.bump();
            }
            (Some(b'*'), Some(b'/')) => {
                depth -= 1;
                cur.bump();
                cur.bump();
            }
            (Some(_), _) => cur.bump(),
            (None, _) => break, // unterminated: runs to EOF
        }
    }
    let text = &cur.src[start..cur.pos];
    // `/**/` and `/***/`-style rulers are not doc comments.
    let doc = (text.starts_with("/**") && text.len() > 4 && !text.starts_with("/***"))
        || text.starts_with("/*!");
    TokenKind::BlockComment { doc }
}

/// After `r`: raw string `r"…"`/`r#"…"#…`, or raw identifier `r#ident`.
fn raw_or_ident(cur: &mut Cursor<'_>, byte: bool) -> TokenKind {
    let fence_start = cur.pos;
    cur.bump(); // r
    let mut hashes = 0usize;
    while cur.peek(0) == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    match cur.peek(0) {
        Some(b'"') => {
            cur.bump();
            raw_string_body(cur, hashes);
            if byte {
                TokenKind::RawByteStr
            } else {
                TokenKind::RawStr
            }
        }
        Some(c) if hashes == 1 && is_ident_start(c) && !byte => {
            // Raw identifier `r#match`.
            cur.eat_while(is_ident_continue);
            TokenKind::Ident
        }
        _ => {
            // `r` alone (an identifier) or `r#` junk: rewind conceptually
            // by treating what we consumed as an identifier/punct run.
            if hashes == 0 {
                cur.eat_while(is_ident_continue);
                TokenKind::Ident
            } else {
                // Leave position as-is (r + hashes consumed) — lossless,
                // classified as Unknown.
                let _ = fence_start;
                TokenKind::Unknown
            }
        }
    }
}

/// Scans a raw-string body after the opening quote until `"` followed by
/// `hashes` hash marks (or EOF).
fn raw_string_body(cur: &mut Cursor<'_>, hashes: usize) {
    while let Some(b) = cur.peek(0) {
        cur.bump();
        if b == b'"' {
            let mut seen = 0usize;
            while seen < hashes && cur.peek(0) == Some(b'#') {
                cur.bump();
                seen += 1;
            }
            if seen == hashes {
                return;
            }
        }
    }
}

/// Scans a `"…"` body including the quotes, honoring `\"` and `\\`.
fn string_body(cur: &mut Cursor<'_>) {
    cur.bump(); // opening "
    while let Some(b) = cur.peek(0) {
        match b {
            b'\\' => {
                cur.bump();
                if cur.peek(0).is_some() {
                    cur.bump();
                }
            }
            b'"' => {
                cur.bump();
                return;
            }
            _ => cur.bump(),
        }
    }
}

/// After `b`: byte literal `b'x'`, byte string `b"…"`, raw byte string
/// `br#"…"#`, or just an identifier starting with `b`.
fn byte_ish(cur: &mut Cursor<'_>) -> TokenKind {
    match (cur.peek(1), cur.peek(2)) {
        (Some(b'\''), _) => {
            cur.bump(); // b
            char_body(cur);
            TokenKind::Byte
        }
        (Some(b'"'), _) => {
            cur.bump(); // b
            string_body(cur);
            TokenKind::ByteStr
        }
        (Some(b'r'), Some(b'"')) | (Some(b'r'), Some(b'#')) => {
            cur.bump(); // b
            raw_or_ident(cur, true)
        }
        _ => {
            cur.eat_while(is_ident_continue);
            TokenKind::Ident
        }
    }
}

/// After `'`: a lifetime (`'a`, `'static`) or a char literal (`'x'`,
/// `'\n'`, `'\u{0}'`). Disambiguation: `'ident` not followed by a closing
/// quote is a lifetime.
fn quote_ish(cur: &mut Cursor<'_>) -> TokenKind {
    // Look ahead without committing: 'X' where X is a single ident char
    // could still be a char literal ('a') — decided by the byte after X.
    if let Some(n1) = cur.peek(1) {
        if is_ident_start(n1) && n1 != b'\\' {
            // Scan the ident run after the quote.
            let mut ahead = 1 + utf8_width(n1);
            while let Some(nb) = cur.peek(ahead) {
                if is_ident_continue(nb) {
                    ahead += utf8_width(nb);
                } else {
                    break;
                }
            }
            if cur.peek(ahead) != Some(b'\'') {
                // Lifetime: consume quote + ident run.
                cur.bump();
                cur.eat_while(is_ident_continue);
                return TokenKind::Lifetime;
            }
        }
    }
    char_body(cur);
    TokenKind::Char
}

/// Scans `'…'` including quotes, honoring escapes; unterminated runs to
/// the end of the line (chars never span lines in valid Rust).
fn char_body(cur: &mut Cursor<'_>) {
    cur.bump(); // opening '
    while let Some(b) = cur.peek(0) {
        match b {
            b'\\' => {
                cur.bump();
                if cur.peek(0).is_some() {
                    cur.bump();
                }
            }
            b'\'' => {
                cur.bump();
                return;
            }
            b'\n' => return, // unterminated on this line
            _ => cur.bump(),
        }
    }
}

fn number(cur: &mut Cursor<'_>) -> TokenKind {
    let mut float = false;
    if cur.peek(0) == Some(b'0')
        && matches!(
            cur.peek(1),
            Some(b'x') | Some(b'o') | Some(b'b') | Some(b'X')
        )
    {
        cur.bump();
        cur.bump();
        cur.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        return TokenKind::Num { float: false };
    }
    cur.eat_while(|b| b.is_ascii_digit() || b == b'_');
    // A decimal point only if followed by a digit or nothing ident-like:
    // `1.0` is a float, `1.max(2)` and `tuple.0` are not.
    if cur.peek(0) == Some(b'.') {
        match cur.peek(1) {
            Some(d) if d.is_ascii_digit() => {
                float = true;
                cur.bump();
                cur.eat_while(|b| b.is_ascii_digit() || b == b'_');
            }
            Some(d) if is_ident_start(d) || d == b'.' => {}
            _ => {
                // Trailing-dot float `1.`
                float = true;
                cur.bump();
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(0), Some(b'e') | Some(b'E')) {
        let sign = matches!(cur.peek(1), Some(b'+') | Some(b'-'));
        let digit_at = if sign { 2 } else { 1 };
        if matches!(cur.peek(digit_at), Some(d) if d.is_ascii_digit()) {
            float = true;
            cur.bump();
            if sign {
                cur.bump();
            }
            cur.eat_while(|b| b.is_ascii_digit() || b == b'_');
        }
    }
    // Type suffix (`u32`, `f64`, …) — glued to the literal token.
    if matches!(cur.peek(0), Some(b) if is_ident_start(b)) {
        let suffix_start = cur.pos;
        cur.eat_while(is_ident_continue);
        let suffix = &cur.src[suffix_start..cur.pos];
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
    }
    TokenKind::Num { float }
}

fn punct(cur: &mut Cursor<'_>) -> TokenKind {
    let rest = &cur.src[cur.pos..];
    for op in OPERATORS {
        if rest.starts_with(op) {
            for _ in 0..op.len() {
                cur.bump();
            }
            return TokenKind::Punct;
        }
    }
    let b = cur.peek(0).unwrap_or(0);
    cur.bump();
    if b.is_ascii_punctuation() {
        TokenKind::Punct
    } else {
        TokenKind::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("let x = a == b;");
        assert_eq!(ks[0], (TokenKind::Ident, "let".into()));
        assert_eq!(ks[3], (TokenKind::Ident, "a".into()));
        assert_eq!(ks[4], (TokenKind::Punct, "==".into()));
    }

    #[test]
    fn lifetime_vs_char() {
        let ks = kinds("&'a str; 'x'; 'static; '\\n'; b'q'");
        assert!(ks.iter().any(|k| k == &(TokenKind::Lifetime, "'a".into())));
        assert!(ks.iter().any(|k| k == &(TokenKind::Char, "'x'".into())));
        assert!(ks
            .iter()
            .any(|k| k == &(TokenKind::Lifetime, "'static".into())));
        assert!(ks.iter().any(|k| k == &(TokenKind::Char, "'\\n'".into())));
        assert!(ks.iter().any(|k| k == &(TokenKind::Byte, "b'q'".into())));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let src = r####"r"plain" r#"one # inside"# r##"two "# inside"## r#fn br#"raw bytes"#"####;
        let ks = kinds(src);
        assert_eq!(ks[0].0, TokenKind::RawStr);
        assert_eq!(ks[1].0, TokenKind::RawStr);
        assert_eq!(ks[1].1, r###"r#"one # inside"#"###);
        assert_eq!(ks[2].0, TokenKind::RawStr);
        assert_eq!(ks[3], (TokenKind::Ident, "r#fn".into()));
        assert_eq!(ks[4].0, TokenKind::RawByteStr);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still outer */ x";
        let ks = kinds(src);
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].0, TokenKind::BlockComment { doc: false });
        assert_eq!(ks[1], (TokenKind::Ident, "x".into()));
    }

    #[test]
    fn doc_comment_classification() {
        assert_eq!(kinds("/// doc")[0].0, TokenKind::LineComment { doc: true });
        assert_eq!(kinds("//! doc")[0].0, TokenKind::LineComment { doc: true });
        assert_eq!(
            kinds("//// ruler")[0].0,
            TokenKind::LineComment { doc: false }
        );
        assert_eq!(
            kinds("/** doc */")[0].0,
            TokenKind::BlockComment { doc: true }
        );
        assert_eq!(
            kinds("/*! doc */")[0].0,
            TokenKind::BlockComment { doc: true }
        );
        assert_eq!(
            kinds("/*** ruler ***/")[0].0,
            TokenKind::BlockComment { doc: false }
        );
        assert_eq!(kinds("/**/")[0].0, TokenKind::BlockComment { doc: false });
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("1.0")[0].0, TokenKind::Num { float: true });
        assert_eq!(kinds("1e5")[0].0, TokenKind::Num { float: true });
        assert_eq!(kinds("1E-5")[0].0, TokenKind::Num { float: true });
        assert_eq!(kinds("3f64")[0].0, TokenKind::Num { float: true });
        assert_eq!(kinds("42")[0].0, TokenKind::Num { float: false });
        assert_eq!(kinds("0xff_u8")[0].0, TokenKind::Num { float: false });
        // `1.max(2)`: int, dot, ident.
        let ks = kinds("1.max(2)");
        assert_eq!(ks[0].0, TokenKind::Num { float: false });
        assert_eq!(ks[1], (TokenKind::Punct, ".".into()));
        // `t.0.1` — like rustc, `0.1` lexes as one float and the parser
        // would re-split it for tuple indexing.
        let ks = kinds("t.0.1");
        assert_eq!(ks[2].0, TokenKind::Num { float: true });
        // `t.0.x` — the int field stays an int.
        let ks = kinds("t.0.x");
        assert_eq!(ks[2].0, TokenKind::Num { float: false });
    }

    #[test]
    fn shebang_vs_inner_attribute() {
        let ks = kinds("#!/usr/bin/env run\nfn main() {}");
        assert_eq!(ks[0].0, TokenKind::Shebang);
        let ks = kinds("#![allow(dead_code)]");
        assert_eq!(ks[0], (TokenKind::Punct, "#".into()));
    }

    #[test]
    fn unterminated_forms_reach_eof_without_panic() {
        for src in ["\"abc", "/* open", "r#\"open", "'x", "b\"open"] {
            let toks = lex(src);
            assert!(!toks.is_empty());
            assert_eq!(toks.last().map(|t| t.end), Some(src.len()), "{src:?}");
        }
    }

    #[test]
    fn spans_reconstruct_source() {
        let src = "fn f(a_s: f64) -> f64 { a_s + 1.0 } // done";
        let toks = lex(src);
        let mut rebuilt = String::new();
        let mut at = 0;
        for t in &toks {
            assert!(t.start >= at, "overlap");
            assert!(src[at..t.start].chars().all(char::is_whitespace));
            rebuilt.push_str(&src[at..t.start]);
            rebuilt.push_str(t.text(src));
            at = t.end;
        }
        rebuilt.push_str(&src[at..]);
        assert_eq!(rebuilt, src);
    }
}
