//! The in-source allowlist grammar:
//!
//! ```text
//! // lint:allow(<rule-id>) <justification>
//! ```
//!
//! Two scopes, chosen by placement:
//!
//! * **trailing** — after code on the same line: suppresses the rule on
//!   *that line only*;
//! * **own-line** — a comment line of its own: suppresses the rule from
//!   that line to the **end of the enclosing block** (like `#[allow]` on
//!   a statement-less scope). At the top of a function body it covers the
//!   whole function; at module level it covers the rest of the file.
//!
//! A justification is mandatory — `lint:allow(rule)` with nothing after
//! the closing parenthesis is itself reported (`lint/bad-allow`), as is an
//! allow naming an unknown rule. Allow comments never apply to other
//! files and are intentionally line-oriented so `git blame` keeps the
//! justification next to the suppressed code.

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};

/// One parsed allow directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule id being allowed.
    pub rule: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Last line covered (same as `line` for trailing allows; the end of
    /// the enclosing block for own-line allows).
    pub until_line: u32,
    /// The justification text (non-empty by construction).
    pub justification: String,
}

/// Parses every allow directive in the file, given all its tokens
/// (comments included). Malformed directives are returned as
/// diagnostics in the second tuple slot.
pub fn parse(
    src: &str,
    tokens: &[Token],
    file: &str,
    known_rules: &[&str],
) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        // Only plain `//` comments are directives — doc comments mention
        // the grammar in prose (this module does) without meaning it.
        if !matches!(tok.kind, TokenKind::LineComment { doc: false }) {
            continue;
        }
        let text = tok.text(src);
        let Some(at) = text.find("lint:allow(") else {
            continue;
        };
        let rest = &text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            bad.push(malformed(file, tok.line, tok.col, "missing `)`"));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let justification = rest[close + 1..].trim().to_string();
        if rule.is_empty() {
            bad.push(malformed(file, tok.line, tok.col, "empty rule id"));
            continue;
        }
        if !known_rules.contains(&rule.as_str()) {
            bad.push(Diagnostic {
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                rule: "lint/bad-allow".into(),
                message: format!("`lint:allow({rule})` names an unknown rule"),
                hint: format!("known rules: {}", known_rules.join(", ")),
            });
            continue;
        }
        if justification.is_empty() {
            bad.push(Diagnostic {
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                rule: "lint/bad-allow".into(),
                message: format!("`lint:allow({rule})` has no justification"),
                hint: "write why the exception is sound after the `)`".into(),
            });
            continue;
        }
        // Trailing if any non-comment token starts on the same line
        // before this comment.
        let trailing = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_comment());
        let until_line = if trailing {
            tok.line
        } else {
            end_of_enclosing_block(src, tokens, i)
        };
        allows.push(Allow {
            rule,
            line: tok.line,
            until_line,
            justification,
        });
    }
    (allows, bad)
}

fn malformed(file: &str, line: u32, col: u32, what: &str) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        col,
        rule: "lint/bad-allow".into(),
        message: format!("malformed `lint:allow` directive: {what}"),
        hint: "expected `// lint:allow(<rule>) <justification>`".into(),
    }
}

/// The last line of the block enclosing token `i`: the line of the first
/// later `}` that closes a brace still open at `i` (end of file at module
/// level).
fn end_of_enclosing_block(src: &str, tokens: &[Token], i: usize) -> u32 {
    let mut depth = 0u32;
    for tok in tokens.iter().skip(i + 1) {
        if tok.kind != TokenKind::Punct {
            continue;
        }
        match tok.text(src) {
            "{" => depth += 1,
            "}" if depth == 0 => return tok.line,
            "}" => depth -= 1,
            _ => {}
        }
    }
    u32::MAX
}

/// Whether a diagnostic for `rule` at `line` is suppressed by `allows`.
pub fn suppressed(allows: &[Allow], rule: &str, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.rule == rule && line >= a.line && line <= a.until_line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const RULES: &[&str] = &["api/float-eq", "api/no-unwrap"];

    #[test]
    fn trailing_allow_covers_its_line_only() {
        let src = "fn f(x: f64) -> bool {\n    x == 0.5 // lint:allow(api/float-eq) threshold is exact\n}\nfn g(x: f64) -> bool { x == 0.5 }\n";
        let (allows, bad) = parse(src, &lex(src), "f.rs", RULES);
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 1);
        assert!(suppressed(&allows, "api/float-eq", 2));
        assert!(!suppressed(&allows, "api/float-eq", 4));
        assert!(
            !suppressed(&allows, "api/no-unwrap", 2),
            "other rules unaffected"
        );
    }

    #[test]
    fn own_line_allow_covers_enclosing_block() {
        let src = "fn f(x: f64) -> bool {\n    // lint:allow(api/float-eq) sentinel comparisons below\n    let a = x == 0.0;\n    a && x != 1.0\n}\nfn g(x: f64) -> bool { x == 0.5 }\n";
        let (allows, _) = parse(src, &lex(src), "f.rs", RULES);
        assert!(suppressed(&allows, "api/float-eq", 3));
        assert!(suppressed(&allows, "api/float-eq", 4));
        assert!(
            !suppressed(&allows, "api/float-eq", 6),
            "next fn not covered"
        );
    }

    #[test]
    fn justification_is_mandatory() {
        let src = "// lint:allow(api/float-eq)\nfn f() {}\n";
        let (allows, bad) = parse(src, &lex(src), "f.rs", RULES);
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("no justification"));
    }

    #[test]
    fn doc_comments_are_prose_not_directives() {
        let src = "//! Use `lint:allow(api/whatever)` to suppress.\n/// Same here: lint:allow(api/float-eq)\nfn f() {}\n";
        let (allows, bad) = parse(src, &lex(src), "f.rs", RULES);
        assert!(allows.is_empty());
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn unknown_rule_is_reported() {
        let src = "// lint:allow(api/nonsense) because\nfn f() {}\n";
        let (allows, bad) = parse(src, &lex(src), "f.rs", RULES);
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unknown rule"));
    }
}
