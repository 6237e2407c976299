//! API-hygiene family: panics, `f32`, float equality.

use super::{Diagnostic, FileKind, RuleCtx};
use crate::lexer::TokenKind;

/// `api/no-unwrap` — in non-test *library* code (bins and examples are
/// operator-facing and may crash loudly), forbid:
///
/// * bare `.unwrap()` — use `expect("…")` with a message or return
///   `Result`;
/// * `expect("")` with an empty message — same thing in a trench coat;
/// * `panic!()` with no message, and `panic!("{e}")`-style messages that
///   carry *only* interpolations — a panic must say what invariant broke,
///   not just echo a value;
/// * `todo!` / `unimplemented!` — unfinished code does not merge.
///
/// `unreachable!` stays legal: it documents impossibility rather than
/// deferring error handling, and the model checker hunts those branches.
pub fn no_unwrap(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind != FileKind::Lib {
        return;
    }
    for ci in 0..ctx.code.len() {
        let Some(text) = ctx.ctext(ci) else { continue };
        let is_test = || ctx.in_test(ci);
        match text {
            "unwrap"
                if ctx.ctext(ci.wrapping_sub(1)) == Some(".")
                    && ctx.ctext(ci + 1) == Some("(")
                    && ctx.ctext(ci + 2) == Some(")")
                    && !is_test() =>
            {
                out.push(ctx.diag(
                    ci,
                    "api/no-unwrap",
                    "bare `unwrap()` in library code".into(),
                    "use `expect(\"what invariant held\")` or propagate with `?`",
                ));
            }
            "expect"
                if ctx.ctext(ci.wrapping_sub(1)) == Some(".")
                    && ctx.ctext(ci + 1) == Some("(")
                    && ctx.ctext(ci + 2).is_some_and(|s| s == "\"\"")
                    && !is_test() =>
            {
                out.push(ctx.diag(
                    ci,
                    "api/no-unwrap",
                    "`expect(\"\")` with an empty message".into(),
                    "say what invariant justified the expectation",
                ));
            }
            "panic" if ctx.ctext(ci + 1) == Some("!") && !is_test() => {
                if let Some(problem) = panic_message_problem(ctx, ci) {
                    out.push(ctx.diag(
                        ci,
                        "api/no-unwrap",
                        problem.into(),
                        "give the panic a message that names the broken invariant \
                         (or return Result)",
                    ));
                }
            }
            "todo" | "unimplemented" if ctx.ctext(ci + 1) == Some("!") && !is_test() => {
                out.push(ctx.diag(
                    ci,
                    "api/no-unwrap",
                    format!("`{text}!` in library code"),
                    "finish the path or return an explicit error",
                ));
            }
            _ => {}
        }
    }
}

/// Why a `panic!` at code index `ci` violates the rule, if it does.
fn panic_message_problem(ctx: &RuleCtx<'_>, ci: usize) -> Option<&'static str> {
    // Tokens: panic ! ( <first-arg> …
    if ctx.ctext(ci + 2) != Some("(") {
        return None; // `panic!{…}` braces form — rare; let it pass
    }
    let first = ctx.ctok(ci + 3)?;
    if ctx.ctext(ci + 3) == Some(")") {
        return Some("`panic!()` with no message");
    }
    if !matches!(first.kind, TokenKind::Str | TokenKind::RawStr) {
        return Some("`panic!` whose first argument is not a message literal");
    }
    // Strip quotes and `{…}` interpolations; if nothing informative
    // remains, the message is context-free.
    let lit = first.text(ctx.src);
    let body = lit
        .trim_start_matches('r')
        .trim_matches('#')
        .trim_matches('"');
    let mut stripped = String::new();
    let mut depth = 0u32;
    for c in body.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => stripped.push(c),
            _ => {}
        }
    }
    if !stripped.chars().any(|c| c.is_ascii_alphanumeric()) {
        return Some("`panic!` message carries no context, only interpolated values");
    }
    None
}

/// `api/no-f32` — energy and time arithmetic is `f64` end to end: the
/// ledger's bit-identity guarantees (PR 3) and the GBRT threshold
/// round-trips die in single precision. Applies to the crates the policy
/// names.
pub fn no_f32(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind == FileKind::Test {
        return;
    }
    let crates = ctx.policy.list("rules.no-f32.crates");
    if !crates.iter().any(|c| c == ctx.crate_name) {
        return;
    }
    for ci in 0..ctx.code.len() {
        let Some(tok) = ctx.ctok(ci) else { continue };
        let flagged = match tok.kind {
            TokenKind::Ident => ctx.ctext(ci) == Some("f32"),
            TokenKind::Num { float: true } => ctx.ctext(ci).is_some_and(|t| t.ends_with("f32")),
            _ => false,
        };
        if flagged && !ctx.in_test(ci) {
            out.push(ctx.diag(
                ci,
                "api/no-f32",
                "`f32` in an energy/time crate".into(),
                "use f64; single precision breaks ledger bit-identity and model round-trips",
            ));
        }
    }
}

/// `api/float-eq` — `==`/`!=` with a float-literal operand. Exact
/// comparison is occasionally right; two escapes exist:
///
/// * **proven division guards** are exempt automatically: the dataflow
///   pass ([`crate::dataflow::div_guard_spans`]) proves `x == 0.0` guards
///   a division by `x` (the non-zero branch divides, or the zero branch
///   diverges and a later statement divides), so the exact comparison is
///   the correct IEEE idiom and needs no justification;
/// * everything else (an IEEE-exact sentinel, a subgradient branch)
///   carries a `lint:allow(api/float-eq)` with the reason, which is the
///   point: exactness stays a reviewed decision.
pub fn float_eq(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind == FileKind::Test {
        return;
    }
    for ci in 0..ctx.code.len() {
        let Some(tok) = ctx.ctok(ci) else { continue };
        if tok.kind != TokenKind::Punct {
            continue;
        }
        if ctx
            .guards
            .iter()
            .any(|&(s, e)| tok.start >= s && tok.start < e)
        {
            continue;
        }
        let op = ctx.ctext(ci).unwrap_or("");
        if op != "==" && op != "!=" {
            continue;
        }
        let float_side = [ci.wrapping_sub(1), ci + 1].into_iter().find(|&side| {
            matches!(
                ctx.ctok(side).map(|t| t.kind),
                Some(TokenKind::Num { float: true })
            )
        });
        let Some(side) = float_side else { continue };
        if ctx.in_test(ci) {
            continue;
        }
        let lit = ctx.ctext(side).unwrap_or("");
        out.push(ctx.diag(
            ci,
            "api/float-eq",
            format!("float equality against `{lit}`"),
            "compare with an epsilon helper, or justify exactness with \
             `// lint:allow(api/float-eq) <why>`",
        ));
    }
}
