//! Determinism family: wall clock, hash-order iteration, ambient RNG.
//!
//! Every simulation artifact in this workspace — goldens, EXPERIMENTS.md
//! tables, ledger folds — must be a pure function of (config, seed). These
//! rules make the three classic leaks unmergeable: reading the host
//! clock, letting `HashMap` iteration order reach serialized output, and
//! drawing randomness from anywhere but the seeded `simcore::rng`.

use super::{Diagnostic, FileKind, RuleCtx};
use crate::ast::ItemKind;
use crate::lexer::TokenKind;
use std::collections::BTreeSet;

/// `determinism/wall-clock` — forbid `Instant`/`SystemTime`/`std::time`
/// outside the crates the policy allows (`allowed_crates`). Benchmarks
/// measure real time by design; the simulation must not.
pub fn wall_clock(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    let allowed = ctx.policy.list("rules.wall-clock.allowed_crates");
    if allowed.iter().any(|c| c == ctx.crate_name) {
        return;
    }
    for ci in 0..ctx.code.len() {
        let Some(tok) = ctx.ctok(ci) else { continue };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = ctx.ctext(ci).unwrap_or("");
        let hit = match text {
            "Instant" | "SystemTime" | "UNIX_EPOCH" => true,
            "time" => {
                ctx.ctext(ci.wrapping_sub(1)) == Some("::")
                    && ctx.ctext(ci.wrapping_sub(2)) == Some("std")
            }
            _ => false,
        };
        if hit {
            out.push(ctx.diag(
                ci,
                "determinism/wall-clock",
                format!("`{text}` reads the host clock; simulation time must come from `SimTime`"),
                "use the simulated clock, or move the measurement into crates/bench",
            ));
        }
    }
}

/// `determinism/ambient-rng` — forbid thread-local or OS randomness
/// anywhere: every random draw comes from a seeded `simcore::Xoshiro256`.
pub fn ambient_rng(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    for ci in 0..ctx.code.len() {
        let Some(tok) = ctx.ctok(ci) else { continue };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = ctx.ctext(ci).unwrap_or("");
        let hit = match text {
            "thread_rng" | "OsRng" | "from_entropy" | "getrandom" => true,
            "rand" => ctx.ctext(ci + 1) == Some("::"),
            _ => false,
        };
        if hit {
            out.push(ctx.diag(
                ci,
                "determinism/ambient-rng",
                format!("`{text}` draws ambient randomness; per-seed reproducibility breaks"),
                "thread a seeded `simcore::Xoshiro256` (or a fork of one) through this path",
            ));
        }
    }
}

/// `determinism/hash-iter` — two checks:
///
/// 1. a `#[derive(Serialize)]` type with a `HashMap`/`HashSet` field is
///    flagged at the field: serde walks the container in hash order, so
///    two runs serialize the same value differently;
/// 2. inside any non-test function that transitively feeds serialization
///    (see [`crate::callgraph`]), iterating a hash-typed local, parameter,
///    or field (`for … in`, `.iter()`, `.keys()`, `.values()`, `.drain()`,
///    `.into_iter()`) is flagged.
pub fn hash_iter(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    // Check 1: serializable hash-ordered fields.
    ctx.ast.for_each_item(&mut |item, in_test| {
        let ItemKind::Type(ty) = &item.kind else {
            return;
        };
        if in_test || ctx.kind == FileKind::Test || !ty.derives.iter().any(|d| d == "Serialize") {
            return;
        }
        for (span, field, field_ty) in &ty.hash_fields {
            out.push(ctx.diag_span(
                *span,
                "determinism/hash-iter",
                format!(
                    "`{}::{field}` is `{}` on a `#[derive(Serialize)]` type; serde emits it in hash order",
                    ty.name, compact(field_ty)
                ),
                "switch the field to BTreeMap/BTreeSet (or sort before emitting)",
            ));
        }
    });

    // Check 2: iteration of hash-typed names in tainted functions.
    let hash_names = collect_hash_names(ctx);
    if hash_names.is_empty() {
        return;
    }
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "drain",
        "into_keys",
        "into_values",
    ];
    for ci in 0..ctx.code.len() {
        if ctx.in_test(ci) {
            continue;
        }
        let Some(f) = ctx.enclosing_fn(ci) else {
            continue;
        };
        if !ctx.taint.is_tainted(&f.name) {
            continue;
        }
        let text = ctx.ctext(ci).unwrap_or("");
        // `for … in <segment containing a hash name> {`
        if text == "for" {
            let mut j = ci + 1;
            let mut saw_in = false;
            let mut level = 0i64;
            while let Some(t) = ctx.ctext(j) {
                match t {
                    "in" => saw_in = true,
                    "(" | "[" => level += 1,
                    ")" | "]" => level -= 1,
                    "{" if level <= 0 && saw_in => break,
                    _ if saw_in && hash_names.contains(t) && is_value_use(ctx, j) => {
                        out.push(ctx.diag(
                            j,
                            "determinism/hash-iter",
                            format!(
                                "`for` over hash-ordered `{t}` inside `{}`, which feeds serialized output",
                                f.name
                            ),
                            "use BTreeMap/BTreeSet, or collect and sort before iterating",
                        ));
                        break;
                    }
                    _ => {}
                }
                j += 1;
                if j > ci + 64 {
                    break; // runaway header; bail quietly
                }
            }
            continue;
        }
        // `name.iter()` style.
        if hash_names.contains(text)
            && is_value_use(ctx, ci)
            && ctx.ctext(ci + 1) == Some(".")
            && ctx.ctext(ci + 2).is_some_and(|m| ITER_METHODS.contains(&m))
            && ctx.ctext(ci + 3) == Some("(")
        {
            let method = ctx.ctext(ci + 2).unwrap_or("");
            out.push(ctx.diag(
                ci,
                "determinism/hash-iter",
                format!(
                    "`{text}.{method}()` iterates in hash order inside `{}`, which feeds serialized output",
                    f.name
                ),
                "use BTreeMap/BTreeSet, or collect and sort before iterating",
            ));
        }
    }
}

/// Whether the ident at `ci` is used as a value (not a type position like
/// `HashMap::<…>` or a field declaration `name: HashMap<…>`).
fn is_value_use(ctx: &RuleCtx<'_>, ci: usize) -> bool {
    ctx.ctext(ci + 1) != Some(":") && ctx.ctext(ci.wrapping_sub(1)) != Some("::")
}

/// Names in this file whose declared type mentions `HashMap`/`HashSet`:
/// struct fields, `let` bindings (typed or `= HashMap::new()`), and
/// function parameters.
fn collect_hash_names(ctx: &RuleCtx<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    ctx.ast.for_each_item(&mut |item, _| {
        if let ItemKind::Type(ty) = &item.kind {
            names.extend(ty.hash_fields.iter().map(|(_, field, _)| field.clone()));
        }
    });
    let n = ctx.code.len();
    for ci in 0..n {
        let Some(text) = ctx.ctext(ci) else { continue };
        // `let [mut] name …` — scan its declaration to `;` for hash types.
        if text == "let" {
            let mut j = ci + 1;
            if ctx.ctext(j) == Some("mut") {
                j += 1;
            }
            let Some(name) = ctx.ctext(j) else { continue };
            if !name
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                continue;
            }
            let mut k = j + 1;
            let mut hashy = false;
            while let Some(t) = ctx.ctext(k) {
                match t {
                    ";" => break,
                    "HashMap" | "HashSet" => {
                        hashy = true;
                    }
                    _ => {}
                }
                k += 1;
                if k > ci + 96 {
                    break;
                }
            }
            if hashy {
                names.insert(name.to_string());
            }
            continue;
        }
        // Parameter or binding `name : … HashMap …` up to `,` / `)`.
        if (text == "HashMap" || text == "HashSet") && ctx.ctext(ci + 1) != Some("!") {
            // Walk back to the nearest `name :` at this position.
            let mut j = ci;
            let mut steps = 0;
            while j > 0 && steps < 24 {
                j -= 1;
                steps += 1;
                let t = ctx.ctext(j).unwrap_or("");
                if t == "," || t == "(" || t == ";" || t == "{" || t == "}" {
                    break;
                }
                if t == ":" && j > 0 {
                    if let Some(name) = ctx.ctext(j - 1) {
                        if name
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_alphabetic() || c == '_')
                        {
                            names.insert(name.to_string());
                        }
                    }
                    break;
                }
            }
        }
    }
    names
}

fn compact(ty: &str) -> String {
    ty.replace(" :: ", "::")
        .replace(" < ", "<")
        .replace(" > ", ">")
        .replace(" >", ">")
        .replace(" ,", ",")
}
