//! The rule catalog and the shared per-file rule context.
//!
//! Five families, eleven rules:
//!
//! | id | family | what it forbids |
//! |----|--------|-----------------|
//! | `determinism/wall-clock`  | determinism | `Instant::now` / `SystemTime` / `std::time` outside the crates the policy allows (`bench`) |
//! | `determinism/hash-iter`   | determinism | iterating `HashMap`/`HashSet` in functions that transitively feed serialization, goldens, or `Recorder` events; serializable structs with hash-ordered fields |
//! | `determinism/ambient-rng` | determinism | `thread_rng` / `rand::` / OS entropy anywhere (all randomness is a seeded `simcore::Xoshiro256`) |
//! | `units/dim` | units | dimensionally ill-typed arithmetic over the `_j/_mj/_uj/_s/_ms/_w/_bytes` vocabulary: `a_j + b_s`, unit-scale reassignment without a `/ 1_000.0`-style factor, mixes inside compound expressions (`(a_j + c_j) - b_s * 2.0`) |
//! | `parallel/shared-mut`      | parallel | mutating captured state inside a thread-`spawn` closure (assignment, `&mut`, or a mutating method on a name not bound in the closure) |
//! | `parallel/unordered-join`  | parallel | destroying worker join order before an indexed reduce: reordering a per-worker result vec, or filling result slots positionally while discarding the unit index |
//! | `parallel/lossy-merge`     | parallel | merging per-worker counters with `max()`/`min()` (the lost-update outcome of an unsynchronized shared counter) instead of a sum |
//! | `rng/seed-provenance` | rng | `seed_from_u64` with a raw literal or ad-hoc arithmetic seed; sim-path RNGs must derive from `fork()`/`seed`-named values/SplitMix64 mixing |
//! | `api/no-unwrap` | hygiene | bare `unwrap()`, message-less or context-free `panic!`, `todo!`, `unimplemented!`, empty `expect("")` in non-test library code |
//! | `api/no-f32`    | hygiene | `f32` (type or literal suffix) in energy/time crates |
//! | `api/float-eq`  | hygiene | `==`/`!=` against float literals outside proven division guards |

pub mod determinism;
pub mod hygiene;
pub mod par_safety;
pub mod seed_prov;
pub mod units_dim;

use crate::ast::{Ast, FnDef, Span};
use crate::callgraph::Taint;
use crate::config::Policy;
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};

/// Every rule id the engine knows (used to validate `lint:allow`).
pub const ALL_RULES: &[&str] = &[
    "determinism/wall-clock",
    "determinism/hash-iter",
    "determinism/ambient-rng",
    "units/dim",
    "parallel/shared-mut",
    "parallel/unordered-join",
    "parallel/lossy-merge",
    "rng/seed-provenance",
    "api/no-unwrap",
    "api/no-f32",
    "api/float-eq",
];

/// How a file participates in the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/**` outside `src/bin`).
    Lib,
    /// Binary or example source — exempt from API-hygiene rules.
    Bin,
    /// Integration-test source — exempt from hygiene and units rules.
    Test,
}

/// Everything a rule sees for one file.
pub struct RuleCtx<'a> {
    /// File source text.
    pub src: &'a str,
    /// The lexer's non-comment tokens, which the identifier-matching
    /// rules walk by "code index".
    pub code: &'a [Token],
    /// Expression-level AST (total: parses every file, recovering with
    /// `Opaque` nodes on constructs it cannot model).
    pub ast: &'a Ast,
    /// Byte ranges of `==`/`!=` operators proven to be division guards
    /// (see [`crate::dataflow::div_guard_spans`]); `api/float-eq` skips
    /// them.
    pub guards: &'a [(usize, usize)],
    /// Workspace-relative path.
    pub file: &'a str,
    /// Crate name (`net`, `obs`, …; `workspace` for top-level tests).
    pub crate_name: &'a str,
    /// File class.
    pub kind: FileKind,
    /// Parsed `lint.toml`.
    pub policy: &'a Policy,
    /// Crate-level serialization taint.
    pub taint: &'a Taint,
}

impl<'a> RuleCtx<'a> {
    /// Text of the code token at code index `ci`.
    pub fn ctext(&self, ci: usize) -> Option<&'a str> {
        self.code.get(ci).map(|t| t.text(self.src))
    }

    /// The token at code index `ci`.
    pub fn ctok(&self, ci: usize) -> Option<&'a Token> {
        self.code.get(ci)
    }

    /// Whether the code token at `ci` is test code: the file is an
    /// integration test, or the token lies inside an item the AST marks
    /// as test code — a `#[test]` fn, or anything under a `cfg(test)` /
    /// `cfg(all(…, test, …))` item (the one definition, in
    /// [`Ast::for_each_item`]).
    pub fn in_test(&self, ci: usize) -> bool {
        self.kind == FileKind::Test || self.ctok(ci).is_some_and(|t| self.ast.scope_at(t.start).0)
    }

    /// The innermost function whose body contains code index `ci`, if any.
    pub fn enclosing_fn(&self, ci: usize) -> Option<&'a FnDef> {
        self.ctok(ci).and_then(|t| self.ast.scope_at(t.start).1)
    }

    /// Emits a diagnostic anchored at code index `ci`.
    pub fn diag(&self, ci: usize, rule: &str, message: String, hint: &str) -> Diagnostic {
        let tok = self.ctok(ci).copied().unwrap_or(Token {
            kind: TokenKind::Unknown,
            start: 0,
            end: 0,
            line: 1,
            col: 1,
        });
        Diagnostic {
            file: self.file.to_string(),
            line: tok.line,
            col: tok.col,
            rule: rule.to_string(),
            message,
            hint: hint.to_string(),
        }
    }

    /// Emits a diagnostic anchored at an AST span.
    pub fn diag_span(&self, span: Span, rule: &str, message: String, hint: &str) -> Diagnostic {
        Diagnostic {
            file: self.file.to_string(),
            line: span.line.max(1),
            col: span.col.max(1),
            rule: rule.to_string(),
            message,
            hint: hint.to_string(),
        }
    }
}

/// Runs every rule over one file.
pub fn run_all(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    determinism::wall_clock(ctx, out);
    determinism::hash_iter(ctx, out);
    determinism::ambient_rng(ctx, out);
    units_dim::dim(ctx, out);
    par_safety::shared_mut(ctx, out);
    par_safety::unordered_join(ctx, out);
    par_safety::lossy_merge(ctx, out);
    seed_prov::seed_provenance(ctx, out);
    hygiene::no_unwrap(ctx, out);
    hygiene::no_f32(ctx, out);
    hygiene::float_eq(ctx, out);
}
