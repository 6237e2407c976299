//! Parallel/determinism-safety family: the three ways a scoped-thread
//! fan-out (the `std::thread::scope` regions of the fleet runner, the
//! GBRT splitter and `ewb_simcore::par_map`, which every evaluation and
//! report fan-out goes through) silently stops being a pure function of
//! its inputs.
//!
//! The documented-correct pattern in this workspace is: each spawned
//! closure builds and returns its own `(unit index, value)` vec, workers
//! are joined in spawn order, and the reduce slots results **by unit
//! index** (sums for counters). Everything these rules flag is a
//! deviation from that shape:
//!
//! * [`shared_mut`] — a spawn closure mutating state it captured instead
//!   of returning values (the raw data race, or at best a
//!   scheduling-order-dependent result);
//! * [`unordered_join`] — a reduce that destroys worker order or fills
//!   slots positionally while discarding the unit index;
//! * [`lossy_merge`] — per-worker counters merged with `max()`/`min()`
//!   instead of a sum — the canonical lost-update outcome of an
//!   unsynchronized shared counter.
//!
//! Known false-negative boundaries (by design, documented in DESIGN.md):
//! mutation through a `Mutex`/channel is not flagged (synchronized, even
//! if order-sensitive — the differential oracle covers those), and the
//! join/merge rules key on worker-vocabulary names (`per_worker`,
//! `worker_counts`, …), so an undocumented rename escapes them.

use super::{Diagnostic, FileKind, RuleCtx};
use crate::ast::{walk_block, walk_expr, Block, Expr, Stmt};
use std::collections::BTreeSet;

/// Methods that mutate their receiver in place (the set the shared-mut
/// rule recognizes; `&mut self` in disguise).
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_str",
    "pop",
    "insert",
    "remove",
    "extend",
    "append",
    "clear",
    "truncate",
    "drain",
    "retain",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "fill",
    "swap",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
];

/// Reduce-side methods that reorder a collection in place.
const REORDERING_METHODS: &[&str] = &["reverse", "rotate_left", "rotate_right", "shuffle"];

/// The local name at the root of a place expression (`x`, `x.f`,
/// `x[i].g`, `*x`, `x?`, `x as T`, `x.m()`).
fn root_name(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => segs.first().map(|s| s.as_str()),
        Expr::Field { base, .. } | Expr::Index { base, .. } => root_name(base),
        Expr::Unary { expr, .. }
        | Expr::Ref { expr, .. }
        | Expr::Try { expr, .. }
        | Expr::Cast { expr, .. } => root_name(expr),
        Expr::MethodCall { recv, .. } => root_name(recv),
        _ => None,
    }
}

/// Whether the name smells like a per-worker result collection.
fn worker_named(name: &str) -> bool {
    name.to_ascii_lowercase().contains("worker")
}

/// Calls `f` on every closure passed to a `spawn` call inside a non-test
/// function body.
fn for_each_spawn_closure(ctx: &RuleCtx<'_>, f: &mut impl FnMut(&[String], &Expr)) {
    ctx.ast.for_each_fn(&mut |def, in_test| {
        if in_test {
            return;
        }
        let Some(body) = &def.body else { return };
        walk_block(body, &mut |e| {
            let args = match e {
                Expr::MethodCall { method, args, .. } if method == "spawn" => args,
                Expr::Call { callee, args, .. } if callee.path_last() == Some("spawn") => args,
                _ => return,
            };
            for a in args {
                if let Expr::Closure { params, body, .. } = a {
                    f(params, body);
                }
            }
        });
    });
}

/// Every name bound *inside* the closure: its parameters plus `let`,
/// `for`, `match`-arm, and nested-closure bindings anywhere in the body.
fn closure_locals(params: &[String], body: &Expr) -> BTreeSet<String> {
    let mut locals: BTreeSet<String> = params.iter().cloned().collect();
    fn visit(e: &Expr, locals: &mut BTreeSet<String>) {
        match e {
            Expr::Block(b) => visit_block(b, locals),
            Expr::Closure { params, body, .. } => {
                locals.extend(params.iter().cloned());
                visit(body, locals);
            }
            Expr::For {
                pats, iter, body, ..
            } => {
                locals.extend(pats.iter().cloned());
                visit(iter, locals);
                visit_block(body, locals);
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                visit(scrutinee, locals);
                for (pats, arm) in arms {
                    locals.extend(pats.iter().cloned());
                    visit(arm, locals);
                }
            }
            Expr::If {
                cond, then, else_, ..
            } => {
                visit(cond, locals);
                visit_block(then, locals);
                if let Some(el) = else_ {
                    visit(el, locals);
                }
            }
            Expr::Loop { cond, body, .. } => {
                if let Some(c) = cond {
                    visit(c, locals);
                }
                visit_block(body, locals);
            }
            _ => e.for_each_child(&mut |c| visit(c, locals)),
        }
    }
    fn visit_block(b: &Block, locals: &mut BTreeSet<String>) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { pats, init, .. } => {
                    if let Some(init) = init {
                        visit(init, locals);
                    }
                    locals.extend(pats.iter().cloned());
                }
                Stmt::Expr { expr, .. } => visit(expr, locals),
                Stmt::Item(_) => {}
            }
        }
    }
    visit(body, &mut locals);
    locals
}

/// `parallel/shared-mut` — inside a `spawn` closure, flag mutation of
/// any name the closure did not bind itself: plain or compound
/// assignment, a mutating method call, or taking `&mut`. Captured shared
/// state mutated from workers is a data race (or, behind a lock, a
/// scheduling-order dependency); the deterministic pattern returns
/// per-worker values and reduces after the join.
pub fn shared_mut(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind == FileKind::Test {
        return;
    }
    for_each_spawn_closure(ctx, &mut |params, body| {
        let locals = closure_locals(params, body);
        walk_expr(body, &mut |e| {
            let (span, name, what) = match e {
                Expr::Assign { lhs, op_span, .. } => {
                    let Some(name) = root_name(lhs) else { return };
                    (*op_span, name, "assigns to")
                }
                Expr::MethodCall {
                    recv,
                    method,
                    method_span,
                    ..
                } if MUTATING_METHODS.contains(&method.as_str()) => {
                    let Some(name) = root_name(recv) else { return };
                    (*method_span, name, "calls a mutating method on")
                }
                Expr::Ref {
                    is_mut: true,
                    expr,
                    span,
                } => {
                    let Some(name) = root_name(expr) else { return };
                    (*span, name, "takes `&mut` to")
                }
                _ => return,
            };
            if locals.contains(name) {
                return;
            }
            out.push(ctx.diag_span(
                span,
                "parallel/shared-mut",
                format!("spawn closure {what} captured `{name}`"),
                "return per-worker values from the closure and reduce after the join \
                 (the per-worker-vec pattern)",
            ));
        });
    });
}

/// `parallel/unordered-join` — a reduce over per-worker results that no
/// longer honors the deterministic join order. Two shapes:
///
/// 1. reordering a worker-named collection in place
///    (`per_worker.reverse()`, an emulated completion order);
/// 2. a `for (_, v) in …` loop that discards the unit index while
///    filling result slots through a self-incremented cursor
///    (`slots[pos] = …; pos += 1`) — positional completion-order
///    collection.
pub fn unordered_join(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind == FileKind::Test {
        return;
    }
    ctx.ast.for_each_fn(&mut |def, in_test| {
        if in_test {
            return;
        }
        let Some(body) = &def.body else { return };
        walk_block(body, &mut |e| match e {
            Expr::MethodCall {
                recv,
                method,
                args,
                method_span,
                ..
            } if REORDERING_METHODS.contains(&method.as_str())
                && args.is_empty()
                && root_name(recv).is_some_and(worker_named) =>
            {
                let name = root_name(recv).unwrap_or("");
                out.push(ctx.diag_span(
                    *method_span,
                    "parallel/unordered-join",
                    format!("`{name}.{method}()` destroys the deterministic worker join order"),
                    "keep workers in spawn order and slot results by unit index",
                ));
            }
            Expr::For {
                pats, body, span, ..
            } if pats.first().is_some_and(|p| p == "_") && pats.len() >= 2 => {
                if let Some(cursor) = positional_cursor(body) {
                    out.push(ctx.diag_span(
                        *span,
                        "parallel/unordered-join",
                        format!(
                            "loop discards the unit index (`(_, …)`) and fills slots \
                             positionally via `{cursor}`"
                        ),
                        "slot each result by its carried unit index, not arrival order",
                    ));
                }
            }
            _ => {}
        });
    });
}

/// The cursor name when `body` both indexes an assignment target with a
/// plain variable and increments that same variable (`slots[pos] = …;
/// pos += 1;`).
fn positional_cursor(body: &Block) -> Option<String> {
    let mut indexed: BTreeSet<String> = BTreeSet::new();
    let mut bumped: BTreeSet<String> = BTreeSet::new();
    walk_block(body, &mut |e| {
        if let Expr::Assign { lhs, op, .. } = e {
            if let Expr::Index { index, .. } = lhs.as_ref() {
                if let Expr::Path { segs, .. } = index.as_ref() {
                    if segs.len() == 1 {
                        indexed.insert(segs[0].clone());
                    }
                }
            }
            if op.is_some() {
                if let Expr::Path { segs, .. } = lhs.as_ref() {
                    if segs.len() == 1 {
                        bumped.insert(segs[0].clone());
                    }
                }
            }
        }
    });
    indexed.intersection(&bumped).next().cloned()
}

/// `parallel/lossy-merge` — merging per-worker counter subtotals with a
/// `max()`/`min()` iterator terminal instead of a sum. `max` of
/// subtotals is exactly what an unsynchronized read-modify-write counter
/// converges to when updates are lost, so such a merge is flagged even
/// though it is "deterministic" here: the number it produces is wrong
/// the moment more than one worker contributes.
pub fn lossy_merge(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind == FileKind::Test {
        return;
    }
    ctx.ast.for_each_fn(&mut |def, in_test| {
        if in_test {
            return;
        }
        let Some(body) = &def.body else { return };
        walk_block(body, &mut |e| {
            let Expr::MethodCall {
                recv,
                method,
                args,
                method_span,
                ..
            } = e
            else {
                return;
            };
            if !(method == "max" || method == "min") || !args.is_empty() {
                return;
            }
            let Some(name) = root_name(recv) else { return };
            let lower = name.to_ascii_lowercase();
            if !(worker_named(&lower) || lower.contains("count")) {
                return;
            }
            if !chain_has_iter_stage(recv) {
                return;
            }
            out.push(ctx.diag_span(
                *method_span,
                "parallel/lossy-merge",
                format!("per-worker counters `{name}` merged with `{method}()` — a lossy merge"),
                "sum the per-worker subtotals; `max` models the lost updates of an \
                 unsynchronized shared counter",
            ));
        });
    });
}

/// Whether the method-call chain under `e` contains an iterator-producing
/// stage (so `a.max(b)` on scalars never matches).
fn chain_has_iter_stage(e: &Expr) -> bool {
    match e {
        Expr::MethodCall { recv, method, .. } => {
            matches!(
                method.as_str(),
                "iter" | "into_iter" | "iter_mut" | "copied" | "cloned" | "map" | "filter"
            ) || chain_has_iter_stage(recv)
        }
        _ => false,
    }
}
