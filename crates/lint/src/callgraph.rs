//! A crate-level call graph for serialization taint, derived from the
//! expression AST.
//!
//! The hash-iteration rule needs to know which functions *feed
//! serialization*: goldens, JSON reports, and `Recorder` events are where
//! a nondeterministic iteration order becomes a nondeterministic
//! artifact. Without full name resolution we approximate:
//!
//! * an edge `F → g` exists when the body of `F` contains a call
//!   expression whose callee is `g` — a free/associated call
//!   ([`crate::ast::Expr::Call`], last path segment) or a method call
//!   ([`crate::ast::Expr::MethodCall`]). This replaces the old
//!   "identifier followed by `(`" token scan: string contents and
//!   format-string arguments no longer fabricate edges — only real call
//!   nodes do. The graph is still *name-level*, blind to which `g` among
//!   same-named functions is meant;
//! * a function is a **taint seed** when its body *mentions* a
//!   serialization token (`serde_json`, `Serialize`, `serialize`,
//!   `to_writer`, `Recorder`, `emit`, `emit_with`, `write_golden`, …) as
//!   a path segment, struct-literal head, or method name; when its own
//!   name looks sink-like (`golden`/`export`/`to_json`/`write_json`); or
//!   when it constructs a same-crate `#[derive(Serialize)]` type
//!   (building a serializable value counts as feeding serialization);
//! * taint propagates from callees to callers to a fixed point: if `F`
//!   calls a tainted `g`, `F` is tainted.
//!
//! Known false negatives (documented in DESIGN.md): taint does **not**
//! flow from callers to callees, so a helper that returns a hash-ordered
//! `Vec` consumed by a serializing caller escapes the transitive check —
//! the derive-field check catches the common container case instead; a
//! sink type appearing *only* in a type annotation (never in an
//! expression) no longer seeds taint; and cross-crate edges are
//! invisible (each crate is analyzed alone).

use crate::ast::{walk_block, Ast, Expr, ItemKind};
use std::collections::{BTreeMap, BTreeSet};

/// Body tokens that mark a function as directly feeding serialization.
/// `Checkpoint` covers the fleet's persisted crash-safety state: anything
/// folded into a checkpoint byte stream must be as
/// iteration-order-deterministic as a golden file. The radio backend
/// configs (`LteConfig`/`WifiConfig`/`FiveGConfig`) and the
/// `RadioBackend` tag are serialized into the backends golden and
/// benchmark artifacts, so constructing them cross-crate counts too
/// (the derive-based seed only sees types declared in the same crate).
const SINK_TOKENS: &[&str] = &[
    "serde_json",
    "Serialize",
    "Serializer",
    "serialize",
    "to_writer",
    "write_golden",
    "Recorder",
    "emit",
    "emit_with",
    "to_json",
    "write_json",
    "Checkpoint",
    "LteConfig",
    "WifiConfig",
    "FiveGConfig",
    "RadioBackend",
];

/// Function-name substrings that mark sinks regardless of body content.
const SINK_NAME_PARTS: &[&str] = &[
    "golden",
    "export",
    "to_json",
    "write_json",
    "serialize",
    "checkpoint",
];

/// The taint result for one crate.
#[derive(Debug, Default)]
pub struct Taint {
    tainted: BTreeSet<String>,
}

impl Taint {
    /// Whether the named function transitively feeds serialization.
    pub fn is_tainted(&self, fn_name: &str) -> bool {
        self.tainted.contains(fn_name)
    }

    /// Number of tainted functions (diagnostic/telemetry use).
    pub fn len(&self) -> usize {
        self.tainted.len()
    }

    /// Whether no function is tainted.
    pub fn is_empty(&self) -> bool {
        self.tainted.is_empty()
    }
}

/// Whether any segment of a path/struct-literal head is a sink mention.
fn mentions_sink(segs: &[String], serde_types: &BTreeSet<&str>) -> bool {
    segs.iter()
        .any(|s| SINK_TOKENS.contains(&s.as_str()) || serde_types.contains(s.as_str()))
}

/// Builds the taint set for one crate from its files' ASTs: their
/// `#[derive(Serialize)]` types, call edges, and sink mentions. All files
/// of the crate must be passed together so the name-level graph spans
/// modules.
pub fn taint_for_crate(files: &[&Ast]) -> Taint {
    // Serializable type names declared anywhere in the crate.
    let mut serde_types: BTreeSet<&str> = BTreeSet::new();
    for ast in files {
        ast.for_each_item(&mut |item, _| {
            if let ItemKind::Type(ty) = &item.kind {
                if ty
                    .derives
                    .iter()
                    .any(|d| d == "Serialize" || d == "Deserialize")
                {
                    serde_types.insert(&ty.name);
                }
            }
        });
    }

    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut tainted: BTreeSet<String> = BTreeSet::new();

    for ast in files {
        ast.for_each_fn(&mut |def, in_test| {
            if in_test {
                return;
            }
            let Some(body) = &def.body else { return };
            let mut callees = BTreeSet::new();
            let mut seed = SINK_NAME_PARTS.iter().any(|p| def.name.contains(p));
            walk_block(body, &mut |e| match e {
                Expr::Call { callee, .. } => {
                    if let Some(name) = callee.path_last() {
                        callees.insert(name.to_string());
                    }
                }
                Expr::MethodCall { method, .. } => {
                    callees.insert(method.clone());
                    if SINK_TOKENS.contains(&method.as_str()) {
                        seed = true;
                    }
                }
                Expr::Path { segs, .. } | Expr::StructLit { segs, .. }
                    if mentions_sink(segs, &serde_types) =>
                {
                    seed = true;
                }
                _ => {}
            });
            if seed {
                tainted.insert(def.name.clone());
            }
            calls.entry(def.name.clone()).or_default().extend(callees);
        });
    }

    // Propagate callee taint to callers to a fixed point.
    loop {
        let mut grew = false;
        for (caller, callees) in &calls {
            if tainted.contains(caller) {
                continue;
            }
            if callees.iter().any(|c| tainted.contains(c)) {
                tainted.insert(caller.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    Taint { tainted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer::lex;

    fn taint_of(src: &str) -> Taint {
        let ast = parse_file(src, &lex(src));
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
        taint_for_crate(&[&ast])
    }

    #[test]
    fn direct_sink_and_transitive_caller_are_tainted() {
        let src = "\
fn emit_report(x: &X) { serde_json::to_string(x); }\n\
fn mid(x: &X) { emit_report(x); }\n\
fn top(x: &X) { mid(x); }\n\
fn unrelated() { let v = 1 + 1; }\n";
        let t = taint_of(src);
        assert!(t.is_tainted("emit_report"));
        assert!(t.is_tainted("mid"));
        assert!(t.is_tainted("top"));
        assert!(!t.is_tainted("unrelated"));
    }

    #[test]
    fn constructing_a_serialize_type_taints() {
        let src = "\
#[derive(Serialize)]\nstruct Report { n: u32 }\n\
fn build() -> Report { Report { n: 1 } }\n\
fn plain() -> u32 { 2 }\n";
        let t = taint_of(src);
        assert!(t.is_tainted("build"));
        assert!(!t.is_tainted("plain"));
    }

    #[test]
    fn sinky_names_are_seeds() {
        let src = "fn write_golden_summary() { }\nfn helper() { write_golden_summary(); }\n";
        let t = taint_of(src);
        assert!(t.is_tainted("write_golden_summary"));
        assert!(t.is_tainted("helper"));
    }

    #[test]
    fn checkpoint_structs_are_serialization_sinks() {
        let src = "\
fn save_progress(b: &Board) -> Vec<u8> { Checkpoint::of(b).to_bytes() }\n\
fn commit(b: &Board) { save_progress(b); }\n\
fn load_checkpoint_file(p: &Path) { }\n\
fn plain() -> u32 { 2 }\n";
        let t = taint_of(src);
        assert!(t.is_tainted("save_progress"), "Checkpoint body token");
        assert!(t.is_tainted("commit"), "transitive via save_progress");
        assert!(t.is_tainted("load_checkpoint_file"), "sinky name");
        assert!(!t.is_tainted("plain"));
    }

    #[test]
    fn backend_configs_are_serialization_sinks() {
        let src = "\
fn wifi_sweep() -> Row { run(WifiConfig::calibrated()) }\n\
fn pick_tag() -> RadioBackend { RadioBackend::Lte }\n\
fn drive() { wifi_sweep(); }\n\
fn plain() -> u32 { 2 }\n";
        let t = taint_of(src);
        assert!(t.is_tainted("wifi_sweep"), "WifiConfig body token");
        assert!(t.is_tainted("pick_tag"), "RadioBackend body token");
        assert!(t.is_tainted("drive"), "transitive via wifi_sweep");
        assert!(!t.is_tainted("plain"));
    }

    #[test]
    fn test_fns_do_not_participate() {
        let src = "#[test]\nfn check() { serde_json::to_string(&1); }\n";
        let t = taint_of(src);
        assert!(t.is_empty());
    }

    #[test]
    fn string_contents_do_not_fabricate_edges() {
        // The old token scan could be fooled by identifiers adjacent to
        // `(` in unusual positions; the AST graph only follows real call
        // nodes, and string literals are opaque.
        let src = "fn log_about() { println!(\"emit (not a call)\"); }\n";
        let t = taint_of(src);
        assert!(!t.is_tainted("log_about"));
    }
}
