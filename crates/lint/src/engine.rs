//! The driver: walk the workspace, analyze, run rules, apply allowlists.
//!
//! Everything is deterministic: files are discovered in sorted order,
//! diagnostics are sorted by `(file, line, col, rule)`, and duplicate
//! `(file, line, rule)` reports collapse to the first. The linter is held
//! to the same standard it enforces.

use crate::allow;
use crate::ast::{self, Ast};
use crate::callgraph::{self, Taint};
use crate::config::Policy;
use crate::dataflow;
use crate::diag::Diagnostic;
use crate::lexer::{self, Token};
use crate::rules::{self, FileKind, RuleCtx, ALL_RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One file handed to the engine.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// File contents.
    pub text: String,
}

/// The lint result.
#[derive(Debug)]
pub struct Outcome {
    /// All surviving diagnostics, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Total narrow parse errors across all files. Must be zero over the
    /// real workspace (`tests/ast_workspace.rs` asserts it, and CI checks
    /// the `lint_all --json` report): an unparsed expression is an
    /// unchecked expression.
    pub parse_errors: usize,
}

/// Lints a set of in-memory files (the testable core — fixtures and the
/// workspace walk both funnel through here).
pub fn lint_files(files: &[SourceFile], policy: &Policy) -> Outcome {
    lint_files_opts(files, policy, true)
}

/// [`lint_files`] with the allowlist made optional: `honor_allows =
/// false` reports findings that in-source `lint:allow` directives would
/// suppress (the fixture teeth tests run this way to prove a rule still
/// fires under an allow's justification).
pub fn lint_files_opts(files: &[SourceFile], policy: &Policy, honor_allows: bool) -> Outcome {
    // Lex and parse every file once; group files by crate for the taint
    // analysis.
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut parsed: Vec<(Vec<Token>, Ast)> = Vec::new();
    for (i, f) in files.iter().enumerate() {
        let tokens = lexer::lex(&f.text);
        let ast = ast::parse_file(&f.text, &tokens);
        parsed.push((tokens, ast));
        by_crate.entry(crate_of(&f.rel_path)).or_default().push(i);
    }
    let parse_errors = parsed.iter().map(|(_, a)| a.errors.len()).sum();

    let taints: BTreeMap<&str, Taint> = by_crate
        .iter()
        .map(|(krate, idxs)| {
            let asts: Vec<&Ast> = idxs.iter().map(|&i| &parsed[i].1).collect();
            (*krate, callgraph::taint_for_crate(&asts))
        })
        .collect();

    let mut diags = Vec::new();
    for (f, (tokens, ast)) in files.iter().zip(&parsed) {
        let krate = crate_of(&f.rel_path);
        let code = lexer::code_tokens(tokens);
        let guards = dataflow::div_guard_spans(ast);
        let ctx = RuleCtx {
            src: &f.text,
            code: &code,
            ast,
            guards: &guards,
            file: &f.rel_path,
            crate_name: krate,
            kind: kind_of(&f.rel_path),
            policy,
            taint: &taints[krate],
        };
        let mut file_diags = Vec::new();
        rules::run_all(&ctx, &mut file_diags);
        if honor_allows {
            let (allows, bad_allows) = allow::parse(&f.text, tokens, &f.rel_path, ALL_RULES);
            file_diags.retain(|d| !allow::suppressed(&allows, &d.rule, d.line));
            diags.extend(bad_allows);
        }
        diags.extend(file_diags);
    }

    diags.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    diags.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);

    Outcome {
        diagnostics: diags,
        files_scanned: files.len(),
        parse_errors,
    }
}

/// Lints the workspace rooted at `root`, honoring `root/lint.toml` when
/// present (falling back to the built-in policy).
pub fn lint_root(root: &Path) -> Result<Outcome, String> {
    lint_root_opts(root, true)
}

/// [`lint_root`] with the allowlist made optional — the workspace-wide
/// counterpart of [`lint_files_opts`]. `lint_all --no-allow` runs this
/// with `honor_allows = false` to show whether the justified allows
/// still sit on real findings.
pub fn lint_root_opts(root: &Path, honor_allows: bool) -> Result<Outcome, String> {
    let policy = load_policy(root)?;
    let files = read_files(root, &policy)?;
    Ok(lint_files_opts(&files, &policy, honor_allows))
}

/// Non-blank lines of Rust source, comments included, split as
/// [`count_lines`] splits them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCount {
    /// Lines of production code.
    pub production: usize,
    /// Lines of test code.
    pub tests: usize,
}

/// Counts the non-blank lines of the files [`lint_root`] walks, except
/// the benchmark package under `perfbench/`. A line is test code when
/// its file is an integration-test file (under a `tests/` directory) or
/// the line overlaps an item [`Ast::for_each_item`] reports as test
/// code; every other line is production code.
pub fn count_lines(root: &Path) -> Result<LineCount, String> {
    let policy = load_policy(root)?;
    let mut total = LineCount::default();
    for file in read_files(root, &policy)? {
        if !file.rel_path.starts_with("perfbench/") {
            let count = count_file(&file);
            total.production += count.production;
            total.tests += count.tests;
        }
    }
    Ok(total)
}

/// The [`LineCount`] of one file, by the rule of [`count_lines`].
fn count_file(file: &SourceFile) -> LineCount {
    let text = &file.text;
    // The byte offset at which each line starts.
    let starts: Vec<usize> = std::iter::once(0)
        .chain(text.match_indices('\n').map(|(i, _)| i + 1))
        .collect();
    let mut test = vec![kind_of(&file.rel_path) == FileKind::Test; starts.len()];
    if !test[0] {
        let tokens = lexer::lex(text);
        ast::parse_file(text, &tokens).for_each_item(&mut |item, in_test| {
            if in_test && item.span.end > item.span.start {
                let first = starts.partition_point(|&s| s <= item.span.start) - 1;
                let last = starts.partition_point(|&s| s < item.span.end) - 1;
                test[first..=last].fill(true);
            }
        });
    }
    let mut count = LineCount::default();
    for (line, &is_test) in text.lines().zip(&test) {
        if line.trim().is_empty() {
            continue;
        }
        if is_test {
            count.tests += 1;
        } else {
            count.production += 1;
        }
    }
    count
}

/// Reads every `.rs` file under `root` that `policy` does not exclude,
/// in sorted path order.
fn read_files(root: &Path, policy: &Policy) -> Result<Vec<SourceFile>, String> {
    let excludes = policy.list("paths.exclude");
    let mut paths = Vec::new();
    collect_rs(root, root, &excludes, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .map_err(|e| format!("path {}: {e}", p.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        files.push(SourceFile {
            rel_path: rel,
            text,
        });
    }
    Ok(files)
}

/// Loads `root/lint.toml`, or the built-in policy when absent.
pub fn load_policy(root: &Path) -> Result<Policy, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Policy::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(Policy::builtin()),
    }
}

/// Directories never worth descending into, regardless of policy.
const HARD_SKIPS: &[&str] = &["target", "vendor", ".git", "node_modules"];

fn collect_rs(
    root: &Path,
    dir: &Path,
    excludes: &[String],
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|e| format!("{e}"))?
            .to_string_lossy()
            .replace('\\', "/");
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if HARD_SKIPS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            if excludes
                .iter()
                .any(|e| rel == *e || rel.starts_with(&format!("{e}/")))
            {
                continue;
            }
            collect_rs(root, &path, excludes, out)?;
        } else if name.ends_with(".rs")
            && !excludes
                .iter()
                .any(|e| rel == *e || rel.starts_with(&format!("{e}/")))
        {
            out.push(path);
        }
    }
    Ok(())
}

/// The crate a workspace-relative path belongs to (`crates/net/…` →
/// `net`); anything else is `workspace`.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("workspace")
}

/// File classification from its path.
fn kind_of(rel: &str) -> FileKind {
    if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileKind::Test
    } else if rel.contains("/src/bin/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/")
        || rel.contains("/benches/")
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, text: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile {
            rel_path: path.into(),
            text: text.into(),
        }];
        lint_files(&files, &Policy::builtin()).diagnostics
    }

    #[test]
    fn clean_file_produces_no_diagnostics() {
        let d = lint_one(
            "crates/core/src/x.rs",
            "pub fn add(a: f64, b: f64) -> f64 { a + b }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn wall_clock_fires_outside_bench_only() {
        let src = "pub fn t() { let _ = std::time::Instant::now(); }\n";
        assert!(!lint_one("crates/core/src/x.rs", src).is_empty());
        assert!(lint_one("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_exempt_in_bins_and_tests() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(!lint_one("crates/core/src/x.rs", src).is_empty());
        assert!(lint_one("crates/bench/src/bin/x.rs", src).is_empty());
        assert!(lint_one("crates/core/tests/x.rs", src).is_empty());
        assert!(lint_one("tests/x.rs", src).is_empty());
    }

    #[test]
    fn token_and_ast_rules_share_one_test_scope() {
        // Each shape wraps one `x.unwrap()` (seen by a token rule) and one
        // literal seed (seen by an AST rule); both must agree on whether
        // the code is test code, which is exactly the code rustc compiles
        // only for tests.
        const F: &str = "fn f(x: Option<u32>) -> u32 { \
                         let _r = Xoshiro256::seed_from_u64(12345); x.unwrap() }";
        let in_mod = |attr: &str| format!("{attr}\nmod m {{\n    {F}\n}}\n");
        let rows = [
            ("plain fn", format!("pub {F}\n"), true),
            ("#[test] fn", format!("#[test]\n{F}\n"), false),
            ("#[cfg(test)] mod", in_mod("#[cfg(test)]"), false),
            ("#[cfg(test)] fn", format!("#[cfg(test)]\n{F}\n"), false),
            (
                "cfg(all(test, …)) mod",
                in_mod("#[cfg(all(test, unix))]"),
                false,
            ),
            (
                "mod tests without cfg",
                format!("mod tests {{\n    {F}\n}}\n"),
                true,
            ),
            (
                "cfg(any(test, …)) mod",
                in_mod("#[cfg(any(test, feature = \"x\"))]"),
                true,
            ),
            (
                "#[cfg(not(test))] fn",
                format!("#[cfg(not(test))]\n{F}\n"),
                true,
            ),
            (
                "#[cfg(test)] on a let",
                "pub fn f(x: Option<u32>) -> u32 {\n    #[cfg(test)]\n    \
                 let _r = (x.unwrap(), Xoshiro256::seed_from_u64(12345));\n    0\n}\n"
                    .to_string(),
                true,
            ),
        ];
        let mut wrong = Vec::new();
        for (shape, src, library) in rows {
            let d = lint_one("crates/core/src/x.rs", &src);
            let fired = |rule: &str| d.iter().any(|d| d.rule == rule);
            let got = (fired("api/no-unwrap"), fired("rng/seed-provenance"));
            if got != (library, library) {
                wrong.push(format!("{shape}: (no-unwrap, seed-provenance) = {got:?}"));
            }
        }
        // `cfg_attr(test, …)` only adds attributes under test; the type
        // is library code and still serialized.
        let src = "#[cfg_attr(test, derive(PartialEq))]\n#[derive(Serialize)]\n\
                   pub struct S {\n    m: HashMap<String, u64>,\n}\n";
        let d = lint_one("crates/core/src/x.rs", src);
        if !d.iter().any(|d| d.rule == "determinism/hash-iter") {
            wrong.push(format!("cfg_attr(test, …) type: hash-iter silent: {d:?}"));
        }
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    #[test]
    fn allow_suppresses_and_bad_allow_reports() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(api/no-unwrap) caller guarantees Some\n";
        assert!(lint_one("crates/core/src/x.rs", src).is_empty());
        let src = "pub fn f() {} // lint:allow(api/bogus) nope\n";
        let d = lint_one("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lint/bad-allow");
    }

    #[test]
    fn diagnostics_collapse_to_one_per_line_per_rule() {
        let src = "pub fn a(x: Option<u32>, y: Option<u32>) -> u32 { x.unwrap() + y.unwrap() }\n";
        let d = lint_one("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "one report per (line, rule): {d:?}");
        let src = "pub fn a(x: Option<u32>) -> u32 { x.unwrap() }\npub fn b(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = lint_one("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 2, "separate lines report separately");
        assert!(d[0].line < d[1].line);
    }
}
