//! `lint_all` — run the ewb-lint pass over the workspace.
//!
//! ```text
//! cargo run -p ewb-lint --release -- [--deny-all] [--json] [--no-allow]
//!                                    [--root PATH] [--rule ID]
//! cargo run -p ewb-lint --release -- --loc [--root PATH]
//! ```
//!
//! * `--deny-all`  exit nonzero if *any* diagnostic survives (CI mode)
//! * `--json`      emit a JSON report (machine-readable; uploaded as a CI
//!   artifact) instead of human-readable lines: `files_scanned`,
//!   `findings`, `parse_errors` (CI asserts zero: an unparsed expression
//!   is an unchecked expression) and the diagnostics
//! * `--no-allow`  ignore in-source `lint:allow` directives, to check
//!   that each justified allow still sits on a live finding.
//! * `--root PATH` workspace root (default: auto-detected from the crate's
//!   manifest directory, falling back to the current directory)
//! * `--rule ID`   only report diagnostics for one rule id
//! * `--loc`       lint nothing; print the non-blank Rust lines (comments
//!   included) of the files the lint pass walks, `perfbench/` left out,
//!   as `production N` and `tests N`. Test code is a file under a
//!   `tests/` directory or a line inside an item the AST marks as test
//!   code (see `ewb_lint::count_lines`).

use ewb_lint::engine;
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Serialize)]
struct Report {
    files_scanned: usize,
    findings: usize,
    parse_errors: usize,
    diagnostics: Vec<ewb_lint::Diagnostic>,
}

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut json = false;
    let mut honor_allows = true;
    let mut loc = false;
    let mut root: Option<PathBuf> = None;
    let mut only_rule: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--json" => json = true,
            "--no-allow" => honor_allows = false,
            "--loc" => loc = true,
            "--root" | "--rule" => match args.next().filter(|v| !v.starts_with("--")) {
                Some(v) if arg == "--root" => root = Some(PathBuf::from(v)),
                Some(v) => only_rule = Some(v),
                None => {
                    eprintln!("`{arg}` needs a value (try --help)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: lint_all [--deny-all] [--json] [--no-allow] [--root PATH] \
                     [--rule ID] | lint_all --loc [--root PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(default_root);
    if loc {
        return match ewb_lint::count_lines(&root) {
            Ok(count) => {
                println!("production {}", count.production);
                println!("tests {}", count.tests);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lint_all: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut outcome = match engine::lint_root_opts(&root, honor_allows) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lint_all: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = &only_rule {
        outcome.diagnostics.retain(|d| &d.rule == rule);
    }

    if json {
        let report = Report {
            files_scanned: outcome.files_scanned,
            findings: outcome.diagnostics.len(),
            parse_errors: outcome.parse_errors,
            diagnostics: outcome.diagnostics.clone(),
        };
        match serde_json::to_string(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("lint_all: serializing report: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        for d in &outcome.diagnostics {
            println!("{}", d.render());
        }
        eprintln!(
            "lint_all: {} file(s) scanned, {} finding(s)",
            outcome.files_scanned,
            outcome.diagnostics.len()
        );
    }

    if deny_all && !outcome.diagnostics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The workspace root: two levels above this crate's manifest.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
