//! The parser must handle every real source file in this workspace with
//! zero narrow parse errors and fully valid spans — the same guarantee
//! CI checks in the `lint_all --json` report (`parse_errors == 0`) and
//! deny-all relies on (an unparsed expression is an unchecked
//! expression).

use ewb_lint::ast::{dump, parse_file, validate_spans};
use ewb_lint::lexer::lex;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint is two levels below the root")
        .to_path_buf()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !matches!(name, "target" | ".git" | "node_modules" | "vendor") {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_workspace_file_parses_clean_with_valid_spans() {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("tests"), &mut files);
    assert!(
        files.len() > 100,
        "expected a real workspace, found {} files",
        files.len()
    );
    let mut failures = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("readable source file");
        let tokens = lex(&src);
        let ast = parse_file(&src, &tokens);
        for err in &ast.errors {
            failures.push(format!("{}:{}: {}", path.display(), err.line, err.msg));
        }
        for v in validate_spans(&ast, &src) {
            failures.push(format!("{}: span violation: {v}", path.display()));
        }
        // The dump must also be total (no panics) on every real file.
        let _ = dump(&ast, &src);
    }
    assert!(
        failures.is_empty(),
        "{} parse failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
