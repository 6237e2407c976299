//! `lint_all` on the command line. It rejects a valued flag with no
//! value, as it rejects an unknown flag: `--rule` alone must not report
//! every rule, and `--root` alone must not lint the auto-detected root.
//! And `--loc` splits a tree's lines into production and test code by
//! the rule its docs state.

use std::process::Command;

#[test]
fn a_flag_missing_its_value_exits_2() {
    for argv in [
        &["--no-allow", "--rule"][..],
        &["--root"],
        &["--rule", "--json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lint_all"))
            .args(argv)
            .output()
            .expect("lint_all runs");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} printed findings");
    }
}

/// `lint_all --loc` on a small tree: a test item's lines (its attributes
/// included) and every line of a file under `tests/` are test code, the
/// rest of a source file is production code, blank lines count nowhere,
/// and `perfbench/`, `vendor/` and `target/` are left out.
#[test]
fn loc_splits_production_and_test_lines() {
    let root = std::env::temp_dir().join(format!("ewb-lint-loc-{}", std::process::id()));
    let files = [
        // 4 production lines, 7 test lines.
        (
            "crates/a/src/lib.rs",
            "//! Docs count.\n\npub fn f() -> u32 {\n    1\n}\n\n#[cfg(test)]\nmod tests {\n    \
             #[test]\n    fn t() {\n        assert_eq!(super::f(), 1);\n    }\n}\n",
        ),
        // 1 production line, 2 test lines.
        (
            "crates/a/src/more.rs",
            "#[test]\nfn free_standing() {}\n\npub struct S; // trailing\n",
        ),
        // 5 test lines.
        (
            "crates/a/tests/it.rs",
            "fn helper() {}\n\n#[test]\nfn it() {\n    helper()\n}\n",
        ),
        // 3 test lines.
        ("tests/top.rs", "// a comment\n#[test]\nfn top() {}\n"),
        ("perfbench/src/main.rs", "fn main() {}\n"),
        ("vendor/v/src/lib.rs", "pub fn v() {}\n"),
        ("target/debug/build/x.rs", "fn x() {}\n"),
        ("crates/a/README.md", "not rust\n"),
    ];
    for (path, text) in files {
        let path = root.join(path);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_lint_all"))
        .args(["--loc", "--root"])
        .arg(&root)
        .output()
        .expect("lint_all runs");
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "production 5\ntests 17\n"
    );
}
