//! `lint_all` rejects a valued flag with no value, as it rejects an
//! unknown flag: `--rule` alone must not report every rule, and `--root`
//! alone must not lint the auto-detected root.

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
