//! Teeth tests: every rule in [`ewb_lint::ALL_RULES`] must prove it can
//! bite. For each rule there is a fixture pair under
//! `crates/lint/fixtures/<family>-<name>/`:
//!
//! * `bad.rs` — a minimal violation; the rule MUST fire on it, and no
//!   *other* rule may fire (fixtures are precision tests, not grab bags);
//! * `good.rs` — the compliant shape of the same code; the whole engine
//!   must stay silent on it.
//!
//! A rule with a missing or non-firing bad fixture fails the suite, so a
//! rule can never silently rot into a no-op. Fixtures are linted under a
//! pretend workspace path (they are not compiled) chosen so the built-in
//! policy applies to them the same way it applies to real crates.

use ewb_lint::engine::{lint_files_opts, SourceFile};
use ewb_lint::rules::ALL_RULES;
use ewb_lint::Policy;
use std::path::PathBuf;

/// `fixtures/<slug>/` for a rule id (`api/no-unwrap` → `api-no-unwrap`).
fn fixture_dir(rule: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule.replace('/', "-"))
}

/// The pretend workspace path a fixture is linted under. `api/no-f32`
/// only applies to crates the policy names, so its fixtures pose as
/// simcore; everything else poses as a plain library file in core.
fn pretend_path(rule: &str) -> &'static str {
    match rule {
        "api/no-f32" => "crates/simcore/src/fixture.rs",
        _ => "crates/core/src/fixture.rs",
    }
}

fn lint_fixture(rule: &str, which: &str) -> Vec<ewb_lint::Diagnostic> {
    lint_fixture_opts(rule, which, true)
}

fn lint_fixture_opts(rule: &str, which: &str, honor_allows: bool) -> Vec<ewb_lint::Diagnostic> {
    let path = fixture_dir(rule).join(which);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "rule `{rule}` has no {which} fixture at {}: {e} — every rule \
             must ship proof that it fires",
            path.display()
        )
    });
    let files = vec![SourceFile {
        rel_path: pretend_path(rule).to_string(),
        text,
    }];
    lint_files_opts(&files, &Policy::builtin(), honor_allows).diagnostics
}

#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for rule in ALL_RULES {
        let diags = lint_fixture(rule, "bad.rs");
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "rule `{rule}` did not fire on its own bad fixture — it has no \
             teeth; diagnostics: {diags:?}"
        );
    }
}

#[test]
fn bad_fixtures_fire_only_their_own_rule() {
    for rule in ALL_RULES {
        let diags = lint_fixture(rule, "bad.rs");
        let strays: Vec<_> = diags.iter().filter(|d| d.rule != *rule).collect();
        assert!(
            strays.is_empty(),
            "bad fixture for `{rule}` also trips other rules (fixtures must \
             isolate one violation): {strays:?}"
        );
    }
}

#[test]
fn every_good_fixture_is_fully_clean() {
    for rule in ALL_RULES {
        let diags = lint_fixture(rule, "good.rs");
        assert!(
            diags.is_empty(),
            "good fixture for `{rule}` is not clean: {diags:?}"
        );
    }
}

#[test]
fn bad_fixtures_fire_at_a_real_location() {
    // Diagnostics must anchor to a line inside the fixture, not line 0 or
    // some sentinel — downstream tooling (CI annotations) relies on it.
    for rule in ALL_RULES {
        let path = fixture_dir(rule).join("bad.rs");
        let n_lines = std::fs::read_to_string(&path)
            .expect("bad fixture exists (checked by the firing test)")
            .lines()
            .count() as u32;
        for d in lint_fixture(rule, "bad.rs") {
            assert!(
                d.line >= 1 && d.line <= n_lines,
                "diagnostic for `{rule}` points outside the fixture: line {} of {n_lines}",
                d.line
            );
            assert!(d.col >= 1, "columns are 1-based");
        }
    }
}

#[test]
fn fixture_diagnostics_match_golden() {
    // The tests above check rule ids and that each line falls inside the
    // file; this pins every finding's position and message text, so a
    // change to how a rule anchors or renders its finding shows up as a
    // readable diff. Allows are stripped so the golden lists everything
    // the rules see. Regenerate after an intentional change with
    // `UPDATE_GOLDEN=1 cargo test -p ewb-lint --test teeth`.
    let mut got = String::new();
    for rule in ALL_RULES {
        for which in ["bad.rs", "good.rs"] {
            got.push_str(&format!(
                "# {}/{which} as {}\n",
                rule.replace('/', "-"),
                pretend_path(rule)
            ));
            for d in lint_fixture_opts(rule, which, false) {
                got.push_str(&format!(
                    "{}:{} [{}] {}\n",
                    d.line, d.col, d.rule, d.message
                ));
            }
        }
    }
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/fixtures.diag.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden at {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            golden_path.display()
        )
    });
    assert!(
        got == want,
        "fixture diagnostics drifted from golden; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the \
         diff.\n--- golden\n{want}\n--- got\n{got}"
    );
}

#[test]
fn fixture_corpus_has_no_orphan_directories() {
    // The inverse guard: a fixture directory whose rule id no longer
    // exists means a rule was renamed/removed without its corpus, and a
    // directory holding anything besides the `good.rs`/`bad.rs` pair is
    // dead weight the teeth tests never exercise.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let known: Vec<String> = ALL_RULES.iter().map(|r| r.replace('/', "-")).collect();
    for entry in std::fs::read_dir(&root).expect("fixtures directory exists") {
        let entry = entry.expect("readable fixtures entry");
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().to_string();
        assert!(
            known.contains(&name),
            "fixtures/{name}/ does not correspond to any rule in ALL_RULES"
        );
        let mut contents: Vec<String> = std::fs::read_dir(entry.path())
            .expect("readable fixture directory")
            .map(|e| {
                e.expect("readable fixture file")
                    .file_name()
                    .to_string_lossy()
                    .to_string()
            })
            .collect();
        contents.sort();
        assert_eq!(
            contents,
            vec!["bad.rs".to_string(), "good.rs".to_string()],
            "fixtures/{name}/ must hold exactly the good.rs/bad.rs pair"
        );
    }
}
