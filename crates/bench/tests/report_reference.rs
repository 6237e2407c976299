//! `docs/all_figures_reference.txt` is what `all_figures` prints: every
//! report of [`REPORTS`], in order. Walking the reports over the file,
//! each must be the next section byte for byte, and together they must
//! consume all of it. The two reports that print host wall-clock time
//! are skipped, not compared: their section runs up to where the next
//! report's text begins.

use ewb_bench::{Context, REPORTS};

/// The reports whose rows are host-timed, so they differ run to run.
const HOST_TIMED: [&str; 2] = ["table7_prediction_cost", "ablate_gbrt_size"];

const REGENERATE: &str =
    "cargo run --release -p ewb-bench --bin all_figures > docs/all_figures_reference.txt";

/// Line `n` (1-based) and both sides of the first line where `actual`
/// and `expected` part, for a failure message.
fn first_difference(actual: &str, expected: &str) -> String {
    let mut expected_lines = expected.lines();
    for (i, line) in actual.lines().enumerate() {
        let want = expected_lines.next();
        if want != Some(line) {
            return format!(
                "line {} of the report:\n  printed:   {line}\n  reference: {}",
                i + 1,
                want.unwrap_or("(end of reference)")
            );
        }
    }
    "the reference ends inside the report".to_string()
}

#[test]
fn first_difference_prints_bare_lines() {
    assert_eq!(
        first_difference("same\nprinted\n", "same\nwanted\nmore\n"),
        "line 2 of the report:\n  printed:   printed\n  reference: wanted"
    );
    assert_eq!(
        first_difference("same\nprinted\n", "same\n"),
        "line 2 of the report:\n  printed:   printed\n  reference: (end of reference)"
    );
}

#[test]
fn all_figures_matches_the_committed_reference() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/all_figures_reference.txt"
    );
    let reference = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}; regenerate it with `{REGENERATE}`"));
    let ctx = Context::new();
    let mut rest = reference.as_str();
    let mut skipped: Option<&str> = None;
    for (name, run) in REPORTS {
        if HOST_TIMED.contains(&name) {
            assert!(skipped.is_none(), "two host-timed reports in a row");
            skipped = Some(name);
            continue;
        }
        let text = run(&ctx, false);
        if let Some(host_timed) = skipped.take() {
            let end = rest.find(&text).unwrap_or_else(|| {
                panic!(
                    "`{name}` does not follow `{host_timed}` in the reference: \
                     {}\nIf the change is intended, regenerate it with `{REGENERATE}`",
                    first_difference(&text, rest)
                )
            });
            assert!(
                end > 0 && rest.starts_with("===="),
                "`{host_timed}` has no section of its own in the reference; \
                 regenerate it with `{REGENERATE}`"
            );
            rest = &rest[end..];
        }
        rest = rest.strip_prefix(text.as_str()).unwrap_or_else(|| {
            panic!(
                "`{name}` differs from the reference at {}\n\
                 If the change is intended, regenerate it with `{REGENERATE}`",
                first_difference(&text, rest)
            )
        });
    }
    assert!(
        skipped.is_none() && rest.is_empty(),
        "the reference has {} bytes past the last report; regenerate it with `{REGENERATE}`",
        rest.len()
    );
}
