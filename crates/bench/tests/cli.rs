//! Strict flags: the shared parser, every binary's refusal of a flag it
//! does not know, and the docs naming only binaries, reports and flags
//! that exist.

use ewb_bench::cli::{Args, Flag};
use ewb_bench::REPORTS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

const BINS: [(&str, &str); 7] = [
    ("all_figures", env!("CARGO_BIN_EXE_all_figures")),
    ("backend_sweep", env!("CARGO_BIN_EXE_backend_sweep")),
    ("check_all", env!("CARGO_BIN_EXE_check_all")),
    ("fleet_bench", env!("CARGO_BIN_EXE_fleet_bench")),
    ("fleet_robustness", env!("CARGO_BIN_EXE_fleet_robustness")),
    ("parallel_sweep", env!("CARGO_BIN_EXE_parallel_sweep")),
    ("robustness_sweep", env!("CARGO_BIN_EXE_robustness_sweep")),
];

const FLAGS: &[Flag] = &[("--quick", ""), ("--depth", "N"), ("--point", "P...")];

fn parse(argv: &[&str]) -> Result<Args, String> {
    let argv = std::iter::once("prog").chain(argv.iter().copied());
    Args::parse_from(FLAGS, argv.map(String::from))
}

#[test]
fn the_parser_rejects_what_was_not_declared() {
    for (argv, error) in [
        (&["--quick", "--bogus"][..], "unknown argument `--bogus`"),
        (&["3"], "unknown argument `3`"),
        (&["--depth"], "--depth needs a value"),
        (&["--depth", "--quick"], "--depth needs a value"),
        (&["--depth", "3", "--depth", "4"], "--depth given twice"),
        (&["--quick", "--quick"], "--quick given twice"),
    ] {
        let e = parse(argv).expect_err("must be rejected");
        assert!(e.starts_with(&format!("error: {error}\n")), "{argv:?}: {e}");
        assert!(
            e.ends_with("usage: prog [--quick] [--depth N] [--point P...]"),
            "{e}"
        );
    }
}

#[test]
fn the_parser_keeps_values_and_repeats_in_order() {
    let args = parse(&["--point", "b", "--depth", "3", "--point", "a"]).expect("valid");
    assert_eq!(args.get::<usize>("--depth"), Some(3));
    assert_eq!(args.get_all::<String>("--point"), ["b", "a"]);
    assert!(!args.has("--quick"));
    let none = parse(&[]).expect("valid");
    assert_eq!(none.get::<usize>("--depth"), None);
    assert!(none.get_all::<String>("--point").is_empty());
}

/// Runs `bin` with `args` in a fresh empty directory and returns its
/// output and whatever it left in the directory.
fn run_in_empty_dir(bin: (&str, &str), args: &[&str]) -> (Output, Vec<PathBuf>) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ewb-cli-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(bin.1)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    (out, left)
}

/// The entry of [`BINS`] named `name`.
fn bin(name: &str) -> (&'static str, &'static str) {
    *BINS
        .iter()
        .find(|(bin, _)| *bin == name)
        .unwrap_or_else(|| panic!("no binary `{name}`"))
}

fn assert_usage_error(bin: (&str, &str), args: &[&str]) -> String {
    let (out, left) = run_in_empty_dir(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{} {args:?}: {stderr}", bin.0);
    assert!(stderr.contains("usage:"), "{} {args:?}: {stderr}", bin.0);
    assert!(out.stdout.is_empty(), "{} {args:?} printed output", bin.0);
    assert!(left.is_empty(), "{} {args:?} wrote {left:?}", bin.0);
    stderr
}

#[test]
fn every_binary_refuses_an_unknown_flag_before_any_work() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("src/bin readable")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| Some(p.file_stem()?.to_string_lossy().into_owned()))
        .collect();
    on_disk.sort();
    assert_eq!(
        on_disk,
        BINS.map(|(name, _)| name),
        "BINS lists every binary"
    );
    for bin in BINS {
        assert_usage_error(bin, &["--no-such-flag"]);
    }
}

#[test]
fn malformed_values_exit_2() {
    let stderr = assert_usage_error(bin("all_figures"), &["--only", "no_such_report"]);
    for (report, _) in REPORTS {
        assert!(stderr.contains(report), "{report} not named: {stderr}");
    }
    for args in [
        &["--depth"][..],
        &["--depth", "x"],
        &["--depth", "3", "--depth", "4"],
        &["--depth", "0"],
        &["--seeds", "0"],
    ] {
        assert_usage_error(bin("check_all"), args);
    }
    for args in [
        &["--users", "0"][..],
        &["--shards", "0"],
        &["--smoke", "--resume"],
        &["--smoke", "--chaos-panic", "4:0"],
        &["--smoke", "--chaos-panic", "0:1999"],
    ] {
        assert_usage_error(bin("fleet_bench"), args);
    }
}

/// The identifiers following each `flag ` in `text`, across line breaks.
fn named_after<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    text.match_indices(flag)
        .map(|(i, _)| &text[i + flag.len()..])
        .filter(|rest| rest.starts_with(char::is_whitespace))
        .map(|rest| {
            let rest = rest.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// The `--flag`s of each `--bin NAME -- ARGS` in `line`, paired with
/// NAME: ARGS runs to the end of the line or the first backtick, pipe,
/// `;`, `&` or `>`.
fn flags_after_bins(line: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    for command in line.split("--bin ").skip(1) {
        let name_end = command.find(char::is_whitespace).unwrap_or(command.len());
        let Some(args) = command[name_end..].trim_start().strip_prefix("-- ") else {
            continue;
        };
        let args = &args[..args.find(['`', '|', ';', '&', '>']).unwrap_or(args.len())];
        for word in args.split_whitespace().filter(|w| w.starts_with("--")) {
            let end = word[2..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .map_or(word.len(), |i| i + 2);
            out.push((&command[..name_end], &word[..end]));
        }
    }
    out
}

#[test]
fn docs_name_only_existing_binaries_and_reports() {
    let usages: Vec<(&str, String)> = BINS
        .iter()
        .map(|&bin| {
            let stderr = assert_usage_error(bin, &["--no-such-flag"]);
            let usage = stderr.lines().find(|l| l.starts_with("usage:"));
            (bin.0, usage.expect("a usage line").to_string())
        })
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "docs/testing.md",
        "tests/README.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        for name in named_after(&text, "--bin") {
            assert!(
                BINS.iter().any(|(bin, _)| *bin == name),
                "{doc}: --bin {name}"
            );
        }
        for name in named_after(&text, "--only") {
            assert!(
                REPORTS.iter().any(|(report, _)| *report == name),
                "{doc}: --only {name}"
            );
        }
        for (name, flag) in text.lines().flat_map(flags_after_bins) {
            let (_, usage) = usages
                .iter()
                .find(|(bin, _)| *bin == name)
                .unwrap_or_else(|| panic!("{doc}: --bin {name}"));
            assert!(
                usage.contains(&format!("[{flag}]")) || usage.contains(&format!("[{flag} ")),
                "{doc}: --bin {name} -- {flag}, but {usage}"
            );
        }
    }
}

#[test]
fn flags_after_bins_reads_each_command_on_a_line() {
    assert_eq!(
        flags_after_bins(
            "`cargo run --bin a -- --x 3 --y-z, --w` and `--bin b`, --bin c -- --v | tee --u"
        ),
        [("a", "--x"), ("a", "--y-z"), ("a", "--w"), ("c", "--v")]
    );
    assert!(flags_after_bins("--bin a --not-args").is_empty());
}
