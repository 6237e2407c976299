//! Prints the reports EXPERIMENTS.md is generated from: every entry of
//! [`ewb_bench::REPORTS`] in order, or only the one `--only NAME` names.
//! `--quick` shrinks the slow experiments.

use ewb_bench::{cli, Report, REPORTS};

const FLAGS: &[cli::Flag] = &[("--only", "NAME"), ("--quick", "")];

fn main() {
    let args = cli::Args::parse(FLAGS);
    let reports: Vec<Report> = match args.get::<String>("--only") {
        None => REPORTS.to_vec(),
        Some(name) => match REPORTS.iter().find(|(report, _)| *report == name) {
            Some(report) => vec![*report],
            None => args.fail(&format!(
                "no report `{name}`; the reports are {}",
                REPORTS.map(|(report, _)| report).join(", ")
            )),
        },
    };
    let quick = args.has("--quick");
    let ctx = ewb_bench::Context::new();
    for (_, run) in reports {
        print!("{}", run(&ctx, quick));
    }
}
