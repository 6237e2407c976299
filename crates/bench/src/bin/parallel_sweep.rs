//! Intra-page parallelism sweep: per-plan latency/energy over the
//! image-heavy full benchmark pages, plus the learned controller row.
//!
//! Usage: `parallel_sweep`
//!
//! Before printing anything the binary runs the plan-invariance oracle
//! (`ewb_check::pipeline::check_parallel_all`): on a clean link, every
//! grid plan must deliver what the sequential plan delivers (bytes,
//! objects, decode units, stylesheet rules parsed, DOM, geometry,
//! fetched URLs), fetch every object and keep the radio invariants, on
//! three pages in both pipeline modes. A red differential bit can never
//! ship inside a green sweep.
//!
//! Once the gate and the sweep's two acceptance checks (the 4-thread
//! speedup reaches 1.5x, the learned controller never loses energy)
//! pass, every run rewrites `crates/core/tests/golden/parallel.json`,
//! the sweep and feature→plan table the `golden_parallel` test pins
//! byte for byte.

use ewb_core::experiments::parallel;

fn main() {
    ewb_bench::cli::Args::parse(&[]);
    let ctx = ewb_bench::Context::new();

    // -- Plan-invariance oracle before any reporting. --------------------
    let violations = ewb_check::pipeline::check_parallel_all(ewb_bench::REPORT_SEED);
    assert!(
        violations.is_empty(),
        "parallel plan-invariance oracle found {} violations, first: {:?}",
        violations.len(),
        violations.first()
    );
    println!(
        "differential: every plan {{1,2,4,8}}t x {{overlap off,on}} loads what \
         the sequential plan loads (3 pages x 2 modes, clean link)"
    );

    // -- The sweep. ------------------------------------------------------
    let rows = parallel::sweep(&ctx.corpus, &ctx.server, &ctx.cfg);
    let table = parallel::plan_table(&ctx.corpus, &ctx.server, &ctx.cfg);

    print!(
        "{}",
        ewb_bench::header(
            "Intra-page parallelism (plan sweep + learned controller)",
            "full-page benchmark, energy-aware pipeline",
        )
    );
    println!(
        "{:<8} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "plan", "energy (J)", "load (s)", "speedup", "power", "delay"
    );
    for r in &rows {
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>8.2}x {:>9} {:>9}",
            r.plan,
            r.joules,
            r.load_time_s,
            r.pipeline_speedup,
            ewb_bench::pct(r.energy_saving),
            ewb_bench::pct(r.delay_saving),
        );
    }

    let find = |id: &str| {
        rows.iter()
            .find(|r| r.plan == id)
            .unwrap_or_else(|| panic!("missing {id} row"))
    };
    let d4 = find("d4s4o1");
    assert!(
        d4.pipeline_speedup >= 1.5,
        "acceptance: 4-thread pipeline speedup must reach 1.5x, got {:.3}",
        d4.pipeline_speedup
    );
    let learned = find("learned");
    assert!(
        learned.energy_saving >= 0.0,
        "acceptance: the learned controller must never lose energy vs \
         always-sequential, got {:.6}",
        learned.energy_saving
    );
    let parallel_pages = table.iter().filter(|c| c.plan != "seq").count();
    println!(
        "\n4-thread pipeline speedup {:.2}x; learned controller saves {} \
         (never loses), parallelizing {}/{} pages.",
        d4.pipeline_speedup,
        ewb_bench::pct(learned.energy_saving),
        parallel_pages,
        table.len(),
    );

    ewb_bench::write_golden("parallel.json", parallel::summary_json(&rows, &table));
}
