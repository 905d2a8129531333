//! `e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes (lines starting with `#`), then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--workload all`,
//! one block of notes and one result line per workload. Exits non-zero
//! when a correctness check fails, and with code 2 on bad arguments.

use std::process::ExitCode;

fn main() -> ExitCode {
    let runs = match e2ebench::Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", e2ebench::USAGE);
            return ExitCode::from(2);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for opts in &runs {
        let report = e2ebench::run(opts);
        for note in &report.notes {
            println!("# {note}");
        }
        println!("{}", report.json());
        for e in &report.errors {
            eprintln!("e2ebench: {}: check failed: {e}", opts.workload.name());
        }
        if !report.correct() {
            status = ExitCode::FAILURE;
        }
    }
    status
}
