//! Zoo gate runner.
//!
//! ```sh
//! cargo run --release -p rvf-validate --bin zoo -- [--seed N] [--report PATH]
//! ```
//!
//! Runs every zoo family through the full extraction pipeline, prints a
//! per-family accuracy table, optionally writes the JSON report
//! artifact, and exits `1` if any family violates its committed
//! contract (`2` on harness errors, an unstable extracted model among
//! them).

use std::process::ExitCode;

use rvf_validate::{builtin_contracts, report_json, run_zoo, zoo, DEFAULT_SEED};

fn main() -> ExitCode {
    let mut seed = DEFAULT_SEED;
    let mut report_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--report" => match args.next() {
                Some(p) => report_path = Some(p),
                None => {
                    eprintln!("--report needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: zoo [--seed N] [--report PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }

    let families = zoo(seed);
    println!("zoo: {} families, seed {seed:#x}", families.len());
    let gated = match run_zoo(&families, &builtin_contracts()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("zoo harness error: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "{:<22} {:>9} {:>12} {:>13} {:>6} {:>6}",
        "family", "nrmse", "max_abs_norm", "settled_nrmse", "poles", "gate"
    );
    let mut failed = 0usize;
    for g in &gated {
        let r = &g.run.report;
        let verdict = if g.violations.is_empty() { "pass" } else { "FAIL" };
        println!(
            "{:<22} {:>9.2e} {:>12.2e} {:>13.2e} {:>6} {:>6}",
            g.run.name, r.nrmse, r.max_abs_norm, r.settled_nrmse, g.run.n_freq_poles, verdict
        );
        for v in &g.violations {
            println!("    violation: {v}");
            failed += 1;
        }
    }

    if let Some(path) = report_path {
        let doc = report_json(seed, &gated).render();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write report '{path}': {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }

    if failed > 0 {
        eprintln!("zoo gate FAILED: {failed} contract violation(s)");
        ExitCode::FAILURE
    } else {
        println!("zoo gate passed: {} families within contract", gated.len());
        ExitCode::SUCCESS
    }
}
