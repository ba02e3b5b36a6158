//! The gd-lint driver over the boot firmware.
//!
//! - no arguments: print the full report (all Table IV configurations) —
//!   the `results/lint_boot.txt` artifact.
//! - `--deny [--config NAME] [--allow SPEC]...`: lint one configuration
//!   (default `All`) and exit non-zero on any unsuppressed
//!   warning-or-worse finding. `SPEC` is `LINT` or `function:LINT`.
//! - `--json [--config NAME]`: the one-configuration report as strict JSON.

use std::process::ExitCode;

use gd_bench::lint::{full_report, lint_boot};
use gd_bench::overhead::configurations;
use gd_lint::Suppressions;

fn find_config(name: &str) -> Option<(&'static str, glitch_resistor::Defenses)> {
    configurations().into_iter().find(|(n, _)| *n == name)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{}", full_report());
        return ExitCode::SUCCESS;
    }
    if !args.iter().any(|a| a == "--deny" || a == "--json") {
        eprintln!("usage: gd-lint [--deny | --json] [--config NAME] [--allow SPEC]...");
        return ExitCode::FAILURE;
    }
    single_config(&args)
}

fn single_config(args: &[String]) -> ExitCode {
    let mut config = "All";
    let mut allows: Vec<String> = Vec::new();
    let mut json = false;
    let mut deny = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--config" => match it.next().and_then(|n| find_config(n)) {
                Some((name, _)) => config = name,
                None => {
                    eprintln!(
                        "--config wants one of: {:?}",
                        configurations().iter().map(|(n, _)| *n).collect::<Vec<_>>()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--allow" => match it.next() {
                Some(spec) => allows.push(spec.clone()),
                None => {
                    eprintln!("--allow wants LINT or function:LINT");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let suppress = match Suppressions::parse(&allows) {
        Ok(s) => s,
        Err(bad) => {
            eprintln!("--allow {bad}: unknown lint ID");
            return ExitCode::FAILURE;
        }
    };
    let (_, defenses) = find_config(config).expect("validated above");
    let (report, rendered) = lint_boot(config, defenses);
    // Re-apply suppressions over the raw findings.
    let report = gd_lint::LintReport::new(report.findings().to_vec(), &suppress);
    if json {
        println!("{}", report.render_json());
    } else if allows.is_empty() {
        print!("{rendered}");
    } else {
        // The full rendering predates suppression; re-render so the text
        // agrees with the exit decision.
        print!("{}", report.render_text(gd_lint::Severity::Warning));
    }
    if deny && report.deny() {
        eprintln!(
            "gd-lint: denying: {} warning-or-worse finding(s) on configuration `{config}`",
            report.findings().iter().filter(|f| f.severity >= gd_lint::Severity::Warning).count()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
