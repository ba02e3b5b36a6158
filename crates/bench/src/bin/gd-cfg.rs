//! The CFG-recovery and glitch-reachability driver.
//!
//! - no arguments: the boot report (recovery summaries, `GL03xx`
//!   findings, agreement tables) — the `results/cfg_boot.txt` artifact.
//! - `--ingest`: the same over the committed demo dump —
//!   `results/cfg_ingest.txt`.
//! - `--gate`: re-run the agreement sweeps (boot `None` + `All`, ingest
//!   demo) and exit non-zero if any simulator-proved-Successful fault
//!   was classified statically safe — the soundness gate.
//! - `--deny [LINT] [--config NAME]`: run the `GL03xx` lints on one
//!   boot configuration (default `All`) and exit non-zero on any
//!   warning-or-worse finding — or, with a lint id (`--deny GL0302`),
//!   on any finding of that lint regardless of severity.
//!
//! Output is byte-identical at any `GD_THREADS`.

use std::process::ExitCode;

use gd_bench::cfg_report::{
    analyze_boot, boot_agreement, cfg_boot, full_report, ingest_agreement, ingest_report,
};
use gd_bench::outln;
use gd_bench::overhead::configurations;
use gd_lint::{LintReport, Severity, Suppressions};
use glitch_resistor::Defenses;

fn find_config(name: &str) -> Option<(&'static str, Defenses)> {
    configurations().into_iter().find(|(n, _)| *n == name)
}

fn record_metrics(label: &str, defenses: Defenses) {
    let a = analyze_boot(defenses);
    gd_cfg::metrics::record(&a.g, label);
}

fn gate() -> ExitCode {
    let mut unsound = 0u64;
    for (name, defenses) in [("None", Defenses::NONE), ("All", Defenses::ALL)] {
        let a = boot_agreement(name, defenses);
        gd_bench::emit(&a.rendered);
        unsound += a.total.unsound;
    }
    let a = ingest_agreement();
    gd_bench::emit(&a.rendered);
    unsound += a.total.unsound;
    if unsound > 0 {
        eprintln!(
            "gd-cfg: soundness gate FAILED: {unsound} simulator-proved-Successful \
             fault(s) were classified statically safe"
        );
        return ExitCode::FAILURE;
    }
    outln!("soundness gate OK: 0 unsound instances across boot None/All and the ingest demo");
    ExitCode::SUCCESS
}

fn deny(args: &[String]) -> ExitCode {
    let mut config = "All";
    let mut lint: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => {}
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
            id if id.starts_with("GL") => lint = Some(id),
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let (_, defenses) = find_config(config).expect("validated above");
    let (findings, rendered) = cfg_boot(config, defenses);
    gd_bench::emit(&rendered);
    let report = LintReport::new(findings, &Suppressions::default());
    let denied = match lint {
        // Scoped to one lint: any finding of that lint denies,
        // regardless of severity.
        Some(id) => {
            let n = report.findings().iter().filter(|f| f.lint == id).count();
            if n > 0 {
                eprintln!("gd-cfg: denying: {n} {id} finding(s) on configuration `{config}`");
            }
            n > 0
        }
        None => {
            let denied = report.deny();
            if denied {
                eprintln!(
                    "gd-cfg: denying: {} warning-or-worse GL03xx finding(s) on configuration `{config}`",
                    report.findings().iter().filter(|f| f.severity >= Severity::Warning).count()
                );
            }
            denied
        }
    };
    if denied {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--deny") {
        return deny(&args);
    }
    match args.first().map(String::as_str) {
        None => {
            record_metrics("boot", Defenses::NONE);
            gd_bench::emit(&full_report());
            ExitCode::SUCCESS
        }
        Some("--ingest") => {
            let ing = gd_bench::cfg_report::ingest_demo();
            let a = gd_bench::cfg_report::analyze_ingest(&ing);
            gd_cfg::metrics::record(&a.g, "ingest_demo");
            gd_bench::emit(&ingest_report());
            ExitCode::SUCCESS
        }
        Some("--gate") => gate(),
        Some(other) => {
            eprintln!("unknown argument `{other}` (try --ingest, --gate, --deny)");
            ExitCode::FAILURE
        }
    }
}
