//! The golden manifest: every experiment binary regenerates its
//! committed artifact under `results/` byte for byte, at every worker
//! count. Each row runs the binary under `GD_THREADS=1`, `2` and `8`;
//! any drift is reported with the first divergent line.
//!
//! The cheap rows run in the default test pass. The expensive rows
//! (seconds each in release, far longer in debug) are one `#[ignore]`d
//! test:
//!
//! ```text
//! cargo test --release --offline -q -p gd-bench --test goldens -- --ignored
//! ```

use std::process::Command;

use gd_bench::selfcheck::{diff, golden_path};

/// One artifact: the binary, its arguments, and its golden file.
type Row = (&'static str, &'static [&'static str], &'static str);

const CHEAP: &[Row] = &[
    (env!("CARGO_BIN_EXE_table1"), &[], "table1.txt"),
    (env!("CARGO_BIN_EXE_table2"), &[], "table2.txt"),
    (env!("CARGO_BIN_EXE_table3"), &[], "table3.txt"),
    (env!("CARGO_BIN_EXE_table4"), &[], "table4.txt"),
    (env!("CARGO_BIN_EXE_table5"), &[], "table5.txt"),
    (env!("CARGO_BIN_EXE_table7"), &[], "table7.txt"),
    (env!("CARGO_BIN_EXE_fig2"), &[], "fig2.txt"),
    (env!("CARGO_BIN_EXE_fig2_ext"), &[], "fig2_ext.txt"),
    (env!("CARGO_BIN_EXE_search"), &[], "search.txt"),
    (env!("CARGO_BIN_EXE_gdump"), &["guard", "all"], "gdump_guard_all.txt"),
    (env!("CARGO_BIN_EXE_gd-lint"), &[], "lint_boot.txt"),
    (env!("CARGO_BIN_EXE_gd-cfg"), &[], "cfg_boot.txt"),
    (env!("CARGO_BIN_EXE_gd-cfg"), &["--ingest"], "cfg_ingest.txt"),
    (env!("CARGO_BIN_EXE_gd-ingest"), &[], "ingest_demo.txt"),
    (env!("CARGO_BIN_EXE_gd-ingest"), &["--lint"], "lint_ingest.txt"),
    (env!("CARGO_BIN_EXE_gd-ingest"), &["--faultsim"], "multifault_ingest.txt"),
];

const EXPENSIVE: &[Row] = &[
    (env!("CARGO_BIN_EXE_gd-multifault"), &[], "multifault_boot.txt"),
    (env!("CARGO_BIN_EXE_table6"), &[], "table6.txt"),
    (env!("CARGO_BIN_EXE_ablation"), &[], "ablation.txt"),
];

const THREADS: [&str; 3] = ["1", "2", "8"];

/// Runs every row at every thread count and panics once, naming every
/// drifted or failed run.
fn check(rows: &[Row]) {
    let mut failures = Vec::new();
    for &(exe, args, golden) in rows {
        let expected = std::fs::read(golden_path(golden))
            .unwrap_or_else(|e| panic!("reading golden {golden}: {e}"));
        for threads in THREADS {
            let run = format!("GD_THREADS={threads} {exe} {}", args.join(" "));
            let output = Command::new(exe)
                .args(args)
                .env("GD_THREADS", threads)
                .env_remove("GD_CHAOS")
                .output()
                .unwrap_or_else(|e| panic!("{run}: {e}"));
            if !output.status.success() {
                failures.push(format!(
                    "{run}: exited with {}\n{}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            } else if let Some(report) = diff(&expected, &output.stdout) {
                failures.push(format!("{run}: drifted from results/{golden}\n{report}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn cheap_artifacts_match_their_goldens_at_every_thread_count() {
    check(CHEAP);
}

#[test]
#[ignore = "table6, ablation and gd-multifault: run in release via --ignored"]
fn expensive_artifacts_match_their_goldens_at_every_thread_count() {
    check(EXPENSIVE);
}
