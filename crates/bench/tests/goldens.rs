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

use std::path::PathBuf;
use std::process::Command;

/// The committed golden file for one artifact (`results/<name>`).
fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")).join(name)
}

/// First point of divergence between two outputs, as a human-readable
/// report; `None` when byte-identical.
fn diff(expected: &[u8], actual: &[u8]) -> Option<String> {
    if expected == actual {
        return None;
    }
    let expected = String::from_utf8_lossy(expected);
    let actual = String::from_utf8_lossy(actual);
    let mut want = expected.lines();
    let mut got = actual.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (Some(w), Some(g)) => {
                return Some(format!("line {line}:\n  expected: {w}\n  actual:   {g}"));
            }
            (Some(w), None) => {
                return Some(format!("line {line}: output ends early\n  expected: {w}"));
            }
            (None, Some(g)) => {
                return Some(format!("line {line}: unexpected trailing output\n  actual:   {g}"));
            }
            // Same lines, different bytes: a trailing-newline or CR issue.
            (None, None) => {
                return Some(format!(
                    "outputs differ only in line endings or a trailing newline \
                     ({} vs {} bytes)",
                    expected.len(),
                    actual.len()
                ));
            }
        }
    }
}

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

/// The binaries no longer diff themselves against their goldens, so a
/// leftover `--check` must fail instead of printing the artifact and
/// passing without checking anything.
#[test]
fn a_stale_check_flag_fails_loudly() {
    for exe in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_gd-cfg"),
        env!("CARGO_BIN_EXE_gd-ingest"),
    ] {
        let output = Command::new(exe).arg("--check").output().expect("binary runs");
        assert!(!output.status.success(), "{exe} --check exited with {}", output.status);
        assert!(output.stdout.is_empty(), "{exe} --check printed to stdout");
        assert!(!output.stderr.is_empty(), "{exe} --check explained nothing on stderr");
    }
}

#[test]
fn identical_outputs_have_no_diff() {
    assert_eq!(diff(b"a\nb\n", b"a\nb\n"), None);
}

#[test]
fn diff_names_the_first_divergent_line() {
    let report = diff(b"a\nb\nc\n", b"a\nX\nc\n").unwrap();
    assert!(report.contains("line 2") && report.contains("X"), "{report}");
    let report = diff(b"a\nb\n", b"a\n").unwrap();
    assert!(report.contains("ends early"), "{report}");
    let report = diff(b"a\n", b"a\nb\n").unwrap();
    assert!(report.contains("trailing"), "{report}");
    let report = diff(b"a\nb\n", b"a\nb").unwrap();
    assert!(report.contains("line endings"), "{report}");
}

#[test]
fn golden_paths_point_into_results() {
    let p = golden_path("table1.txt");
    assert!(p.ends_with("results/table1.txt"), "{}", p.display());
    assert!(p.exists(), "committed golden file present at {}", p.display());
}
