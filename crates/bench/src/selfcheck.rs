//! `--check` self-verification for the experiment binaries: re-run the
//! binary, capture its stdout, and diff it against the committed golden
//! file under `results/`. A clean diff exits 0; drift (or a failed
//! regeneration) exits non-zero with the first mismatching line named,
//! which makes every binary its own regression gate. The golden
//! manifest (`tests/goldens.rs`) runs every binary at several worker
//! counts and reports drift through [`diff`].

use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The committed golden file for one artifact (`results/<name>`).
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")).join(name)
}

/// The standard experiment-binary entry point: with `--check` among the
/// arguments, verify against `results/<golden>` (re-running the binary
/// itself with `regen_args`); otherwise run `regenerate`, which prints
/// the artifact to stdout.
pub fn main(golden: &str, regen_args: &[&str], regenerate: impl FnOnce()) -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--check") {
        check(golden, regen_args)
    } else {
        regenerate();
        ExitCode::SUCCESS
    }
}

/// Re-executes the current binary with `regen_args` and diffs its stdout
/// against `results/<golden>`. Returns success only on a byte-identical
/// match.
pub fn check(golden: &str, regen_args: &[&str]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--check: cannot locate the current binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let output = match Command::new(&exe).args(regen_args).output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("--check: re-running {} failed: {e}", exe.display());
            return ExitCode::FAILURE;
        }
    };
    if !output.status.success() {
        eprintln!("--check: regeneration exited with {}", output.status);
        return ExitCode::FAILURE;
    }
    let path = golden_path(golden);
    let expected = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("--check: cannot read golden file {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match diff(&expected, &output.stdout) {
        None => {
            println!("--check OK: output matches {} ({} bytes)", path.display(), expected.len());
            ExitCode::SUCCESS
        }
        Some(report) => {
            eprintln!("--check FAILED: output drifted from {}", path.display());
            eprintln!("{report}");
            ExitCode::FAILURE
        }
    }
}

/// First point of divergence between two outputs, as a human-readable
/// report; `None` when byte-identical.
pub fn diff(expected: &[u8], actual: &[u8]) -> Option<String> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
