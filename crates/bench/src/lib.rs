//! # gd-bench — experiment harnesses for every table and figure
//!
//! One module per published artifact of *Glitching Demystified* (DSN 2021):
//!
//! | Module | Regenerates | Binary |
//! |---|---|---|
//! | [`fig2`] | Figure 2 (a–c) | `fig2` |
//! | [`glitch_tables`] | Tables I–III | `table1`, `table2`, `table3` |
//! | [`overhead`] | Tables IV–V | `table4`, `table5` |
//! | [`defense`] | Table VI | `table6` |
//! | `table7` binary | Table VII | `table7` |
//! | `search` binary | §V-B tuning | `search` |
//!
//! The campaign-shardable workload harnesses ([`fig2`],
//! [`glitch_tables`], [`defense`], [`report`]) live in [`gd_campaign`]
//! and are re-exported here unchanged; the `fig2`/`table1`–`table3`/
//! `table6` binaries are thin clients of [`gd_campaign::Engine`]. Each
//! binary prints its artifact to stdout; the golden manifest
//! (`tests/goldens.rs`) diffs every one against its committed file under
//! `results/` at several worker counts.
//!
//! The `gd-bench` binary times the hot paths with the dependency-free
//! [`timing`] harness and keeps the committed `BENCH_*.json` trajectory
//! ([`trajectory`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use gd_campaign::{defense, fig2, glitch_tables, report};

pub mod cfg_report;
pub mod lint;
pub mod overhead;
pub mod timing;
pub mod trajectory;

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

/// Writes `text` to stdout: the one print path of every binary in this
/// crate. A reader that went away early (`table4 | head -1`) ends the
/// process quietly with exit 0, as a pipeline stage should; any other
/// write error ends it with exit 1 and a message.
pub fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`emit`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::emit("\n")
    };
    ($($arg:tt)*) => {
        $crate::emit(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// The entry point of an experiment binary that takes no arguments:
/// `regenerate` prints the artifact through [`emit`]. Any argument is a
/// usage error, so a flag left over in an old script fails loudly
/// instead of printing the artifact and exiting 0.
pub fn artifact_main(regenerate: impl FnOnce()) -> ExitCode {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    if let Some(arg) = args.next() {
        eprintln!("unexpected argument `{arg}`");
        eprintln!("usage: {bin} (takes no arguments; prints the artifact)");
        return ExitCode::FAILURE;
    }
    regenerate();
    ExitCode::SUCCESS
}
