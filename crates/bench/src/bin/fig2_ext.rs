//! Extension experiment: Figure 2's exhaustive sweep applied to whole
//! instruction *classes* (ALU, compare, load, store), testing the paper's
//! §V observation — memory operations are far more fault-prone than pure
//! register manipulation — at the encoding level.

use std::process::ExitCode;

use gd_bench::outln;
use gd_emu::Config;
use gd_glitch_emu::ext::instruction_classes;
use gd_glitch_emu::{Direction, Outcome};

fn regenerate() {
    gd_bench::emit(&gd_bench::report::heading_str(
        "Extension — instruction-class skippability (1→0 flips)",
    ));
    outln!(
        "{:<10} {:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "class",
        "instruction",
        "skip%",
        "badmem%",
        "invalid%",
        "failed%",
        "noeff%"
    );
    for case in instruction_classes() {
        let t = case.sweep(Direction::And, Config::default());
        let total = t.total().max(1) as f64;
        let pct = |o: Outcome| 100.0 * t.count(o) as f64 / total;
        outln!(
            "{:<10} {:<16} {:>7.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            case.name,
            case.text,
            pct(Outcome::Success),
            pct(Outcome::BadRead) + pct(Outcome::BadFetch),
            pct(Outcome::InvalidInstruction),
            pct(Outcome::Failed),
            pct(Outcome::NoEffect),
        );
    }
    outln!(
        "\n(\"skip\" = execution completed but the instruction's effect is missing;\n\
         note how memory classes trade skips for faults, as in the paper's §V)"
    );
}

fn main() -> ExitCode {
    gd_bench::artifact_main(regenerate)
}
