//! Regenerates Table VII: the qualitative comparison with prior
//! software-based glitching defenses.

use std::process::ExitCode;

use gd_bench::outln;
use glitch_resistor::related;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        gd_bench::emit(&gd_bench::report::heading_str(
            "Table VII — software-based defense comparison",
        ));
        outln!("{}", related::TABLE_HEADER);
        for row in related::comparison() {
            outln!("{row}");
        }
    })
}
