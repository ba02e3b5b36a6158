//! Regenerates Table VII: the qualitative comparison with prior
//! software-based glitching defenses.

use std::process::ExitCode;

use glitch_resistor::related;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        gd_bench::report::heading("Table VII — software-based defense comparison");
        println!("{}", related::TABLE_HEADER);
        for row in related::comparison() {
            println!("{row}");
        }
    })
}
