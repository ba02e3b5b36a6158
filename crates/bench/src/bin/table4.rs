//! Regenerates Table IV: boot-time overhead (clock cycles) per defense.

use std::process::ExitCode;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        let rows = gd_bench::overhead::table4();
        gd_bench::overhead::print_table4(&rows);
    })
}
