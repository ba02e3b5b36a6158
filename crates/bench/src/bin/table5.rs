//! Regenerates Table V: firmware size overhead (bytes) per defense.

use std::process::ExitCode;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        let rows = gd_bench::overhead::table5();
        gd_bench::emit(&gd_bench::overhead::render_table5(&rows));
    })
}
