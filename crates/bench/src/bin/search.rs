//! Reproduces the §V-B experiment: automatically tuning glitch parameters
//! to a 10-out-of-10 reliable configuration, reporting attempts and the
//! bench wall-clock they correspond to.

use std::process::ExitCode;

use gd_chipwhisperer::{
    find_reliable_params, targets, AttackSpec, Device, FaultModel, SuccessCheck,
};

fn regenerate() {
    let model = FaultModel::default();
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 };
    for (name, src) in [
        ("while(a) [val != 0]", targets::WHILE_A),
        ("while(a!=0xD3B9AEC6)", targets::WHILE_A_NE_CONST),
    ] {
        gd_bench::report::heading(&format!("§V-B parameter search — {name}"));
        let dev = Device::from_asm(src).expect("target assembles");
        let report = find_reliable_params(&dev, &model, &spec, 10);
        println!("attempts:   {}", report.attempts);
        println!("successes:  {}", report.successes);
        match report.found {
            Some(p) => println!(
                "found:      cycle {} width {} offset {} (verified {}/10)",
                p.ext_offset, p.width, p.offset, report.verified
            ),
            None => println!("found:      none"),
        }
        println!("bench time: {:.1} minutes (at 95 ms/attempt)", report.minutes());
    }
}

fn main() -> ExitCode {
    gd_bench::artifact_main(regenerate)
}
