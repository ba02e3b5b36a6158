//! An attacker's-eye view: tune glitch parameters against an unprotected
//! loop guard until the attack is 100% reliable, exactly like the paper's
//! §V-B experiment, then replay the found parameters.
//!
//! ```text
//! cargo run --release --example attack_campaign
//! ```

use gd_chipwhisperer::{
    find_reliable_params, targets, AttackOutcome, AttackSpec, AttemptRunner, Device, FaultModel,
    SuccessCheck,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = FaultModel::default();
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 };

    println!("target: the paper's `while(a)` guard (val != 0 comparator)\n");
    let device = Device::from_asm(targets::WHILE_A)?;

    // Phase 1-3: blanket sweep → per-cycle refinement → 10/10 verification.
    let report = find_reliable_params(&device, &model, &spec, 10);
    println!("search attempts : {}", report.attempts);
    println!("search successes: {}", report.successes);
    println!("bench wall-clock: {:.1} minutes at 95 ms/attempt", report.minutes());
    let Some(params) = report.found else {
        println!("no 10/10 parameter set found");
        return Ok(());
    };
    println!(
        "found           : glitch cycle {} width {}% offset {}%\n",
        params.ext_offset, params.width, params.offset
    );

    // Replay: the tuned parameters keep working, like a productized exploit
    // (the XBOX reset glitch shipped with an auto-retry for the misses).
    let mut runner = AttemptRunner::new(&device);
    let mut wins = 0;
    let trials = 50;
    for boot in 10_000..10_000 + trials {
        if runner.run(&model, params, boot, &spec, None) == AttackOutcome::Success {
            wins += 1;
        }
    }
    println!("replaying tuned parameters: {wins}/{trials} successful glitches");
    Ok(())
}
