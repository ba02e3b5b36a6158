//! Quickstart: harden a guard with GlitchResistor, compile it to Thumb-1
//! firmware, run it on the simulated board, and watch a glitch get caught.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gd_backend::compile;
use gd_chipwhisperer::{AttackSpec, AttemptRunner, Device, FaultModel, GlitchParams, SuccessCheck};
use gd_ir::parse_module;
use glitch_resistor::{harden, Config, Defenses};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A security-critical guard, as compilers see it: firmware that only
    //    unlocks when a (volatile) flag becomes non-zero.
    let source = "
module quickstart

global @unlock : i32 = 0

fn @main() -> i32 {
entry:
  %t = inttoptr i32 0x48000014
  store volatile i32 1, %t          ; glitch trigger (GPIO)
  br loop
loop:
  %p = globaladdr @unlock
  %v = load volatile i32, %p
  %locked = icmp eq i32 %v, 0
  br %locked, loop, open
open:
  ret i32 0xACCE55                  ; the protected path
}
";
    let mut module = parse_module(source)?;

    // 2. Apply every GlitchResistor defense at compile time.
    let report = harden(&mut module, &Config::new(Defenses::ALL));
    gd_ir::verify_module(&module)?;
    println!("instrumented: {report:#?}");

    // 3. Lower to ARMv6-M machine code with an STM32-style memory layout.
    let image = compile(&module, "main")?;
    println!(
        "firmware: {} bytes text, {} bytes data, entry {:#010x}",
        image.sizes.text,
        image.sizes.data + image.sizes.bss,
        image.entry
    );

    // 4. Attack it on the simulated ChipWhisperer rig: one glitch right on
    //    the guard comparison, at a parameter point known to inject faults.
    let device = Device::from_image(&image);
    let model = FaultModel::default();
    // The delay defense writes its seed to flash at boot (~177k cycles), so
    // the budget must reach past the trigger into the guarded loop.
    let spec = AttackSpec { success: SuccessCheck::HaltWithR0(0xACCE55), max_cycles: 200_000 };
    let mut runner = AttemptRunner::new(&device);
    let mut outcomes = std::collections::BTreeMap::<String, u32>::new();
    for boot in 0..2_000u64 {
        let cycle = ((boot % 25) * 4) as u32;
        let params = GlitchParams::single(cycle, 12, -18);
        let outcome = runner.run(&model, params, boot, &spec, None);
        *outcomes.entry(format!("{outcome:?}")).or_default() += 1;
    }
    println!("2,000 single-glitch attempts against the hardened guard:");
    for (outcome, count) in &outcomes {
        println!("  {outcome:<10} {count}");
    }
    println!("(the redundant complemented re-checks route faults into gr_detected)");
    Ok(())
}
