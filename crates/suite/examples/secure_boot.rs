//! Secure boot under glitching: the paper's motivating scenario.
//!
//! A bootloader checksums the application image and refuses to jump into it
//! unless the checksum matches — exactly the control-flow pattern glitching
//! attacks target (XBOX 360, PS Vita, Nintendo Switch, …). This example
//! compares the unprotected bootloader against the GlitchResistor-hardened
//! build under identical glitch campaigns.
//!
//! ```text
//! cargo run --release --example secure_boot
//! ```

use gd_backend::compile;
use gd_chipwhisperer::{
    full_grid, AttackOutcome, AttackSpec, AttemptRunner, Device, FaultModel, GlitchParams,
    SuccessCheck,
};
use gd_ir::parse_module;
use glitch_resistor::{harden, Config, Defenses};

const BOOTLOADER: &str = "
module secure_boot

enum VerifyResult { BAD, GOOD }
global @image_word0 : i32 = 0x1BADB002
global @image_word1 : i32 = 0x0BADF00D
global @expected : i32 = 0x10101011

fn @checksum() -> i32 {
entry:
  %p0 = globaladdr @image_word0
  %w0 = load i32, %p0
  %p1 = globaladdr @image_word1
  %w1 = load i32, %p1
  %x = xor i32 %w0, %w1
  %r = lshr i32 %x, 4
  ret i32 %r
}

fn @verify() -> i32 {
entry:
  %sum = call i32 @checksum()
  %p = globaladdr @expected
  %want = load i32, %p
  %ok = icmp eq i32 %sum, %want
  br %ok, good, bad
good:
  ret i32 1
bad:
  ret i32 0
}

fn @main() -> i32 {
entry:
  %t = inttoptr i32 0x48000014
  store volatile i32 1, %t          ; observable activity = glitch trigger
  %r = call i32 @verify()
  %ok = icmp eq i32 %r, 1
  br %ok, boot_app, halt
boot_app:
  ret i32 0xACCE55                  ; jump into the (unsigned!) image
halt:
  br spin
spin:
  br spin                           ; refuse to boot
}
";

/// The image is corrupt (checksum ≠ expected): booting it means the
/// attacker won.
fn campaign(device: &Device, model: &FaultModel, label: &str) {
    let spec = AttackSpec { success: SuccessCheck::HaltWithR0(0xACCE55), max_cycles: 200_000 };
    let mut runner = AttemptRunner::new(device);
    let mut total = 0u64;
    let mut successes = 0u64;
    let mut detected = 0u64;
    let mut boot = 0u64;
    // A reduced Table VI-style sweep: single glitches over the verify window.
    for cycle in 0..30u32 {
        for &(w, o) in full_grid().iter().step_by(7) {
            boot += 1;
            total += 1;
            if model.severity(w, o) == 0.0 {
                continue;
            }
            match runner.run(model, GlitchParams::single(cycle, w, o), boot, &spec, None) {
                AttackOutcome::Success => successes += 1,
                AttackOutcome::Detected => detected += 1,
                _ => {}
            }
        }
    }
    println!(
        "{label:<22} attempts {total:>6}   boots-of-bad-image {successes:>4} ({:.4}%)   detected {detected:>5}",
        100.0 * successes as f64 / total as f64
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = FaultModel::default();

    // Unprotected bootloader.
    let plain = parse_module(BOOTLOADER)?;
    let plain_dev = Device::from_image(&compile(&plain, "main")?);

    // Hardened bootloader: branch duplication, loop hardening, integrity,
    // RS return codes and enums — everything except the delay (so the two
    // campaigns stay cycle-aligned and comparable), then everything.
    let mut no_delay = parse_module(BOOTLOADER)?;
    harden(&mut no_delay, &Config::new(Defenses::ALL_EXCEPT_DELAY));
    let nodelay_dev = Device::from_image(&compile(&no_delay, "main")?);

    let mut all = parse_module(BOOTLOADER)?;
    harden(&mut all, &Config::new(Defenses::ALL));
    let all_dev = Device::from_image(&compile(&all, "main")?);

    println!("glitching a secure-boot signature check (corrupt image loaded):\n");
    campaign(&plain_dev, &model, "unprotected");
    campaign(&nodelay_dev, &model, "GlitchResistor\\Delay");
    campaign(&all_dev, &model, "GlitchResistor All");
    println!("\nthe hardened builds turn almost every would-be boot into a detection.");
    Ok(())
}
