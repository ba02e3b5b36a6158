//! Extension of the §IV methodology beyond conditional branches:
//! how "skippable" are whole instruction *classes* under unidirectional
//! bit flips?
//!
//! The paper's real-hardware experiments observe that "load and store
//! instructions appear to be more susceptible to glitching" while
//! "instructions which simply manipulate registers (e.g., addition) appear
//! to be exceptionally difficult to glitch" (§I, §V-A). This module runs
//! the same exhaustive encoding-level sweep as Figure 2 on representative
//! members of each class, asking: what fraction of bit-flip corruptions
//! leaves execution running but with the instruction's effect missing?

use gd_emu::{Config, Emu, Perms, RunOutcome, StopReason};
use gd_thumb::asm::assemble;
use gd_thumb::Reg;

use crate::sweep::{perturbed_tallies, Direction, Outcome, Tally};

/// A skip-oriented test case: corrupting `target:` counts as a *skip* when
/// execution completes but the instruction's architectural effect is
/// missing.
#[derive(Debug, Clone)]
pub struct SkipCase {
    /// Class label (e.g. `"alu"`).
    pub name: &'static str,
    /// The targeted instruction, as printed.
    pub text: &'static str,
    program: gd_thumb::asm::Program,
    target_addr: u32,
    effect: Effect,
}

#[derive(Debug, Clone, Copy)]
enum Effect {
    /// Register must equal `normal` after execution; `skipped` when missing.
    Reg { reg: Reg, normal: u32, skipped: u32 },
    /// Word at the probe address must equal `normal`.
    Mem { addr: u32, normal: u32, skipped: u32 },
}

const FLASH: u32 = 0x0800_0000;
const SRAM: u32 = 0x2000_0000;
const PROBE: u32 = SRAM + 0x100;

fn build(name: &'static str, text: &'static str, src: &str, effect: Effect) -> SkipCase {
    let program = assemble(src, FLASH).expect("skip case assembles");
    let target_addr = program.symbols["target"];
    SkipCase { name, text, program, target_addr, effect }
}

/// Representative cases, one per instruction class the paper discusses.
pub fn instruction_classes() -> Vec<SkipCase> {
    vec![
        // Pure register manipulation.
        build(
            "alu-add",
            "adds r2, #1",
            "
    movs r2, #5
target:
    adds r2, #1
    bkpt #1
",
            Effect::Reg { reg: Reg::R2, normal: 6, skipped: 5 },
        ),
        build(
            "alu-mov",
            "movs r2, #9",
            "
    movs r2, #5
target:
    movs r2, #9
    bkpt #1
",
            Effect::Reg { reg: Reg::R2, normal: 9, skipped: 5 },
        ),
        // Compare: effect is the flags, observed through a branch.
        build(
            "compare",
            "cmp r2, #0",
            "
    movs r2, #0
    movs r3, #0
    subs r3, #1          ; N=1 so a skipped cmp leaves 'lt'
target:
    cmp r2, #0
    bge ok
    movs r4, #1          ; reached only if flags kept the old state
ok:
    bkpt #1
",
            Effect::Reg { reg: Reg::R4, normal: 0, skipped: 1 },
        ),
        // Load.
        build(
            "load",
            "ldr r2, [r1]",
            "
    ldr r1, =0x20000100
    ldr r0, =0x77
    str r0, [r1]
    movs r2, #0
target:
    ldr r2, [r1]
    bkpt #1
",
            Effect::Reg { reg: Reg::R2, normal: 0x77, skipped: 0 },
        ),
        // Store.
        build(
            "store",
            "str r2, [r1]",
            "
    ldr r1, =0x20000100
    ldr r2, =0x55
target:
    str r2, [r1]
    bkpt #1
",
            Effect::Mem { addr: PROBE, normal: 0x55, skipped: 0 },
        ),
    ]
}

impl SkipCase {
    /// Runs the case with `hw` over the target and classifies the result.
    pub fn run(&self, hw: u16, cfg: Config) -> Outcome {
        let mut emu = Emu::with_config(cfg);
        emu.mem.map("flash", FLASH, 0x1000, Perms::RX).expect("fresh map");
        emu.mem.map("sram", SRAM, 0x1000, Perms::RW).expect("fresh map");
        emu.mem.load(self.program.origin, &self.program.code).expect("snippet fits");
        emu.mem.load(self.target_addr, &hw.to_le_bytes()).expect("target in snippet");
        emu.set_pc(self.program.origin);
        emu.cpu.set_sp(SRAM + 0x1000);
        match emu.run(256) {
            RunOutcome::Stop { reason: StopReason::Bkpt(1), .. } => {
                let observed = match self.effect {
                    Effect::Reg { reg, .. } => emu.cpu.reg(reg),
                    Effect::Mem { addr, .. } => emu.mem.read32(addr).unwrap_or(0xFFFF_FFFF),
                };
                match self.effect {
                    Effect::Reg { normal, skipped, .. } | Effect::Mem { normal, skipped, .. } => {
                        if observed == skipped {
                            Outcome::Success
                        } else if observed == normal {
                            Outcome::NoEffect
                        } else {
                            Outcome::Failed
                        }
                    }
                }
            }
            RunOutcome::Stop { .. } | RunOutcome::StepLimit { .. } => Outcome::Failed,
            RunOutcome::Fault { fault, .. } => Outcome::from_fault(&fault),
        }
    }

    /// The original halfword of the target.
    pub fn target_halfword(&self) -> u16 {
        let off = (self.target_addr - self.program.origin) as usize;
        u16::from_le_bytes([self.program.code[off], self.program.code[off + 1]])
    }

    /// Sweeps every C(16, k) mask for `k = 1..=16`, running each
    /// distinct perturbed halfword once (`perturbed_tallies`), fanned
    /// out across [`gd_exec`] workers — the hot loop of the `fig2_ext`
    /// driver.
    pub fn sweep(&self, direction: Direction, cfg: Config) -> Tally {
        let per_k =
            perturbed_tallies(self.target_halfword(), direction, 16, || |hw| self.run(hw, cfg));
        let mut tally = Tally::default();
        for t in &per_k[1..] {
            tally.merge(t);
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unperturbed_cases_behave_normally() {
        for case in instruction_classes() {
            let outcome = case.run(case.target_halfword(), Config::default());
            assert_eq!(outcome, Outcome::NoEffect, "{}", case.name);
        }
    }

    #[test]
    fn nop_replacement_skips_every_case() {
        for case in instruction_classes() {
            let outcome = case.run(0xBF00, Config::default());
            assert_eq!(outcome, Outcome::Success, "{} should skip cleanly", case.name);
        }
    }

    #[test]
    fn memory_classes_fault_more_than_alu() {
        // The §V observation at the encoding level: corrupted memory ops
        // hit unmapped addresses; corrupted ALU ops rarely fault.
        let cases = instruction_classes();
        let tally_of = |name: &str| -> Tally {
            cases
                .iter()
                .find(|c| c.name == name)
                .expect("case exists")
                .sweep(Direction::And, Config::default())
        };
        let alu = tally_of("alu-add");
        let load = tally_of("load");
        let alu_faults = alu.count(Outcome::BadRead) + alu.count(Outcome::BadFetch);
        let load_faults = load.count(Outcome::BadRead) + load.count(Outcome::BadFetch);
        assert!(
            load_faults > alu_faults,
            "loads fault more when corrupted: {load_faults} vs {alu_faults}"
        );
    }
}
