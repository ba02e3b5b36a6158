//! Test-case construction: tiny assembly snippets that expose whether a
//! perturbed instruction was effectively "skipped".
//!
//! Exactly as in the paper (§IV): a successful glitch places `0xdead` in a
//! known register (`r2`), a normal execution places `0xaaaa` in another
//! (`r3`). The snippet sets the flags so the targeted conditional branch is
//! *taken* under normal execution; only a corrupted branch falls through to
//! the success marker.

use gd_emu::{Config, Emu, Perms, PredecodedImage};
use gd_thumb::asm::{assemble, Program};
use gd_thumb::{Cond, Reg};

/// Marker written by the glitch-success path.
pub const SUCCESS_MARKER: u32 = 0xdead;
/// Marker written by the normal (branch taken) path.
pub const NORMAL_MARKER: u32 = 0xaaaa;
/// Register holding [`SUCCESS_MARKER`] on success.
pub const SUCCESS_REG: Reg = Reg::R2;
/// Register holding [`NORMAL_MARKER`] on normal execution.
pub const NORMAL_REG: Reg = Reg::R3;

/// Flash base used for snippets.
pub const FLASH_BASE: u32 = 0x0800_0000;
/// SRAM base used for snippets.
pub const SRAM_BASE: u32 = 0x2000_0000;
const SRAM_SIZE: u32 = 0x4000;

/// A prepared test case: an assembled snippet plus the address of the
/// instruction under perturbation.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Human-readable name (e.g. `"beq"`).
    pub name: String,
    /// The assembled program.
    pub program: Program,
    /// Absolute address of the targeted (to-be-corrupted) instruction.
    pub target_addr: u32,
}

impl TestCase {
    /// The original (uncorrupted) halfword of the targeted instruction.
    pub fn target_halfword(&self) -> u16 {
        let off = (self.target_addr - self.program.origin) as usize;
        u16::from_le_bytes([self.program.code[off], self.program.code[off + 1]])
    }

    /// Predecodes the snippet's code (original, unperturbed bytes) into
    /// a micro-op table for the sweep fast path, with the targeted
    /// instruction already invalidated so every trial decodes the
    /// perturbed halfword — and its possible 32-bit predecessor — live
    /// from memory. The flash's zero fill after the code lies outside
    /// the table, where trials slide through it ([`gd_emu::Replay`]).
    pub fn predecode(&self, cfg: Config) -> PredecodedImage {
        let mut image = PredecodedImage::from_bytes(self.program.origin, &self.program.code, cfg);
        image.invalidate(self.target_addr);
        image
    }

    /// Builds a fresh emulator with this snippet loaded and `hw` written
    /// over the targeted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the snippet does not fit the memory map (snippets are a few
    /// dozen bytes; this cannot happen for cases built by this crate).
    pub fn instantiate(&self, hw: u16, cfg: Config) -> Emu {
        let mut emu = Emu::with_config(cfg);
        emu.mem.map("flash", FLASH_BASE, 0x1000, Perms::RX).expect("fresh memory map");
        emu.mem.map("sram", SRAM_BASE, SRAM_SIZE, Perms::RW).expect("fresh memory map");
        emu.mem.load(self.program.origin, &self.program.code).expect("snippet fits flash");
        emu.mem.load(self.target_addr, &hw.to_le_bytes()).expect("target inside snippet");
        emu.set_pc(self.program.origin);
        emu.cpu.set_sp(SRAM_BASE + SRAM_SIZE);
        emu
    }
}

/// Assembly that makes `cond` hold, so the branch is taken normally.
///
/// Each setup uses only `r0` and leaves the flags in a state where `cond`
/// is true (see the per-condition comments).
pub fn flag_setup(cond: Cond) -> &'static str {
    match cond {
        // Z=1.
        Cond::Eq => "movs r0, #0",
        // Z=0.
        Cond::Ne => "movs r0, #1",
        // C=1 (no borrow from 0-0).
        Cond::Cs => "movs r0, #0\ncmp r0, #0",
        // C=0 (borrow from 0-1).
        Cond::Cc => "movs r0, #0\ncmp r0, #1",
        // N=1.
        Cond::Mi => "movs r0, #0\nsubs r0, #1",
        // N=0 (movs also sets Z, irrelevant here).
        Cond::Pl => "movs r0, #0",
        // V=1: 0x80000000 - 1 overflows.
        Cond::Vs => "movs r0, #1\nlsls r0, r0, #31\nsubs r0, #1",
        // V=0.
        Cond::Vc => "movs r0, #0\nadds r0, #1",
        // C=1 && Z=0 (2-1).
        Cond::Hi => "movs r0, #2\ncmp r0, #1",
        // C=0 || Z=1 (0-0 gives Z=1).
        Cond::Ls => "movs r0, #0\ncmp r0, #0",
        // N==V (1-0).
        Cond::Ge => "movs r0, #1\ncmp r0, #0",
        // N!=V (0-1).
        Cond::Lt => "movs r0, #0\ncmp r0, #1",
        // Z=0 && N==V (2-1).
        Cond::Gt => "movs r0, #2\ncmp r0, #1",
        // Z=1 || N!=V (0-0).
        Cond::Le => "movs r0, #0\ncmp r0, #0",
    }
}

/// Builds the standard conditional-branch test case for `cond`.
///
/// Layout (the branch is always taken when unperturbed):
///
/// ```text
///     <flag setup so that cond holds>
/// target:
///     b<cond> normal
///     movs r2, #0xde ; success path (fallthrough = "skipped" branch)
///     lsls r2, r2, #8
///     adds r2, #0xad
///     bkpt #1
/// normal:
///     movs r3, #0xaa
///     lsls r3, r3, #8
///     adds r3, #0xaa
///     bkpt #2
/// ```
///
/// # Panics
///
/// Panics only if the internal snippet fails to assemble, which would be a
/// bug in this crate.
pub fn branch_case(cond: Cond) -> TestCase {
    let src = format!(
        "{setup}\n\
         target:\n\
         b{cond} normal\n\
         movs r2, #0xde\n\
         lsls r2, r2, #8\n\
         adds r2, #0xad\n\
         bkpt #1\n\
         normal:\n\
         movs r3, #0xaa\n\
         lsls r3, r3, #8\n\
         adds r3, #0xaa\n\
         bkpt #2\n",
        setup = flag_setup(cond),
    );
    let program = assemble(&src, FLASH_BASE).expect("snippet assembles");
    let target_addr = program.symbols["target"];
    TestCase { name: format!("b{cond}"), program, target_addr }
}

/// All fourteen conditional-branch cases, in encoding order.
pub fn all_branch_cases() -> Vec<TestCase> {
    Cond::ALL.iter().map(|&c| branch_case(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_emu::{RunOutcome, StopReason};

    #[test]
    fn unperturbed_branch_is_always_taken() {
        for cond in Cond::ALL {
            let case = branch_case(cond);
            let hw = case.target_halfword();
            let mut emu = case.instantiate(hw, Config::default());
            match emu.run(100) {
                RunOutcome::Stop { reason: StopReason::Bkpt(2), .. } => {}
                other => panic!("b{cond}: expected normal path, got {other:?}"),
            }
            assert_eq!(emu.cpu.reg(NORMAL_REG), NORMAL_MARKER, "b{cond}");
            assert_ne!(emu.cpu.reg(SUCCESS_REG), SUCCESS_MARKER, "b{cond}");
        }
    }

    #[test]
    fn skipped_branch_reaches_success_marker() {
        // Replacing the branch with a NOP models the canonical skip.
        for cond in Cond::ALL {
            let case = branch_case(cond);
            let mut emu = case.instantiate(0xBF00, Config::default());
            match emu.run(100) {
                RunOutcome::Stop { reason: StopReason::Bkpt(1), .. } => {}
                other => panic!("b{cond}: expected success path, got {other:?}"),
            }
            assert_eq!(emu.cpu.reg(SUCCESS_REG), SUCCESS_MARKER, "b{cond}");
        }
    }

    #[test]
    fn target_halfword_is_the_branch() {
        let case = branch_case(Cond::Eq);
        // beq with some positive offset: 0xD0xx.
        assert_eq!(case.target_halfword() & 0xFF00, 0xD000);
        let case = branch_case(Cond::Ne);
        assert_eq!(case.target_halfword() & 0xFF00, 0xD100);
    }

    #[test]
    fn branch_to_all_zeros_is_mov_like_by_default() {
        let case = branch_case(Cond::Eq);
        let mut emu = case.instantiate(0x0000, Config::default());
        // 0x0000 = lsls r0, r0, #0 → falls through → success path.
        assert!(matches!(emu.run(100), RunOutcome::Stop { reason: StopReason::Bkpt(1), .. }));
    }
}
