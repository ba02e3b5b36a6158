//! Architectural CPU state: register file and flags.

use core::fmt;

use gd_thumb::{Flags, Reg};

/// The architectural state of the core: `r0`–`r14` plus APSR flags.
///
/// The program counter lives in [`Emu`](crate::Emu) because its visible
/// value depends on the executing instruction's address.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cpu {
    regs: [u32; 15],
    /// APSR condition flags.
    pub flags: Flags,
    /// PRIMASK: interrupts masked (set by `cpsid i`).
    pub primask: bool,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// A zeroed CPU.
    pub fn new() -> Cpu {
        Cpu { regs: [0; 15], flags: Flags::default(), primask: false }
    }

    /// Reads a register. `pc` reads as zero here; the emulator substitutes
    /// the pipeline-visible value (instruction address + 4).
    pub fn reg(&self, r: Reg) -> u32 {
        if r == Reg::PC {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    /// Writes a register. Writes to `pc` are ignored here; control flow is
    /// the emulator's job.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::PC {
            self.regs[r.index() as usize] = value;
        }
    }

    /// The stack pointer (`r13`).
    pub fn sp(&self) -> u32 {
        self.regs[13]
    }

    /// Sets the stack pointer.
    pub fn set_sp(&mut self, value: u32) {
        self.regs[13] = value;
    }

    /// The link register (`r14`).
    pub fn lr(&self) -> u32 {
        self.regs[14]
    }
}

impl fmt::Display for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.regs.iter().enumerate() {
            if i % 4 == 0 && i != 0 {
                writeln!(f)?;
            }
            write!(f, "r{i:<2}={v:#010x} ")?;
        }
        write!(f, "flags={}", self.flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_read_back() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::R3, 0xDEAD);
        cpu.set_sp(0x2000_4000);
        assert_eq!(cpu.reg(Reg::R3), 0xDEAD);
        assert_eq!(cpu.sp(), 0x2000_4000);
        assert_eq!(cpu.reg(Reg::SP), 0x2000_4000);
    }

    #[test]
    fn pc_is_externalized() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::PC, 0x1234);
        assert_eq!(cpu.reg(Reg::PC), 0);
    }

    #[test]
    fn display_shows_all_registers() {
        let cpu = Cpu::new();
        let text = cpu.to_string();
        assert!(text.contains("r14"));
        assert!(text.contains("flags="));
    }
}
