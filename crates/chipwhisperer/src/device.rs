//! The device under attack: firmware plus the standard board memory map,
//! bootable afresh for every glitch attempt, with non-volatile memory that
//! survives resets (the delay defense's seed lives there).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use gd_backend::{layout, FirmwareImage};
use gd_emu::{Emu, Perms};
use gd_pipeline::Pipeline;
use gd_thumb::asm::{assemble, AsmError};

/// A bootable target.
#[derive(Debug, Clone)]
pub struct Device {
    /// Code, based at the flash base.
    pub text: Vec<u8>,
    /// Initialized data records.
    pub data: Vec<(u32, Vec<u8>)>,
    /// Entry point.
    pub entry: u32,
    /// Initial stack pointer.
    pub sp: u32,
    /// Symbols (labels / functions / globals).
    pub symbols: BTreeMap<String, u32>,
}

impl Device {
    /// Assembles a §V-style bare-metal snippet at the flash base.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors.
    pub fn from_asm(src: &str) -> Result<Device, AsmError> {
        let prog = assemble(src, layout::FLASH_BASE)?;
        Ok(Device {
            text: prog.code,
            data: Vec::new(),
            entry: layout::FLASH_BASE,
            sp: layout::STACK_TOP,
            symbols: prog.symbols,
        })
    }

    /// Wraps a compiled firmware image (§VII targets).
    pub fn from_image(image: &FirmwareImage) -> Device {
        Device {
            text: image.text.clone(),
            data: image.data.clone(),
            entry: image.entry,
            sp: layout::STACK_TOP,
            symbols: image.symbols.clone(),
        }
    }

    /// Address of the detection flag, when the firmware has one.
    pub fn detect_flag(&self) -> Option<u32> {
        self.symbols.get("__gr_detect_flag").copied()
    }

    /// Boots a fresh pipeline (power-on state).
    ///
    /// # Panics
    ///
    /// Panics if the firmware does not fit the standard memory map.
    pub fn boot(&self) -> Pipeline {
        self.boot_with_nvm(None)
    }

    /// Boots with the given non-volatile memory contents (carried over
    /// from the previous attempt), or fresh NVM when `None`.
    ///
    /// # Panics
    ///
    /// Panics if the firmware does not fit the standard memory map.
    pub fn boot_with_nvm(&self, nvm: Option<&[u8]>) -> Pipeline {
        let mut emu = Emu::new();
        emu.mem.map("flash", layout::FLASH_BASE, layout::FLASH_SIZE, Perms::RX).expect("fresh map");
        emu.mem.map("nvm", layout::NVM_BASE, layout::NVM_SIZE, Perms::RW).expect("fresh map");
        emu.mem.map("sram", layout::SRAM_BASE, layout::SRAM_SIZE, Perms::RW).expect("fresh map");
        emu.mem
            .map("shadow", layout::SHADOW_BASE, layout::SHADOW_SIZE, Perms::RW)
            .expect("fresh map");
        emu.mem.map("gpio", layout::GPIO_BASE, layout::GPIO_SIZE, Perms::RW).expect("fresh map");
        emu.mem
            .map("periph", layout::PERIPH_BASE, layout::PERIPH_SIZE, Perms::RW)
            .expect("fresh map");
        emu.mem.map("scs", layout::SCS_BASE, layout::SCS_SIZE, Perms::RW).expect("fresh map");
        // Physical SRAM powers up holding garbage; deterministic noise here
        // so wild loads (corrupted addresses) read realistic junk instead
        // of convenient zeros. Firmware data records overwrite their part.
        emu.mem.load(layout::SRAM_BASE, sram_garbage()).expect("sram mapped");
        emu.mem.load(layout::FLASH_BASE, &self.text).expect("firmware fits flash");
        for (addr, bytes) in &self.data {
            emu.mem.load(*addr, bytes).expect("data fits its region");
        }
        if let Some(nvm) = nvm {
            emu.mem.load(layout::NVM_BASE, nvm).expect("nvm snapshot fits");
        }
        emu.set_pc(self.entry);
        emu.cpu.set_sp(self.sp);
        Pipeline::new(emu)
    }

    /// Snapshots the NVM region of a finished run (for the next boot).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline was not booted from a [`Device`].
    pub fn snapshot_nvm(pipe: &Pipeline) -> Vec<u8> {
        pipe.emu.mem.peek(layout::NVM_BASE, layout::NVM_SIZE).expect("nvm region mapped")
    }
}

/// The deterministic SRAM power-on pattern, generated once per process —
/// every boot reads the same fixed-seed stream, so caching it is
/// bit-identical to regenerating it.
fn sram_garbage() -> &'static [u8] {
    static GARBAGE: OnceLock<Vec<u8>> = OnceLock::new();
    GARBAGE.get_or_init(|| {
        let mut rng = crate::rng::Rng::new(0x5AA5_0FF0);
        (0..layout::SRAM_SIZE).map(|_| rng.next_u64() as u8).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_pipeline::RunEnd;

    #[test]
    fn asm_device_boots_and_runs() {
        let dev = Device::from_asm("movs r0, #7\nbkpt #1\n").unwrap();
        let mut pipe = dev.boot();
        let end = pipe.run(100);
        assert!(matches!(end, RunEnd::Stop { reason: gd_emu::StopReason::Bkpt(1), .. }));
        assert_eq!(pipe.emu.cpu.reg(gd_thumb::Reg::R0), 7);
    }

    #[test]
    fn nvm_survives_across_boots() {
        let src = "
            ldr r0, =0x0800F000
            ldr r1, [r0]
            adds r1, #1
            str r1, [r0]
            mov r2, r1
            bkpt #1
        ";
        let dev = Device::from_asm(src).unwrap();
        let mut pipe = dev.boot();
        pipe.run(1_000_000);
        assert_eq!(pipe.emu.cpu.reg(gd_thumb::Reg::R2), 1);
        let nvm = Device::snapshot_nvm(&pipe);
        let mut pipe = dev.boot_with_nvm(Some(&nvm));
        pipe.run(1_000_000);
        assert_eq!(pipe.emu.cpu.reg(gd_thumb::Reg::R2), 2, "seed persisted");
    }

    #[test]
    fn image_device_round_trip() {
        let m = gd_ir::parse_module(
            "fn @main() -> i32 {\nentry:\n  %1 = add i32 1, 2\n  ret i32 %1\n}\n",
        )
        .unwrap();
        let image = gd_backend::compile(&m, "main").unwrap();
        let dev = Device::from_image(&image);
        let mut pipe = dev.boot();
        let end = pipe.run(10_000);
        assert!(matches!(end, RunEnd::Stop { reason: gd_emu::StopReason::Bkpt(0), .. }));
        assert_eq!(pipe.emu.cpu.reg(gd_thumb::Reg::R0), 3);
    }
}
