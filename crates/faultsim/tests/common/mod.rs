//! Small hand-assembled images for the trial-runner tests.

use std::collections::BTreeMap;

use gd_backend::layout::{FLASH_BASE, SRAM_BASE};
use gd_backend::{FirmwareImage, SectionSizes};
use gd_emu::{InjectKind, Persistence};
use gd_faultsim::FaultInstance;

/// An image of `src` at the flash base, entered at its first byte.
pub fn image(src: &str) -> FirmwareImage {
    let prog = gd_thumb::asm::assemble(src, FLASH_BASE).expect("assembles");
    FirmwareImage {
        sizes: SectionSizes { text: prog.code.len() as u32, ..SectionSizes::default() },
        text: prog.code,
        text_base: FLASH_BASE,
        data: Vec::new(),
        symbols: BTreeMap::from([("uart_out".to_owned(), SRAM_BASE)]),
        entry: FLASH_BASE,
        global_sections: BTreeMap::new(),
        extents: Vec::new(),
    }
}

/// The whole text of `image` as one scope range.
pub fn text_scope(image: &FirmwareImage) -> [(u32, u32); 1] {
    [(FLASH_BASE, FLASH_BASE + image.text.len() as u32)]
}

/// A transient fault of `kind` at `site`.
pub fn fault(site: u32, kind: InjectKind) -> FaultInstance {
    FaultInstance { site, kind, persistence: Persistence::Transient }
}
