//! Dirty-page snapshot restore: a restore copies back only the pages
//! stored to since the last restore to the same snapshot, and must be
//! indistinguishable from copying everything.

use gd_emu::{MemSnapshot, Memory, Perms};

const SRAM: u32 = 0x2000_0000;
const PERIPH: u32 = 0x4000_0000;
/// Not a whole number of pages, so the last page is partial.
const PERIPH_SIZE: u32 = 0x1_0130;

fn mem() -> Memory {
    let mut m = Memory::new();
    m.map("flash", 0x0800_0000, 0x400, Perms::RX).expect("fresh map");
    m.map("sram", SRAM, 0x1000, Perms::RW).expect("fresh map");
    m.map("periph", PERIPH, PERIPH_SIZE, Perms::RW).expect("fresh map");
    m
}

/// Restoring snapshot B right after a restore to A must copy B back even
/// when the store counts since each snapshot coincide.
#[test]
fn restoring_another_snapshot_after_equal_store_counts_copies_it_back() {
    let mut m = mem();
    let a = m.snapshot();
    m.write32(SRAM, 1).expect("mapped");
    let b = m.snapshot();
    m.restore(&a);
    m.write32(SRAM + 0x800, 7).expect("mapped");
    m.restore(&b);
    assert_eq!(m.read32(SRAM).expect("mapped"), 1, "word 0 comes from B");
    assert_eq!(m.read32(SRAM + 0x800).expect("mapped"), 0, "A's later store is gone");
}

/// Stores on every page touched within one trial, including the partial
/// last page, are rolled back by the dirty-page path.
#[test]
fn dirty_page_restore_covers_page_edges() {
    let mut m = mem();
    let snap = m.snapshot();
    m.restore(&snap); // the next restore to `snap` is page-granular
    let last = PERIPH + PERIPH_SIZE - 4;
    for addr in [SRAM, SRAM + 0xFC, SRAM + 0x100, SRAM + 0xFFF, PERIPH + 0xFF, last] {
        m.write8(addr, 0xA5).expect("mapped");
    }
    m.write32(last, 0xDEAD_BEEF).expect("mapped");
    m.restore(&snap);
    assert!(m.peek(SRAM, 0x1000).expect("mapped").iter().all(|&b| b == 0));
    assert!(m.peek(PERIPH, PERIPH_SIZE).expect("mapped").iter().all(|&b| b == 0));
}

/// The reference model: plain byte vectors, full copies on snapshot and
/// restore.
struct Reference {
    sram: Vec<u8>,
    periph: Vec<u8>,
}

impl Reference {
    fn bytes(&mut self, addr: u32) -> (&mut Vec<u8>, usize) {
        if addr >= PERIPH {
            (&mut self.periph, (addr - PERIPH) as usize)
        } else {
            (&mut self.sram, (addr - SRAM) as usize)
        }
    }
}

/// Random store/load/snapshot/restore sequences against a full-copy
/// reference.
#[test]
fn random_sequences_match_a_full_copy_reference() {
    gd_exec::check::cases(200, "dirty-page restore equals full copy", |rng| {
        let mut m = mem();
        let mut model = Reference { sram: vec![0; 0x1000], periph: vec![0; PERIPH_SIZE as usize] };
        let mut snaps: Vec<(MemSnapshot, Vec<u8>, Vec<u8>)> = Vec::new();
        let mut log = Vec::new();
        for _ in 0..rng.usize(1, 120) {
            let width = *rng.choose(&[1u32, 2, 4]);
            let addr = if rng.bool() {
                SRAM + rng.range(0, 0x1000) as u32
            } else {
                PERIPH + rng.range(0, u64::from(PERIPH_SIZE)) as u32
            } & !(width - 1);
            match rng.range(0, 10) {
                0..=4 => {
                    let value = rng.u32();
                    log.push(format!("store{width} {addr:#x}={value:#x}"));
                    match width {
                        1 => m.write8(addr, value as u8),
                        2 => m.write16(addr, value as u16),
                        _ => m.write32(addr, value),
                    }
                    .expect("mapped");
                    let (bytes, i) = model.bytes(addr);
                    let w = width as usize;
                    bytes[i..i + w].copy_from_slice(&value.to_le_bytes()[..w]);
                }
                5..=6 => {
                    log.push(format!("load{width} {addr:#x}"));
                    let got = match width {
                        1 => m.read8(addr).map(u32::from),
                        2 => m.read16(addr).map(u32::from),
                        _ => m.read32(addr),
                    }
                    .expect("mapped");
                    let (bytes, i) = model.bytes(addr);
                    let mut want = [0u8; 4];
                    want[..width as usize].copy_from_slice(&bytes[i..i + width as usize]);
                    assert_eq!(got, u32::from_le_bytes(want), "{log:?}");
                }
                7 => {
                    log.push(format!("snapshot #{}", snaps.len()));
                    snaps.push((m.snapshot(), model.sram.clone(), model.periph.clone()));
                }
                _ if !snaps.is_empty() => {
                    let k = rng.usize(0, snaps.len());
                    log.push(format!("restore #{k}"));
                    let (snap, sram, periph) = &snaps[k];
                    m.restore(snap);
                    model.sram.clone_from(sram);
                    model.periph.clone_from(periph);
                    assert_eq!(m.peek(SRAM, 0x1000).expect("mapped"), model.sram, "{log:?}");
                    assert_eq!(
                        m.peek(PERIPH, PERIPH_SIZE).expect("mapped"),
                        model.periph,
                        "{log:?}"
                    );
                }
                _ => {}
            }
        }
    });
}
