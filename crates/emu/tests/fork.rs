//! Delta snapshots: `Emu::fork` captures what a run changed since its
//! last restore, and `Emu::resume` must be indistinguishable from having
//! kept a full snapshot at the fork point.

use gd_emu::{Emu, Fork, InjectKind, Injection, Perms, Persistence, Snapshot};
use gd_thumb::Reg;

const SRAM: u32 = 0x2000_0000;
const SRAM_SIZE: u32 = 0x1000;
const PERIPH: u32 = 0x4000_0000;
/// Not a whole number of pages, so the last page is partial.
const PERIPH_SIZE: u32 = 0x1_0130;

fn emu() -> Emu {
    let mut e = Emu::new();
    e.mem.map("flash", 0x0800_0000, 0x400, Perms::RX).expect("fresh map");
    e.mem.map("sram", SRAM, SRAM_SIZE, Perms::RW).expect("fresh map");
    e.mem.map("periph", PERIPH, PERIPH_SIZE, Perms::RW).expect("fresh map");
    e
}

fn word(e: &mut Emu, addr: u32) -> u32 {
    e.mem.read32(addr).expect("mapped")
}

/// A fork taken after one forked run, resumed after a second forked run
/// stored elsewhere, carries the first run's pages and none of the
/// second's.
#[test]
fn resuming_a_fork_after_another_forked_run_reverts_that_runs_pages() {
    let mut e = emu();
    let snap = e.snapshot();
    e.restore(&snap);
    e.mem.write32(SRAM, 1).expect("mapped");
    let first = e.fork();

    e.mem.write32(SRAM + 0x400, 2).expect("mapped");
    let second = e.fork();
    e.resume(&snap, &second);
    e.mem.write32(PERIPH + 0x8000, 3).expect("mapped");
    e.mem.write32(SRAM, 4).expect("mapped");

    e.resume(&snap, &first);
    assert_eq!(word(&mut e, SRAM), 1, "the fork's own page comes back");
    assert_eq!(word(&mut e, SRAM + 0x400), 0, "the forked run's page is reverted");
    assert_eq!(word(&mut e, PERIPH + 0x8000), 0, "the run after resume is reverted");
    e.restore(&snap);
    assert_eq!(word(&mut e, SRAM), 0, "restore reverts the pages a resume wrote back");
}

/// A fork is relative to the snapshot last restored before it; resuming
/// it over another snapshot would mix two states.
#[test]
#[should_panic(expected = "different snapshot")]
fn resuming_a_fork_over_a_different_snapshot_panics() {
    let mut e = emu();
    let a = e.snapshot();
    e.mem.write32(SRAM, 1).expect("mapped");
    let b = e.snapshot();
    e.restore(&a);
    e.mem.write32(SRAM + 4, 2).expect("mapped");
    let fork = e.fork();
    e.resume(&b, &fork);
}

/// The full-copy reference: everything `Emu::snapshot` would capture
/// that the sequences below change.
#[derive(Clone, PartialEq, Debug)]
struct Model {
    sram: Vec<u8>,
    periph: Vec<u8>,
    r0: u32,
    pc: u32,
    injections: usize,
}

impl Model {
    fn of(e: &Emu) -> Model {
        Model {
            sram: e.mem.peek(SRAM, SRAM_SIZE).expect("mapped"),
            periph: e.mem.peek(PERIPH, PERIPH_SIZE).expect("mapped"),
            r0: e.cpu.reg(Reg::R0),
            pc: e.pc(),
            injections: e.injections().len(),
        }
    }
}

/// Random store/snapshot/fork/resume/restore sequences against full
/// copies of the state at each snapshot and fork point.
#[test]
fn random_fork_sequences_match_a_full_copy_reference() {
    gd_exec::check::cases(200, "fork/resume equals a full copy", |rng| {
        let mut e = emu();
        let mut snaps: Vec<(Snapshot, Model)> = Vec::new();
        let mut forks: Vec<(Fork, usize, Model)> = Vec::new();
        // The snapshot the emulator was last restored or resumed to, or
        // last took (a snapshot counts as a restore to itself).
        let mut base: Option<usize> = None;
        let mut log = Vec::new();
        for _ in 0..rng.usize(1, 120) {
            match rng.range(0, 12) {
                0..=4 => {
                    let width = *rng.choose(&[1u32, 2, 4]);
                    let addr = if rng.bool() {
                        SRAM + rng.range(0, u64::from(SRAM_SIZE)) as u32
                    } else {
                        PERIPH + rng.range(0, u64::from(PERIPH_SIZE)) as u32
                    } & !(width - 1);
                    let value = rng.u32();
                    log.push(format!("store{width} {addr:#x}={value:#x}"));
                    match width {
                        1 => e.mem.write8(addr, value as u8),
                        2 => e.mem.write16(addr, value as u16),
                        _ => e.mem.write32(addr, value),
                    }
                    .expect("mapped");
                }
                5 => {
                    let (r0, pc) = (rng.u32(), rng.u32());
                    log.push(format!("regs r0={r0:#x} pc={pc:#x}"));
                    e.cpu.set_reg(Reg::R0, r0);
                    e.set_pc(pc);
                    e.inject(Injection::new(pc, InjectKind::Skip, Persistence::Transient));
                }
                6 => {
                    log.push(format!("snapshot #{}", snaps.len()));
                    base = Some(snaps.len());
                    snaps.push((e.snapshot(), Model::of(&e)));
                }
                7 if base.is_some() => {
                    log.push(format!("fork #{}", forks.len()));
                    forks.push((e.fork(), base.expect("guarded"), Model::of(&e)));
                }
                8..=9 if !forks.is_empty() => {
                    let j = rng.usize(0, forks.len());
                    let (fork, k, model) = &forks[j];
                    log.push(format!("resume #{j} over snapshot #{k}"));
                    e.resume(&snaps[*k].0, fork);
                    base = Some(*k);
                    assert_eq!(Model::of(&e), *model, "{log:?}");
                }
                _ if !snaps.is_empty() => {
                    let k = rng.usize(0, snaps.len());
                    log.push(format!("restore #{k}"));
                    e.restore(&snaps[k].0);
                    base = Some(k);
                    assert_eq!(Model::of(&e), snaps[k].1, "{log:?}");
                }
                _ => {}
            }
        }
    });
}

/// [`Emu::same_state`] against the full-copy reference: two runs from
/// one snapshot, storing values from a small pool to a few pages (so
/// equal contents behind different sets of stored-to pages are common),
/// are in the same state exactly when their full copies agree, and then
/// exactly when their state hashes do.
#[test]
fn same_state_agrees_with_a_full_copy_comparison() {
    let mut equal = 0;
    gd_exec::check::cases(400, "same_state ≡ full copy equality", |rng| {
        let mut e = emu();
        let snap = e.snapshot();
        let mut run = |e: &mut Emu| {
            e.restore(&snap);
            for _ in 0..rng.usize(0, 6) {
                let addr = *rng.choose(&[SRAM, SRAM + 4, SRAM + 0x300, PERIPH + 0x1_0100]);
                e.mem.write32(addr, *rng.choose(&[0, 1])).expect("mapped");
            }
            e.cpu.set_reg(Reg::R0, *rng.choose(&[0, 1]));
            Model::of(e)
        };
        let a = run(&mut e);
        let (fork, hash) = (e.fork(), e.state_hash(&snap));
        let b = run(&mut e);
        assert_eq!(e.same_state(&snap, &fork), a == b, "{a:?} vs {b:?}");
        assert_eq!(e.state_hash(&snap) == hash, a == b, "{a:?} vs {b:?}");
        equal += usize::from(a == b);
    });
    assert!(equal > 20, "the sample reaches equal states ({equal})");
}

/// An armed injection on either side may yet fire, so the states
/// differ; a spent one changes nothing.
#[test]
fn same_state_needs_no_armed_injection() {
    const FLASH: u32 = 0x0800_0000;
    let mut e = emu();
    // The zero fill executes as `lsls r0, r0, #0`: with r0 = 1 and N, Z
    // clear it changes nothing but the PC, exactly like skipping it.
    e.set_pc(FLASH);
    e.cpu.set_reg(Reg::R0, 1);
    let snap = e.snapshot();
    let step = |e: &mut Emu, injection: Option<Injection>| {
        e.restore(&snap);
        if let Some(i) = injection {
            e.inject(i);
        }
        e.step().expect("the zero fill executes");
    };
    let elsewhere = Injection::new(FLASH + 0x100, InjectKind::Skip, Persistence::Transient);
    let here = Injection::new(FLASH, InjectKind::Skip, Persistence::Transient);

    step(&mut e, None);
    let plain = e.fork();
    step(&mut e, Some(elsewhere));
    let armed = e.fork();
    assert!(!e.same_state(&snap, &plain), "armed here");
    step(&mut e, None);
    assert!(e.same_state(&snap, &plain));
    assert!(!e.same_state(&snap, &armed), "armed in the fork");
    step(&mut e, Some(here));
    assert!(e.same_state(&snap, &plain), "a spent injection");
    e.cpu.set_reg(Reg::R1, 7);
    assert!(!e.same_state(&snap, &plain), "registers differ");
}
