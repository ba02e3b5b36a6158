//! Differential tests pinning the predecoded dispatch path to the live
//! interpreter: the micro-op table must agree with `Emu::decode` on every
//! one of the 65,536 first-halfword patterns, random programs must step
//! identically on both paths, and snapshot/restore must reproduce
//! fresh-boot behavior exactly.

use gd_emu::{
    Config, Emu, Fault, LoadOverride, Perms, PredecodedImage, RunOutcome, Slot, StepOutcome,
    StopReason,
};
use gd_exec::check::{cases, Rng};
use gd_thumb::{is_32bit_prefix, Flags, Reg};

const BASE: u32 = 0x0800_0000;
/// A benign second halfword: pairs with every 32-bit prefix the ARMv6-M
/// subset defines (BL needs hw2 top bits 11x1; 0xF800 gives a valid BL
/// with several prefixes and an undefined pattern with the rest — both
/// sides of the comparison see the same bytes either way).
const HW2: u16 = 0xF800;

fn emu_with(hw: u16, cfg: Config) -> Emu {
    let mut emu = Emu::with_config(cfg);
    emu.mem.map("flash", BASE, 0x10, Perms::RX).expect("fresh map");
    emu.mem.load(BASE, &hw.to_le_bytes()).expect("mapped");
    emu.mem.load(BASE + 2, &HW2.to_le_bytes()).expect("mapped");
    emu
}

/// Every halfword pattern: the table's slot must mirror what live decode
/// returns for the same bytes, under both configurations.
#[test]
fn predecode_matches_live_decode_for_all_halfwords() {
    for cfg in [
        Config { zero_is_invalid: false, ..Config::default() },
        Config { zero_is_invalid: true, ..Config::default() },
    ] {
        let mut emu = emu_with(0, cfg);
        for hw in 0..=u16::MAX {
            emu.mem.load(BASE, &hw.to_le_bytes()).expect("mapped");
            let mut bytes = hw.to_le_bytes().to_vec();
            bytes.extend_from_slice(&HW2.to_le_bytes());
            let image = PredecodedImage::from_bytes(BASE, &bytes, cfg);
            let live = emu.decode(BASE, hw);
            match image.slot(BASE).expect("covered") {
                Slot::Instr { instr, size } => {
                    assert_eq!(live, Ok((instr, size)), "hw={hw:#06x} cfg={cfg:?}");
                }
                Slot::Undefined { hw: shw, hw2 } => {
                    assert_eq!(
                        live,
                        Err(Fault::Undefined { addr: BASE, hw: shw, hw2 }),
                        "hw={hw:#06x} cfg={cfg:?}"
                    );
                }
                Slot::Incomplete { .. } | Slot::Live => {
                    panic!("hw={hw:#06x}: second halfword was available")
                }
            }
        }
    }
}

/// The same exhaustive sweep with the Thumb-2 wide subset enabled: the
/// table and live decode must agree on every first halfword under
/// `Config { wide: true }` too.
#[test]
fn predecode_matches_live_decode_for_all_halfwords_wide() {
    let cfg = Config { wide: true, ..Config::default() };
    let mut emu = emu_with(0, cfg);
    for hw in 0..=u16::MAX {
        emu.mem.load(BASE, &hw.to_le_bytes()).expect("mapped");
        let mut bytes = hw.to_le_bytes().to_vec();
        bytes.extend_from_slice(&HW2.to_le_bytes());
        let image = PredecodedImage::from_bytes(BASE, &bytes, cfg);
        let live = emu.decode(BASE, hw);
        match image.slot(BASE).expect("covered") {
            Slot::Instr { instr, size } => assert_eq!(live, Ok((instr, size)), "hw={hw:#06x}"),
            Slot::Undefined { hw: shw, hw2 } => {
                assert_eq!(live, Err(Fault::Undefined { addr: BASE, hw: shw, hw2 }), "hw={hw:#06x}")
            }
            Slot::Incomplete { .. } | Slot::Live => {
                panic!("hw={hw:#06x}: second halfword was available")
            }
        }
    }
}

/// One representative prefix per wide-encoding group, swept against every
/// possible second halfword: the predecode table and `Emu::decode` must
/// classify each pair identically under both configurations.
#[test]
fn predecode_matches_live_decode_for_all_second_halfwords() {
    // Groups: BL/B.W/BCond.W/BLX (0xF000, 0xF400), modified-immediate DP
    // (0xF04F, 0xF1B1), plain-binary MOVW/MOVT (0xF24A, 0xF2C2), wide
    // load/store (0xF8D3, 0xF8DF, 0xF8C2), and the all-undefined 0b11101
    // group (0xE800).
    const PREFIXES: [u16; 10] =
        [0xE800, 0xF000, 0xF04F, 0xF1B1, 0xF24A, 0xF2C2, 0xF400, 0xF8C2, 0xF8D3, 0xF8DF];
    for cfg in [Config::default(), Config { wide: true, ..Config::default() }] {
        let mut emu = emu_with(0, cfg);
        for hw1 in PREFIXES {
            assert!(is_32bit_prefix(hw1));
            emu.mem.load(BASE, &hw1.to_le_bytes()).expect("mapped");
            for hw2 in 0..=u16::MAX {
                emu.mem.load(BASE + 2, &hw2.to_le_bytes()).expect("mapped");
                let mut bytes = hw1.to_le_bytes().to_vec();
                bytes.extend_from_slice(&hw2.to_le_bytes());
                let image = PredecodedImage::from_bytes(BASE, &bytes, cfg);
                let live = emu.decode(BASE, hw1);
                match image.slot(BASE).expect("covered") {
                    Slot::Instr { instr, size } => assert_eq!(
                        live,
                        Ok((instr, size)),
                        "hw1={hw1:#06x} hw2={hw2:#06x} cfg={cfg:?}"
                    ),
                    Slot::Undefined { hw: shw, hw2: shw2 } => assert_eq!(
                        live,
                        Err(Fault::Undefined { addr: BASE, hw: shw, hw2: shw2 }),
                        "hw1={hw1:#06x} hw2={hw2:#06x} cfg={cfg:?}"
                    ),
                    Slot::Incomplete { .. } | Slot::Live => {
                        panic!("hw1={hw1:#06x} hw2={hw2:#06x}: second halfword was available")
                    }
                }
            }
        }
    }
}

/// A 32-bit prefix whose second halfword lies outside the image must
/// become `Slot::Incomplete` — not `Slot::Undefined` (the image cannot
/// know the full encoding) and not plain `Slot::Live` (which would
/// conflate "image ends mid-encoding" with "slot invalidated by a
/// perturbation"). Only a live fetch can tell "fetch fault at addr + 2"
/// from "undefined 32-bit pattern".
#[test]
fn prefix_at_image_edge_defers_to_live_decode() {
    for cfg in [Config::default(), Config { wide: true, ..Config::default() }] {
        for hw in 0..=u16::MAX {
            if !is_32bit_prefix(hw) {
                continue;
            }
            let image = PredecodedImage::from_bytes(BASE, &hw.to_le_bytes(), cfg);
            assert_eq!(image.slot(BASE), Some(Slot::Incomplete { hw }), "hw={hw:#06x}");
        }
    }
}

/// Image-end boundary, end to end: dispatching through a predecoded image
/// whose final halfword is a 32-bit prefix falls back to the live path
/// and raises a fetch fault at `addr + 2` when nothing is mapped there —
/// not an undefined-instruction fault.
#[test]
fn prefix_in_final_halfword_faults_at_next_fetch() {
    for cfg in [Config::default(), Config { wide: true, ..Config::default() }] {
        // Flash is exactly 4 bytes: `movs r0, #1` then a bare BL prefix.
        let code = [0x01, 0x20, 0x00, 0xF0];
        let mut emu = Emu::with_config(cfg);
        emu.mem.map("flash", BASE, 4, Perms::RX).expect("fresh map");
        emu.mem.load(BASE, &code).expect("fits");
        emu.set_pc(BASE);
        let image = PredecodedImage::from_bytes(BASE, &code, cfg);
        assert_eq!(image.slot(BASE + 2), Some(Slot::Incomplete { hw: 0xF000 }));
        match emu.run_predecoded(10, &image) {
            RunOutcome::Fault { fault: Fault::Mem(m), .. } => {
                assert_eq!(m.addr, BASE + 4, "cfg={cfg:?}");
            }
            other => panic!("expected fetch fault past the image end, got {other:?}"),
        }
    }
}

/// The fetch-fault case the decode rework split out: a prefix at the end
/// of mapped memory faults at `addr + 2` with a memory fault, not an
/// undefined-instruction fault.
#[test]
fn prefix_fetch_fault_is_distinct_from_undefined() {
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x10, Perms::RX).expect("fresh map");
    let last = BASE + 0xE;
    emu.mem.load(last, &0xF000u16.to_le_bytes()).expect("mapped");
    match emu.decode(last, 0xF000) {
        Err(Fault::Mem(m)) => assert_eq!(m.addr, last + 2),
        other => panic!("expected fetch fault, got {other:?}"),
    }
    // The same prefix mid-image with an undefined second halfword is an
    // undefined-instruction fault carrying both halfwords.
    emu.mem.load(BASE, &[0x00, 0xF0, 0x00, 0x00]).expect("mapped");
    match emu.decode(BASE, 0xF000) {
        Err(Fault::Undefined { hw: 0xF000, hw2: Some(0), .. }) => {}
        other => panic!("expected undefined, got {other:?}"),
    }
}

/// run_predecoded over an unperturbed image behaves exactly like run.
#[test]
fn predecoded_run_matches_interpreter_run() {
    let src = "movs r0, #7\nadds r0, #35\nstr r0, [r1]\nldr r2, [r1]\nbkpt #9\n";
    let prog = gd_thumb::asm::assemble(src, BASE).expect("assembles");
    let boot = |cfg: Config| {
        let mut emu = Emu::with_config(cfg);
        emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
        emu.mem.map("sram", 0x2000_0000, 0x100, Perms::RW).expect("fresh map");
        emu.mem.load(BASE, &prog.code).expect("fits");
        emu.set_pc(BASE);
        emu.cpu.set_reg(gd_thumb::Reg::R1, 0x2000_0010);
        emu
    };
    let cfg = Config::default();
    let mut live = boot(cfg);
    let live_out = live.run(100);
    let mut fast = boot(cfg);
    let image = PredecodedImage::from_region(fast.mem.region_at(BASE).expect("mapped"), cfg);
    let fast_out = fast.run_predecoded(100, &image);
    assert_eq!(live_out, fast_out);
    assert!(matches!(fast_out, RunOutcome::Stop { reason: StopReason::Bkpt(9), .. }));
    assert_eq!(live.cpu, fast.cpu);
    assert_eq!(live.steps(), fast.steps());
}

/// Snapshot → run (with stores) → restore reproduces the snapshot state,
/// and a store-free run skips the region copy without observable effect.
#[test]
fn snapshot_restore_round_trips() {
    let src = "movs r0, #1\nstr r0, [r1]\nbkpt #0\n";
    let prog = gd_thumb::asm::assemble(src, BASE).expect("assembles");
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
    emu.mem.map("sram", 0x2000_0000, 0x100, Perms::RW).expect("fresh map");
    emu.mem.load(BASE, &prog.code).expect("fits");
    emu.set_pc(BASE);
    emu.cpu.set_reg(gd_thumb::Reg::R1, 0x2000_0020);

    let snap = emu.snapshot();
    let first = emu.run(100);
    assert_eq!(emu.mem.read32(0x2000_0020).expect("mapped"), 1);
    let dirty_epoch = emu.mem.write_epoch();
    assert!(dirty_epoch > 0, "the store advanced the write epoch");

    emu.restore(&snap);
    assert_eq!(emu.pc(), BASE);
    assert_eq!(emu.steps(), 0);
    assert_eq!(emu.mem.read32(0x2000_0020).expect("mapped"), 0, "store rolled back");
    let second = emu.run(100);
    assert_eq!(first, second, "replay from snapshot is bit-identical");

    // A restore with no intervening store is the epoch fast path.
    emu.restore(&snap);
    let epoch = emu.mem.write_epoch();
    emu.restore(&snap);
    assert_eq!(emu.mem.write_epoch(), epoch);
    assert_eq!(emu.run(100), first);
}

/// Loader writes are exempt from the write epoch: re-poking the same
/// address each trial (the sweep pattern) keeps the restore fast path.
#[test]
fn loader_writes_do_not_dirty_the_epoch() {
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
    let before = emu.mem.write_epoch();
    emu.mem.load(BASE, &[0xAA, 0xBB]).expect("mapped");
    assert_eq!(emu.mem.write_epoch(), before);
}

/// The chunked loader writes across region boundaries exactly like the
/// old per-byte loop, and faults at the first unmapped byte.
#[test]
fn load_spans_regions_and_faults_on_gap() {
    let mut emu = Emu::new();
    emu.mem.map("lo", 0x1000, 4, Perms::RW).expect("fresh map");
    emu.mem.map("hi", 0x1004, 4, Perms::RW).expect("fresh map");
    emu.mem.load(0x1002, &[1, 2, 3, 4]).expect("spans the boundary");
    assert_eq!(emu.mem.peek(0x1002, 4).expect("mapped"), vec![1, 2, 3, 4]);
    let fault = emu.mem.load(0x1006, &[9, 9, 9]).expect_err("runs off the map");
    assert_eq!(fault.addr, 0x1008);
    assert_eq!(emu.mem.peek(0x1006, 2).expect("mapped"), vec![9, 9], "prefix written");
}

const SRAM: u32 = 0x2000_0000;
const SRAM_SIZE: u32 = 0x100;
const FLASH_SIZE: u32 = 0x100;
/// Steps each random program may run before the comparison ends.
const LOCKSTEP_STEPS: usize = 200;

/// Halfwords the random programs draw from besides uniform noise: stores
/// of every width and addressing form, `push`/`stm`, loads (`ldrsb`,
/// `ldrsh`, `ldm` and `pop {pc}` among them), ALU ops, compares,
/// conditional and backward branches, `bx`/`blx`/`mov pc` to code, the
/// zero fill, and three 32-bit prefixes (`bl`/`b.w`, `ldr.w`, `movw`)
/// that pair with whatever halfword follows.
const PALETTE: [u16; 35] = [
    0x6008, 0x6048, 0x7011, 0x8051, 0x50D0, 0x52D0, 0x54D0, 0x9001, 0xB511, 0xC10D, 0x6808, 0x6848,
    0x7810, 0x8850, 0x56D0, 0x5ED0, 0x9801, 0xCA01, 0xBD01, 0xBC01, 0x1C40, 0x4048, 0x4348, 0x2800,
    0x4288, 0xD1F0, 0xDBF4, 0xE7F8, 0x4720, 0x47A0, 0x46A7, 0x0000, 0xF000, 0xF8D1, 0xF240,
];

/// A random image and register state: flash under a predecoded table
/// (partly — the rest decodes live), and SRAM that `r1`, `r2` and `sp`
/// point into, with small offsets in `r3` and `r5` and a code address in
/// `r4`, so most stores land in mapped memory and most jumps in code.
#[derive(Debug)]
struct Program {
    flash: Vec<u8>,
    text_len: usize,
    cfg: Config,
    regs: [u32; 15],
    flags: Flags,
    load_override: Option<LoadOverride>,
    pc: u32,
}

impl Program {
    fn draw(rng: &mut Rng) -> Program {
        let halfwords = (FLASH_SIZE / 2) as usize;
        let flash = (0..halfwords)
            .flat_map(|_| {
                match rng.range(0, 8) {
                    0 => rng.u16(),
                    _ => *rng.choose(&PALETTE),
                }
                .to_le_bytes()
            })
            .collect();
        let sram = |rng: &mut Rng| SRAM + 4 * rng.range(0, u64::from(SRAM_SIZE / 4)) as u32;
        let code = |rng: &mut Rng| (BASE + 2 * rng.range(0, halfwords as u64) as u32) | 1;
        let mut regs = [0; 15];
        for (r, reg) in regs.iter_mut().enumerate() {
            *reg = match r {
                1 | 2 => sram(rng),
                3 | 5 => 4 * rng.range(0, 8) as u32,
                4 | 14 => code(rng),
                13 => sram(rng) | 0x80,
                _ => rng.u32(),
            };
        }
        let load_override = match rng.range(0, 4) {
            0 => Some(LoadOverride::Replace(rng.u32())),
            1 => Some(LoadOverride::And(rng.u32())),
            2 => Some(LoadOverride::Or(rng.u32())),
            _ => None,
        };
        Program {
            flash,
            text_len: 2 * rng.usize(halfwords / 2, halfwords + 1),
            cfg: Config { zero_is_invalid: rng.range(0, 4) == 0, wide: rng.bool() },
            regs,
            flags: Flags { n: rng.bool(), z: rng.bool(), c: rng.bool(), v: rng.bool() },
            load_override,
            pc: BASE + 2 * rng.range(0, halfwords as u64) as u32,
        }
    }

    fn emu(&self) -> Emu {
        let mut emu = Emu::with_config(self.cfg);
        emu.mem.map_with_data("flash", BASE, self.flash.clone(), Perms::RX).expect("fresh map");
        emu.mem.map("sram", SRAM, SRAM_SIZE, Perms::RW).expect("fresh map");
        for (r, &v) in self.regs.iter().enumerate() {
            emu.cpu.set_reg(Reg::new(r as u8).expect("r0-r14"), v);
        }
        emu.cpu.flags = self.flags;
        emu.load_override = self.load_override;
        emu.set_pc(self.pc);
        emu
    }
}

/// Steps one random program on the predecoded path and on `Emu::step` in
/// lockstep, comparing after every step what either could get wrong.
fn step_in_lockstep(rng: &mut Rng) {
    let program = Program::draw(rng);
    let image = PredecodedImage::from_bytes(BASE, &program.flash[..program.text_len], program.cfg);
    let (mut fast, mut live) = (program.emu(), program.emu());
    let sram = |emu: &Emu| emu.mem.region_at(SRAM).expect("mapped").data().to_vec();
    for step in 0..LOCKSTEP_STEPS {
        let fast_out = fast.step_predecoded(&image);
        let live_out = live.step();
        assert_eq!(
            fast_out, live_out,
            "step {step}: outcome (stop, fault, branched, store, instr)"
        );
        assert_eq!(fast.pc(), live.pc(), "step {step}: pc");
        assert_eq!(fast.cpu, live.cpu, "step {step}: cpu");
        assert_eq!(fast.steps(), live.steps(), "step {step}: step count");
        assert_eq!(fast.load_override, live.load_override, "step {step}: load override");
        assert_eq!(sram(&fast), sram(&live), "step {step}: sram");
        if !matches!(live_out, Ok(StepOutcome::Step(_))) {
            break;
        }
    }
}

/// Random programs step identically on the predecoded path (its inlined
/// instruction body) and on the live interpreter.
#[test]
fn random_programs_step_identically_on_both_paths() {
    cases(1000, "random_programs_step_identically_on_both_paths", step_in_lockstep);
}

/// The same property over many more programs.
#[test]
#[ignore = "long pass; run with --ignored"]
fn random_programs_step_identically_on_both_paths_long() {
    cases(200_000, "random_programs_step_identically_on_both_paths_long", step_in_lockstep);
}
