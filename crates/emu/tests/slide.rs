//! The zero-fill slide: `Emu::slide`, and `Emu::run_predecoded` sliding
//! through runs of `0x0000`, must leave exactly the state stepping the
//! interpreter one halfword at a time would.

use gd_emu::{
    Config, Emu, InjectKind, Injection, LoadOverride, Perms, Persistence, PredecodedImage,
    RunOutcome, StepOutcome, ZERO_FILL,
};
use gd_exec::check::{cases, Rng};
use gd_thumb::{Flags, Reg};

const BASE: u32 = 0x0800_0000;
const FLASH_SIZE: u32 = 0x200;
/// An executable, writable region right after the flash.
const RAM: u32 = BASE + FLASH_SIZE;
const RAM_SIZE: u32 = 0x100;

/// Nonzero halfwords the random programs mix with zero fill: moves and
/// arithmetic on `r0` (so N/Z fall out of step with it), compares, loads,
/// breakpoints, backward branches into earlier runs, and `0x0001`/`0x0009`
/// — shifts by zero that are not the zero halfword.
const PALETTE: [u16; 14] = [
    0x2000, 0x2005, 0x3801, 0x3001, 0x2800, 0x0040, 0x0001, 0x0009, 0x6801, 0xBE01, 0xE7FE, 0xE7F0,
    0xD0F8, 0x4240,
];

/// One randomly drawn program, register state and fault set.
#[derive(Debug)]
struct Setup {
    flash: Vec<u8>,
    /// Bytes of `flash` the predecoded table covers (a `.text` prefix).
    text_len: usize,
    cfg: Config,
    r0: u32,
    flags: Flags,
    pc: u32,
    injections: Vec<Injection>,
}

impl Setup {
    fn draw(rng: &mut Rng) -> Setup {
        let halfwords = (FLASH_SIZE / 2) as usize;
        let mut hw: Vec<u16> = (0..halfwords)
            .map(|_| match rng.range(0, 10) {
                0..=4 => 0,
                5..=8 => *rng.choose(&PALETTE),
                _ => rng.u16(),
            })
            .collect();
        // One long zero run at a random place, sometimes reaching the
        // region's end.
        let start = rng.usize(0, halfwords);
        let end = if rng.bool() { halfwords } else { rng.usize(start, halfwords + 1) };
        hw[start..end].fill(0);
        let flash: Vec<u8> = hw.iter().flat_map(|h| h.to_le_bytes()).collect();
        let pc = if rng.bool() && end > start {
            BASE + 2 * rng.usize(start, end) as u32
        } else {
            BASE + 2 * rng.usize(0, halfwords) as u32
        };
        let in_run = |rng: &mut Rng| {
            if end > start && rng.bool() {
                BASE + 2 * rng.usize(start, end) as u32
            } else {
                BASE + 2 * rng.usize(0, halfwords) as u32
            }
        };
        let injections = (0..rng.usize(0, 4))
            .map(|_| {
                let addr = in_run(rng);
                let kind = match rng.range(0, 4) {
                    0 => InjectKind::Corrupt { hw: 0 },
                    1 => InjectKind::Corrupt { hw: *rng.choose(&PALETTE) },
                    2 => InjectKind::Skip,
                    _ => InjectKind::LoadBus(LoadOverride::And(rng.u32())),
                };
                let persistence =
                    if rng.bool() { Persistence::Transient } else { Persistence::Permanent };
                Injection::new(addr, kind, persistence)
            })
            .collect();
        let flags = Flags { n: rng.bool(), z: rng.bool(), c: rng.bool(), v: rng.bool() };
        let r0 = match rng.range(0, 3) {
            0 => 0,
            1 => 0x8000_0000 | rng.u32(),
            _ => rng.u32(),
        };
        Setup {
            flash,
            text_len: 2 * rng.usize(0, halfwords + 1),
            cfg: Config { zero_is_invalid: rng.range(0, 8) == 0, wide: rng.bool() },
            r0,
            flags,
            pc,
            injections,
        }
    }

    fn emu(&self) -> Emu {
        let mut emu = Emu::with_config(self.cfg);
        emu.mem.map_with_data("flash", BASE, self.flash.clone(), Perms::RX).expect("fresh map");
        emu.mem.map("ram", RAM, RAM_SIZE, Perms::RWX).expect("fresh map");
        emu.cpu.set_reg(Reg::R0, self.r0);
        emu.cpu.set_reg(Reg::R1, RAM);
        emu.cpu.flags = self.flags;
        emu.set_pc(self.pc);
        for &inj in &self.injections {
            emu.inject(inj);
        }
        emu
    }

    /// The `.text` table, with every injected site invalidated as
    /// [`Emu::inject`] requires.
    fn image(&self) -> PredecodedImage {
        let mut image = PredecodedImage::from_bytes(BASE, &self.flash[..self.text_len], self.cfg);
        for inj in &self.injections {
            image.invalidate_range(inj.addr, 2);
        }
        image
    }
}

/// Everything a run leaves behind that a slide could get wrong.
fn state(emu: &Emu, outcome: RunOutcome) -> impl std::fmt::Debug + PartialEq {
    (outcome, emu.pc(), emu.steps(), emu.cpu.clone(), emu.load_override, emu.injections().to_vec())
}

/// `run_predecoded` over random zero runs, registers, flags, budgets and
/// armed injections equals a plain `step()` loop (`Emu::run`).
#[test]
fn run_predecoded_slides_exactly_like_stepping() {
    let mut slid = 0;
    cases(600, "slide ≡ step loop", |rng| {
        let setup = Setup::draw(rng);
        let budget = rng.range(0, 600);
        let mut fast = setup.emu();
        let out = fast.run_predecoded(budget, &setup.image());
        let mut slow = setup.emu();
        let want = slow.run(budget);
        assert_eq!(state(&fast, out), state(&slow, want), "{setup:?} budget {budget}");

        // Coverage: the first step executes a zero that a slide follows.
        let mut probe = setup.emu();
        if matches!(probe.step(), Ok(StepOutcome::Step(s)) if s.instr == ZERO_FILL)
            && probe.slide(u64::MAX) > 0
        {
            slid += 1;
        }
    });
    assert!(slid > 60, "only {slid} of 600 cases slide");
}

/// An emulator at the start of a zero-filled region, with Z set as
/// `LSLS r0, r0, #0` would leave it for `r0 == 0`.
fn zero_flash(size: u32, perms: Perms, cfg: Config) -> Emu {
    let mut emu = Emu::with_config(cfg);
    emu.mem.map("flash", BASE, size, perms).expect("fresh map");
    emu.cpu.flags.z = true;
    emu.set_pc(BASE);
    emu
}

#[test]
fn slide_stops_before_an_armed_injection_in_the_run() {
    for persistence in [Persistence::Transient, Persistence::Permanent] {
        let mut emu = zero_flash(0x100, Perms::RX, Config::default());
        let site = BASE + 0x40;
        emu.inject(Injection::new(site, InjectKind::Corrupt { hw: 0xBE07 }, persistence));
        assert_eq!(emu.slide(1000), 0x20, "stops at the site, not past it");
        assert_eq!((emu.pc(), emu.steps()), (site, 0x20));
        // The injection then fires on the ordinary fetch.
        let image = PredecodedImage::from_bytes(BASE, &[], Config::default());
        assert!(matches!(emu.run_predecoded(1000, &image), RunOutcome::Stop { steps: 0x21, .. }));
    }
    // A spent injection no longer bounds the run.
    let mut emu = zero_flash(0x100, Perms::RX, Config::default());
    emu.inject(Injection::new(BASE + 0x10, InjectKind::Skip, Persistence::Transient));
    emu.slide(100);
    emu.step().expect("the skip fires");
    assert_eq!(emu.slide(1000), (0x100 - 0x12) / 2);
}

#[test]
fn a_run_ending_at_the_region_edge_faults_like_stepping() {
    let image = PredecodedImage::from_bytes(BASE, &[], Config::default());
    for budget in [0x7F, 0x80, 0x81, 1000] {
        let mut fast = zero_flash(0x100, Perms::RX, Config::default());
        let out = fast.run_predecoded(budget, &image);
        let mut slow = zero_flash(0x100, Perms::RX, Config::default());
        let want = slow.run(budget);
        assert_eq!(out, want, "budget {budget}");
        assert_eq!((fast.pc(), fast.steps()), (slow.pc(), slow.steps()));
    }
    let mut emu = zero_flash(0x100, Perms::RX, Config::default());
    match emu.run_predecoded(1000, &image) {
        RunOutcome::Fault { fault, steps } => {
            assert!(fault.is_bad_fetch(), "{fault:?}");
            assert_eq!(steps, 0x80);
        }
        other => panic!("expected a fetch fault past the region, got {other:?}"),
    }
}

#[test]
fn nothing_slides_under_zero_is_invalid() {
    let cfg = Config { zero_is_invalid: true, ..Config::default() };
    let mut emu = zero_flash(0x100, Perms::RX, cfg);
    assert_eq!(emu.slide(100), 0);
    assert_eq!((emu.pc(), emu.steps()), (BASE, 0));
}

#[test]
fn nothing_slides_over_a_writable_region() {
    let mut emu = zero_flash(0x100, Perms::RWX, Config::default());
    assert_eq!(emu.slide(100), 0);
    // Stepping still executes the zeros one at a time.
    assert!(matches!(emu.run(10), RunOutcome::StepLimit { steps: 10 }));
    assert_eq!(emu.pc(), BASE + 20);
}

#[test]
fn nothing_slides_while_n_or_z_disagree_with_r0() {
    for (r0, n, z) in
        [(0, false, false), (0, true, true), (5, false, true), (0x8000_0000, false, false)]
    {
        let mut emu = zero_flash(0x100, Perms::RX, Config::default());
        emu.cpu.set_reg(Reg::R0, r0);
        emu.cpu.flags.n = n;
        emu.cpu.flags.z = z;
        assert_eq!(emu.slide(100), 0, "r0 {r0:#x} n {n} z {z}");
        // One executed zero sets N and Z from r0; then the slide is exact.
        emu.step().expect("zero executes");
        assert_eq!(emu.slide(100), 100);
        assert_eq!((emu.pc(), emu.steps()), (BASE + 202, 101));
    }
}
