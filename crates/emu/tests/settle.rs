//! `Replay::run_settling` against `Replay::run`: settling whole periods of
//! a spin must end the trial exactly as running it out does — same budget
//! left, end, watch flag and emulator state.

use gd_emu::{Config, Emu, Perms, PredecodedImage, Replay};
use gd_exec::check::cases;
use gd_thumb::Reg;

const FLASH: u32 = 0x0800_0000;
const SRAM: u32 = 0x2000_0000;
const HALFWORDS: usize = 24;
/// Steps per trial: well past the first Brent marks.
const BUDGET: u64 = 700;
/// Storing this value to `SRAM` fires the watch.
const WATCHED: u32 = 5;

/// Halfwords the random programs draw from: spins and backward branches
/// (so most programs loop), stores that repeat or count (in memory only,
/// when the register is reset after the store), a register countdown
/// that ends its loop, and a breakpoint.
const PALETTE: [u16; 18] = [
    0xE7FE, // b .
    0xE7FC, // b .-4
    0xE7FA, // b .-8
    0xD1FC, // bne .-4
    0x6001, // str r1, [r0]
    0x6042, // str r2, [r0, #4]
    0x6002, // str r2, [r0]
    0x6802, // ldr r2, [r0]
    0x3101, // adds r1, #1
    0x3201, // adds r2, #1
    0x3B01, // subs r3, #1
    0x2105, // movs r1, #5
    0x2100, // movs r1, #0
    0x2200, // movs r2, #0
    0x2304, // movs r3, #4
    0x1C52, // adds r2, r2, #1
    0xBF00, // nop
    0xBE00, // bkpt #0
];

fn replay(code: &[u8]) -> Replay {
    let boot = || {
        let mut emu = Emu::new();
        emu.mem.map("flash", FLASH, 0x100, Perms::RX).expect("fresh map");
        emu.mem.map("sram", SRAM, 0x100, Perms::RW).expect("fresh map");
        emu.mem.load(FLASH, code).expect("program fits");
        emu.set_pc(FLASH);
        emu.cpu.set_reg(Reg::R0, SRAM);
        emu
    };
    let table = PredecodedImage::from_bytes(FLASH, code, Config::default());
    Replay::new(boot, table, BUDGET, Some((SRAM, WATCHED)), |pc| pc == FLASH)
}

/// Random programs, each run out and run settling from one snapshot: the
/// trials end alike and leave the emulator in one state, and some settle.
#[test]
fn settling_ends_as_running_out() {
    let (mut settled, mut watched) = (0, 0);
    cases(300, "run_settling ≡ run", |rng| {
        let code: Vec<u8> = (0..HALFWORDS)
            .map(|_| if rng.range(0, 8) == 0 { rng.u16() } else { *rng.choose(&PALETTE) })
            .flat_map(u16::to_le_bytes)
            .collect();
        let mut replay = replay(&code);
        let mut out = replay.arm([]);
        replay.run(&mut out, |_, _| false);
        let end = replay.emu().fork();
        let mut settling = replay.arm([]);
        replay.run_settling(&mut settling);
        assert_eq!(
            (settling.left, settling.watched, settling.end),
            (out.left, out.watched, out.end),
            "{code:02x?}"
        );
        assert!(settling.slid <= out.slid, "{code:02x?}");
        assert!(replay.same_state(&end), "{code:02x?}");
        settled += usize::from(settling.settled > 0);
        watched += usize::from(settling.settled > 0 && settling.watched);
    });
    assert!(settled > 20, "the sample settles spins ({settled})");
    assert!(watched > 0, "some settled spin stores the watched value");
}

/// Runs `code` out and settling from one snapshot; returns the settling
/// trial after checking it ends as running out does.
fn both_ways(code: &[u16]) -> gd_emu::Trial {
    let code: Vec<u8> = code.iter().flat_map(|hw| hw.to_le_bytes()).collect();
    let mut replay = replay(&code);
    let mut out = replay.arm([]);
    replay.run(&mut out, |_, _| false);
    let end = replay.emu().fork();
    let mut settling = replay.arm([]);
    replay.run_settling(&mut settling);
    assert_eq!((settling.left, settling.watched, settling.end), (out.left, out.watched, out.end));
    assert!(replay.same_state(&end));
    settling
}

/// A loop whose registers repeat every iteration settles only if memory
/// repeats too: counting in memory never settles, storing the watched
/// value and then zero over it does, with the watch fired.
#[test]
fn spins_settle_only_on_equal_memory() {
    let counting = both_ways(&[
        0x6802, // ldr r2, [r0]
        0x3201, // adds r2, #1
        0x6002, // str r2, [r0]
        0x2200, // movs r2, #0
        0xE7FA, // b .-8 (back to the load)
    ]);
    assert_eq!(counting.settled, 0);
    let flipping = both_ways(&[
        0x2105, // movs r1, #5
        0x6001, // str r1, [r0]
        0x2100, // movs r1, #0
        0x6001, // str r1, [r0]
        0xE7FA, // b .-8 (back to the first move)
    ]);
    assert!(flipping.settled > 0 && flipping.watched, "{flipping:?}");
}
