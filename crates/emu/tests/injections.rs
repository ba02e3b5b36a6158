//! Fetch-stage fault injection: `Emu::inject` must corrupt, skip, or
//! bus-fault exactly the fetches it is armed for — without touching
//! memory — and the predecoded dispatch path must agree with the live
//! interpreter once the injected sites are range-invalidated.

use gd_emu::{
    Emu, InjectKind, Injection, LoadOverride, Perms, Persistence, PredecodedImage, RunOutcome,
    StepOutcome, StopReason,
};
use gd_thumb::Reg;

const BASE: u32 = 0x0800_0000;
const SRAM: u32 = 0x2000_0000;

fn boot(src: &str) -> Emu {
    let prog = gd_thumb::asm::assemble(src, BASE).expect("assembles");
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
    emu.mem.map("sram", SRAM, 0x100, Perms::RW).expect("fresh map");
    emu.mem.load(BASE, &prog.code).expect("fits");
    emu.set_pc(BASE);
    emu
}

fn stops_with(out: RunOutcome, imm: u8) {
    assert!(
        matches!(out, RunOutcome::Stop { reason: StopReason::Bkpt(i), .. } if i == imm),
        "expected bkpt #{imm}, got {out:?}"
    );
}

/// A transient corrupt substitutes the fetched halfword once and leaves
/// the bytes in memory untouched.
#[test]
fn transient_corrupt_changes_one_fetch_not_memory() {
    let mut emu = boot("movs r0, #1\nbkpt #0\n");
    // movs r0, #5 instead of movs r0, #1.
    emu.inject(Injection::new(BASE, InjectKind::Corrupt { hw: 0x2005 }, Persistence::Transient));
    stops_with(emu.run(10), 0);
    assert_eq!(emu.cpu.reg(Reg::R0), 5);
    assert_eq!(emu.mem.peek(BASE, 2).expect("mapped"), 0x2001u16.to_le_bytes());
    assert!(!emu.injections()[0].is_armed(), "transient injections disarm after firing");
}

/// Transient fires on exactly one loop iteration; permanent on all.
#[test]
fn persistence_controls_refiring_in_a_loop() {
    let src = "movs r2, #0\nmovs r0, #0\nloop:\nadds r2, #1\nadds r0, #1\ncmp r0, #3\nbne loop\nbkpt #0\n";
    let site = BASE + 4; // adds r2, #1
    for (persistence, expected_r2) in
        [(Persistence::Transient, 2u32), (Persistence::Permanent, 0u32)]
    {
        let mut emu = boot(src);
        emu.inject(Injection::new(site, InjectKind::Skip, persistence));
        stops_with(emu.run(100), 0);
        assert_eq!(emu.cpu.reg(Reg::R0), 3);
        assert_eq!(emu.cpu.reg(Reg::R2), expected_r2, "{persistence:?}");
    }
}

/// Skipping a 32-bit encoding advances the PC by 4 and executes nothing:
/// the call never happens, LR stays clear, and fall-through continues.
#[test]
fn skip_steps_over_a_wide_instruction() {
    let mut emu = boot("bl sub\nbkpt #1\nsub:\nbkpt #2\n");
    emu.inject(Injection::new(BASE, InjectKind::Skip, Persistence::Transient));
    let steps_before = emu.steps();
    match emu.step() {
        Ok(StepOutcome::Step(s)) => {
            assert!(!s.branched && s.store.is_none(), "a skip neither branches nor stores");
            assert_eq!(emu.pc(), BASE + 4, "skip spans the whole 32-bit encoding");
        }
        other => panic!("expected a skipped step, got {other:?}"),
    }
    assert_eq!(emu.steps(), steps_before + 1, "the skip consumed one step");
    stops_with(emu.run(10), 1);
    assert_eq!(emu.cpu.reg(Reg::LR), 0, "the skipped bl never linked");
}

/// A load-bus injection corrupts the load of its own fetch only; armed on
/// an instruction that performs no load, the override must not leak into
/// a later load.
#[test]
fn load_bus_override_is_synchronized_to_its_fetch() {
    let src = "ldr r0, [r1]\nldr r2, [r1]\nbkpt #0\n";
    let mut emu = boot(src);
    emu.mem.load(SRAM, &0x10u32.to_le_bytes()).expect("mapped");
    emu.cpu.set_reg(Reg::R1, SRAM);
    emu.inject(Injection::new(
        BASE,
        InjectKind::LoadBus(LoadOverride::Or(0x0F)),
        Persistence::Transient,
    ));
    stops_with(emu.run(10), 0);
    assert_eq!(emu.cpu.reg(Reg::R0), 0x1F, "first load corrupted");
    assert_eq!(emu.cpu.reg(Reg::R2), 0x10, "second load clean");

    // No-load site: the override is dropped, not deferred.
    let mut emu = boot("movs r0, #1\nldr r2, [r1]\nbkpt #0\n");
    emu.mem.load(SRAM, &0x10u32.to_le_bytes()).expect("mapped");
    emu.cpu.set_reg(Reg::R1, SRAM);
    emu.inject(Injection::new(
        BASE,
        InjectKind::LoadBus(LoadOverride::Or(0x0F)),
        Persistence::Transient,
    ));
    stops_with(emu.run(10), 0);
    assert_eq!(emu.cpu.reg(Reg::R0), 1);
    assert_eq!(emu.cpu.reg(Reg::R2), 0x10, "override did not leak to the next load");
}

/// Restoring a snapshot taken before arming drops the trial's injections
/// — the multi-fault trial loop relies on restore-as-reset.
#[test]
fn restore_resets_injections_to_the_snapshot() {
    let mut emu = boot("movs r0, #1\nbkpt #0\n");
    let snap = emu.snapshot();
    emu.inject(Injection::new(BASE, InjectKind::Corrupt { hw: 0x2005 }, Persistence::Transient));
    stops_with(emu.run(10), 0);
    assert_eq!(emu.cpu.reg(Reg::R0), 5);
    emu.restore(&snap);
    assert!(emu.injections().is_empty(), "restore clears trial injections");
    stops_with(emu.run(10), 0);
    assert_eq!(emu.cpu.reg(Reg::R0), 1);
}

/// The satellite regression: two faults straddling a wide instruction.
/// Predecoded dispatch must match the live interpreter once both sites
/// are invalidated via the range API — and demonstrably diverges when
/// the stale cached micro-op is left in place.
#[test]
fn straddling_faults_need_range_invalidation_on_the_predecoded_path() {
    let src = "movs r0, #1\nbl sub\nbkpt #7\nsub:\nbkpt #9\n";
    // Faults in both halves of the bl at [BASE+2, BASE+6): the prefix
    // becomes movs r0, #5 (16-bit, so the suffix is then fetched as its
    // own instruction) and the suffix becomes movs r1, #6.
    let arm = |emu: &mut Emu| {
        emu.inject(Injection::new(
            BASE + 2,
            InjectKind::Corrupt { hw: 0x2005 },
            Persistence::Transient,
        ));
        emu.inject(Injection::new(
            BASE + 4,
            InjectKind::Corrupt { hw: 0x2106 },
            Persistence::Transient,
        ));
    };

    let mut live = boot(src);
    arm(&mut live);
    let live_out = live.run(20);
    stops_with(live_out, 7);
    assert_eq!((live.cpu.reg(Reg::R0), live.cpu.reg(Reg::R1)), (5, 6));

    let cfg = live.cfg;
    let mut fast = boot(src);
    let pristine = PredecodedImage::from_region(fast.mem.region_at(BASE).expect("mapped"), cfg);

    // Stale table: the cached bl micro-op dispatches and the injections
    // never apply — the run takes the call instead.
    let mut image = pristine.clone();
    arm(&mut fast);
    let stale_out = fast.run_predecoded(20, &image);
    stops_with(stale_out, 9);

    // Range-invalidated table: both injected sites (and the prefix
    // predecessor) fall back to the live path; behavior matches exactly.
    let mut fast = boot(src);
    arm(&mut fast);
    image.invalidate_range(BASE + 2, 4);
    let fast_out = fast.run_predecoded(20, &image);
    assert_eq!(fast_out, live_out);
    assert_eq!(fast.cpu, live.cpu);
    assert_eq!(fast.steps(), live.steps());

    // Healing from the pristine table restores cached dispatch.
    image.heal_range(&pristine, BASE + 2, 4);
    assert_eq!(image, pristine);
}
