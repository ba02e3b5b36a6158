//! The settling [`AttemptRunner`] against the per-instruction oracle
//! [`run_attack`], attempt by attempt.
//!
//! An attempt that can only spin is settled: once its glitch window has
//! passed and the run comes back to an earlier state, the runner skips
//! whole periods of the spin. Every attempt must still end exactly as
//! the oracle's fresh boot stepped to the budget does: the same outcome,
//! cycle, retired and step counts, CPU (the post-mortem register
//! included), PC, trigger cycles and memory (NVM included).
//!
//! Tier-1 checks a strided slice of every Table I cell, one Table II and
//! one Table III cell, Table VI slices with NVM threaded, and hand-built
//! programs aimed at the settle's preconditions. The `#[ignore]`d
//! variant walks whole cells.

use gd_campaign::defense::{budget_for, hardened_device, Attack};
use gd_campaign::glitch_tables::{doubled_spec, guard_spec};
use gd_campaign::spec::doubled_guards;
use gd_chipwhisperer::{
    full_grid, run_attack, targets, AttackSpec, AttemptRunner, Device, FaultModel, GlitchParams,
    SuccessCheck,
};
use gd_firmware::SUCCESS_MARKER;
use gd_pipeline::{Pipeline, StageFault, Window, FETCH_DEPTH};
use glitch_resistor::Defenses;

/// Asserts that the runner's last attempt left the oracle's state.
fn assert_same(runner: &Pipeline, oracle: &Pipeline, what: &dyn std::fmt::Debug) {
    assert_eq!(runner.cycle(), oracle.cycle(), "cycle: {what:?}");
    assert_eq!(runner.retired(), oracle.retired(), "retired: {what:?}");
    assert_eq!(runner.emu.steps(), oracle.emu.steps(), "steps: {what:?}");
    assert_eq!(runner.emu.pc(), oracle.emu.pc(), "pc: {what:?}");
    assert_eq!(runner.emu.cpu, oracle.emu.cpu, "cpu: {what:?}");
    assert_eq!(runner.trigger_cycles(), oracle.trigger_cycles(), "triggers: {what:?}");
    let (ours, theirs) = (runner.emu.mem.regions(), oracle.emu.mem.regions());
    for (a, b) in ours.iter().zip(theirs) {
        assert!(a.data() == b.data(), "memory region {}: {what:?}", a.name());
    }
}

/// Runs `params` under `boot` through the runner and the oracle,
/// threading `nvm` (one copy per side) when given, and compares them.
fn check(
    runner: &mut AttemptRunner<'_>,
    device: &Device,
    model: &FaultModel,
    (params, boot): (GlitchParams, u64),
    spec: &AttackSpec,
    nvm: Option<(&mut Vec<u8>, &mut Vec<u8>)>,
) {
    let (mut ours, mut theirs) = nvm.unzip();
    let oracle = run_attack(device, model, params, boot, spec, theirs.as_deref_mut());
    let outcome = runner.run(model, params, boot, spec, ours.as_deref_mut());
    assert_eq!(outcome, oracle.outcome, "{params:?} boot {boot}");
    assert_same(runner.pipe(), &oracle.pipe, &(params, boot));
    assert_eq!(ours, theirs, "nvm: {params:?} boot {boot}");
}

/// Every `stride`-th in-region grid point of one scan cell, numbered as
/// `scan_cell` numbers its boots (`start_index × 9,801 + j + 1`).
fn cell_points(
    start_index: u64,
    stride: usize,
    params: impl Fn(i8, i8) -> GlitchParams,
) -> Vec<(GlitchParams, u64)> {
    let model = FaultModel::default();
    let grid = full_grid();
    let base = start_index * grid.len() as u64;
    grid.iter()
        .enumerate()
        .filter(|(_, &(w, o))| model.severity(w, o) > 0.0)
        .step_by(stride)
        .map(|(j, &(w, o))| (params(w, o), base + j as u64 + 1))
        .collect()
}

/// Table I: every guard at every glitch cycle 0..8, plus the unglitched
/// run each cell shares among the points that cannot fault.
fn table1_cells(stride: usize) {
    let model = FaultModel::default();
    let spec = guard_spec();
    for (name, src) in targets::table1_guards() {
        let device = Device::from_asm(src).expect("guard assembles");
        let mut runner = AttemptRunner::new(&device);
        for cycle in 0..8u32 {
            let points =
                cell_points(cycle.into(), stride, |w, o| GlitchParams::single(cycle, w, o));
            for point in points {
                check(&mut runner, &device, &model, point, &spec, None);
            }
        }
        let oracle = run_attack(&device, &model, GlitchParams::single(0, 0, 0), 1, &spec, None);
        assert_eq!(runner.run_unglitched(&spec), oracle.outcome, "{name}");
        assert_same(runner.pipe(), &oracle.pipe, &name);
    }
}

/// One Table II cell (the doubled guards at glitch cycle 3) and one
/// Table III cell (a 15-cycle glitch from cycle 0).
fn table2_and_3_cells(stride: usize) {
    let model = FaultModel::default();
    let spec = doubled_spec();
    for (_, src) in doubled_guards() {
        let device = Device::from_asm(&src).expect("guard assembles");
        let mut runner = AttemptRunner::new(&device);
        for point in cell_points(3, stride, |w, o| GlitchParams::single(3, w, o)) {
            check(&mut runner, &device, &model, point, &spec, None);
        }
        let long = |w, o| GlitchParams { ext_offset: 0, repeat: 15, width: w, offset: o };
        for point in cell_points(0, stride, long) {
            check(&mut runner, &device, &model, point, &spec, None);
        }
    }
}

/// Table VI: `attack`'s first glitch shape against the first target
/// hardened with `defenses`, NVM threaded from attempt to attempt as
/// `run_cell` threads it.
fn table6_slice(defenses: Defenses, attack: Attack, stride: usize) {
    let model = FaultModel::default();
    let (_, module) = gd_firmware::table6_targets().into_iter().next().expect("a target");
    let device = hardened_device(&module, defenses);
    let spec = AttackSpec {
        success: SuccessCheck::HaltWithR0(SUCCESS_MARKER),
        max_cycles: budget_for(&device),
    };
    let (start, repeat) = attack.shapes()[0];
    let mut runner = AttemptRunner::new(&device);
    let (mut ours, mut theirs) = (Vec::new(), Vec::new());
    let shape = |w, o| GlitchParams { ext_offset: start, repeat, width: w, offset: o };
    for point in cell_points(0, stride, shape) {
        check(&mut runner, &device, &model, point, &spec, Some((&mut ours, &mut theirs)));
    }
}

#[test]
fn settled_attempts_equal_the_oracle_on_table1_cells() {
    table1_cells(13);
}

#[test]
fn settled_attempts_equal_the_oracle_on_table2_and_3_cells() {
    table2_and_3_cells(17);
}

#[test]
fn settled_attempts_equal_the_oracle_on_table6_with_nvm_threaded() {
    table6_slice(Defenses::ALL_EXCEPT_DELAY, Attack::Single, 97);
    table6_slice(Defenses::ALL, Attack::Window10, 151);
}

/// Whole cells: every in-region point of every Table I cell, of the
/// Table II and III cells, and of larger Table VI slices. Release only
/// (`scripts/ci.sh`); tier-1 runs the strided slices above.
#[test]
#[ignore = "whole cells; run in release by scripts/ci.sh"]
fn settled_attempts_equal_the_oracle_on_whole_cells() {
    table1_cells(1);
    table2_and_3_cells(1);
    table6_slice(Defenses::ALL_EXCEPT_DELAY, Attack::Single, 3);
    table6_slice(Defenses::ALL, Attack::Long, 5);
}

/// The trigger, then a spin whose period stores to NVM: every iteration
/// stalls on the flash write, and the stored value never changes, so the
/// memory comparison (not a store-free test) must find the recurrence.
const NVM_SPIN: &str = "
    ldr r0, =0x48000014
    movs r1, #1
    str r1, [r0]            ; trigger
    ldr r2, =0x0800F000
loop:
    ldr r3, [r2]
    adds r3, #0
    str r3, [r2]            ; NVM store: stalls every period
    b loop
    bkpt #1
    .pool
";

/// Every `stride`-th in-region point at the first few glitch cycles,
/// some of which fault.
fn early_points(cycles: u32, stride: usize) -> Vec<(GlitchParams, u64)> {
    (0..cycles)
        .flat_map(|c| cell_points(c.into(), stride, move |w, o| GlitchParams::single(c, w, o)))
        .collect()
}

#[test]
fn a_period_with_an_nvm_store_stall_settles_exactly() {
    let model = FaultModel::default();
    let device = Device::from_asm(NVM_SPIN).expect("assembles");
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 2_000_003 };
    let mut runner = AttemptRunner::new(&device);
    let (mut ours, mut theirs) = (Vec::new(), Vec::new());
    let points = early_points(8, 61);
    assert!(points.iter().any(|(p, _)| model.may_fault(p)), "some attempts are glitched");
    for point in points {
        check(&mut runner, &device, &model, point, &spec, Some((&mut ours, &mut theirs)));
    }
}

/// The budget ends mid-period: the settle must stop short of it and let
/// the last partial period run.
#[test]
fn a_budget_that_ends_mid_period_settles_exactly() {
    let model = FaultModel::default();
    let device = Device::from_asm(targets::WHILE_NOT_A).expect("assembles");
    let mut runner = AttemptRunner::new(&device);
    let points = early_points(6, 61);
    for max_cycles in [597, 598, 599, 600, 601, 602, 603, 604, 605] {
        let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles };
        for &point in &points {
            check(&mut runner, &device, &model, point, &spec, None);
        }
    }
}

/// A one-instruction spin right after the trigger: its state recurs at
/// every boundary, so a fetch corruption still in flight when the glitch
/// window closes (it ripens [`FETCH_DEPTH`] instructions after its
/// window) is the only thing that tells the boundaries apart.
#[test]
fn a_fetch_corruption_that_ripens_after_the_window_settles_exactly() {
    const SPIN: &str = "
        ldr r0, =0x48000014
        movs r1, #1
        str r1, [r0]            ; trigger
    spin:
        b spin
        bkpt #1
        bkpt #2
        .pool
    ";
    let model = FaultModel::default();
    let device = Device::from_asm(SPIN).expect("assembles");
    let spin = device.symbols["spin"];
    let window = |since| Window {
        start: 0,
        cycles: 3,
        addr: spin,
        instr: gd_thumb::decode16(0xE7FE).expect("b spin"),
        raw: 0xE7FE,
        since_trigger: Some(since),
        since_first_trigger: Some(since),
    };
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 };
    let mut runner = AttemptRunner::new(&device);
    let mut found = 0;
    for cycle in [0u32, 3, 6, 9] {
        for (params, boot) in cell_points(cycle.into(), 1, |w, o| GlitchParams::single(cycle, w, o))
        {
            let faults = model.faults_at(&params, cycle.into(), &window(cycle.into()), boot);
            if let [StageFault::CorruptFetch { .. }] = faults.as_slice() {
                check(&mut runner, &device, &model, (params, boot), &spec, None);
                found += 1;
            }
        }
    }
    assert!(found >= 8, "{found} fetch corruptions of the spin checked (depth {FETCH_DEPTH})");
}

/// A spin that raises the trigger every period. Each store adds a
/// trigger event (and re-arms the glitch), so no period may be skipped
/// without them, glitched or not.
#[test]
fn a_period_that_raises_the_trigger_settles_exactly() {
    const TRIGGER_SPIN: &str = "
        ldr r0, =0x48000014
        movs r1, #1
    loop:
        str r1, [r0]            ; trigger, every period
        nop
        b loop
        bkpt #1
        .pool
    ";
    let model = FaultModel::default();
    let device = Device::from_asm(TRIGGER_SPIN).expect("assembles");
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 };
    let mut runner = AttemptRunner::new(&device);
    for point in early_points(6, 61) {
        check(&mut runner, &device, &model, point, &spec, None);
    }
    let oracle = run_attack(&device, &model, GlitchParams::single(0, 0, 0), 1, &spec, None);
    assert_eq!(runner.run_unglitched(&spec), oracle.outcome);
    assert_same(runner.pipe(), &oracle.pipe, &"unglitched");
    assert!(oracle.pipe.trigger_cycles().len() > 50, "the spin re-triggers");
}

/// The trigger, then the zero-filled flash past the program: no literal
/// pool, so the fill starts right after the store. `movs r1, #0` sets Z
/// while `r0` holds the trigger address, so the fill is entered with N/Z
/// disagreeing with `r0`: its first `0x0000` must execute before any of
/// it can slide.
const INTO_ZERO_FILL: &str = "
    movs r0, #0x48
    lsls r0, r0, #24
    adds r0, #0x14
    movs r1, #0
    str r1, [r0]            ; trigger; the zero fill follows
";

/// The faults the oracle's injector returned, with their windows.
fn faults_seen(
    device: &Device,
    model: &FaultModel,
    (params, boot): (GlitchParams, u64),
    spec: &AttackSpec,
) -> Vec<(Window, StageFault)> {
    let mut injector = model.injector(params, boot);
    let mut seen = Vec::new();
    device.boot().run_with(spec.max_cycles, |w: &Window| {
        let faults = injector(w);
        seen.extend(faults.iter().map(|&f| (*w, f)));
        faults
    });
    seen
}

/// Budgets that end inside the slide: it must stop at the budget, not
/// past it.
#[test]
fn a_slide_cut_off_by_the_budget_settles_exactly() {
    let model = FaultModel::default();
    let device = Device::from_asm(INTO_ZERO_FILL).expect("assembles");
    let mut runner = AttemptRunner::new(&device);
    let points = early_points(4, 61);
    for max_cycles in [9, 10, 11, 599, 600, 601] {
        let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles };
        for &point in &points {
            check(&mut runner, &device, &model, point, &spec, None);
        }
        let oracle = run_attack(&device, &model, GlitchParams::single(0, 0, 0), 1, &spec, None);
        assert_eq!(runner.run_unglitched(&spec), oracle.outcome);
        assert_same(runner.pipe(), &oracle.pipe, &max_cycles);
        assert_eq!(oracle.pipe.cycle(), max_cycles, "the budget ends the run");
    }
}

/// A budget past the end of flash: the slide stops at the region's end
/// and the next fetch, from the non-executable NVM behind it, faults.
#[test]
fn a_slide_into_the_end_of_flash_faults_exactly() {
    let model = FaultModel::default();
    let device = Device::from_asm(INTO_ZERO_FILL).expect("assembles");
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 40_000 };
    let mut runner = AttemptRunner::new(&device);
    for point in cell_points(2, 211, |w, o| GlitchParams::single(2, w, o)) {
        check(&mut runner, &device, &model, point, &spec, None);
    }
    let oracle = run_attack(&device, &model, GlitchParams::single(0, 0, 0), 1, &spec, None);
    assert_eq!(runner.run_unglitched(&spec), oracle.outcome);
    assert_same(runner.pipe(), &oracle.pipe, &"unglitched");
    assert_eq!(oracle.outcome, gd_chipwhisperer::AttackOutcome::Crash, "the fetch faults");
    assert_eq!(oracle.pipe.emu.pc(), gd_backend::layout::NVM_BASE, "at the end of flash");
}

/// The fill is entered with N/Z disagreeing with `r0`, and some glitches
/// skip its first `0x0000`, so the boundary after it can be quiet while
/// N/Z still disagree: nothing may slide until a `0x0000` has executed.
#[test]
fn a_slide_whose_start_has_flags_disagreeing_with_r0_settles_exactly() {
    let model = FaultModel::default();
    let device = Device::from_asm(INTO_ZERO_FILL).expect("assembles");
    let fill = device.entry + device.text.len() as u32;
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 };
    let mut runner = AttemptRunner::new(&device);
    let mut skipped = 0;
    for point in early_points(8, 5) {
        check(&mut runner, &device, &model, point, &spec, None);
        let seen = faults_seen(&device, &model, point, &spec);
        skipped += usize::from(seen.iter().any(|(w, f)| w.addr == fill && *f == StageFault::Skip));
    }
    assert!(skipped >= 4, "{skipped} attempts skip the fill's first halfword");
    let oracle = run_attack(&device, &model, GlitchParams::single(0, 0, 0), 1, &spec, None);
    assert_eq!(runner.run_unglitched(&spec), oracle.outcome);
    assert_same(runner.pipe(), &oracle.pipe, &"unglitched");
}

/// A fetch corruption poisoned inside the glitch window ripens
/// [`FETCH_DEPTH`] instructions later, possibly past the window. Here
/// short runs of `0x0000` sit between instructions it would change, so a
/// slide taken before it ripens would carry it onto the wrong one.
#[test]
fn a_slide_reached_after_a_fetch_corruption_ripens_settles_exactly() {
    const ZERO_RUNS: &str = "
        movs r0, #0x48
        lsls r0, r0, #24
        adds r0, #0x14
        str r0, [r0]            ; trigger
        movs r0, r0
        movs r0, r0
        movs r0, r0
        movs r2, #0xFF
        movs r0, r0
        movs r0, r0
        movs r0, r0
        movs r3, #0xFF
        movs r0, r0
        movs r0, r0
        movs r0, r0
        movs r4, #0xFF
        movs r0, r0
        movs r0, r0
        movs r5, #0xFF          ; the zero fill follows
    ";
    let model = FaultModel::default();
    let device = Device::from_asm(ZERO_RUNS).expect("assembles");
    assert_eq!(device.text[8..10], [0, 0], "`movs r0, r0` is the zero halfword");
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 };
    let mut runner = AttemptRunner::new(&device);
    let mut poisoned = 0;
    for point in early_points(8, 5) {
        check(&mut runner, &device, &model, point, &spec, None);
        let seen = faults_seen(&device, &model, point, &spec);
        poisoned += usize::from(
            seen.iter().any(|(w, f)| w.raw == 0 && matches!(f, StageFault::CorruptFetch { .. })),
        );
    }
    assert!(poisoned >= 20, "{poisoned} attempts poison a fetch from a zero halfword");
}
