//! Differential tests of the boot-once [`AttemptRunner`] against the
//! boot-per-attempt oracle [`run_attack`]: same outcome and same final
//! device state, attempt after attempt on one runner.

use gd_chipwhisperer::{
    full_grid, run_attack, targets, AttackSpec, AttemptRunner, Device, FaultModel, GlitchParams,
    SuccessCheck,
};
use gd_pipeline::Pipeline;

/// Everything an attempt leaves behind that a scan or campaign can read.
fn state(pipe: &Pipeline) -> impl PartialEq + std::fmt::Debug {
    let memory: Vec<Vec<u8>> = pipe.emu.mem.regions().iter().map(|r| r.data().to_vec()).collect();
    (
        pipe.cycle(),
        pipe.retired(),
        pipe.trigger_cycles().to_vec(),
        pipe.emu.cpu.clone(),
        pipe.emu.pc(),
        pipe.emu.steps(),
        memory,
    )
}

/// One multi-glitch cell (Table II's doubled guard at cycle 4), with the
/// boot numbering of `scan_multi_cell`: every point that can fault, plus
/// a sample of in-region points that cannot.
#[test]
fn the_runner_matches_run_attack_over_a_multi_glitch_cell() {
    let dev = Device::from_asm(&targets::while_not_a_doubled()).unwrap();
    let model = FaultModel::default();
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 1_200 };
    let cycle = 4;
    let boot_base = full_grid().len() as u64;
    let mut runner = AttemptRunner::new(&dev);
    let mut compared = 0;
    for (j, (width, offset)) in full_grid().into_iter().enumerate() {
        let params = GlitchParams::single(cycle, width, offset);
        if model.severity(width, offset) == 0.0 || (!model.may_fault(&params) && j % 16 != 0) {
            continue;
        }
        let boot = boot_base + j as u64 + 1;
        let oracle = run_attack(&dev, &model, params, boot, &spec, None);
        let outcome = runner.run(&model, params, boot, &spec, None);
        assert_eq!(outcome, oracle.outcome, "{params:?}");
        assert_eq!(state(runner.pipe()), state(&oracle.pipe), "{params:?}");
        compared += 1;
    }
    assert!(compared > 200, "{compared} attempts compared");
}

/// NVM threading through the runner, including attempts without threaded
/// state after ones with it: the runner must then power on with fresh
/// NVM, as a fresh boot does.
#[test]
fn the_runner_threads_and_drops_nvm_like_fresh_boots() {
    let src = "
        ldr r0, =0x0800F000
        ldr r1, [r0]
        adds r1, #1
        str r1, [r0]
        mov r2, r1
        bkpt #1
    ";
    let dev = Device::from_asm(src).unwrap();
    let model = FaultModel::default();
    let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 1_000_000 };
    let params = GlitchParams::single(0, 0, 0);
    let mut runner = AttemptRunner::new(&dev);
    let (mut nvm_oracle, mut nvm_runner) = (Vec::new(), Vec::new());
    for (boot, thread) in [true, true, false, true, false, false, true].into_iter().enumerate() {
        let boot = boot as u64 + 1;
        let (oracle, outcome) = if thread {
            let oracle = run_attack(&dev, &model, params, boot, &spec, Some(&mut nvm_oracle));
            (oracle, runner.run(&model, params, boot, &spec, Some(&mut nvm_runner)))
        } else {
            (
                run_attack(&dev, &model, params, boot, &spec, None),
                runner.run(&model, params, boot, &spec, None),
            )
        };
        assert_eq!(outcome, oracle.outcome, "attempt {boot}");
        assert_eq!(state(runner.pipe()), state(&oracle.pipe), "attempt {boot}");
        assert_eq!(nvm_runner, nvm_oracle, "attempt {boot}");
    }
    assert_eq!(runner.pipe().emu.cpu.reg(gd_thumb::Reg::R2), 4, "three threaded attempts before");

    // Firmware that only reads NVM never dirties its page, so the loaded
    // state is not rolled back by the restore itself.
    let dev = Device::from_asm("ldr r0, =0x0800F000\nldr r2, [r0]\nbkpt #1\n").unwrap();
    let mut runner = AttemptRunner::new(&dev);
    let mut seeded = vec![0u8; 0x1000];
    seeded[0] = 7;
    for (boot, (nvm, r2)) in
        [(Some(seeded), 7), (None, 0), (Some(Vec::new()), 0)].into_iter().enumerate()
    {
        let boot = boot as u64 + 1;
        let (mut a, mut b) = (nvm.clone(), nvm);
        let oracle = run_attack(&dev, &model, params, boot, &spec, a.as_mut());
        let outcome = runner.run(&model, params, boot, &spec, b.as_mut());
        assert_eq!(outcome, oracle.outcome, "read-only attempt {boot}");
        assert_eq!(state(runner.pipe()), state(&oracle.pipe), "read-only attempt {boot}");
        assert_eq!(runner.pipe().emu.cpu.reg(gd_thumb::Reg::R2), r2, "read-only attempt {boot}");
    }
}
