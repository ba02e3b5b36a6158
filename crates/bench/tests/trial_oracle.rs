//! The emulator trial kernel ([`gd_emu::Replay`]) against interpreter
//! oracles.
//!
//! A faultsim trial must classify exactly as one run from reset on the
//! live decode path ([`Emu::step`]) with the same faults armed, the same
//! store watch and the same classifier: no snapshot, no predecoded
//! table, no zero-fill slide. Programs that never reach the snapshot
//! point fall back to the reset state, in the Figure 2 runner and the
//! faultsim runners alike.

use std::collections::BTreeMap;

use gd_backend::layout::{FLASH_BASE, SRAM_BASE};
use gd_backend::{FirmwareImage, SectionSizes};
use gd_emu::{Config, Emu, InjectKind, Persistence, StepOutcome, Trial};
use gd_faultsim::runner::COMPROMISE_VALUE;
use gd_faultsim::{
    boot_campaign, halfword_slots, prune_model, sites, DivergenceRunner, FaultInstance,
    MultiFaultRunner, Registry, MF_TRIAL_STEPS,
};
use gd_glitch_emu::{run_perturbed, Outcome, PerturbRunner, TestCase};
use gd_ingest::testimg::{DEMO_BASE, DEMO_WATCH};
use gd_thumb::asm::assemble;

/// The reference trial: `image` booted from reset with `faults` armed,
/// stepped live until it stops, faults or spends [`MF_TRIAL_STEPS`],
/// with `watch` on its stores. Returns the final state for a runner's
/// classifier.
fn interpret(
    image: &FirmwareImage,
    cfg: Config,
    faults: &[FaultInstance],
    watch: Option<(u32, u32)>,
) -> (Emu, Trial) {
    let mut emu = image.boot_emu();
    emu.cfg = cfg;
    for f in faults {
        emu.inject(f.injection());
    }
    let mut trial = Trial::new(MF_TRIAL_STEPS);
    while !trial.ended() {
        trial.left -= 1;
        match emu.step() {
            Ok(StepOutcome::Step(s)) => trial.watched |= watch.is_some() && s.store == watch,
            Ok(StepOutcome::Stop { reason, .. }) => trial.end = Some(Ok(reason)),
            Err(f) => trial.end = Some(Err(f)),
        }
    }
    (emu, trial)
}

/// Every `stride`-th live representative of every registry model over
/// the boot firmware, alone and paired with the next one sampled at
/// another site: [`MultiFaultRunner::run`] equals the reference trial.
fn boot_matches_interpreter(stride: usize) {
    let campaign = boot_campaign();
    let mut runner = campaign.runner();
    let watch = Some((campaign.image.symbol("uart_out"), COMPROMISE_VALUE));
    let mut checked = 0;
    for mc in &campaign.per_model {
        let reps: Vec<_> = mc
            .classes
            .iter()
            .filter(|c| c.outcome.is_none())
            .map(|c| c.rep())
            .step_by(stride)
            .collect();
        let pairs = reps.windows(2).filter(|w| w[0].site != w[1].site).map(|w| vec![w[0], w[1]]);
        for faults in reps.iter().map(|&f| vec![f]).chain(pairs) {
            let (emu, trial) = interpret(&campaign.image, campaign.cfg, &faults, watch);
            let want = MultiFaultRunner::classify(&emu, &trial);
            assert_eq!(runner.run(&faults), want, "{} {faults:?}", mc.name);
            checked += 1;
        }
    }
    assert!(checked > campaign.per_model.len(), "sampled {checked} trials");
}

/// Every `stride`-th live representative of every registry model over
/// the ingested `testdata/ingest_demo.bin`, watching [`DEMO_WATCH`]:
/// [`DivergenceRunner::run`] equals the reference trial.
fn ingest_matches_interpreter(stride: usize) {
    let bin = include_bytes!("../../../testdata/ingest_demo.bin");
    let image = gd_ingest::ingest_bin(bin, DEMO_BASE).expect("the demo image ingests").image;
    let cfg = Config { wide: true, ..Config::default() };
    let funcs: Vec<&str> = image.extents.iter().map(|e| e.name.as_str()).collect();
    let ranges: Vec<(u32, u32)> = image.extents.iter().map(|e| (e.base, e.end)).collect();
    let (scope_sites, slots) = (sites(&image, cfg, &funcs), halfword_slots(&image, &funcs));
    let mut runner = DivergenceRunner::new(&image, cfg, &ranges, Some(DEMO_WATCH));
    let mut checked = 0;
    for (i, model) in Registry::standard().models().iter().enumerate() {
        let mc = prune_model(i, model.as_ref(), &scope_sites, slots, cfg);
        let live = mc.classes.iter().filter(|c| c.outcome.is_none());
        for f in live.map(|c| c.rep()).step_by(stride) {
            let (emu, trial) = interpret(&image, cfg, &[f], Some(DEMO_WATCH));
            assert_eq!(runner.run(&[f]), runner.classify(&emu, &trial), "{} {f:?}", mc.name);
            checked += 1;
        }
    }
    assert!(checked > 0, "sampled no trial");
}

#[test]
fn boot_trials_match_the_interpreter_on_a_sample() {
    boot_matches_interpreter(16);
}

#[test]
fn ingest_trials_match_the_interpreter_on_a_sample() {
    ingest_matches_interpreter(8);
}

/// The whole live space of both images; `scripts/ci.sh` runs it in
/// release.
#[test]
#[ignore = "full fault space: run in release"]
fn trials_match_the_interpreter_over_the_full_space() {
    boot_matches_interpreter(1);
    ingest_matches_interpreter(1);
}

/// A program that reads its `target` halfword as data and runs to the
/// target only if it is `0x0000`, running `before` otherwise. The
/// unperturbed run never gets there (nor to the `nop`, since
/// [`PerturbRunner`] starts at the halfword before its target), so every
/// runner snapshots at reset, where a poked target is still seen.
fn never_reaching_target(before: &str) -> String {
    format!(
        "ldr r1, =target\nldrh r2, [r1]\ncmp r2, #0\nbeq target\n{before}\nnop\n\
         target:\nb normal\n\
         movs r2, #0xde\nlsls r2, r2, #8\nadds r2, #0xad\nbkpt #1\n\
         normal:\nmovs r3, #0xaa\nlsls r3, r3, #8\nadds r3, #0xaa\nbkpt #2\n"
    )
}

/// Each program that never reaches its target — it stops at a
/// breakpoint, faults on a load from the target halfword taken as an
/// address, or spins past every budget — through every runner: each
/// snapshots at reset, and every trial equals its reference. The
/// faulting program has no divergence baseline
/// ([`DivergenceRunner::new`] rejects one that faults).
#[test]
fn runners_fall_back_to_reset() {
    let cfg = Config::default();
    let watch = Some((SRAM_BASE, COMPROMISE_VALUE));
    for (name, before) in
        [("stops", "bkpt #3"), ("faults", "ldr r3, [r2]"), ("spins", "spin: b spin")]
    {
        let program = assemble(&never_reaching_target(before), FLASH_BASE).expect("assembles");
        let target = program.symbols["target"];
        let image = FirmwareImage {
            sizes: SectionSizes { text: program.code.len() as u32, ..SectionSizes::default() },
            text: program.code.clone(),
            text_base: FLASH_BASE,
            data: Vec::new(),
            symbols: BTreeMap::from([("uart_out".to_owned(), SRAM_BASE)]),
            entry: FLASH_BASE,
            global_sections: BTreeMap::new(),
            extents: Vec::new(),
        };
        let case = TestCase { name: name.into(), program, target_addr: target };
        let mut perturb = PerturbRunner::new(&case, cfg);
        assert_eq!(run_perturbed(&case, 0x0000, cfg), Outcome::Success, "{name}");
        for hw in (0..=u16::MAX).step_by(13).chain([0x0000, case.target_halfword()]) {
            assert_eq!(perturb.run(hw), run_perturbed(&case, hw, cfg), "{name} {hw:#06x}");
        }

        let scope = [(target, FLASH_BASE + image.text.len() as u32)];
        let mut multi = MultiFaultRunner::new(&image, cfg, &scope);
        let mut divergence =
            (name != "faults").then(|| DivergenceRunner::new(&image, cfg, &scope, watch));
        assert_eq!(multi.replayed(), 0, "{name}");
        assert_eq!(divergence.as_ref().map_or(0, DivergenceRunner::replayed), 0, "{name}");
        for kind in
            [InjectKind::Skip, InjectKind::Corrupt { hw: 0 }, InjectKind::Corrupt { hw: 0xBF00 }]
        {
            let f = [FaultInstance { site: target, kind, persistence: Persistence::Permanent }];
            let (emu, trial) = interpret(&image, cfg, &f, watch);
            assert_eq!(multi.run(&f), MultiFaultRunner::classify(&emu, &trial), "{name} {f:?}");
            if let Some(d) = &mut divergence {
                assert_eq!(d.run(&f), d.classify(&emu, &trial), "{name} {f:?}");
            }
        }
    }
}
