//! The trial runners over small hand-assembled images whose control
//! flow runs through `0x0000` halfwords: inside the text, where every
//! fetch must stay visible to the fork walk, and in the flash's zero
//! fill after it, where trials slide to the end of their budget.

mod common;

use common::{fault, image, text_scope};
use gd_backend::layout::FLASH_BASE;
use gd_emu::{Config, InjectKind};
use gd_faultsim::{DivergenceRunner, MultiFaultRunner};
use gd_glitch_emu::Outcome;

/// A spinning baseline (`b .`) is matched only by a trial that still
/// runs at a scoped PC when its budget ends.
#[test]
fn spinning_baseline_is_no_effect_only_in_scope() {
    let image = image("movs r0, #1\nspin:\nb spin\n");
    let mut runner = DivergenceRunner::new(&image, Config::default(), &text_scope(&image), None);
    let spin = FLASH_BASE + 2;

    assert_eq!(runner.run(&[]), Outcome::NoEffect, "the unfaulted run spins in scope");
    // movs r0, #2: a different r0, but still spinning at `spin`.
    let other_r0 = fault(FLASH_BASE, InjectKind::Corrupt { hw: 0x2002 });
    assert_eq!(runner.run(&[other_r0]), Outcome::NoEffect);

    // Skipping the branch, or turning it into `0x0000`, sends the trial
    // into the zero fill after the text, where it runs out its budget.
    assert_eq!(runner.run(&[fault(spin, InjectKind::Skip)]), Outcome::Failed);
    assert_eq!(runner.run(&[fault(spin, InjectKind::Corrupt { hw: 0 })]), Outcome::Failed);
}

/// Zero halfwords inside the text are stepped, not slid: each one's
/// first fetch is recorded, and a fork-walk partner there is forked at.
#[test]
fn zero_halfwords_inside_the_text_stay_visible_to_the_walk() {
    // r0 = BOOT_MARKER, four zeros, then the clean stop.
    let src = "movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\n\
               .hword 0\n.hword 0\n.hword 0\n.hword 0\nbkpt #0\n";
    let image = image(src);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    for (i, step) in (3..=7).enumerate() {
        assert_eq!(runner.first_fetch(FLASH_BASE + 6 + 2 * i as u32), Some(step));
    }

    // A first fault that leaves r0 alone but sets r1 (movs r1, #1 for
    // the first zero), so its trial never rejoins the unfaulted one,
    // then a partner at the third zero that clobbers r0.
    let first = fault(FLASH_BASE + 6, InjectKind::Corrupt { hw: 0x2101 });
    let partner = fault(FLASH_BASE + 10, InjectKind::Corrupt { hw: 0x2001 });
    assert_eq!(runner.run(&[first]), Outcome::NoEffect);
    let mut outcomes = Vec::new();
    let o1 = runner.run(&[partner]);
    let (steps, by) = runner.run_pairs(first, &[(partner, o1)], &mut outcomes);
    assert_eq!(outcomes, [Outcome::Failed]);
    assert_eq!(outcomes[0], runner.run(&[first, partner]));
    assert_eq!((steps.shared, steps.executed, steps.slid, by.trial), (5, 3, 0, 1));
}
