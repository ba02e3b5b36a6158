//! Differential tests pinning the sweep fast path ([`PerturbRunner`]:
//! predecoded dispatch + snapshot replay) to the interpreter reference
//! ([`run_perturbed`]: fresh emulator + live decode per trial), across
//! every Figure 2 test case, direction, and panel configuration.

use gd_emu::Config;
use gd_glitch_emu::masks::ChooseBits;
use gd_glitch_emu::{
    all_branch_cases, run_perturbed, sweep_case, sweep_k_serial, Direction, PerturbRunner, Tally,
    TestCase,
};

/// The (direction, config) pairs of the four Figure 2 panels.
fn panels() -> [(Direction, Config); 4] {
    [
        (Direction::And, Config::default()),
        (Direction::Or, Config::default()),
        (Direction::And, Config { zero_is_invalid: true, ..Config::default() }),
        (Direction::Xor, Config::default()),
    ]
}

/// Every case × panel, on a spread of masks: the fast path classifies
/// each trial exactly as the interpreter does. Full 2^16 coverage per
/// combination would take minutes in debug builds; k ∈ {1, 8, 16} plus a
/// stride through C(16, 8) covers single flips, the densest mask band,
/// and the all-bits edge for all 56 combinations.
#[test]
fn fast_path_matches_interpreter_across_figure2() {
    for case in all_branch_cases() {
        let hw = case.target_halfword();
        for (direction, cfg) in panels() {
            let mut runner = PerturbRunner::new(&case, cfg);
            let mut check = |mask: u16| {
                let perturbed = direction.apply(hw, mask);
                assert_eq!(
                    runner.run(perturbed),
                    run_perturbed(&case, perturbed, cfg),
                    "{} {direction:?} {cfg:?} mask={mask:#06x}",
                    case.name,
                );
            };
            for mask in ChooseBits::new(16, 1) {
                check(mask as u16);
            }
            for mask in ChooseBits::new(16, 8).step_by(97) {
                check(mask as u16);
            }
            check(0xFFFF);
            check(0x0000);
        }
    }
}

/// The halfword memo is exact: a full-case sweep, which runs each
/// distinct perturbed halfword once and looks every mask up, tallies
/// every k as the serial interpreter sweep of that k does, on all four
/// panels. The case with the most one-bits in its branch has the largest
/// AND set of distinct halfwords; the one with the fewest, the largest
/// OR set.
#[test]
fn memoized_case_sweep_matches_serial_per_k() {
    let cases = all_branch_cases();
    let ones = |c: &&TestCase| c.target_halfword().count_ones();
    let most = cases.iter().max_by_key(ones).expect("cases");
    let fewest = cases.iter().min_by_key(ones).expect("cases");
    assert_ne!(most.name, fewest.name);
    for case in [most, fewest] {
        for (direction, cfg) in panels() {
            let swept = sweep_case(case, direction, cfg);
            let serial: Vec<Tally> =
                (0..=16).map(|k| sweep_k_serial(case, direction, k, cfg)).collect();
            assert_eq!(swept.per_k, serial, "{} {direction:?} {cfg:?}", case.name);
        }
    }
}

/// Back-to-back trials through one runner are independent: replaying a
/// mask after an unrelated trial (which may have dirtied SRAM or halted
/// mid-program) reproduces the first classification.
#[test]
fn runner_trials_are_independent() {
    let case = &all_branch_cases()[0];
    let cfg = Config::default();
    let hw = case.target_halfword();
    let mut runner = PerturbRunner::new(case, cfg);
    let masks: Vec<u16> = ChooseBits::new(16, 3).step_by(41).map(|m| m as u16).collect();
    let first: Vec<_> = masks.iter().map(|&m| runner.run(direction_and(hw, m))).collect();
    let replay: Vec<_> = masks.iter().map(|&m| runner.run(direction_and(hw, m))).collect();
    assert_eq!(first, replay);
}

fn direction_and(hw: u16, mask: u16) -> u16 {
    Direction::And.apply(hw, mask)
}
