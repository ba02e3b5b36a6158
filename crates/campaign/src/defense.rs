//! Table VI: the effectiveness of GlitchResistor's defenses against
//! single, long, and windowed-long glitch attacks on real (compiled,
//! hardened) firmware. (Moved here from `gd-bench` so the campaign
//! engine can shard and serve the workload; `gd_bench::defense`
//! re-exports this module.)

use std::fmt::Write as _;

use gd_backend::compile;
use gd_chipwhisperer::{
    full_grid, AttackOutcome, AttackSpec, AttemptRunner, Device, FaultModel, GlitchParams,
    SuccessCheck,
};
use gd_firmware::SUCCESS_MARKER;
use gd_ir::Module;
use glitch_resistor::{harden, Config, Defenses};

/// The three attack shapes of Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Single glitch, cycle varied 0..=10 (11 × 9,801 = 107,811 attempts).
    Single,
    /// Long glitch from cycle 0, length 10..=100 step 10 (98,010).
    Long,
    /// 10-cycle window, start varied 0..=10 (107,811).
    Window10,
}

impl Attack {
    /// Attack label as in Table VI.
    pub fn label(self) -> &'static str {
        match self {
            Attack::Single => "Single",
            Attack::Long => "Long",
            Attack::Window10 => "10 Cycles",
        }
    }

    /// The glitch parameter sets this attack sweeps (excluding the grid).
    ///
    /// The paper varies the single-glitch cycle over eleven positions that
    /// span one hardened guard evaluation on its `-Og` build. Our code
    /// generator emits roughly 4x the instructions per IR operation, so the
    /// eleven positions stride by four cycles to cover the same amount of
    /// guard logic; totals stay identical (11 x 9,801 and 10 x 9,801).
    pub fn shapes(self) -> Vec<(u32, u32)> {
        match self {
            Attack::Single => (0..=10).map(|c| (c * 4, 1)).collect(),
            Attack::Long => (1..=10).map(|n| (0, n * 10)).collect(),
            Attack::Window10 => (0..=10).map(|c| (c * 4, 10)).collect(),
        }
    }
}

/// Aggregated results for one (target, defense, attack) cell of Table VI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseCell {
    /// Total attempts.
    pub total: u64,
    /// Successful breaches.
    pub successes: u64,
    /// Detected attempts.
    pub detections: u64,
    /// Crashes/resets.
    pub crashes: u64,
}

impl DefenseCell {
    /// Success rate (percent).
    pub fn success_rate(&self) -> f64 {
        100.0 * self.successes as f64 / self.total.max(1) as f64
    }

    /// Detection rate: det / (det + suc), as the paper defines it.
    pub fn detection_rate(&self) -> f64 {
        let d = self.detections + self.successes;
        if d == 0 {
            0.0
        } else {
            100.0 * self.detections as f64 / d as f64
        }
    }
}

/// Hardens `module` with `defenses` and compiles it to an attack target.
///
/// # Panics
///
/// Panics if the firmware fails to harden or lower — these are fixtures.
pub fn hardened_device(module: &Module, defenses: Defenses) -> Device {
    let mut m = module.clone();
    harden(&mut m, &Config::new(defenses));
    let image = compile(&m, "main").expect("hardened firmware lowers");
    Device::from_image(&image)
}

/// Determines a per-attempt cycle budget: boot-to-trigger plus slack for
/// the glitch window and the detection path.
pub fn budget_for(device: &Device) -> u64 {
    let mut pipe = device.boot();
    pipe.run(2_000_000);
    let trigger = pipe.trigger_cycle().unwrap_or(0);
    trigger + 4_000
}

/// Runs one Table VI cell: every attack shape × the full 99×99 grid,
/// threading NVM (the delay seed) across attempts like a real campaign
/// against one physical board. The board boots once; each attempt
/// restores its power-on state and re-applies the threaded NVM.
pub fn run_cell(device: &Device, model: &FaultModel, attack: Attack) -> DefenseCell {
    let spec = AttackSpec {
        success: SuccessCheck::HaltWithR0(SUCCESS_MARKER),
        max_cycles: budget_for(device),
    };
    let grid = full_grid();
    let mut runner = AttemptRunner::new(device);
    let mut cell = DefenseCell::default();
    let mut nvm: Vec<u8> = Vec::new();
    let mut boot = 0u64;
    for (start, repeat) in attack.shapes() {
        for &(width, offset) in &grid {
            boot += 1;
            cell.total += 1;
            if model.severity(width, offset) == 0.0 {
                continue; // cannot fault; the board would boot and idle
            }
            let params = GlitchParams { ext_offset: start, repeat, width, offset };
            match runner.run(model, params, boot, &spec, Some(&mut nvm)) {
                AttackOutcome::Success => cell.successes += 1,
                AttackOutcome::Detected => cell.detections += 1,
                AttackOutcome::Crash | AttackOutcome::Reset => cell.crashes += 1,
                AttackOutcome::NoEffect => {}
            }
        }
    }
    cell
}

/// One Table VI block: a target under All and All\Delay, three attacks.
pub struct Table6Block {
    /// Target name.
    pub target: &'static str,
    /// Rows: (attack, defenses label, cell).
    pub rows: Vec<(Attack, &'static str, DefenseCell)>,
}

/// Runs the full Table VI.
///
/// Each (attack, defense-set) cell is an independent ~100k-attempt
/// campaign, so the six cells per target fan out across [`gd_exec`]
/// workers. *Within* a cell, [`run_cell`] stays strictly serial: it
/// threads NVM (the random-delay seed) from attempt to attempt like a
/// campaign against one physical board, a cross-attempt dependency that
/// cannot be partitioned. Row order is fixed, so output is byte-identical
/// to the serial driver.
pub fn table6(model: &FaultModel) -> Vec<Table6Block> {
    let attacks = [Attack::Single, Attack::Long, Attack::Window10];
    gd_firmware::table6_targets()
        .into_iter()
        .map(|(target, module)| {
            let all = hardened_device(&module, Defenses::ALL);
            let nodelay = hardened_device(&module, Defenses::ALL_EXCEPT_DELAY);
            let cells: Vec<(Attack, &'static str, &Device)> = attacks
                .iter()
                .flat_map(|&attack| [(attack, "All", &all), (attack, "All\\Delay", &nodelay)])
                .collect();
            let rows = gd_exec::par_map(&cells, |&(attack, label, device)| {
                (attack, label, run_cell(device, model, attack))
            });
            Table6Block { target, rows }
        })
        .collect()
}

/// Renders one Table VI block in the paper's layout.
pub fn render_table6_block(block: &Table6Block) -> String {
    let mut out = crate::report::heading_str(&format!("Table VI — defenses vs {}", block.target));
    writeln!(
        out,
        "{:<10} {:<10} {:>9} {:>10} {:>12} {:>11} {:>10}",
        "Attack", "Defenses", "Total", "Successes", "Succ. rate", "Detections", "Det. rate"
    )
    .unwrap();
    for (attack, cfg, cell) in &block.rows {
        writeln!(
            out,
            "{:<10} {:<10} {:>9} {:>10} {:>11.5}% {:>11} {:>9.1}%",
            attack.label(),
            cfg,
            cell.total,
            cell.successes,
            cell.success_rate(),
            cell.detections,
            cell.detection_rate()
        )
        .unwrap();
    }
    out
}

/// Renders the full Table VI.
pub fn render_table6(blocks: &[Table6Block]) -> String {
    blocks.iter().map(render_table6_block).collect()
}

/// Prints Table VI (legacy CLI surface over [`render_table6`]).
pub fn print_table6(blocks: &[Table6Block]) {
    print!("{}", render_table6(blocks));
}

/// The unprotected baseline for the same targets (contextual row).
pub fn unprotected_cell(module: &Module, model: &FaultModel, attack: Attack) -> DefenseCell {
    let image = compile(module, "main").expect("firmware lowers");
    let device = Device::from_image(&image);
    run_cell(&device, model, attack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_chipwhisperer::run_attack;

    #[test]
    fn attack_shapes_match_the_papers_totals() {
        assert_eq!(Attack::Single.shapes().len() * 9801, 107_811);
        assert_eq!(Attack::Long.shapes().len() * 9801, 98_010);
        assert_eq!(Attack::Window10.shapes().len() * 9801, 107_811);
    }

    /// A reduced single-glitch campaign (1-D slice through the strongest
    /// violation lobe) — the full 107,811-attempt sweep lives in the
    /// `table6` binary.
    fn mini_campaign(device: &Device, model: &FaultModel) -> DefenseCell {
        let spec = AttackSpec {
            success: SuccessCheck::HaltWithR0(gd_firmware::SUCCESS_MARKER),
            max_cycles: budget_for(device),
        };
        let mut cell = DefenseCell::default();
        let mut boot = 0u64;
        for cycle in 0..40u32 {
            for (w, o) in [(12i8, -18i8), (11, -17), (13, -19), (-34, 22), (-35, 23)] {
                boot += 1;
                cell.total += 1;
                let attempt =
                    run_attack(device, model, GlitchParams::single(cycle, w, o), boot, &spec, None);
                match attempt.outcome {
                    AttackOutcome::Success => cell.successes += 1,
                    AttackOutcome::Detected => cell.detections += 1,
                    AttackOutcome::Crash | AttackOutcome::Reset => cell.crashes += 1,
                    AttackOutcome::NoEffect => {}
                }
            }
        }
        cell
    }

    /// The boot-once runner `run_cell` uses equals boot-per-attempt
    /// `run_attack` over a slice of a Table VI cell, NVM (the delay seed)
    /// threaded through both.
    #[test]
    fn the_attempt_runner_matches_run_attack_with_nvm_threaded() {
        let model = FaultModel::default();
        let device = hardened_device(&gd_firmware::while_not_a(), Defenses::ALL);
        let spec = AttackSpec {
            success: SuccessCheck::HaltWithR0(SUCCESS_MARKER),
            max_cycles: budget_for(&device),
        };
        let mut runner = AttemptRunner::new(&device);
        let (mut nvm_oracle, mut nvm_runner) = (Vec::new(), Vec::new());
        let mut boot = 0u64;
        let mut outcomes = std::collections::BTreeSet::new();
        for (start, repeat) in [(0, 1), (8, 10)] {
            let points = full_grid().into_iter().filter(|&(w, o)| model.severity(w, o) > 0.0);
            for (width, offset) in points.step_by(12) {
                boot += 1;
                let params = GlitchParams { ext_offset: start, repeat, width, offset };
                let oracle =
                    run_attack(&device, &model, params, boot, &spec, Some(&mut nvm_oracle));
                let outcome = runner.run(&model, params, boot, &spec, Some(&mut nvm_runner));
                assert_eq!(outcome, oracle.outcome, "{params:?}");
                assert_eq!(nvm_runner, nvm_oracle, "{params:?}");
                assert_eq!(runner.pipe().cycle(), oracle.pipe.cycle(), "{params:?}");
                assert_eq!(runner.pipe().emu.cpu, oracle.pipe.emu.cpu, "{params:?}");
                outcomes.insert(format!("{outcome:?}"));
            }
        }
        assert!(boot > 200 && outcomes.len() >= 2, "{boot} attempts, outcomes {outcomes:?}");
    }

    #[test]
    fn defenses_crush_single_glitch_success_on_the_guard() {
        let model = FaultModel::default();
        let module = gd_firmware::while_not_a();
        let plain = compile(&module, "main").expect("firmware lowers");
        let unprotected = mini_campaign(&Device::from_image(&plain), &model);
        let protected =
            mini_campaign(&hardened_device(&module, Defenses::ALL_EXCEPT_DELAY), &model);
        assert!(unprotected.successes > 0, "the bare guard is glitchable");
        assert!(
            protected.successes * 3 <= unprotected.successes,
            "hardening cuts single-glitch successes sharply: {} vs {}",
            protected.successes,
            unprotected.successes
        );
        assert!(
            protected.detections > protected.successes,
            "most surviving faults are detected ({} det vs {} suc)",
            protected.detections,
            protected.successes
        );
    }
}
