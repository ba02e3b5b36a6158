//! Figure 2: exhaustive bit-flip sweeps over every Thumb conditional
//! branch, under the AND (1→0), OR (0→1), and AND-with-`0x0000`-invalid
//! fault models. (Moved here from `gd-bench` so the campaign engine can
//! shard and serve the workload; `gd_bench::fig2` re-exports this
//! module.)

use std::fmt::Write as _;

use gd_emu::Config;
use gd_glitch_emu::{branch_case, sweep_case, Direction, Outcome, SweepResult};
use gd_thumb::Cond;

/// One Figure 2 panel: every branch's sweep under one fault model.
#[derive(Debug)]
pub struct Panel {
    /// Panel label (e.g. `"AND"`).
    pub label: &'static str,
    /// Per-branch sweeps, in `Cond::ALL` order.
    pub sweeps: Vec<SweepResult>,
}

impl Panel {
    /// The aggregate success rate over all branches and all k ≥ 1.
    pub fn overall_success(&self) -> f64 {
        let mut total = 0u64;
        let mut success = 0u64;
        for s in &self.sweeps {
            let agg = s.aggregate();
            total += agg.total();
            success += agg.count(Outcome::Success);
        }
        100.0 * success as f64 / total.max(1) as f64
    }
}

/// The four published panel configurations, in output order: label,
/// flip direction, emulator config.
pub fn panel_configs() -> Vec<(&'static str, Direction, Config)> {
    vec![
        ("AND (2a)", Direction::And, Config::default()),
        ("OR (2b)", Direction::Or, Config::default()),
        (
            "AND, 0x0000 invalid (2c)",
            Direction::And,
            Config { zero_is_invalid: true, ..Config::default() },
        ),
        ("XOR (discussed in §IV)", Direction::Xor, Config::default()),
    ]
}

/// Runs one panel. `conds` limits the sweep (tests use a subset).
///
/// The per-branch sweeps are independent 2¹⁶-execution jobs, so they fan
/// out across [`gd_exec`] workers; results come back in `conds` order,
/// keeping the printed panel byte-identical to a serial run. (The inner
/// mask-space fan-out in [`sweep_case`] detects the nesting and stays
/// serial inside each worker.)
pub fn panel(label: &'static str, direction: Direction, cfg: Config, conds: &[Cond]) -> Panel {
    let sweeps = gd_exec::par_map(conds, |&c| sweep_case(&branch_case(c), direction, cfg));
    Panel { label, sweeps }
}

/// Renders a panel in Figure 2's structure: success-rate-by-k series plus
/// the failure histogram.
pub fn render_panel(p: &Panel) -> String {
    let mut out = crate::report::heading_str(&format!("Figure 2 — {}", p.label));
    write!(out, "{:<6}", "instr").unwrap();
    for k in 0..=16 {
        write!(out, " {k:>5}").unwrap();
    }
    writeln!(out, "   (success % by number of flipped bits)").unwrap();
    for s in &p.sweeps {
        write!(out, "{:<6}", s.name).unwrap();
        for t in &s.per_k {
            write!(out, " {:>5.1}", t.success_rate()).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "instr", "Success", "BadRead", "Invalid", "BadFetch", "Failed", "NoEffect"
    )
    .unwrap();
    for s in &p.sweeps {
        let agg = s.aggregate();
        let total = agg.total().max(1) as f64;
        let f = |o: Outcome| 100.0 * agg.count(o) as f64 / total;
        writeln!(
            out,
            "{:<6} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            s.name,
            f(Outcome::Success),
            f(Outcome::BadRead),
            f(Outcome::InvalidInstruction),
            f(Outcome::BadFetch),
            f(Outcome::Failed),
            f(Outcome::NoEffect),
        )
        .unwrap();
    }
    writeln!(out, "overall success: {:.2}%", p.overall_success()).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_sits_between_and_and_or() {
        let conds = [Cond::Eq, Cond::Ne];
        let and = panel("AND", Direction::And, Config::default(), &conds);
        let or = panel("OR", Direction::Or, Config::default(), &conds);
        let xor = panel("XOR", Direction::Xor, Config::default(), &conds);
        // Over all fourteen branches XOR lands between the two (41.7% vs
        // 42.5%/10.4%); on this two-branch test subset it may graze AND, so
        // allow a small tolerance on the upper side.
        assert!(
            xor.overall_success() > or.overall_success()
                && xor.overall_success() < and.overall_success() + 2.0,
            "paper §IV: XOR between AND ({:.1}%) and OR ({:.1}%), got {:.1}%",
            and.overall_success(),
            or.overall_success(),
            xor.overall_success()
        );
    }

    #[test]
    fn panel_shapes_match_the_paper() {
        // A two-branch subset keeps the test fast; shape assertions follow
        // the paper's Figure 2 claims.
        let conds = [Cond::Eq, Cond::Ne];
        let and = panel("AND", Direction::And, Config::default(), &conds);
        let or = panel("OR", Direction::Or, Config::default(), &conds);
        let and0 = panel(
            "AND0",
            Direction::And,
            Config { zero_is_invalid: true, ..Config::default() },
            &conds,
        );
        assert!(and.overall_success() > or.overall_success());
        // Figure 2c: making 0x0000 invalid barely moves the AND rate.
        let delta = (and.overall_success() - and0.overall_success()).abs();
        assert!(delta < 3.0, "0x0000-invalid changes little: Δ={delta:.2}");
    }
}
