//! Automated glitch-parameter tuning (§V-B): find parameters that succeed
//! 10 out of 10 times, starting from a coarse wide-glitch sweep and
//! recursively increasing precision.
//!
//! The paper's algorithm: scan (width, offset) with a 10-cycle glitch that
//! blankets the whole loop; once *some* success is seen, test each
//! individual clock cycle, then refine the neighborhood until a parameter
//! set is 100% reliable (10/10). It reports both the attempt count and the
//! bench wall-clock this corresponds to (each attempt costs a board reset
//! plus serial round-trips — ~95 ms on the paper's rig, inferred from
//! 36,869 attempts ≈ 59 minutes).

use crate::device::Device;
use crate::model::{FaultModel, GlitchParams};
use crate::scan::{AttackOutcome, AttackSpec, AttemptRunner};

/// Wall-clock cost per attempt on the physical rig (seconds).
pub const SECONDS_PER_ATTEMPT: f64 = 0.095;

/// Result of a tuning search.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Total glitch attempts.
    pub attempts: u64,
    /// Total successful glitches observed while searching.
    pub successes: u64,
    /// Parameters that achieved 10/10, if any.
    pub found: Option<GlitchParams>,
    /// Reliability of `found` over the final verification (0..=10).
    pub verified: u32,
}

impl SearchReport {
    /// Bench wall-clock the search would have taken (minutes).
    pub fn minutes(&self) -> f64 {
        self.attempts as f64 * SECONDS_PER_ATTEMPT / 60.0
    }
}

/// Runs the §V-B search against `device`.
///
/// `loop_cycles` is the number of clock cycles one loop iteration spans
/// (the initial blanket glitch covers all of them, exactly as the paper's
/// "10 cycle clock glitch, which encompasses every instruction in the
/// while loop").
pub fn find_reliable_params(
    device: &Device,
    model: &FaultModel,
    spec: &AttackSpec,
    loop_cycles: u32,
) -> SearchReport {
    let mut report = SearchReport { attempts: 0, successes: 0, found: None, verified: 0 };
    let mut boot = 0u64;
    let mut runner = AttemptRunner::new(device);
    let mut try_params = |params: GlitchParams, report: &mut SearchReport| -> bool {
        boot += 1;
        report.attempts += 1;
        let ok = runner.run(model, params, boot, spec, None) == AttackOutcome::Success;
        if ok {
            report.successes += 1;
        }
        ok
    };

    // Phase 1: coarse sweep with a blanket glitch (step 3 over the grid).
    let mut coarse_hits: Vec<GlitchParams> = Vec::new();
    let mut width = -49i32;
    while width <= 49 {
        let mut offset = -49i32;
        while offset <= 49 {
            let params = GlitchParams {
                ext_offset: 0,
                repeat: loop_cycles,
                width: width as i8,
                offset: offset as i8,
            };
            if try_params(params, &mut report) {
                coarse_hits.push(params);
            }
            offset += 3;
        }
        width += 3;
    }

    // Phase 2: per-cycle refinement of each coarse hit, then a fine local
    // neighborhood scan, then 10/10 verification.
    for hit in coarse_hits {
        for cycle in 0..loop_cycles {
            let single = GlitchParams::single(cycle, hit.width, hit.offset);
            if !try_params(single, &mut report) {
                continue;
            }
            // Phase 3: refine the neighborhood at this cycle.
            for dw in -2i32..=2 {
                for do_ in -2i32..=2 {
                    let w = (i32::from(hit.width) + dw).clamp(-49, 49) as i8;
                    let o = (i32::from(hit.offset) + do_).clamp(-49, 49) as i8;
                    let cand = GlitchParams::single(cycle, w, o);
                    if !try_params(cand, &mut report) {
                        continue;
                    }
                    // Verification: 10 fresh attempts.
                    let mut good = 1u32; // the attempt above counts
                    for _ in 0..9 {
                        if try_params(cand, &mut report) {
                            good += 1;
                        }
                    }
                    if good == 10 {
                        report.found = Some(cand);
                        report.verified = good;
                        return report;
                    }
                    report.verified = report.verified.max(good);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{run_attack, SuccessCheck};
    use crate::targets;

    #[test]
    fn search_finds_reliable_parameters_for_while_a() {
        let dev = Device::from_asm(targets::WHILE_A).unwrap();
        let model = FaultModel::default();
        let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 };
        let report = find_reliable_params(&dev, &model, &spec, 10);
        assert!(report.attempts > 100, "the search actually searched");
        assert!(report.successes > 0, "blanket glitches hit something");
        let found = report.found.expect("a 10/10 parameter set exists");
        assert_eq!(report.verified, 10);
        // And it replays reliably outside the search too.
        let mut wins = 0;
        for boot in 1000..1010 {
            let attempt = run_attack(&dev, &model, found, boot, &spec, None);
            if attempt.outcome == crate::scan::AttackOutcome::Success {
                wins += 1;
            }
        }
        assert!(wins >= 9, "found params stay reliable: {wins}/10");
    }

    #[test]
    fn minutes_accounting() {
        let r = SearchReport { attempts: 36_869, successes: 0, found: None, verified: 0 };
        let m = r.minutes();
        assert!((55.0..65.0).contains(&m), "~59 minutes like the paper, got {m:.1}");
    }
}
