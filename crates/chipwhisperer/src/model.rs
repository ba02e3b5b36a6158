//! The clock-glitch fault physics, calibrated against the paper's measured
//! behavior (§V).
//!
//! A clock glitch is parameterized exactly like the ChipWhisperer's: the
//! *ext offset* (which clock cycle after the trigger), the glitch *width*
//! and *offset* within the cycle, both scanned over ±49% (§V-A: "9,801
//! glitching attempts per clock cycle"). Whether an inserted edge actually
//! violates timing depends on where it lands relative to the target's
//! setup/hold windows — physically, a narrow *violation region* in
//! (width, offset) space. Inside the region, the dominant observable
//! effects on this class of core are (paper §IV/§V, [48], [4]):
//!
//! - corrupted instruction encodings, biased strongly toward 1→0 flips;
//! - data-bus corruption on loads (stale "residue" values — the paper's
//!   post-mortems show 0x08, 0x55, 0x68, 0xFF and address fragments);
//! - outright instruction skips;
//! - brown-outs that reset the chip.
//!
//! Everything is a deterministic function of `(seed, width, offset, cycle,
//! boot)`, so scans are reproducible landscapes, like real silicon.

use gd_emu::LoadOverride;
use gd_pipeline::{StageFault, Window};

use crate::rng::{hash_words, Rng};

/// One glitch configuration (the knobs of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlitchParams {
    /// Clock cycles after the trigger where the glitch starts.
    pub ext_offset: u32,
    /// Number of consecutive cycles glitched (1 = single glitch; the long
    /// glitch of §V-D uses 10–20; §VII uses up to 100).
    pub repeat: u32,
    /// Glitch width, −49..=49 (% of a clock period).
    pub width: i8,
    /// Glitch offset into the cycle, −49..=49 (%).
    pub offset: i8,
}

impl GlitchParams {
    /// A single-cycle glitch.
    pub fn single(ext_offset: u32, width: i8, offset: i8) -> GlitchParams {
        GlitchParams { ext_offset, repeat: 1, width, offset }
    }

    /// The glitched relative-cycle range.
    pub fn cycles(&self) -> core::ops::Range<u64> {
        u64::from(self.ext_offset)..u64::from(self.ext_offset) + u64::from(self.repeat)
    }
}

/// Tunable fault-model constants. The defaults reproduce the paper's
/// observed magnitudes (single-glitch success in the 0.3–0.8% band on
/// unprotected loop guards).
#[derive(Debug, Clone, Copy)]
pub struct FaultModel {
    /// Landscape seed (a different chip/bench setup).
    pub seed: u64,
    /// Peak probability that an in-region glitch produces any fault.
    pub peak_fault_rate: f64,
    /// Minimum per-bit 1→0 clear probability for encoding corruption.
    pub bit_clear_min: f64,
    /// Maximum additional per-bit clear probability at full severity.
    pub bit_clear_span: f64,
}

impl Default for FaultModel {
    fn default() -> FaultModel {
        FaultModel {
            seed: 0x00DF_AA17,
            peak_fault_rate: 0.45,
            bit_clear_min: 0.08,
            bit_clear_span: 0.35,
        }
    }
}

/// Bus residue values observed in the paper's Table I post-mortems: stale
/// prefetch bytes and bus noise.
pub const RESIDUE_POOL: [u32; 6] = [0x08, 0x55, 0x68, 0x21, 0xFF, 0x00];

impl FaultModel {
    /// The violation-region severity at `(width, offset)` ∈ [0, 1]:
    /// zero almost everywhere, with two narrow lobes where the inserted
    /// edge lands near a timing boundary.
    pub fn severity(&self, width: i8, offset: i8) -> f64 {
        let w = f64::from(width);
        let o = f64::from(offset);
        // Lobe 1: short positive widths with early offsets.
        let l1 = gauss(w, 12.0, 4.0) * gauss(o, -18.0, 9.0);
        // Lobe 2: wide negative widths with late offsets.
        let l2 = gauss(w, -34.0, 5.0) * gauss(o, 22.0, 11.0);
        let s = l1 + 0.8 * l2;
        if s < 0.05 {
            0.0
        } else {
            s.min(1.0)
        }
    }

    /// The occurrence hash at relative glitch cycle `g` when a fault
    /// happens there at all, given the point's `severity`.
    ///
    /// Fault occurrence is parameter-deterministic: the same (w, o, g)
    /// point behaves consistently across attempts (a real "sweet spot").
    /// It depends on the seed, width, offset and cycle only — never on
    /// the boot nonce or the instruction in flight.
    fn occurrence(&self, params: &GlitchParams, g: u64, severity: f64) -> Option<u64> {
        if severity == 0.0 {
            return None;
        }
        let occur =
            hash_words(&[self.seed, params.width as u64 & 0xFF, params.offset as u64 & 0xFF, g]);
        let occur_roll = (occur >> 8) as f64 / (1u64 << 56) as f64;
        (occur_roll < severity * self.peak_fault_rate).then_some(occur)
    }

    /// Whether `params` can fault at any of its glitched cycles.
    ///
    /// When this is `false`, [`FaultModel::faults_at`] returns nothing for
    /// every cycle `params` glitches, whatever the boot or window, so an
    /// attempt with `params` *is* the unglitched run.
    pub fn may_fault(&self, params: &GlitchParams) -> bool {
        let severity = self.severity(params.width, params.offset);
        params.cycles().any(|g| self.occurrence(params, g, severity).is_some())
    }

    /// The faults induced at relative glitch cycle `g` for the pipeline
    /// window `w` (which covers `g`). `boot` distinguishes repeated
    /// attempts with identical parameters (mask noise), mirroring the
    /// shot-to-shot variation of real glitching.
    pub fn faults_at(
        &self,
        params: &GlitchParams,
        g: u64,
        w: &Window,
        boot: u64,
    ) -> Vec<StageFault> {
        let severity = self.severity(params.width, params.offset);
        let Some(occur) = self.occurrence(params, g, severity) else {
            return Vec::new();
        };
        // The fault *type* depends on the spot and on which instruction
        // (address) is in flight — two glitches with identical parameters
        // hitting different code decorrelate, which is what makes
        // multi-glitches so much harder than single glitches (§V-C).
        let kind_roll = hash_words(&[occur, w.addr.into()]) % 1000;
        let mut rng = Rng::new(hash_words(&[occur, boot, w.addr.into()]));
        let clear_p = self.bit_clear_min + self.bit_clear_span * severity;
        let is_load = w.instr.is_load();
        // Sustained (long) glitching starves the memory interface: loads
        // systematically fail to zero rather than returning residue — the
        // effect the paper credits for while(a)'s 10x long-glitch jump and
        // while(!a)'s collapse (SV-D).
        let long_burst = params.repeat >= 5;
        if long_burst {
            // Loads fail to zero; everything else compounds destructively —
            // heavier bit loss, more skips, and frequent brown-outs. This is
            // why the paper finds long glitches *help* against while(a) but
            // *hurt* against while(!a) and wide comparisons.
            if is_load && kind_roll < 500 {
                let ov = if rng.next_f64() < 0.75 {
                    LoadOverride::Replace(0)
                } else {
                    LoadOverride::And(rng.and_mask32(0.6))
                };
                return vec![StageFault::CorruptLoad(ov)];
            }
            // A sustained glitch never corrupts one stage in isolation: the
            // instruction in flight *and* the one being fetched are mangled
            // together, so a lucky branch skip rarely has a clean aftermath.
            let heavy = (clear_p * 2.5).min(0.9);
            return match kind_roll {
                0..=399 => vec![
                    StageFault::CorruptExec { and_mask: rng.and_mask16(heavy) },
                    StageFault::CorruptFetch { and_mask: rng.and_mask16(heavy) },
                ],
                400..=549 => vec![StageFault::CorruptFetch { and_mask: rng.and_mask16(heavy) }],
                550..=649 => vec![
                    StageFault::Skip,
                    StageFault::CorruptFetch { and_mask: rng.and_mask16(heavy) },
                ],
                _ => vec![StageFault::Reset],
            };
        }
        match kind_roll {
            // 55%: the halfword in decode/execute loses bits.
            0..=549 => vec![StageFault::CorruptExec { and_mask: rng.and_mask16(clear_p) }],
            // 15%: the halfword being fetched (lands FETCH_DEPTH later).
            550..=699 => vec![StageFault::CorruptFetch { and_mask: rng.and_mask16(clear_p) }],
            // 15%: data-bus corruption — only meaningful on loads; glitches
            // hitting a non-load data phase corrupt the encoding instead.
            700..=849 => {
                if is_load {
                    let ov = if rng.next_f64() < 0.5 {
                        LoadOverride::Replace(*rng.pick(&RESIDUE_POOL))
                    } else {
                        LoadOverride::And(rng.and_mask32(clear_p))
                    };
                    vec![StageFault::CorruptLoad(ov)]
                } else {
                    vec![StageFault::CorruptExec { and_mask: rng.and_mask16(clear_p) }]
                }
            }
            // 10%: hard skip (the classic "instruction skip" fault).
            850..=949 => vec![StageFault::Skip],
            // 5%: brown-out.
            _ => vec![StageFault::Reset],
        }
    }

    /// The injector closure for one attempt: applies `params` relative to
    /// the **most recent** trigger (a re-armed glitcher, as in §V-C's
    /// multi-glitch rig).
    pub fn injector(
        &self,
        params: GlitchParams,
        boot: u64,
    ) -> impl FnMut(&Window) -> Vec<StageFault> + '_ {
        self.injector_with_mode(params, boot, TriggerMode::Latest)
    }

    /// Like [`FaultModel::injector`] with an explicit trigger reference.
    pub fn injector_with_mode(
        &self,
        params: GlitchParams,
        boot: u64,
        mode: TriggerMode,
    ) -> impl FnMut(&Window) -> Vec<StageFault> + '_ {
        move |w: &Window| {
            let since = match mode {
                TriggerMode::Latest => w.since_trigger,
                TriggerMode::First => w.since_first_trigger,
            };
            let Some(since) = since else { return Vec::new() };
            let w_range = since..since + u64::from(w.cycles.max(1));
            let mut faults = Vec::new();
            for g in params.cycles() {
                if w_range.contains(&g) {
                    faults.extend(self.faults_at(&params, g, w, boot));
                }
            }
            faults
        }
    }
}

/// Which trigger event glitch cycles are measured from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerMode {
    /// The most recent trigger (a re-armed glitcher; §V-C multi-glitch).
    Latest,
    /// The first trigger (one contiguous burst; §V-D long glitch).
    First,
}

fn gauss(x: f64, mu: f64, sigma: f64) -> f64 {
    let d = (x - mu) / sigma;
    (-0.5 * d * d).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_sparse_and_bounded() {
        let m = FaultModel::default();
        let mut nonzero = 0u32;
        for w in -49i8..=49 {
            for o in -49i8..=49 {
                let s = m.severity(w, o);
                assert!((0.0..=1.0).contains(&s));
                if s > 0.0 {
                    nonzero += 1;
                }
            }
        }
        let frac = f64::from(nonzero) / 9801.0;
        assert!(
            (0.01..0.20).contains(&frac),
            "violation region covers a few percent of the grid, got {frac:.3}"
        );
    }

    #[test]
    fn severity_peaks_inside_the_lobes() {
        let m = FaultModel::default();
        assert!(m.severity(12, -18) > 0.9);
        assert!(m.severity(-34, 22) > 0.7);
        assert_eq!(m.severity(0, 0), 0.0);
        assert_eq!(m.severity(49, 49), 0.0);
    }

    #[test]
    fn fault_occurrence_is_parameter_deterministic() {
        let m = FaultModel::default();
        let w = dummy_window();
        for boot in 0..4 {
            let a = m.faults_at(&GlitchParams::single(3, 12, -18), 3, &w, boot);
            let b = m.faults_at(&GlitchParams::single(3, 12, -18), 3, &w, boot);
            assert_eq!(a, b, "same spot, same boot → same faults");
        }
        // Whether a fault happens at all must not depend on the boot nonce.
        let occurs: Vec<bool> = (0..8)
            .map(|boot| !m.faults_at(&GlitchParams::single(3, 12, -18), 3, &w, boot).is_empty())
            .collect();
        assert!(occurs.windows(2).all(|p| p[0] == p[1]), "{occurs:?}");
    }

    #[test]
    fn out_of_region_points_never_fault() {
        let m = FaultModel::default();
        let w = dummy_window();
        for g in 0..50 {
            assert!(m.faults_at(&GlitchParams::single(g as u32, 0, 0), g, &w, 0).is_empty());
        }
    }

    /// `may_fault` is exactly "some glitched cycle yields faults", for any
    /// window and boot.
    #[test]
    fn may_fault_matches_faults_at() {
        let m = FaultModel::default();
        let w = dummy_window();
        for (width, offset) in crate::scan::full_grid() {
            for (ext_offset, repeat) in [(0, 1), (7, 1), (3, 12)] {
                let p = GlitchParams { ext_offset, repeat, width, offset };
                let faults = p.cycles().any(|g| !m.faults_at(&p, g, &w, 9).is_empty());
                assert_eq!(m.may_fault(&p), faults, "{p:?}");
            }
        }
    }

    #[test]
    fn in_region_grid_fault_rate_is_plausible() {
        let m = FaultModel::default();
        let w = dummy_window();
        let mut faults = 0u32;
        for width in -49i8..=49 {
            for offset in -49i8..=49 {
                let p = GlitchParams::single(2, width, offset);
                if !m.faults_at(&p, 2, &w, 0).is_empty() {
                    faults += 1;
                }
            }
        }
        let rate = f64::from(faults) / 9801.0;
        assert!((0.005..0.10).contains(&rate), "a few percent of the grid faults, got {rate:.4}");
    }

    #[test]
    fn injector_applies_only_inside_the_window() {
        let m = FaultModel::default();
        let params = GlitchParams::single(5, 12, -18);
        let mut inj = m.injector(params, 0);
        // Window before the trigger: nothing.
        let mut w = dummy_window();
        w.since_trigger = None;
        assert!(inj(&w).is_empty());
        // Window covering relative cycles 0..2 — glitch at 5 missed.
        w.since_trigger = Some(0);
        w.cycles = 2;
        assert!(inj(&w).is_empty());
        // Window covering 4..7 — glitch at 5 hits.
        w.since_trigger = Some(4);
        w.cycles = 3;
        assert!(!inj(&w).is_empty(), "spot (12,-18) is in-region and should fault");
    }

    fn dummy_window() -> Window {
        Window {
            start: 100,
            cycles: 1,
            addr: 0x0800_0000,
            instr: gd_thumb::Instr::NOP,
            raw: 0xBF00,
            since_trigger: Some(0),
            since_first_trigger: Some(0),
        }
    }
}
