//! Attack execution and parameter-space scans: the drivers behind the
//! paper's Tables I (single glitch), II (multi-glitch), and III (long
//! glitch).

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use gd_backend::layout;
use gd_emu::StopReason;
use gd_pipeline::{Pipeline, PipelineSnapshot, RunEnd, Window};
use gd_thumb::Reg;

use crate::device::Device;
use crate::model::{FaultModel, GlitchParams};

/// How an attempt decides it "won".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuccessCheck {
    /// Execution stopped at `bkpt #n` (§V assembly targets mark the
    /// loop-exit path this way).
    Bkpt(u8),
    /// Execution halted at the final `bkpt #0` with `r0` equal to this
    /// marker (§VII compiled firmware returns a success code from `main`).
    HaltWithR0(u32),
}

/// Everything needed to judge one glitch attempt.
#[derive(Debug, Clone, Copy)]
pub struct AttackSpec {
    /// Success criterion.
    pub success: SuccessCheck,
    /// Cycle budget per attempt (a still-spinning loop is *no effect*).
    pub max_cycles: u64,
}

/// Outcome of one glitch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackOutcome {
    /// The guarded code was reached: the glitch worked.
    Success,
    /// The firmware detected the glitch (GlitchResistor's `gr_detected`).
    Detected,
    /// The firmware is still looping / behaved normally.
    NoEffect,
    /// The core crashed (hard fault of any kind).
    Crash,
    /// The glitch browned the core out.
    Reset,
}

/// One finished attempt, with the pipeline for post-mortem inspection.
#[derive(Debug)]
pub struct Attempt {
    /// Classified outcome.
    pub outcome: AttackOutcome,
    /// The device state after the attempt.
    pub pipe: gd_pipeline::Pipeline,
}

/// Runs one glitch attempt against a fresh boot of `device`.
///
/// `boot` both seeds per-attempt mask noise and, when `nvm` is provided,
/// threads the non-volatile state (delay seed) from attempt to attempt.
///
/// This boots a new pipeline per attempt and is the differential oracle
/// for [`AttemptRunner`], which boots once and restores per attempt.
pub fn run_attack(
    device: &Device,
    model: &FaultModel,
    params: GlitchParams,
    boot: u64,
    spec: &AttackSpec,
    nvm: Option<&mut Vec<u8>>,
) -> Attempt {
    let mut pipe = match &nvm {
        Some(state) if !state.is_empty() => device.boot_with_nvm(Some(state)),
        _ => device.boot(),
    };
    let mut injector = model.injector(params, boot);
    let end = pipe.run_with(spec.max_cycles, |w: &Window| injector(w));
    if let Some(state) = nvm {
        *state = Device::snapshot_nvm(&pipe);
    }
    Attempt { outcome: classify(device, &pipe, end, spec), pipe }
}

/// Judges a finished attempt.
fn classify(device: &Device, pipe: &Pipeline, end: RunEnd, spec: &AttackSpec) -> AttackOutcome {
    let detected = device
        .detect_flag()
        .and_then(|addr| pipe.emu.mem.peek(addr, 4).ok())
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) != 0)
        .unwrap_or(false);
    match end {
        RunEnd::Stop { reason: StopReason::Bkpt(n), .. } => match spec.success {
            SuccessCheck::Bkpt(want) if n == want => AttackOutcome::Success,
            SuccessCheck::HaltWithR0(marker) if n == 0 && pipe.emu.cpu.reg(Reg::R0) == marker => {
                AttackOutcome::Success
            }
            _ if detected => AttackOutcome::Detected,
            _ => AttackOutcome::NoEffect,
        },
        RunEnd::Stop { .. } => {
            if detected {
                AttackOutcome::Detected
            } else {
                AttackOutcome::Crash
            }
        }
        RunEnd::Fault(_) => AttackOutcome::Crash,
        RunEnd::Reset => AttackOutcome::Reset,
        RunEnd::CycleLimit => {
            if detected {
                AttackOutcome::Detected
            } else {
                AttackOutcome::NoEffect
            }
        }
    }
}

/// Runs glitch attempts against one device without booting per attempt:
/// the device boots once, and every attempt restores the power-on
/// snapshot, which copies back only the memory pages the previous
/// attempt stored to.
///
/// An attempt that can only spin is settled, not stepped out to the
/// budget ([`Pipeline::run_settling`]): once the glitch window has passed
/// ([`FaultModel::last_fault_cycle`]) and the run comes back to an
/// earlier state, its counters advance by whole periods.
///
/// Each attempt equals [`run_attack`] on the same inputs, outcome and
/// final pipeline state alike; the differential tests hold the two
/// together.
#[derive(Debug)]
pub struct AttemptRunner<'d> {
    device: &'d Device,
    pipe: Pipeline,
    power_on: PipelineSnapshot,
    /// NVM contents at power-on, which threaded NVM is stored over.
    power_on_nvm: Vec<u8>,
}

impl<'d> AttemptRunner<'d> {
    /// Boots `device` and snapshots its power-on state.
    pub fn new(device: &'d Device) -> AttemptRunner<'d> {
        let mut pipe = device.boot();
        let power_on = pipe.snapshot();
        let power_on_nvm = Device::snapshot_nvm(&pipe);
        AttemptRunner { device, pipe, power_on, power_on_nvm }
    }

    /// Runs one glitch attempt; same contract as [`run_attack`],
    /// including NVM threading through `nvm`.
    pub fn run(
        &mut self,
        model: &FaultModel,
        params: GlitchParams,
        boot: u64,
        spec: &AttackSpec,
        nvm: Option<&mut Vec<u8>>,
    ) -> AttackOutcome {
        self.power_on(nvm.as_deref().map(Vec::as_slice));
        let end = self.pipe.run_settling(
            spec.max_cycles,
            &self.power_on,
            model.last_fault_cycle(&params),
            model.injector(params, boot),
        );
        if let Some(state) = nvm {
            *state = Device::snapshot_nvm(&self.pipe);
        }
        classify(self.device, &self.pipe, end, spec)
    }

    /// Runs the device with no glitch at all: the attempt every
    /// parameter set that cannot fault reduces to.
    pub fn run_unglitched(&mut self, spec: &AttackSpec) -> AttackOutcome {
        self.power_on(None);
        let end = self.pipe.run_settling(spec.max_cycles, &self.power_on, None, |_| Vec::new());
        classify(self.device, &self.pipe, end, spec)
    }

    /// The device state after the last attempt.
    pub fn pipe(&self) -> &Pipeline {
        &self.pipe
    }

    /// Resets to the power-on state, as [`Device::boot_with_nvm`] would
    /// boot with `nvm` (fresh NVM when `None` or empty).
    ///
    /// Threaded NVM goes in as stores of the bytes that differ from
    /// power-on, not as loader writes: the next restore then reverts it,
    /// and the settle's memory comparison sees it like any other store.
    fn power_on(&mut self, nvm: Option<&[u8]>) {
        self.pipe.restore(&self.power_on);
        let Some(nvm) = nvm else { return };
        const SPAN: usize = 64;
        for (k, (new, old)) in nvm.chunks(SPAN).zip(self.power_on_nvm.chunks(SPAN)).enumerate() {
            if new == old {
                continue;
            }
            for (i, (&byte, &was)) in new.iter().zip(old).enumerate() {
                if byte != was {
                    let addr = layout::NVM_BASE + (k * SPAN + i) as u32;
                    self.pipe.emu.mem.write8(addr, byte).expect("nvm is mapped writable");
                }
            }
        }
    }
}

/// The [`AttemptRunner`]s of one cell: a worker takes an idle one, or
/// boots a new one when none is idle, and hands it back after its chunk.
/// A cell therefore boots one runner per worker, not one per chunk.
struct Runners<'d> {
    device: &'d Device,
    idle: Mutex<Vec<AttemptRunner<'d>>>,
}

impl<'d> Runners<'d> {
    fn new(device: &'d Device) -> Runners<'d> {
        Runners { device, idle: Mutex::new(Vec::new()) }
    }

    fn with<R>(&self, f: impl FnOnce(&mut AttemptRunner<'d>) -> R) -> R {
        // The lock is held only for one pop or push, so even a poisoned
        // pool holds whole runners (and each attempt restores power-on).
        let idle = || self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let mut runner = idle().pop().unwrap_or_else(|| AttemptRunner::new(self.device));
        let out = f(&mut runner);
        idle().push(runner);
        out
    }
}

/// Counts per outcome, plus the Table I-style post-mortem histogram of a
/// chosen register among successes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Attempts made.
    pub attempts: u64,
    /// Successful glitches.
    pub successes: u64,
    /// Detected attempts (hardened firmware only).
    pub detections: u64,
    /// Crashes (faults).
    pub crashes: u64,
    /// Brown-out resets.
    pub resets: u64,
    /// Comparator-register value → count, among successes.
    pub post_mortem: BTreeMap<u32, u64>,
}

impl CellCounts {
    fn record(&mut self, outcome: AttackOutcome, reg: Option<u32>) {
        self.attempts += 1;
        match outcome {
            AttackOutcome::Success => {
                self.successes += 1;
                if let Some(v) = reg {
                    *self.post_mortem.entry(v).or_default() += 1;
                }
            }
            AttackOutcome::Detected => self.detections += 1,
            AttackOutcome::Crash => self.crashes += 1,
            AttackOutcome::Reset => self.resets += 1,
            AttackOutcome::NoEffect => {}
        }
    }

    /// Success rate in percent.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            100.0 * self.successes as f64 / self.attempts as f64
        }
    }

    /// Detections / (detections + successes) — the paper's detection rate.
    pub fn detection_rate(&self) -> f64 {
        let denom = self.detections + self.successes;
        if denom == 0 {
            0.0
        } else {
            100.0 * self.detections as f64 / denom as f64
        }
    }

    /// Merges another cell.
    pub fn merge(&mut self, other: &CellCounts) {
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.detections += other.detections;
        self.crashes += other.crashes;
        self.resets += other.resets;
        for (k, v) in &other.post_mortem {
            *self.post_mortem.entry(*k).or_default() += v;
        }
    }
}

/// Points in [`full_grid`].
const GRID_POINTS: u64 = 99 * 99;

/// The full ±49% × ±49% grid of (width, offset) pairs — 9,801 points,
/// exactly the paper's per-cycle scan.
pub fn full_grid() -> Vec<(i8, i8)> {
    let mut grid = Vec::with_capacity(GRID_POINTS as usize);
    for width in -49i8..=49 {
        for offset in -49i8..=49 {
            grid.push((width, offset));
        }
    }
    grid
}

/// Scans the full grid at each glitch cycle in `cycles`, single glitches.
/// `post_reg` selects the register recorded in success post-mortems.
pub fn scan_single(
    device: &Device,
    model: &FaultModel,
    cycles: core::ops::Range<u32>,
    spec: &AttackSpec,
    post_reg: Option<Reg>,
) -> Vec<(u32, CellCounts)> {
    scan_grid(device, model, cycles, 1, spec, post_reg)
}

/// Simulated attempts per worker chunk: small enough to split a cell's
/// few hundred simulated points across workers.
const ATTEMPT_CHUNK: usize = 32;

/// How a cell's grid splits before any attempt runs.
struct CellPlan {
    /// Points outside the violation region (severity zero).
    out_of_region: u64,
    /// In-region points whose occurrence roll fails at every glitched
    /// cycle: each attempt is the unglitched run.
    unglitched: u64,
    /// The remaining points with their boot numbers; only these are
    /// simulated.
    simulated: Vec<(u64, GlitchParams)>,
}

impl CellPlan {
    /// Splits the full grid for `params(width, offset)`, numbering boots
    /// from `boot_base + 1` in grid order.
    fn new(
        model: &FaultModel,
        boot_base: u64,
        params: impl Fn(i8, i8) -> GlitchParams,
    ) -> CellPlan {
        let mut plan = CellPlan { out_of_region: 0, unglitched: 0, simulated: Vec::new() };
        for (j, (width, offset)) in full_grid().into_iter().enumerate() {
            let params = params(width, offset);
            if model.severity(width, offset) == 0.0 {
                plan.out_of_region += 1;
            } else if !model.may_fault(&params) {
                plan.unglitched += 1;
            } else {
                plan.simulated.push((boot_base + j as u64 + 1, params));
            }
        }
        plan
    }

    /// Runs every simulated attempt in worker chunks on `runners`;
    /// `tally` folds one finished attempt into a chunk's partial result.
    fn simulate<C: Default + Send>(
        &self,
        runners: &Runners<'_>,
        model: &FaultModel,
        spec: &AttackSpec,
        tally: impl Fn(&mut C, AttackOutcome, &Pipeline) + Sync,
    ) -> Vec<C> {
        gd_exec::par_map_chunks(&self.simulated, ATTEMPT_CHUNK, |chunk| {
            runners.with(|runner| {
                let mut partial = C::default();
                for &(boot, params) in chunk.items {
                    let outcome = runner.run(model, params, boot, spec, None);
                    tally(&mut partial, outcome, runner.pipe());
                }
                partial
            })
        })
    }
}

/// Scans the grid with a repeated (long) glitch of `repeat` cycles
/// starting at each cycle in `starts`.
///
/// Each start cycle is one [`scan_cell`]. Every attempt seeds its
/// per-boot noise from a *position-derived* boot counter
/// (`start_index × grid + point_index`), reproducing the serial
/// implementation's sequential numbering exactly, so the parallel scan is
/// bit-for-bit identical to [`scan_grid_serial`] at any `GD_THREADS`.
/// Campaigns that thread NVM state between attempts carry cross-attempt
/// dependencies and deliberately do **not** route through here (see
/// `defense`/`search` callers).
pub fn scan_grid(
    device: &Device,
    model: &FaultModel,
    starts: core::ops::Range<u32>,
    repeat: u32,
    spec: &AttackSpec,
    post_reg: Option<Reg>,
) -> Vec<(u32, CellCounts)> {
    starts
        .enumerate()
        .map(|(start_idx, start)| {
            (start, scan_cell(device, model, start, start_idx as u64, repeat, spec, post_reg))
        })
        .collect()
}

/// Scans the full 99×99 grid for **one** start cycle of a larger scan.
///
/// `start_index` is the cell's position within that larger scan: per-boot
/// noise is seeded from `start_index × 9801 + point_index`, reproducing
/// the sequential boot numbering of a serial multi-cycle scan exactly.
/// [`scan_grid`] is simply this function mapped over its start range, so
/// a distributed driver (the campaign engine shards at cell granularity)
/// produces bytes identical to the monolithic scan.
///
/// Only points that can fault are simulated. Out-of-region points count
/// as clean attempts, as in [`scan_grid_serial`]. An in-region point
/// whose occurrence roll fails at every glitched cycle
/// ([`FaultModel::may_fault`]) gets no fault from the injector in any
/// window, whatever its boot number, so its attempt *is* the unglitched
/// run: that run executes once per cell and its outcome and post-mortem
/// register count for every such point. The rest fan out across
/// [`gd_exec`] workers, which boot one [`AttemptRunner`] each per cell.
pub fn scan_cell(
    device: &Device,
    model: &FaultModel,
    start: u32,
    start_index: u64,
    repeat: u32,
    spec: &AttackSpec,
    post_reg: Option<Reg>,
) -> CellCounts {
    let plan = CellPlan::new(model, start_index * GRID_POINTS, |width, offset| GlitchParams {
        ext_offset: start,
        repeat,
        width,
        offset,
    });
    let mut cell = CellCounts::default();
    // Out-of-region points cannot fault: count them as clean attempts
    // without running them.
    for _ in 0..plan.out_of_region {
        cell.record(AttackOutcome::NoEffect, None);
    }
    let runners = Runners::new(device);
    if plan.unglitched > 0 {
        let (outcome, reg) = runners.with(|runner| {
            let outcome = runner.run_unglitched(spec);
            (outcome, post_reg.map(|r| runner.pipe().emu.cpu.reg(r)))
        });
        for _ in 0..plan.unglitched {
            cell.record(outcome, reg);
        }
    }
    let partials = plan.simulate(&runners, model, spec, |c: &mut CellCounts, outcome, pipe| {
        c.record(outcome, post_reg.map(|r| pipe.emu.cpu.reg(r)));
    });
    for partial in &partials {
        cell.merge(partial);
    }
    cell
}

/// The serial reference implementation of [`scan_grid`] — kept for the
/// differential tests that pin the parallel scan to it byte for byte.
pub fn scan_grid_serial(
    device: &Device,
    model: &FaultModel,
    starts: core::ops::Range<u32>,
    repeat: u32,
    spec: &AttackSpec,
    post_reg: Option<Reg>,
) -> Vec<(u32, CellCounts)> {
    let grid = full_grid();
    let mut out = Vec::new();
    let mut boot = 0u64;
    for start in starts {
        let mut cell = CellCounts::default();
        for &(width, offset) in &grid {
            boot += 1;
            if model.severity(width, offset) == 0.0 {
                cell.record(AttackOutcome::NoEffect, None);
                continue;
            }
            let params = GlitchParams { ext_offset: start, repeat, width, offset };
            let attempt = run_attack(device, model, params, boot, spec, None);
            let reg = post_reg.map(|r| attempt.pipe.emu.cpu.reg(r));
            cell.record(attempt.outcome, reg);
        }
        out.push((start, cell));
    }
    out
}

/// The multi-glitch experiment (§V-C, Table II): the firmware raises the
/// trigger twice (two identical loops); the same glitch parameters apply
/// after each trigger. *Partial* means the first loop was escaped but not
/// the second; *full* means both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiCell {
    /// Attempts made.
    pub attempts: u64,
    /// First glitch succeeded, second failed.
    pub partial: u64,
    /// Both glitches succeeded.
    pub full: u64,
}

impl MultiCell {
    /// Merges another cell (counts are additive).
    pub fn merge(&mut self, other: &MultiCell) {
        self.attempts += other.attempts;
        self.partial += other.partial;
        self.full += other.full;
    }
}

/// Runs the multi-glitch scan. The firmware must raise the trigger before
/// each loop; reaching the second trigger proves the first glitch worked.
///
/// Parallelized like [`scan_grid`]: each cycle is one
/// [`scan_multi_cell`] with position-derived boot numbering, and counts
/// merge additively, so output matches the serial loop exactly.
pub fn scan_multi(
    device: &Device,
    model: &FaultModel,
    cycles: core::ops::Range<u32>,
    spec: &AttackSpec,
) -> Vec<(u32, MultiCell)> {
    cycles
        .enumerate()
        .map(|(cycle_idx, cycle)| {
            (cycle, scan_multi_cell(device, model, cycle, cycle_idx as u64, spec))
        })
        .collect()
}

/// One cell of a multi-glitch scan, with the same position-derived boot
/// numbering contract as [`scan_cell`]: `cycle_index` is the cell's
/// position within the enclosing scan. Points that cannot fault take the
/// unglitched run's outcome and trigger count, as in [`scan_cell`].
pub fn scan_multi_cell(
    device: &Device,
    model: &FaultModel,
    cycle: u32,
    cycle_index: u64,
    spec: &AttackSpec,
) -> MultiCell {
    let plan = CellPlan::new(model, cycle_index * GRID_POINTS, |width, offset| {
        GlitchParams::single(cycle, width, offset)
    });
    let mut cell = MultiCell {
        attempts: plan.out_of_region + plan.unglitched + plan.simulated.len() as u64,
        partial: 0,
        full: 0,
    };
    let record = |c: &mut MultiCell, outcome, pipe: &Pipeline| match outcome {
        AttackOutcome::Success => c.full += 1,
        _ if pipe.trigger_cycles().len() >= 2 => c.partial += 1,
        _ => {}
    };
    let runners = Runners::new(device);
    if plan.unglitched > 0 {
        let mut baseline = MultiCell::default();
        runners.with(|runner| record(&mut baseline, runner.run_unglitched(spec), runner.pipe()));
        cell.partial += baseline.partial * plan.unglitched;
        cell.full += baseline.full * plan.unglitched;
    }
    for partial in &plan.simulate(&runners, model, spec, record) {
        cell.merge(partial);
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets;

    fn quick_spec() -> AttackSpec {
        AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 }
    }

    #[test]
    fn unglitched_loop_never_exits() {
        let dev = Device::from_asm(targets::WHILE_NOT_A).unwrap();
        let model = FaultModel::default();
        // (0, 0) is outside the violation region.
        let attempt =
            run_attack(&dev, &model, GlitchParams::single(0, 0, 0), 1, &quick_spec(), None);
        assert_eq!(attempt.outcome, AttackOutcome::NoEffect);
    }

    #[test]
    fn some_grid_point_succeeds_against_while_not_a() {
        let dev = Device::from_asm(targets::WHILE_NOT_A).unwrap();
        let model = FaultModel::default();
        let scans = scan_single(&dev, &model, 4..6, &quick_spec(), Some(Reg::R3));
        let total: u64 = scans.iter().map(|(_, c)| c.successes).sum();
        assert!(total > 0, "the cmp/branch cycles must be glitchable");
        for (_, cell) in &scans {
            assert_eq!(cell.attempts, 9801);
        }
    }

    #[test]
    fn post_mortem_histogram_populated_on_success() {
        let dev = Device::from_asm(targets::WHILE_NOT_A).unwrap();
        let model = FaultModel::default();
        let scans = scan_single(&dev, &model, 2..4, &quick_spec(), Some(Reg::R3));
        let hist: u64 = scans.iter().flat_map(|(_, c)| c.post_mortem.values()).sum();
        let succ: u64 = scans.iter().map(|(_, c)| c.successes).sum();
        assert_eq!(hist, succ, "each success records the comparator register");
    }

    /// The tentpole guarantee on the rig side: the parallel grid scan —
    /// position-derived boot numbering included — reproduces the serial
    /// scan exactly, post-mortem histograms and all.
    #[test]
    fn parallel_scan_matches_serial() {
        let dev = Device::from_asm(targets::WHILE_NOT_A).unwrap();
        let model = FaultModel::default();
        let par = scan_grid(&dev, &model, 3..6, 1, &quick_spec(), Some(Reg::R3));
        let ser = scan_grid_serial(&dev, &model, 3..6, 1, &quick_spec(), Some(Reg::R3));
        assert_eq!(par, ser);
    }

    /// Same guarantee for the multi-glitch scan, against an inline serial
    /// re-derivation (the production serial path no longer exists).
    #[test]
    fn parallel_multi_scan_matches_serial() {
        let dev = Device::from_asm(&targets::while_not_a_doubled()).unwrap();
        let model = FaultModel::default();
        let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 1_200 };
        let par = scan_multi(&dev, &model, 4..6, &spec);

        let grid = full_grid();
        let mut ser = Vec::new();
        let mut boot = 0u64;
        for cycle in 4..6u32 {
            let mut cell = MultiCell::default();
            for &(width, offset) in &grid {
                boot += 1;
                cell.attempts += 1;
                if model.severity(width, offset) == 0.0 {
                    continue;
                }
                let params = GlitchParams::single(cycle, width, offset);
                let attempt = run_attack(&dev, &model, params, boot, &spec, None);
                let triggers = attempt.pipe.trigger_cycles().len();
                match attempt.outcome {
                    AttackOutcome::Success => cell.full += 1,
                    _ if triggers >= 2 => cell.partial += 1,
                    _ => {}
                }
            }
            ser.push((cycle, cell));
        }
        assert_eq!(par, ser);
    }

    /// At glitch cycle 0, only 212 of the 1,628 in-region points can
    /// fault; the rest are the unglitched run.
    #[test]
    fn the_cell_plan_simulates_only_points_that_can_fault() {
        let model = FaultModel::default();
        let plan = CellPlan::new(&model, 0, |w, o| GlitchParams::single(0, w, o));
        assert_eq!(plan.simulated.len(), 212);
        assert_eq!(plan.unglitched + plan.simulated.len() as u64, 1_628);
        assert_eq!(plan.out_of_region + 1_628, 9_801);
        assert!(plan.simulated.iter().all(|(_, p)| model.may_fault(p)));
    }

    #[test]
    fn cell_counts_rates() {
        let mut c = CellCounts::default();
        c.record(AttackOutcome::Success, Some(8));
        c.record(AttackOutcome::Detected, None);
        c.record(AttackOutcome::Detected, None);
        c.record(AttackOutcome::NoEffect, None);
        assert_eq!(c.attempts, 4);
        assert!((c.success_rate() - 25.0).abs() < 1e-9);
        assert!((c.detection_rate() - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.post_mortem[&8], 1);
    }
}
