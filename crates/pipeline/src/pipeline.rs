//! The cycle-accounted pipeline wrapper around the architectural emulator,
//! with per-window fault-injection hooks and GPIO trigger detection.
//!
//! The ChipWhisperer-style clock-glitch simulator (`gd-chipwhisperer`)
//! drives this: before each instruction executes, the injector sees the
//! cycle window the instruction will occupy and may corrupt the in-flight
//! encoding (execute/decode stage), poison a *later* fetch (fetch stage),
//! corrupt the data bus of a load, force a skip, or brown the core out.

use std::collections::VecDeque;

use gd_emu::{Emu, Fault, Fork, LoadOverride, Snapshot, StepOutcome, StopReason, ZERO_FILL};
use gd_thumb::Instr;

use crate::timing::Timing;

/// Address range treated as the trigger port (GPIO output register).
pub const TRIGGER_ADDR: u32 = 0x4800_0014;
/// Address range treated as slow NVM (flash data page).
pub const NVM_RANGE: core::ops::Range<u32> = 0x0800_F000..0x0801_0000;

/// A fault the injector can apply to the instruction window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageFault {
    /// AND a mask into the halfword currently in decode/execute.
    CorruptExec {
        /// Mask of bits to keep (1→0 flips where zero).
        and_mask: u16,
    },
    /// AND a mask into the halfword the fetch stage is pulling now; it
    /// takes effect `FETCH_DEPTH` instructions later.
    CorruptFetch {
        /// Mask of bits to keep.
        and_mask: u16,
    },
    /// Corrupt the data returned by a load in this window.
    CorruptLoad(LoadOverride),
    /// Suppress the instruction entirely (hard skip).
    Skip,
    /// Brown-out: the core resets (the attempt is over).
    Reset,
}

/// How many instructions ahead the fetch stage runs in this 3-stage model.
pub const FETCH_DEPTH: usize = 2;

/// What the injector sees before an instruction executes.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// First cycle this instruction occupies.
    pub start: u64,
    /// Estimated cycle count (branch penalties included pessimistically).
    pub cycles: u32,
    /// Instruction address.
    pub addr: u32,
    /// The decoded instruction (pre-corruption).
    pub instr: Instr,
    /// The raw first halfword (pre-corruption).
    pub raw: u16,
    /// Cycles since the most recent trigger fired (`None` before any).
    pub since_trigger: Option<u64>,
    /// Cycles since the *first* trigger fired (`None` before any).
    pub since_first_trigger: Option<u64>,
}

/// Why a pipeline run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// A breakpoint or sleep stopped the core.
    Stop {
        /// The stop reason.
        reason: StopReason,
        /// Stop address.
        addr: u32,
    },
    /// A hard fault.
    Fault(Fault),
    /// The injector requested a reset (brown-out).
    Reset,
    /// The cycle budget ran out (still spinning).
    CycleLimit,
}

/// The pipelined core.
#[derive(Debug)]
pub struct Pipeline {
    /// The architectural emulator.
    pub emu: Emu,
    /// The cycle cost model.
    pub timing: Timing,
    cycle: u64,
    trigger_cycles: Vec<u64>,
    pending_fetch: VecDeque<(usize, u16)>,
    retired: u64,
}

/// A point-in-time copy of a [`Pipeline`]'s run state, created by
/// [`Pipeline::snapshot`] and consumed by [`Pipeline::restore`].
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    emu: Snapshot,
    cycle: u64,
    retired: u64,
    trigger_cycles: Vec<u64>,
    pending_fetch: VecDeque<(usize, u16)>,
}

/// A quiet instruction boundary that [`Pipeline::run_settling`] checks
/// later boundaries against.
struct Mark {
    emu: Fork,
    cycle: u64,
    retired: u64,
    steps: u64,
    triggers: usize,
}

impl Pipeline {
    /// Wraps an emulator (PC and SP already set) with default timing.
    pub fn new(emu: Emu) -> Pipeline {
        Pipeline {
            emu,
            timing: Timing::default(),
            cycle: 0,
            trigger_cycles: Vec::new(),
            pending_fetch: VecDeque::new(),
            retired: 0,
        }
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycle at which the most recent trigger store was observed, if any.
    pub fn trigger_cycle(&self) -> Option<u64> {
        self.trigger_cycles.last().copied()
    }

    /// Every trigger event so far (multi-glitch firmware raises several).
    pub fn trigger_cycles(&self) -> &[u64] {
        &self.trigger_cycles
    }

    /// Runs without fault injection until stop/fault or `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> RunEnd {
        self.run_with(max_cycles, |_| Vec::new())
    }

    /// Runs with an injector consulted before every instruction.
    pub fn run_with(
        &mut self,
        max_cycles: u64,
        mut injector: impl FnMut(&Window) -> Vec<StageFault>,
    ) -> RunEnd {
        while self.cycle < max_cycles {
            match self.step_with(&mut injector) {
                Ok(Some(end)) => return end,
                Ok(None) => {}
                Err(fault) => return RunEnd::Fault(fault),
            }
        }
        RunEnd::CycleLimit
    }

    /// [`Pipeline::run_with`] for a run restored to `snap` whose injector
    /// faults only in windows that start at most `last_fault` cycles
    /// after the latest trigger (`None`: it never faults). The run ends
    /// exactly as `run_with` would, but one that can only spin is settled
    /// instead of stepped out to `max_cycles`.
    ///
    /// An instruction boundary is *quiet* when the injector cannot fault
    /// there (no trigger yet, or more than `last_fault` cycles past the
    /// latest one) and no fetch or load corruption is in flight. Between
    /// quiet boundaries, Brent's cycle detection looks for the run coming
    /// back to an earlier one: the same PC, CPU and memory contents
    /// ([`Emu::recurs`]) and as many trigger events. The next
    /// instruction depends on that state alone, so the run repeats the
    /// instructions between the two until the budget ends. Cycle, retired
    /// and step counts then advance by as many whole periods as keep the
    /// cycle below `max_cycles`, and the rest runs normally.
    ///
    /// A `0x0000` halfword executed into a quiet boundary starts a slide
    /// through the zero fill behind it ([`Emu::slide`]), one cycle per
    /// halfword, instead of a step each.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline was last restored to another snapshot than
    /// `snap` (see [`Emu::recurs`]).
    pub fn run_settling(
        &mut self,
        max_cycles: u64,
        snap: &PipelineSnapshot,
        last_fault: Option<u64>,
        mut injector: impl FnMut(&Window) -> Vec<StageFault>,
    ) -> RunEnd {
        // Brent: the mark moves to the current boundary whenever `since`
        // reaches `power`, which doubles each time.
        let mut mark: Option<Mark> = None;
        let (mut since, mut power) = (0u64, 1u64);
        while self.cycle < max_cycles {
            if !self.quiet(last_fault) {
                mark = None;
            } else if let Some(m) = &mark {
                if self.trigger_cycles.len() == m.triggers && self.emu.recurs(&snap.emu, &m.emu) {
                    self.skip_periods(m, max_cycles);
                    return self.run_with(max_cycles, injector);
                }
                if since == power {
                    mark = Some(self.mark());
                    (since, power) = (0, power * 2);
                }
            } else {
                mark = Some(self.mark());
                (since, power) = (0, 1);
            }
            since += 1;
            match self.step_traced(&mut injector) {
                Ok((Some(end), _)) => return end,
                Ok((None, instr)) => {
                    if instr == ZERO_FILL && self.quiet(last_fault) {
                        self.slide(max_cycles);
                    }
                }
                Err(fault) => return RunEnd::Fault(fault),
            }
        }
        RunEnd::CycleLimit
    }

    /// Passes the zero fill at the PC in one go ([`Emu::slide`]), as
    /// stepping it at a quiet boundary would: each `0x0000` halfword
    /// retires in one cycle, stores nothing and cannot trigger, so the
    /// boundaries inside the run stay quiet. Stops at `max_cycles` at
    /// the latest.
    fn slide(&mut self, max_cycles: u64) {
        let n = self.emu.slide(max_cycles - self.cycle);
        self.cycle += n;
        self.retired += n;
    }

    /// Whether no fault can reach the next instruction: see
    /// [`Pipeline::run_settling`].
    fn quiet(&self, last_fault: Option<u64>) -> bool {
        self.pending_fetch.is_empty()
            && self.emu.load_override.is_none()
            && match (self.trigger_cycles.last(), last_fault) {
                (Some(t), Some(g)) => self.cycle.saturating_sub(*t) > g,
                _ => true,
            }
    }

    fn mark(&self) -> Mark {
        Mark {
            emu: self.emu.fork(),
            cycle: self.cycle,
            retired: self.retired,
            steps: self.emu.steps(),
            triggers: self.trigger_cycles.len(),
        }
    }

    /// Advances the counters by whole periods of the run since `mark`,
    /// staying below `max_cycles`.
    fn skip_periods(&mut self, mark: &Mark, max_cycles: u64) {
        let period = self.cycle - mark.cycle;
        let Some(n) = (max_cycles - 1 - self.cycle).checked_div(period) else { return };
        self.cycle += n * period;
        self.retired += n * (self.retired - mark.retired);
        self.emu.skip_steps(n * (self.emu.steps() - mark.steps));
    }

    /// Executes one instruction under the injector. `Ok(None)` means the
    /// core keeps running.
    ///
    /// # Errors
    ///
    /// Returns the architectural [`Fault`] if execution faults (including
    /// faults provoked by injected corruption).
    pub fn step_with(
        &mut self,
        injector: &mut impl FnMut(&Window) -> Vec<StageFault>,
    ) -> Result<Option<RunEnd>, Fault> {
        self.step_traced(injector).map(|(end, _)| end)
    }

    /// [`Pipeline::step_with`], also returning the instruction the
    /// window held after any execute-stage corruption (skipped or not).
    fn step_traced(
        &mut self,
        injector: &mut impl FnMut(&Window) -> Vec<StageFault>,
    ) -> Result<(Option<RunEnd>, Instr), Fault> {
        let addr = self.emu.pc();
        let mut hw = self.emu.mem.fetch16(addr)?;

        // Apply any fetch-stage corruption that has ripened.
        let mut ripe_mask: u16 = 0xFFFF;
        self.pending_fetch.retain_mut(|(delay, mask)| {
            if *delay == 0 {
                ripe_mask &= *mask;
                false
            } else {
                *delay -= 1;
                true
            }
        });
        hw &= ripe_mask;

        let (instr, size) = self.emu.decode(addr, hw)?;
        let est = self.timing.base_cycles(instr)
            + if instr.is_branch() { self.timing.taken_branch_penalty } else { 0 };
        let window = Window {
            start: self.cycle,
            cycles: est,
            addr,
            instr,
            raw: hw,
            since_trigger: self.trigger_cycles.last().map(|t| self.cycle.saturating_sub(*t)),
            since_first_trigger: self.trigger_cycles.first().map(|t| self.cycle.saturating_sub(*t)),
        };

        let mut exec_hw = hw;
        let mut skip = false;
        for fault in injector(&window) {
            match fault {
                StageFault::CorruptExec { and_mask } => exec_hw &= and_mask,
                StageFault::CorruptFetch { and_mask } => {
                    // Ripens when the poisoned halfword reaches decode:
                    // FETCH_DEPTH instructions after this window.
                    self.pending_fetch.push_back((FETCH_DEPTH - 1, and_mask));
                }
                StageFault::CorruptLoad(ov) => self.emu.load_override = Some(ov),
                StageFault::Skip => skip = true,
                StageFault::Reset => return Ok((Some(RunEnd::Reset), instr)),
            }
        }

        // Re-decode if the in-flight encoding changed.
        let (instr, size) =
            if exec_hw == hw { (instr, size) } else { self.emu.decode(addr, exec_hw)? };

        self.retired += 1;
        if skip {
            self.emu.load_override = None;
            self.emu.set_pc(addr.wrapping_add(size));
            self.cycle += 1;
            return Ok((None, instr));
        }

        let outcome = self.emu.exec(instr, addr, size)?;
        let mut cycles = self.timing.base_cycles(instr);
        match &outcome {
            StepOutcome::Step(step) => {
                if step.branched {
                    cycles += self.timing.taken_branch_penalty;
                }
                if let Some((dest, _)) = step.store {
                    if NVM_RANGE.contains(&dest) {
                        cycles += self.timing.nvm_write;
                    }
                    if dest == TRIGGER_ADDR {
                        // The trigger becomes observable when the store
                        // completes: the next instruction starts at the
                        // recorded cycle.
                        self.trigger_cycles.push(self.cycle + u64::from(cycles));
                    }
                }
                self.cycle += u64::from(cycles);
                Ok((None, instr))
            }
            StepOutcome::Stop { reason, addr } => {
                self.cycle += u64::from(cycles);
                Ok((Some(RunEnd::Stop { reason: *reason, addr: *addr }), instr))
            }
        }
    }

    /// Captures the run state for later [`Pipeline::restore`]: the
    /// emulator, cycle and retired counts, trigger events, and in-flight
    /// fetch corruption. Configuration ([`Pipeline::timing`]) is not part
    /// of it. The memory counts as restored to the new snapshot
    /// ([`Emu::snapshot`]).
    pub fn snapshot(&mut self) -> PipelineSnapshot {
        PipelineSnapshot {
            emu: self.emu.snapshot(),
            cycle: self.cycle,
            retired: self.retired,
            trigger_cycles: self.trigger_cycles.clone(),
            pending_fetch: self.pending_fetch.clone(),
        }
    }

    /// Rolls the run state back to a [`PipelineSnapshot`] of this
    /// pipeline; memory is restored page by page (see [`Emu::restore`]).
    ///
    /// # Panics
    ///
    /// Panics if the memory map changed shape since the snapshot.
    pub fn restore(&mut self, snap: &PipelineSnapshot) {
        self.emu.restore(&snap.emu);
        self.cycle = snap.cycle;
        self.retired = snap.retired;
        self.trigger_cycles.clone_from(&snap.trigger_cycles);
        self.pending_fetch.clone_from(&snap.pending_fetch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_emu::Perms;
    use gd_thumb::asm::assemble;

    const FLASH: u32 = 0x0800_0000;

    fn boot(src: &str) -> Pipeline {
        let mut emu = Emu::new();
        emu.mem.map("flash", FLASH, 0x4000, Perms::RX).unwrap();
        emu.mem.map("sram", 0x2000_0000, 0x4000, Perms::RW).unwrap();
        emu.mem.map("gpio", 0x4800_0000, 0x400, Perms::RW).unwrap();
        emu.mem.map("nvm", 0x0800_F000, 0x1000, Perms::RW).unwrap();
        let prog = assemble(src, FLASH).unwrap_or_else(|e| panic!("{e}"));
        emu.mem.load(FLASH, &prog.code).unwrap();
        emu.set_pc(FLASH);
        emu.cpu.set_sp(0x2000_3000);
        Pipeline::new(emu)
    }

    #[test]
    fn straight_line_cycle_counting() {
        // movs(1) + adds(1) + ldr-lit(2) + bkpt(1).
        let mut p = boot("movs r0, #1\nadds r0, #2\nldr r1, =0x11223344\nbkpt #0");
        let end = p.run(100);
        assert!(matches!(end, RunEnd::Stop { reason: StopReason::Bkpt(0), .. }));
        assert_eq!(p.cycle(), 5);
        assert_eq!(p.retired(), 4);
    }

    #[test]
    fn taken_branches_cost_three() {
        // b(3) + bkpt(1).
        let mut p = boot("b over\nnop\nover: bkpt #0");
        p.run(100);
        assert_eq!(p.cycle(), 4);
    }

    #[test]
    fn untaken_conditional_costs_one() {
        let mut p = boot("movs r0, #1\nbeq nope\nbkpt #0\nnope: bkpt #1");
        let end = p.run(100);
        assert!(matches!(end, RunEnd::Stop { reason: StopReason::Bkpt(0), .. }));
        // movs(1) + beq untaken(1) + bkpt(1).
        assert_eq!(p.cycle(), 3);
    }

    #[test]
    fn paper_loop_is_eight_cycles_per_iteration() {
        // The Table I guard: mov(1) adds(1) ldrb(2) cmp(1) beq taken(3).
        let src = "
        loop:
            mov r3, sp
            adds r3, #7
            ldrb r3, [r3]
            cmp r3, #0
            beq loop
            bkpt #0
        ";
        let mut p = boot(src);
        let end = p.run(80); // exactly 10 iterations
        assert!(matches!(end, RunEnd::CycleLimit));
        assert_eq!(p.cycle(), 80);
        assert_eq!(p.retired(), 50);
    }

    #[test]
    fn trigger_store_is_detected() {
        let src = "
            ldr r0, =0x48000014
            movs r1, #1
            str r1, [r0]
        target:
            nop
            bkpt #0
        ";
        let mut p = boot(src);
        let mut windows = Vec::new();
        p.run_with(100, |w| {
            windows.push((w.addr, w.since_trigger));
            Vec::new()
        });
        let t = p.trigger_cycle().expect("trigger seen");
        // ldr(2) + movs(1) + str(2) = 5.
        assert_eq!(t, 5);
        // The instruction after the store starts exactly at the trigger.
        let target = windows.iter().find(|(_, s)| *s == Some(0)).expect("cycle-0 window");
        assert_eq!(target.1, Some(0));
    }

    #[test]
    fn nvm_stores_stall() {
        let src = "
            ldr r0, =0x0800F000
            movs r1, #7
            str r1, [r0]
            bkpt #0
        ";
        let mut p = boot(src);
        p.run(1_000_000);
        assert!(p.cycle() > 170_000, "flash write dominates: {}", p.cycle());
    }

    #[test]
    fn exec_corruption_changes_the_instruction() {
        // Clearing the top bit of `beq` (0xD0xx) yields a store — here we
        // clear everything: 0x0000 = lsls r0, r0, #0 → branch skipped.
        let src = "
            movs r0, #0
            beq taken
            bkpt #1
        taken:
            bkpt #2
        ";
        let mut p = boot(src);
        let end = p.run_with(100, |w| {
            if matches!(w.instr, Instr::BCond { .. }) {
                vec![StageFault::CorruptExec { and_mask: 0x0000 }]
            } else {
                Vec::new()
            }
        });
        match end {
            RunEnd::Stop { reason: StopReason::Bkpt(1), .. } => {}
            other => panic!("branch should be skipped, got {other:?}"),
        }
    }

    #[test]
    fn fetch_corruption_lands_two_instructions_later() {
        let src = "
            movs r0, #0
            movs r1, #1
            movs r2, #2
            movs r3, #3
            bkpt #0
        ";
        let mut p = boot(src);
        let mut armed = false;
        p.run_with(100, |w| {
            if !armed && w.addr == FLASH {
                armed = true;
                // 0xFF00 mask clears the immediate byte of a movs.
                return vec![StageFault::CorruptFetch { and_mask: 0xFF00 }];
            }
            Vec::new()
        });
        // Injected at instruction 0 → lands on instruction 2 (movs r2, #2).
        assert_eq!(p.emu.cpu.reg(gd_thumb::Reg::R0), 0);
        assert_eq!(p.emu.cpu.reg(gd_thumb::Reg::R1), 1);
        assert_eq!(p.emu.cpu.reg(gd_thumb::Reg::R2), 0, "immediate cleared in flight");
        assert_eq!(p.emu.cpu.reg(gd_thumb::Reg::R3), 3);
    }

    #[test]
    fn load_corruption_and_skip() {
        let src = "
            ldr r0, =0x20000000
            movs r1, #0x55
            str r1, [r0]
            ldr r2, [r0]
            movs r4, #9
            bkpt #0
        ";
        let mut p = boot(src);
        p.run_with(100, |w| {
            let mut faults = Vec::new();
            if matches!(w.instr, Instr::LoadImm { .. }) {
                faults.push(StageFault::CorruptLoad(LoadOverride::Replace(0x08)));
            }
            if matches!(w.instr, Instr::MovImm { rd, .. } if rd == gd_thumb::Reg::R4) {
                faults.push(StageFault::Skip);
            }
            faults
        });
        assert_eq!(p.emu.cpu.reg(gd_thumb::Reg::R2), 0x08, "bus residue");
        assert_eq!(p.emu.cpu.reg(gd_thumb::Reg::R4), 0, "skipped write-back");
    }

    /// A snapshot taken with a fetch corruption still in flight, after
    /// the trigger and a store, replays the rest of the run exactly.
    #[test]
    fn restore_replays_a_run_exactly() {
        let src = "
            ldr r0, =0x48000014
            ldr r2, =0x20000000
            movs r1, #1
            str r1, [r0]
            str r1, [r2]
            movs r3, #3
            movs r4, #4
            str r4, [r2, #4]
            bkpt #0
        ";
        let mut p = boot(src);
        let mut glitch = |w: &Window| {
            if w.since_trigger == Some(0) {
                return vec![StageFault::CorruptFetch { and_mask: 0xFF00 }];
            }
            Vec::new()
        };
        // Step to just after the glitch window: the corruption is queued.
        while p.pending_fetch.is_empty() {
            assert_eq!(p.step_with(&mut glitch), Ok(None));
        }
        let snap = p.snapshot();
        let state =
            |p: &Pipeline| (p.cycle(), p.retired(), p.trigger_cycles().to_vec(), p.emu.cpu.clone());
        let at_snap = state(&p);
        let first = p.run(100);
        let end = state(&p);
        assert_eq!(p.emu.cpu.reg(gd_thumb::Reg::R4), 0, "the fetch glitch landed");
        p.restore(&snap);
        assert_eq!(state(&p), at_snap);
        assert_eq!(p.emu.mem.read32(0x2000_0004).unwrap(), 0, "the store is rolled back");
        assert_eq!(p.run(100), first);
        assert_eq!(state(&p), end);
    }

    #[test]
    fn reset_fault_ends_the_run() {
        let mut p = boot("loop: b loop");
        let end =
            p.run_with(1_000, |w| if w.start >= 30 { vec![StageFault::Reset] } else { Vec::new() });
        assert_eq!(end, RunEnd::Reset);
    }
}
