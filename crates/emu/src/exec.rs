//! The instruction interpreter: fetch, decode, and execute with full
//! ARMv6-M data-path and flag semantics.

use core::fmt;

use gd_thumb::{is_32bit_prefix, thumb_expand_imm_c, AluOp, Instr, Reg, ShiftOp, WideDpOp, Width};

use crate::mem::{Access, MemFault, MemSnapshot, Memory};
use crate::predecode::{classify, PredecodedImage, Slot};
use crate::Cpu;

/// Emulator configuration knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Config {
    /// Treat the all-zeros halfword as an undefined instruction instead of
    /// `LSLS r0, r0, #0`. This models the ISA hardening experiment of the
    /// paper's Figure 2c.
    pub zero_is_invalid: bool,
    /// Decode the Thumb-2 wide subset
    /// ([`decode32_wide`](gd_thumb::decode32_wide)) instead of the pure
    /// ARMv6-M 32-bit space (`BL` only). Off by default: on a Cortex-M0
    /// every wide encoding except `BL` *is* undefined, and the historical
    /// goldens pin that behavior. Ingested third-party images enable it.
    pub wide: bool,
}

/// A one-shot override applied to the next data load — the hook the clock
/// glitch simulator uses to model bus-level data corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOverride {
    /// Replace the loaded value entirely (bus residue).
    Replace(u32),
    /// AND a mask into the loaded value (1→0 flips).
    And(u32),
    /// OR a mask into the loaded value (0→1 flips).
    Or(u32),
}

impl LoadOverride {
    fn apply(self, value: u32) -> u32 {
        match self {
            LoadOverride::Replace(v) => v,
            LoadOverride::And(m) => value & m,
            LoadOverride::Or(m) => value | m,
        }
    }
}

/// How an injected fault affects the instruction stream at its site.
///
/// All three kinds act at the *fetch* of the first halfword: the faulted
/// site's bytes in memory are never modified, and a second halfword
/// consumed by a 32-bit encoding is always read from real memory. This
/// models corruption on the instruction bus (Moro et al.'s EM fault
/// model) rather than flash rewrites, and it is what makes architectural
/// pruning sound — the effect of a fault at an address never depends on
/// which other faults are active elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectKind {
    /// The fetch returns `hw` instead of the halfword in memory. If `hw`
    /// is a 32-bit prefix, the second halfword is fetched from memory at
    /// `addr + 2` as usual.
    Corrupt {
        /// The halfword seen by the fetch stage.
        hw: u16,
    },
    /// The instruction at the site is fetched but not executed: the PC
    /// advances by the encoding's size (2, or 4 for a 32-bit prefix) and
    /// one step is consumed, as if the instruction were a NOP.
    Skip,
    /// The instruction executes normally but its first data load goes
    /// through the [`LoadOverride`] (data-bus corruption synchronized to
    /// this fetch). Instructions that perform no load are unaffected.
    LoadBus(LoadOverride),
}

/// Whether an injected fault fires once or on every fetch of its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persistence {
    /// The fault affects the next fetch of the site only, then disarms —
    /// a one-cycle glitch.
    Transient,
    /// The fault affects every fetch of the site for the rest of the run
    /// (an I-bus stuck-at; cleared only by [`Emu::clear_injections`] or
    /// [`Emu::restore`] to a pre-injection snapshot).
    Permanent,
}

/// One armed fault at one fetch address — the multi-fault counterpart of
/// the single-shot [`Emu::load_override`] hook. Applied by [`Emu::step`]
/// when the PC reaches `addr`; see [`InjectKind`] for the semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Fetch address the fault is tied to (bit 0 ignored).
    pub addr: u32,
    /// What the fault does to the fetch.
    pub kind: InjectKind,
    /// One-shot or sticky.
    pub persistence: Persistence,
    armed: bool,
}

impl Injection {
    /// A new, armed injection at `addr`.
    pub fn new(addr: u32, kind: InjectKind, persistence: Persistence) -> Injection {
        Injection { addr: addr & !1, kind, persistence, armed: true }
    }

    /// Whether the injection will still fire ([`Persistence::Transient`]
    /// faults disarm after their first fetch).
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

/// Why execution stopped without a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// A `BKPT #imm` was executed.
    Bkpt(u8),
    /// An `SVC #imm` was executed (no supervisor is modelled).
    Svc(u8),
    /// A `WFI` put the core to sleep.
    Wfi,
    /// A `WFE` put the core to sleep.
    Wfe,
}

/// A hard fault: execution cannot continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// A data or fetch memory fault.
    Mem(MemFault),
    /// An undefined instruction was fetched.
    Undefined {
        /// Address of the instruction.
        addr: u32,
        /// First (or only) halfword.
        hw: u16,
        /// Second halfword for 32-bit patterns.
        hw2: Option<u16>,
    },
    /// A branch attempted to enter ARM state (target bit 0 clear).
    InterworkArm {
        /// Address of the branching instruction.
        addr: u32,
        /// The attempted target.
        target: u32,
    },
}

impl Fault {
    /// Whether this is a data-read fault (*Bad Read* in the paper).
    pub fn is_bad_read(&self) -> bool {
        matches!(self, Fault::Mem(MemFault { access: Access::Read, .. }))
    }

    /// Whether this is a fetch fault (*Bad Fetch* in the paper).
    pub fn is_bad_fetch(&self) -> bool {
        matches!(self, Fault::Mem(MemFault { access: Access::Fetch, .. }))
    }

    /// Whether this is an undefined-instruction fault.
    pub fn is_undefined(&self) -> bool {
        matches!(self, Fault::Undefined { .. })
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Mem(m) => write!(f, "memory fault: {m}"),
            Fault::Undefined { addr, hw, hw2: None } => {
                write!(f, "undefined instruction {hw:#06x} at {addr:#010x}")
            }
            Fault::Undefined { addr, hw, hw2: Some(h2) } => {
                write!(f, "undefined instruction {hw:#06x} {h2:#06x} at {addr:#010x}")
            }
            Fault::InterworkArm { addr, target } => {
                write!(f, "interworking branch to ARM state ({target:#010x}) at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for Fault {}

impl From<MemFault> for Fault {
    fn from(value: MemFault) -> Self {
        Fault::Mem(value)
    }
}

/// Everything observable about one executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Address the instruction was executed from.
    pub addr: u32,
    /// The instruction.
    pub instr: Instr,
    /// Size in bytes.
    pub size: u32,
    /// The PC after this instruction.
    pub next_pc: u32,
    /// Whether control flow was redirected.
    pub branched: bool,
    /// Number of data words/bytes loaded.
    pub loads: u8,
    /// Number of data words/bytes stored.
    pub stores: u8,
    /// The last store performed, as `(address, value)` — used by the
    /// pipeline simulator to spot GPIO trigger writes.
    pub store: Option<(u32, u32)>,
}

/// Result of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction executed; state advanced.
    Step(Step),
    /// Execution stopped (breakpoint, SVC, sleep).
    Stop {
        /// Why.
        reason: StopReason,
        /// Address of the stopping instruction.
        addr: u32,
    },
}

/// Result of a bounded [`Emu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Execution stopped cleanly.
    Stop {
        /// Why.
        reason: StopReason,
        /// Address of the stopping instruction.
        addr: u32,
        /// Instructions executed (including the stopping one).
        steps: u64,
    },
    /// Execution faulted.
    Fault {
        /// The fault.
        fault: Fault,
        /// Instructions executed before the fault.
        steps: u64,
    },
    /// The step budget ran out (e.g. an infinite loop still looping).
    StepLimit {
        /// Instructions executed.
        steps: u64,
    },
}

/// The architectural emulator: CPU + memory + program counter.
///
/// ```
/// use gd_emu::{Emu, Perms};
/// use gd_thumb::asm::assemble;
///
/// let mut emu = Emu::new();
/// emu.mem.map("flash", 0, 0x1000, Perms::RX)?;
/// let prog = assemble("movs r0, #42\nbkpt #0\n", 0)?;
/// emu.mem.load(0, &prog.code)?;
/// emu.set_pc(0);
/// emu.run(100);
/// assert_eq!(emu.cpu.reg(gd_thumb::Reg::R0), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Emu {
    /// Architectural register/flag state.
    pub cpu: Cpu,
    /// The memory map.
    pub mem: Memory,
    /// Configuration.
    pub cfg: Config,
    /// One-shot override for the next data load (fault-injection hook).
    pub load_override: Option<LoadOverride>,
    pc: u32,
    steps: u64,
    injections: Vec<Injection>,
}

/// A point-in-time copy of an [`Emu`]'s state, created by
/// [`Emu::snapshot`] and consumed by [`Emu::restore`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    cpu: Cpu,
    cfg: Config,
    load_override: Option<LoadOverride>,
    pc: u32,
    steps: u64,
    mem: MemSnapshot,
    injections: Vec<Injection>,
}

impl Emu {
    /// A fresh emulator with an empty memory map.
    pub fn new() -> Emu {
        Emu::default()
    }

    /// A fresh emulator with the given configuration.
    pub fn with_config(cfg: Config) -> Emu {
        Emu { cfg, ..Emu::default() }
    }

    /// Current program counter (address of the next instruction).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter. Bit 0 (the Thumb bit) is cleared.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc & !1;
    }

    /// Instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Arms an [`Injection`] (see [`InjectKind`] for fault semantics).
    ///
    /// Multiple injections may be armed at once (a multi-fault trial);
    /// at most one fires per fetch — the first armed entry whose address
    /// matches the PC, in arming order. Callers dispatching through
    /// [`Emu::step_predecoded`] must
    /// [`PredecodedImage::invalidate_range`] every injected site so
    /// dispatch falls back to the live path where injections apply.
    pub fn inject(&mut self, injection: Injection) {
        self.injections.push(injection);
    }

    /// Disarms and removes every injection.
    pub fn clear_injections(&mut self) {
        self.injections.clear();
    }

    /// The currently registered injections (armed or spent).
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// Fetches, decodes, and executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] for memory faults, undefined instructions, and
    /// ARM-interworking attempts.
    pub fn step(&mut self) -> Result<StepOutcome, Fault> {
        if !self.injections.is_empty() {
            if let Some(i) = self.injections.iter().position(|inj| inj.armed && inj.addr == self.pc)
            {
                return self.step_injected(i);
            }
        }
        let addr = self.pc;
        let hw = self.mem.fetch16(addr)?;
        let (instr, size) = self.decode(addr, hw)?;
        self.exec(instr, addr, size)
    }

    /// Executes one step with `self.injections[idx]` applied to the fetch.
    /// Out of line: trials arm at most a couple of injections and visit
    /// them a handful of times, while the un-injected fast path runs
    /// millions of steps.
    #[cold]
    fn step_injected(&mut self, idx: usize) -> Result<StepOutcome, Fault> {
        let addr = self.pc;
        let inj = self.injections[idx];
        // Disarm before executing: a transient fault happened on this
        // fetch whether or not the corrupted stream then faults.
        if inj.persistence == Persistence::Transient {
            self.injections[idx].armed = false;
        }
        match inj.kind {
            InjectKind::Corrupt { hw } => {
                let (instr, size) = self.decode(addr, hw)?;
                self.exec(instr, addr, size)
            }
            InjectKind::Skip => {
                // The skipped encoding's size comes from the prefix bit
                // alone, so even undecodable patterns skip cleanly; the
                // fetches still happen, so fetch faults are preserved.
                let hw = self.mem.fetch16(addr)?;
                let size = if is_32bit_prefix(hw) {
                    self.mem.fetch16(addr.wrapping_add(2))?;
                    4
                } else {
                    2
                };
                let next_pc = addr.wrapping_add(size);
                self.steps += 1;
                self.pc = next_pc;
                Ok(StepOutcome::Step(Step {
                    addr,
                    instr: Instr::Hint { hint: gd_thumb::Hint::Nop },
                    size,
                    next_pc,
                    branched: false,
                    loads: 0,
                    stores: 0,
                    store: None,
                }))
            }
            InjectKind::LoadBus(ov) => {
                let hw = self.mem.fetch16(addr)?;
                let (instr, size) = self.decode(addr, hw)?;
                self.load_override = Some(ov);
                let out = self.exec(instr, addr, size);
                // The override is synchronized to this fetch only: drop
                // it unconsumed rather than let it leak to a later load.
                self.load_override = None;
                out
            }
        }
    }

    /// Decodes the instruction whose first halfword `hw` was fetched from
    /// `addr`, fetching a second halfword if needed.
    ///
    /// Decode truth lives in [`classify`], shared with
    /// [`PredecodedImage`] so the cached and live paths cannot drift. The
    /// two failure modes of a 32-bit encoding stay distinct: a fetch
    /// fault on the second halfword propagates as [`Fault::Mem`] at
    /// `addr + 2`, while an undefined 32-bit pattern becomes
    /// [`Fault::Undefined`] carrying both halfwords.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] for undefined patterns or a fetch fault on the
    /// second halfword.
    pub fn decode(&mut self, addr: u32, hw: u16) -> Result<(Instr, u32), Fault> {
        let hw2 =
            if is_32bit_prefix(hw) { Some(self.mem.fetch16(addr.wrapping_add(2))?) } else { None };
        match classify(hw, hw2, self.cfg) {
            Slot::Instr { instr, size } => Ok((instr, size)),
            Slot::Undefined { hw, hw2 } => Err(Fault::Undefined { addr, hw, hw2 }),
            // classify only defers when a prefix's second halfword is
            // unknown, and we always fetched it above.
            Slot::Incomplete { .. } | Slot::Live => {
                unreachable!("second halfword fetched for 32-bit prefix")
            }
        }
    }

    /// Like [`Emu::step`], but dispatching from a predecoded micro-op
    /// table instead of decoding the fetched halfword.
    ///
    /// Addresses outside the image, slots the image marks [`Slot::Live`]
    /// (perturbed halfwords), and [`Slot::Incomplete`] prefixes at the
    /// image edge fall back to the ordinary fetch/decode path — this is
    /// the perturbed-address fallback rule the glitch sweeps rely on, and
    /// what turns an image-edge prefix with nothing mapped after it into
    /// a fetch fault at `addr + 2` rather than an undefined instruction.
    ///
    /// The caller must ensure the image was built from this emulator's
    /// current memory under the same [`Config`] (perturbed addresses
    /// excepted, via [`PredecodedImage::invalidate`]); the cached path
    /// skips the architectural fetch, so stale slots would silently
    /// diverge from [`Emu::step`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`Emu::step`].
    pub fn step_predecoded(&mut self, image: &PredecodedImage) -> Result<StepOutcome, Fault> {
        debug_assert_eq!(image.cfg(), self.cfg, "image decoded under a different Config");
        let addr = self.pc;
        match image.slot(addr) {
            Some(Slot::Instr { instr, size }) => self.exec(instr, addr, size),
            // Live decode reports undefined patterns before `exec` runs,
            // so the cached arm must not touch the step counter either.
            Some(Slot::Undefined { hw, hw2 }) => Err(Fault::Undefined { addr, hw, hw2 }),
            Some(Slot::Incomplete { .. }) | Some(Slot::Live) | None => self.step(),
        }
    }

    /// Runs until a stop, fault, or the step budget is exhausted.
    pub fn run(&mut self, max_steps: u64) -> RunOutcome {
        for _ in 0..max_steps {
            match self.step() {
                Ok(StepOutcome::Step(_)) => {}
                Ok(StepOutcome::Stop { reason, addr }) => {
                    return RunOutcome::Stop { reason, addr, steps: self.steps }
                }
                Err(fault) => return RunOutcome::Fault { fault, steps: self.steps },
            }
        }
        RunOutcome::StepLimit { steps: self.steps }
    }

    /// [`Emu::run`] over the predecoded dispatch path of
    /// [`Emu::step_predecoded`].
    pub fn run_predecoded(&mut self, max_steps: u64, image: &PredecodedImage) -> RunOutcome {
        for _ in 0..max_steps {
            match self.step_predecoded(image) {
                Ok(StepOutcome::Step(_)) => {}
                Ok(StepOutcome::Stop { reason, addr }) => {
                    return RunOutcome::Stop { reason, addr, steps: self.steps }
                }
                Err(fault) => return RunOutcome::Fault { fault, steps: self.steps },
            }
        }
        RunOutcome::StepLimit { steps: self.steps }
    }

    /// Captures the full emulator state for later [`Emu::restore`].
    ///
    /// Snapshot/restore is the sweep hot loop's alternative to booting a
    /// fresh emulator per trial: boot once, snapshot, then restore before
    /// each perturbed run.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cpu: self.cpu.clone(),
            cfg: self.cfg,
            load_override: self.load_override,
            pc: self.pc,
            steps: self.steps,
            mem: self.mem.snapshot(),
            injections: self.injections.clone(),
        }
    }

    /// Restores a [`Snapshot`] taken from this emulator.
    ///
    /// Register state is always restored; region contents are copied back
    /// page by page, only where the emulated program stored since the
    /// last restore to this snapshot (see [`Memory::restore`]).
    /// Loader-style writes via [`Memory::load`] are deliberately *not*
    /// tracked — the sweep loop re-pokes the same target halfword after
    /// every restore instead.
    ///
    /// # Panics
    ///
    /// Panics if the memory map changed shape since the snapshot (regions
    /// mapped or unmapped); restore only rolls back contents.
    pub fn restore(&mut self, snap: &Snapshot) {
        self.cpu = snap.cpu.clone();
        self.cfg = snap.cfg;
        self.load_override = snap.load_override;
        self.pc = snap.pc;
        self.steps = snap.steps;
        self.mem.restore(&snap.mem);
        self.injections.clear();
        self.injections.extend_from_slice(&snap.injections);
    }

    fn read_reg(&self, r: Reg, addr: u32) -> u32 {
        if r == Reg::PC {
            addr.wrapping_add(4)
        } else {
            self.cpu.reg(r)
        }
    }

    fn set_nz(&mut self, value: u32) {
        self.cpu.flags.n = value & 0x8000_0000 != 0;
        self.cpu.flags.z = value == 0;
    }

    fn load(&mut self, addr: u32, width: Width) -> Result<u32, Fault> {
        let raw = match width {
            Width::Byte => u32::from(self.mem.read8(addr)?),
            Width::Half => u32::from(self.mem.read16(addr)?),
            Width::Word => self.mem.read32(addr)?,
        };
        let value = match self.load_override.take() {
            Some(ov) => {
                let mask = match width {
                    Width::Byte => 0xFF,
                    Width::Half => 0xFFFF,
                    Width::Word => u32::MAX,
                };
                ov.apply(raw) & mask
            }
            None => raw,
        };
        Ok(value)
    }

    /// Executes an already-decoded instruction at `addr`, advancing the PC.
    ///
    /// This is the entry point used by the pipeline simulator, which does
    /// its own (possibly glitch-corrupted) fetching.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] for memory faults and interworking attempts.
    #[allow(clippy::too_many_lines)]
    pub fn exec(&mut self, instr: Instr, addr: u32, size: u32) -> Result<StepOutcome, Fault> {
        self.steps += 1;
        let mut step = Step {
            addr,
            instr,
            size,
            next_pc: addr.wrapping_add(size),
            branched: false,
            loads: 0,
            stores: 0,
            store: None,
        };
        match instr {
            Instr::ShiftImm { op, rd, rm, imm5 } => {
                let x = self.read_reg(rm, addr);
                let (result, carry) = shift_imm(op, x, imm5, self.cpu.flags.c);
                self.cpu.set_reg(rd, result);
                self.set_nz(result);
                self.cpu.flags.c = carry;
            }
            Instr::AddReg3 { rd, rn, rm } => {
                let (r, c, v) =
                    add_with_carry(self.read_reg(rn, addr), self.read_reg(rm, addr), false);
                self.cpu.set_reg(rd, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            Instr::SubReg3 { rd, rn, rm } => {
                let (r, c, v) =
                    add_with_carry(self.read_reg(rn, addr), !self.read_reg(rm, addr), true);
                self.cpu.set_reg(rd, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            Instr::AddImm3 { rd, rn, imm3 } => {
                let (r, c, v) = add_with_carry(self.read_reg(rn, addr), u32::from(imm3), false);
                self.cpu.set_reg(rd, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            Instr::SubImm3 { rd, rn, imm3 } => {
                let (r, c, v) = add_with_carry(self.read_reg(rn, addr), !u32::from(imm3), true);
                self.cpu.set_reg(rd, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            Instr::MovImm { rd, imm8 } => {
                let v = u32::from(imm8);
                self.cpu.set_reg(rd, v);
                self.set_nz(v);
            }
            Instr::CmpImm { rn, imm8 } => {
                let (r, c, v) = add_with_carry(self.read_reg(rn, addr), !u32::from(imm8), true);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            Instr::AddImm8 { rdn, imm8 } => {
                let (r, c, v) = add_with_carry(self.read_reg(rdn, addr), u32::from(imm8), false);
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            Instr::SubImm8 { rdn, imm8 } => {
                let (r, c, v) = add_with_carry(self.read_reg(rdn, addr), !u32::from(imm8), true);
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            Instr::Alu { op, rdn, rm } => self.exec_alu(op, rdn, rm, addr),
            Instr::AddHi { rdn, rm } => {
                let r = self.read_reg(rdn, addr).wrapping_add(self.read_reg(rm, addr));
                if rdn == Reg::PC {
                    step.next_pc = r & !1;
                    step.branched = true;
                } else {
                    self.cpu.set_reg(rdn, r);
                }
            }
            Instr::CmpHi { rn, rm } => {
                let (r, c, v) =
                    add_with_carry(self.read_reg(rn, addr), !self.read_reg(rm, addr), true);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            Instr::MovHi { rd, rm } => {
                let v = self.read_reg(rm, addr);
                if rd == Reg::PC {
                    step.next_pc = v & !1;
                    step.branched = true;
                } else {
                    self.cpu.set_reg(rd, v);
                }
            }
            Instr::Bx { rm } | Instr::Blx { rm } => {
                let target = self.read_reg(rm, addr);
                if target & 1 == 0 {
                    return Err(Fault::InterworkArm { addr, target });
                }
                if matches!(instr, Instr::Blx { .. }) {
                    self.cpu.set_reg(Reg::LR, addr.wrapping_add(2) | 1);
                }
                step.next_pc = target & !1;
                step.branched = true;
            }
            Instr::LdrLit { rt, imm8 } => {
                let base = addr.wrapping_add(4) & !3;
                let v = self.load(base.wrapping_add(u32::from(imm8) * 4), Width::Word)?;
                self.cpu.set_reg(rt, v);
                step.loads = 1;
            }
            Instr::StoreReg { width, rt, rn, rm } => {
                let a = self.read_reg(rn, addr).wrapping_add(self.read_reg(rm, addr));
                let v = self.read_reg(rt, addr);
                self.store(a, v, width)?;
                step.stores = 1;
                step.store = Some((a, v));
            }
            Instr::LoadReg { width, rt, rn, rm } => {
                let a = self.read_reg(rn, addr).wrapping_add(self.read_reg(rm, addr));
                let v = self.load(a, width)?;
                self.cpu.set_reg(rt, v);
                step.loads = 1;
            }
            Instr::LdrsbReg { rt, rn, rm } => {
                let a = self.read_reg(rn, addr).wrapping_add(self.read_reg(rm, addr));
                let v = self.load(a, Width::Byte)? as i8;
                self.cpu.set_reg(rt, v as i32 as u32);
                step.loads = 1;
            }
            Instr::LdrshReg { rt, rn, rm } => {
                let a = self.read_reg(rn, addr).wrapping_add(self.read_reg(rm, addr));
                let v = self.load(a, Width::Half)? as u16 as i16;
                self.cpu.set_reg(rt, v as i32 as u32);
                step.loads = 1;
            }
            Instr::StoreImm { width, rt, rn, imm5 } => {
                let a = self.read_reg(rn, addr).wrapping_add(u32::from(imm5) * width.bytes());
                let v = self.read_reg(rt, addr);
                self.store(a, v, width)?;
                step.stores = 1;
                step.store = Some((a, v));
            }
            Instr::LoadImm { width, rt, rn, imm5 } => {
                let a = self.read_reg(rn, addr).wrapping_add(u32::from(imm5) * width.bytes());
                let v = self.load(a, width)?;
                self.cpu.set_reg(rt, v);
                step.loads = 1;
            }
            Instr::StrSp { rt, imm8 } => {
                let a = self.cpu.sp().wrapping_add(u32::from(imm8) * 4);
                let v = self.read_reg(rt, addr);
                self.store(a, v, Width::Word)?;
                step.stores = 1;
                step.store = Some((a, v));
            }
            Instr::LdrSp { rt, imm8 } => {
                let a = self.cpu.sp().wrapping_add(u32::from(imm8) * 4);
                let v = self.load(a, Width::Word)?;
                self.cpu.set_reg(rt, v);
                step.loads = 1;
            }
            Instr::Adr { rd, imm8 } => {
                let base = addr.wrapping_add(4) & !3;
                self.cpu.set_reg(rd, base.wrapping_add(u32::from(imm8) * 4));
            }
            Instr::AddSpImm { rd, imm8 } => {
                let v = self.cpu.sp().wrapping_add(u32::from(imm8) * 4);
                self.cpu.set_reg(rd, v);
            }
            Instr::AddSp { imm7 } => {
                let v = self.cpu.sp().wrapping_add(u32::from(imm7) * 4);
                self.cpu.set_sp(v);
            }
            Instr::SubSp { imm7 } => {
                let v = self.cpu.sp().wrapping_sub(u32::from(imm7) * 4);
                self.cpu.set_sp(v);
            }
            Instr::Sxth { rd, rm } => {
                let v = self.read_reg(rm, addr) as u16 as i16 as i32 as u32;
                self.cpu.set_reg(rd, v);
            }
            Instr::Sxtb { rd, rm } => {
                let v = self.read_reg(rm, addr) as u8 as i8 as i32 as u32;
                self.cpu.set_reg(rd, v);
            }
            Instr::Uxth { rd, rm } => {
                self.cpu.set_reg(rd, self.read_reg(rm, addr) & 0xFFFF);
            }
            Instr::Uxtb { rd, rm } => {
                self.cpu.set_reg(rd, self.read_reg(rm, addr) & 0xFF);
            }
            Instr::Rev { rd, rm } => {
                self.cpu.set_reg(rd, self.read_reg(rm, addr).swap_bytes());
            }
            Instr::Rev16 { rd, rm } => {
                let x = self.read_reg(rm, addr);
                let v = (x & 0x00FF_00FF) << 8 | (x & 0xFF00_FF00) >> 8;
                self.cpu.set_reg(rd, v);
            }
            Instr::Revsh { rd, rm } => {
                let x = self.read_reg(rm, addr);
                let swapped = ((x & 0xFF) << 8 | (x >> 8) & 0xFF) as u16;
                self.cpu.set_reg(rd, swapped as i16 as i32 as u32);
            }
            Instr::Push { rlist, lr } => {
                let count = rlist.count_ones() + u32::from(lr);
                let base = self.cpu.sp().wrapping_sub(4 * count);
                let mut a = base;
                for i in 0..8 {
                    if rlist & (1 << i) != 0 {
                        let v = self.cpu.reg(Reg::new(i).expect("list index < 8"));
                        self.store(a, v, Width::Word)?;
                        step.store = Some((a, v));
                        a += 4;
                    }
                }
                if lr {
                    let v = self.cpu.lr();
                    self.store(a, v, Width::Word)?;
                    step.store = Some((a, v));
                }
                self.cpu.set_sp(base);
                step.stores = count as u8;
            }
            Instr::Pop { rlist, pc } => {
                let count = rlist.count_ones() + u32::from(pc);
                let mut a = self.cpu.sp();
                for i in 0..8 {
                    if rlist & (1 << i) != 0 {
                        let v = self.load(a, Width::Word)?;
                        self.cpu.set_reg(Reg::new(i).expect("list index < 8"), v);
                        a += 4;
                    }
                }
                if pc {
                    let target = self.load(a, Width::Word)?;
                    if target & 1 == 0 {
                        return Err(Fault::InterworkArm { addr, target });
                    }
                    step.next_pc = target & !1;
                    step.branched = true;
                    a += 4;
                }
                self.cpu.set_sp(a);
                step.loads = count as u8;
            }
            Instr::Bkpt { imm8 } => {
                return Ok(StepOutcome::Stop { reason: StopReason::Bkpt(imm8), addr })
            }
            Instr::Hint { hint } => match hint {
                gd_thumb::Hint::Wfi => {
                    return Ok(StepOutcome::Stop { reason: StopReason::Wfi, addr })
                }
                gd_thumb::Hint::Wfe => {
                    return Ok(StepOutcome::Stop { reason: StopReason::Wfe, addr })
                }
                _ => {}
            },
            Instr::Cps { disable } => self.cpu.primask = disable,
            Instr::Stm { rn, rlist } => {
                let mut a = self.read_reg(rn, addr);
                let count = rlist.count_ones();
                for i in 0..8 {
                    if rlist & (1 << i) != 0 {
                        let v = self.cpu.reg(Reg::new(i).expect("list index < 8"));
                        self.store(a, v, Width::Word)?;
                        step.store = Some((a, v));
                        a += 4;
                    }
                }
                self.cpu.set_reg(rn, a);
                step.stores = count as u8;
            }
            Instr::Ldm { rn, rlist } => {
                let mut a = self.read_reg(rn, addr);
                let count = rlist.count_ones();
                for i in 0..8 {
                    if rlist & (1 << i) != 0 {
                        let v = self.load(a, Width::Word)?;
                        self.cpu.set_reg(Reg::new(i).expect("list index < 8"), v);
                        a += 4;
                    }
                }
                // Writeback unless rn is in the transfer list.
                if rlist & (1 << rn.index()) == 0 {
                    self.cpu.set_reg(rn, a);
                }
                step.loads = count as u8;
            }
            Instr::BCond { cond, offset } => {
                if cond.holds(self.cpu.flags) {
                    step.next_pc = addr.wrapping_add(4).wrapping_add(offset as u32);
                    step.branched = true;
                }
            }
            Instr::Udf { imm8: _ } => return Err(Fault::Undefined { addr, hw: 0xDE00, hw2: None }),
            Instr::Svc { imm8 } => {
                return Ok(StepOutcome::Stop { reason: StopReason::Svc(imm8), addr })
            }
            Instr::B { offset } => {
                step.next_pc = addr.wrapping_add(4).wrapping_add(offset as u32);
                step.branched = true;
            }
            Instr::Bl { offset } => {
                self.cpu.set_reg(Reg::LR, addr.wrapping_add(4) | 1);
                step.next_pc = addr.wrapping_add(4).wrapping_add(offset as u32);
                step.branched = true;
            }
            Instr::BW { offset } => {
                step.next_pc = addr.wrapping_add(4).wrapping_add(offset as u32);
                step.branched = true;
            }
            Instr::BCondW { cond, offset } => {
                if cond.holds(self.cpu.flags) {
                    step.next_pc = addr.wrapping_add(4).wrapping_add(offset as u32);
                    step.branched = true;
                }
            }
            Instr::DpImm { op, s, rn, rd, imm12 } => {
                let c_in = self.cpu.flags.c;
                let (imm, imm_c) = thumb_expand_imm_c(imm12, c_in);
                // The MOV/MVN forms (rn == PC) never read their operand.
                let a = if rn == Reg::PC { 0 } else { self.read_reg(rn, addr) };
                // Logical ops take C from the immediate expansion and
                // leave V alone; arithmetic ops take both from the adder.
                let (r, c, v) = match op {
                    WideDpOp::And => (a & imm, imm_c, None),
                    WideDpOp::Bic => (a & !imm, imm_c, None),
                    WideDpOp::Orr => (if rn == Reg::PC { imm } else { a | imm }, imm_c, None),
                    WideDpOp::Orn => (if rn == Reg::PC { !imm } else { a | !imm }, imm_c, None),
                    WideDpOp::Eor => (a ^ imm, imm_c, None),
                    WideDpOp::Add => map3(add_with_carry(a, imm, false)),
                    WideDpOp::Adc => map3(add_with_carry(a, imm, c_in)),
                    WideDpOp::Sbc => map3(add_with_carry(a, !imm, c_in)),
                    WideDpOp::Sub => map3(add_with_carry(a, !imm, true)),
                    WideDpOp::Rsb => map3(add_with_carry(!a, imm, true)),
                };
                // rd == PC encodes the compare/test form: flags only.
                if rd != Reg::PC {
                    self.cpu.set_reg(rd, r);
                }
                if s {
                    self.set_nz(r);
                    self.cpu.flags.c = c;
                    if let Some(v) = v {
                        self.cpu.flags.v = v;
                    }
                }
            }
            Instr::MovW { rd, imm16 } => {
                self.cpu.set_reg(rd, u32::from(imm16));
            }
            Instr::MovT { rd, imm16 } => {
                let r = self.cpu.reg(rd) & 0xFFFF | u32::from(imm16) << 16;
                self.cpu.set_reg(rd, r);
            }
            Instr::LdrW { rt, rn, imm12 } => {
                let base =
                    if rn == Reg::PC { addr.wrapping_add(4) & !3 } else { self.read_reg(rn, addr) };
                let v = self.load(base.wrapping_add(u32::from(imm12)), Width::Word)?;
                step.loads = 1;
                if rt == Reg::PC {
                    // A load into PC is an interworking branch: bit 0
                    // must select Thumb state, exactly as BX.
                    if v & 1 == 0 {
                        return Err(Fault::InterworkArm { addr, target: v });
                    }
                    step.next_pc = v & !1;
                    step.branched = true;
                } else {
                    self.cpu.set_reg(rt, v);
                }
            }
            Instr::StrW { rt, rn, imm12 } => {
                let a = self.read_reg(rn, addr).wrapping_add(u32::from(imm12));
                let v = self.read_reg(rt, addr);
                self.store(a, v, Width::Word)?;
                step.stores = 1;
                step.store = Some((a, v));
            }
        }
        self.pc = step.next_pc;
        Ok(StepOutcome::Step(step))
    }

    fn store(&mut self, addr: u32, value: u32, width: Width) -> Result<(), Fault> {
        match width {
            Width::Byte => self.mem.write8(addr, value as u8)?,
            Width::Half => self.mem.write16(addr, value as u16)?,
            Width::Word => self.mem.write32(addr, value)?,
        }
        Ok(())
    }

    fn exec_alu(&mut self, op: AluOp, rdn: Reg, rm: Reg, addr: u32) {
        let a = self.read_reg(rdn, addr);
        let b = self.read_reg(rm, addr);
        let c_in = self.cpu.flags.c;
        match op {
            AluOp::And | AluOp::Tst => {
                let r = a & b;
                if op == AluOp::And {
                    self.cpu.set_reg(rdn, r);
                }
                self.set_nz(r);
            }
            AluOp::Eor => {
                let r = a ^ b;
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
            }
            AluOp::Orr => {
                let r = a | b;
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
            }
            AluOp::Bic => {
                let r = a & !b;
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
            }
            AluOp::Mvn => {
                let r = !b;
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
            }
            AluOp::Mul => {
                let r = a.wrapping_mul(b);
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
            }
            AluOp::Lsl | AluOp::Lsr | AluOp::Asr | AluOp::Ror => {
                let (r, carry) = shift_reg(op, a, b & 0xFF, c_in);
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
                self.cpu.flags.c = carry;
            }
            AluOp::Adc => {
                let (r, c, v) = add_with_carry(a, b, c_in);
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            AluOp::Sbc => {
                let (r, c, v) = add_with_carry(a, !b, c_in);
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            AluOp::Rsb => {
                let (r, c, v) = add_with_carry(!b, 0, true);
                self.cpu.set_reg(rdn, r);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            AluOp::Cmp => {
                let (r, c, v) = add_with_carry(a, !b, true);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
            AluOp::Cmn => {
                let (r, c, v) = add_with_carry(a, b, false);
                self.set_nz(r);
                self.cpu.flags.c = c;
                self.cpu.flags.v = v;
            }
        }
    }
}

/// `AddWithCarry` from the ARM ARM pseudocode: returns (result, carry,
/// overflow).
pub fn add_with_carry(a: u32, b: u32, carry_in: bool) -> (u32, bool, bool) {
    let unsigned = u64::from(a) + u64::from(b) + u64::from(carry_in);
    let result = unsigned as u32;
    let carry = unsigned >> 32 != 0;
    let signed = i64::from(a as i32) + i64::from(b as i32) + i64::from(carry_in);
    let overflow = signed != i64::from(result as i32);
    (result, carry, overflow)
}

/// Tags an [`add_with_carry`] result so it slots into the wide
/// data-processing arm, where logical ops carry `None` for V.
fn map3((r, c, v): (u32, bool, bool)) -> (u32, bool, Option<bool>) {
    (r, c, Some(v))
}

fn shift_imm(op: ShiftOp, x: u32, imm5: u8, c_in: bool) -> (u32, bool) {
    let n = u32::from(imm5);
    match op {
        ShiftOp::Lsl => {
            if n == 0 {
                (x, c_in)
            } else {
                ((x << n), (x >> (32 - n)) & 1 != 0)
            }
        }
        ShiftOp::Lsr => {
            if n == 0 {
                (0, x >> 31 != 0)
            } else {
                (x >> n, (x >> (n - 1)) & 1 != 0)
            }
        }
        ShiftOp::Asr => {
            if n == 0 {
                let sign = x >> 31 != 0;
                (if sign { u32::MAX } else { 0 }, sign)
            } else {
                (((x as i32) >> n) as u32, ((x as i32) >> (n - 1)) & 1 != 0)
            }
        }
    }
}

fn shift_reg(op: AluOp, x: u32, amount: u32, c_in: bool) -> (u32, bool) {
    if amount == 0 {
        return (x, c_in);
    }
    match op {
        AluOp::Lsl => match amount {
            1..=31 => (x << amount, (x >> (32 - amount)) & 1 != 0),
            32 => (0, x & 1 != 0),
            _ => (0, false),
        },
        AluOp::Lsr => match amount {
            1..=31 => (x >> amount, (x >> (amount - 1)) & 1 != 0),
            32 => (0, x >> 31 != 0),
            _ => (0, false),
        },
        AluOp::Asr => {
            if amount < 32 {
                (((x as i32) >> amount) as u32, ((x as i32) >> (amount - 1)) & 1 != 0)
            } else {
                let sign = x >> 31 != 0;
                (if sign { u32::MAX } else { 0 }, sign)
            }
        }
        AluOp::Ror => {
            let r = amount % 32;
            if r == 0 {
                (x, x >> 31 != 0)
            } else {
                let v = x.rotate_right(r);
                (v, v >> 31 != 0)
            }
        }
        _ => unreachable!("shift_reg only handles shift ops"),
    }
}
