//! # gd-emu — an architectural emulator for ARMv6-M Thumb-1
//!
//! The Unicorn substitute for the *Glitching Demystified* (DSN 2021)
//! reproduction. It executes [`gd_thumb`] instructions over a region-based
//! [`Memory`] with a precise fault taxonomy matching the paper's outcome
//! classes (§IV): *Bad Read*, *Bad Fetch*, *Invalid Instruction*, and so on.
//!
//! Three entry points matter downstream:
//!
//! - [`Emu::step`]/[`Emu::run`] — ordinary fetch/decode/execute, the
//!   reference every fault sweep is tested against;
//! - [`Replay`] — the sweeps' trial kernel: one booted emulator,
//!   snapshotted where faults start to matter and replayed per trial on
//!   predecoded dispatch, used by the bit-flip framework
//!   (`gd-glitch-emu`), which corrupts instructions *in memory*, and the
//!   multi-fault campaigns (`gd-faultsim`), which corrupt fetches;
//! - [`Emu::exec`] — execute an already-decoded instruction, used by the
//!   pipeline simulator (`gd-pipeline`), which does its own fetching so that
//!   clock glitches can corrupt halfwords *in flight*. The one-shot
//!   [`Emu::load_override`] hook models data-bus corruption.
//!
//! ```
//! use gd_emu::{Emu, Perms, RunOutcome, StopReason};
//! use gd_thumb::{asm::assemble, Reg};
//!
//! let mut emu = Emu::new();
//! emu.mem.map("flash", 0, 0x1000, Perms::RX)?;
//! let prog = assemble(
//!     "movs r0, #0xde\nlsls r0, r0, #8\nadds r0, #0xad\nbkpt #42\n",
//!     0,
//! )?;
//! emu.mem.load(0, &prog.code)?;
//! emu.set_pc(0);
//! let outcome = emu.run(100);
//! assert!(matches!(
//!     outcome,
//!     RunOutcome::Stop { reason: StopReason::Bkpt(42), .. }
//! ));
//! assert_eq!(emu.cpu.reg(Reg::R0), 0xdead);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod cpu;
mod exec;
mod mem;
mod predecode;
mod replay;

pub use cpu::Cpu;
pub use exec::{
    add_with_carry, Config, Emu, Fault, Fork, InjectKind, Injection, LoadOverride, Persistence,
    RunOutcome, Snapshot, Step, StepOutcome, StopReason, ZERO_FILL,
};
pub use mem::{
    Access, FaultKind, MapError, MemDelta, MemFault, MemSnapshot, Memory, Perms, Region,
};
pub use predecode::{classify, PredecodedImage, Slot};
pub use replay::{Replay, Trial};
