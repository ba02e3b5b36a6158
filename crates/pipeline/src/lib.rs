//! # gd-pipeline — a cycle-accounted 3-stage pipeline model
//!
//! Wraps the [`gd_emu`] architectural emulator with Cortex-M0-style cycle
//! costs, GPIO trigger detection, and per-instruction fault-injection
//! windows. This is the substrate the ChipWhisperer-style clock-glitch
//! simulator (paper §V) attacks: every glitch effect — corrupted in-flight
//! encodings, poisoned fetches, data-bus residue, skips, brown-outs — is
//! expressed as a [`StageFault`] applied to a cycle [`Window`].
//!
//! ```
//! use gd_emu::{Emu, Perms};
//! use gd_pipeline::Pipeline;
//! use gd_thumb::asm::assemble;
//!
//! let mut emu = Emu::new();
//! emu.mem.map("flash", 0, 0x1000, Perms::RX)?;
//! let prog = assemble("movs r0, #1\nldr r1, [pc, #0]\nbkpt #0\n.word 5\n", 0)?;
//! emu.mem.load(0, &prog.code)?;
//! emu.set_pc(0);
//! let mut pipe = Pipeline::new(emu);
//! pipe.run(100);
//! assert_eq!(pipe.cycle(), 4); // movs(1) + ldr(2) + bkpt(1)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod pipeline;
mod timing;

pub use pipeline::{
    Pipeline, PipelineSnapshot, RunEnd, StageFault, Window, FETCH_DEPTH, NVM_RANGE, TRIGGER_ADDR,
};
pub use timing::Timing;
