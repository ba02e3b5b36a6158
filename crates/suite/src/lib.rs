//! # glitching-demystified — reproduction of *Glitching Demystified* (DSN 2021)
//!
//! A from-scratch Rust implementation of the paper's three systems:
//!
//! 1. **Glitch emulation framework** ([`glitch_emu`], paper §IV): exhaustive
//!    bit-flip sweeps over the ARM Thumb instruction encoding, quantifying
//!    how likely random unidirectional flips are to "skip" a control-flow
//!    instruction (Figure 2). Built on a complete Thumb-1 codec and
//!    assembler ([`thumb`]) and an architectural emulator ([`emu`]) with the
//!    paper's fault taxonomy.
//!
//! 2. **Real-world glitching testbed** ([`chipwhisperer`], §V): a
//!    ChipWhisperer-style clock glitcher simulated over a cycle-accounted
//!    3-stage pipeline ([`pipeline`]), with the paper's three loop-guard
//!    targets, 99×99 parameter scans, multi-/long-glitch drivers, and the
//!    §V-B automatic parameter-tuning search (Tables I–III).
//!
//! 3. **GlitchResistor** ([`resist`], §VI–VII): the automated software-only
//!    defense tool, implemented as compiler passes over a small typed SSA
//!    IR ([`ir`]) with a Thumb-1 backend ([`backend`]) — branch/loop
//!    duplication with complemented re-checks, complement shadow variables,
//!    LCG random delays, and Reed–Solomon ([`rs_ecc`]) constant
//!    diversification — evaluated for overhead and attack resistance
//!    (Tables IV–VI).
//!
//! ```
//! use glitching_demystified::prelude::*;
//!
//! // Harden a guard, compile it, and boot it on the simulated board.
//! let mut module = parse_module(
//!     "fn @main() -> i32 {\nentry:\n  %c = icmp eq i32 7, 7\n  br %c, a, b\n\
//!      a:\n  ret i32 1\nb:\n  ret i32 0\n}\n",
//! )?;
//! harden(&mut module, &Config::new(Defenses::ALL));
//! let image = compile(&module, "main")?;
//! let mut emu = image.boot_emu();
//! emu.run(1_000_000);
//! assert_eq!(emu.cpu.reg(Reg::R0), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `gd-bench` crate regenerates every table and figure of the paper;
//! see `EXPERIMENTS.md` at the repository root for paper-vs-measured
//! results. The `gd-campaign` crate (re-exported as [`campaign`]) runs
//! the same workloads as sharded, checkpointed campaigns with a
//! content-addressed result cache, behind an HTTP service.

#![warn(missing_docs)]
#![warn(clippy::all)]

/// The ARMv6-M Thumb-1 ISA: instruction model, codec, assembler.
pub use gd_thumb as thumb;

/// Architectural emulator with the paper's fault taxonomy.
pub use gd_emu as emu;

/// The §IV glitch emulation framework (Figure 2).
pub use gd_glitch_emu as glitch_emu;

/// Cycle-accounted 3-stage pipeline with fault-injection windows.
pub use gd_pipeline as pipeline;

/// The simulated ChipWhisperer clock-glitching rig (§V).
pub use gd_chipwhisperer as chipwhisperer;

/// GF(2⁸) Reed–Solomon codes for constant diversification.
pub use gd_rs_ecc as rs_ecc;

/// The compiler IR GlitchResistor's passes run on.
pub use gd_ir as ir;

/// GlitchResistor: the automated defense tool (§VI).
pub use glitch_resistor as resist;

/// Thumb-1 code generation and firmware-image layout.
pub use gd_backend as backend;

/// The evaluation firmware (§VII targets).
pub use gd_firmware as firmware;

/// The sharded campaign engine, result store, and HTTP service.
pub use gd_campaign as campaign;

/// The most common imports in one place.
pub mod prelude {
    pub use gd_backend::compile;
    pub use gd_chipwhisperer::{
        run_attack, AttackOutcome, AttackSpec, Device, FaultModel, GlitchParams, SuccessCheck,
    };
    pub use gd_ir::{parse_module, print_module, verify_module};
    pub use gd_thumb::{Cond, Instr, Reg};
    pub use glitch_resistor::{harden, Config, Defenses, Report};
}
