//! # gd-glitch-emu — the glitching emulation framework (paper §IV)
//!
//! Quantifies the fault tolerance of the Thumb-1 instruction encoding by
//! forcing bit flips on a targeted instruction and executing the result:
//! every C(16, k) mask for every k, ANDed/ORed/XORed into the encoding,
//! exactly as the paper's Unicorn-based framework does for Figure 2.
//!
//! ```
//! use gd_emu::Config;
//! use gd_glitch_emu::{branch_case, sweep_k, Direction, Outcome};
//! use gd_thumb::Cond;
//!
//! let case = branch_case(Cond::Eq);
//! let tally = sweep_k(&case, Direction::And, 2, Config::default());
//! assert_eq!(tally.total(), 120); // C(16, 2)
//! assert!(tally.count(Outcome::Success) > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod classify;
pub mod ext;
pub mod harness;
pub mod masks;
pub mod sweep;

pub use classify::{branch_flips, branch_flips_with, BranchFlips, Flip, FlipClass};
pub use harness::{all_branch_cases, branch_case, flag_setup, TestCase};
pub use sweep::{
    run_perturbed, sweep_case, sweep_k, sweep_k_serial, Direction, Outcome, PerturbRunner,
    SweepResult, Tally,
};
