//! # gd-faultsim — exhaustive multi-fault campaigns with redundancy pruning
//!
//! The Figure 2 sweeps (`gd-glitch-emu`) explore unidirectional
//! single-bit flips at a single point in time. This crate scales the
//! same emulation machinery to the richer spaces ARMORY shows become
//! tractable once redundant faults are pruned before simulation:
//!
//! - a [`FaultModel`](model::FaultModel) trait and fixed
//!   [`Registry`](model::Registry) enumerating typed fault spaces over a
//!   compiled [`FirmwareImage`](gd_backend::FirmwareImage) —
//!   bidirectional (XOR) single- and multi-bit halfword flips,
//!   instruction skip, and data-bus (load-value) corruption, each
//!   transient (one fetch) or permanent (every fetch);
//! - an architectural-effect pruning layer ([`prune`]) canonicalizing
//!   every candidate through the shared
//!   [`classify`](gd_emu::classify) decode path: faults that decode to
//!   the same instruction at the same site collapse into one class,
//!   undefined patterns at a site merge (the outcome taxonomy ignores
//!   their payload), faults that decode identically to the original
//!   instruction — and bus faults on instructions that perform no load —
//!   are statically *No Effect*, and sites outside the straight-line
//!   instruction walk (literal pools, padding, mid-instruction
//!   halfwords) are dropped using the image's
//!   [`FuncExtent`](gd_backend::FuncExtent)s;
//! - first- and second-order exhaustive campaign executors over
//!   `firmware::boot` ([`boot`]), designed to run as shards of the
//!   `gd-campaign` engine: per-class outcomes are weighted by class
//!   size, so the reported tallies equal what the unpruned space would
//!   produce, while only one trial per class is simulated.
//!
//! Fault effects are *fetch-stage* injections ([`gd_emu::Injection`]):
//! the image bytes are never modified and a 32-bit encoding's second
//! halfword is always read from memory. That models corruption on the
//! instruction bus (Moro et al.'s EM fault model) and is what makes
//! per-site canonicalization sound — a fault's architectural effect
//! never depends on which other faults are armed elsewhere.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod boot;
pub mod metrics;
pub mod model;
pub mod prune;
pub mod runner;

pub use boot::{
    boot_campaign, order1_shard, order2_bucket, order2_shard, order2_shard_reference, MfStats,
    O2Bucket, O2Executor, O2_BUCKETS, O2_MODELS, SCOPE_FUNCS,
};
pub use metrics::register_metrics;
pub use model::{FaultInstance, FaultModel, Registry, SiteInfo};
pub use prune::{halfword_slots, prune_model, sites, FaultClass, ModelClasses};
pub use runner::{DivergenceRunner, Fired, MultiFaultRunner, PairSteps, PairsBy, MF_TRIAL_STEPS};
