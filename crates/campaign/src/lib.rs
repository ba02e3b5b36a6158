//! # gd-campaign — a sharded campaign engine for the paper's workloads
//!
//! The experiment binaries of this workspace (`fig2`, `table1`–`table3`,
//! `table6`) each regenerate one published artifact of *Glitching
//! Demystified* (DSN 2021) as a monolithic run. This crate turns those
//! workloads into *campaigns*: typed, serializable specifications
//! ([`spec::CampaignSpec`]) that an [`engine::Engine`] decomposes into
//! deterministic shards ([`shards`]), fans out over [`gd_exec`], and
//! merges back **bit-identically** to the serial binaries — while
//! persisting completed shards as resumable checkpoints and finished
//! campaigns in a content-addressed result cache ([`hash`]). A small
//! HTTP/1.1 service ([`service`], `gd-campaign serve`) fronts the engine
//! for remote submission, progress polling, and result retrieval in
//! JSON or the exact legacy text format.
//!
//! Everything is dependency-free: JSON ([`json`]) and SHA-256 ([`hash`])
//! are implemented from scratch, and the HTTP layer ([`http`]) sits
//! directly on [`std::net::TcpListener`] — the workspace builds fully
//! offline.
//!
//! ```
//! use gd_campaign::{engine::Engine, spec::CampaignSpec};
//!
//! let mut spec = CampaignSpec::fig2();
//! spec.shards = Some((0, 1)); // just the first panel's first branch
//! let result = Engine::ephemeral().run(&spec)?;
//! assert!(result.text.contains("beq"));
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod defense;
pub mod engine;
pub mod error;
pub mod fig2;
pub mod glitch_tables;
pub mod hash;
pub mod http;
pub mod json;
pub mod multifault;
pub mod report;
pub mod service;
pub mod shards;
pub mod spec;

pub use engine::{CampaignResult, Engine};
pub use error::CampaignError;
pub use spec::{CampaignSpec, Workload};
