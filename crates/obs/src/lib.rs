//! # gd-obs — dependency-free observability for the glitching workspace
//!
//! ARMORY-style exhaustive fault campaigns live or die on visibility
//! into per-worker throughput, and the workspace must stay offline-
//! buildable — so this crate implements the whole observability stack
//! from scratch on `std`:
//!
//! * **Metrics** ([`metrics`]): a process-global [`Registry`] of atomic
//!   [`Counter`]s, [`Gauge`]s, and log2-bucket [`Histogram`]s, cheap
//!   enough for hot loops (one relaxed atomic op per update; handles
//!   are `Arc`s cached in `OnceLock` statics by instrumented crates).
//! * **Prometheus text format** ([`prom`]): [`Registry::render_prometheus`]
//!   serializes every family in the standard exposition format; the
//!   campaign service serves it on `GET /metrics`.
//! * **Structured logging** ([`log`]): leveled `key=value` lines to
//!   stderr, filtered by the `GD_LOG` environment variable
//!   (`GD_LOG=debug`, `GD_LOG=warn,gd_exec=trace`, `GD_LOG=off`; the
//!   default is `info`). Stdout is never touched — the golden manifest
//!   diffs the experiment binaries' stdout bytes.
//! * **Timing** ([`Timer`]): a monotonic stopwatch for feeding duration
//!   histograms.
//!
//! ```
//! use gd_obs::Timer;
//!
//! let requests = gd_obs::counter("doc_requests_total", "requests", &[("route", "/x")]);
//! requests.inc();
//! let latency = gd_obs::histogram("doc_latency_ms", "request latency (ms)", &[]);
//! let timer = Timer::start();
//! latency.observe(timer.elapsed_ms());
//! gd_obs::info!("doc", "served", route = "/x", count = requests.get());
//! assert!(gd_obs::global().render_prometheus().contains("doc_requests_total"));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod log;
pub mod metrics;
pub mod prom;

pub use log::Level;
pub use metrics::{counter, gauge, global, histogram, Counter, Gauge, Histogram, Registry};

use std::time::Instant;

/// A monotonic stopwatch: construct with [`Timer::start`], read elapsed
/// time in the unit a histogram wants.
#[derive(Debug, Clone, Copy)]
pub struct Timer(Instant);

impl Timer {
    /// Starts the clock.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Elapsed whole milliseconds since [`Timer::start`] (saturating).
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Elapsed whole microseconds since [`Timer::start`] (saturating).
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotonic_and_unit_consistent() {
        let t = Timer::start();
        let a = t.elapsed_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = t.elapsed_us();
        assert!(b >= a + 1_000, "2 ms sleep advances at least 1000 us: {a} -> {b}");
        assert!(t.elapsed_ms() <= t.elapsed_us(), "ms never exceeds us");
    }
}
