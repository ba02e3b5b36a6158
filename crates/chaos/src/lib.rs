//! # gd-chaos — deterministic fault injection for the campaign stack
//!
//! The paper's whole premise is that systems must survive injected
//! faults; this crate lets the workspace aim that premise at *itself*.
//! ARMORY argues that fault-tolerance claims are only testable under
//! exhaustive, deterministic fault simulation, and InjectV models the
//! injection at the simulation-environment layer rather than inside the
//! target. gd-chaos follows both: a seeded schedule of failures is
//! injected at **named sites** inside the executor, the campaign
//! engine's storage paths, and the HTTP service — never inside the
//! emulated workloads, so a surviving campaign's output must stay
//! byte-identical to a fault-free run.
//!
//! ## Schedules
//!
//! A schedule is `<seed>:<site>=<rate>,...` — for example
//!
//! ```text
//! GD_CHAOS=42:exec.worker_panic=0.1,store.torn_write=0.5
//! ```
//!
//! Each site draws from its own deterministic stream: the `n`-th
//! decision at a site is a pure function of `(seed, site, n)`, so a
//! serial run replays bit-for-bit and a parallel run is statistically
//! identical (the per-site decision *sequence* is fixed; which thread
//! consumes which decision races, which is exactly the nondeterminism
//! the self-healing engine has to survive). Rates are probabilities in
//! `[0, 1]`; unknown sites and malformed rates are rejected loudly — a
//! typo'd schedule must not silently run a fault-free "chaos" test.
//!
//! With `GD_CHAOS` unset the hot-path cost is one relaxed atomic load
//! and nothing is ever injected, so golden outputs stay byte-identical.
//!
//! ## Sites
//!
//! See [`sites`] for the catalog. Injection helpers ([`chunk_started`],
//! [`shard_attempt`], [`read_dropped`], [`corrupt`], [`tear`],
//! [`connection_dropped`], [`delay_read`]) are called by the host crates
//! at the matching points; every injection increments
//! `gd_chaos_injected_total{site=...}`.
//!
//! ## Tests
//!
//! `GD_CHAOS` is process-global, so tests use scoped overrides instead:
//! [`activate`] installs a plan (and resets the per-site decision
//! streams) until the returned guard drops, [`suppress`] forces chaos
//! off. Both serialize through one global lock — two chaos tests cannot
//! interleave and a test without a guard cannot observe another test's
//! faults from a parallel test thread *in the same binary* only if it
//! takes a guard too; keep chaos-driven tests and their fault-free
//! assertions in the same file and give every one a guard.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::Duration;

/// The injection-site catalog. Site names are `layer.failure`; the host
/// crate owning each layer calls the matching helper.
pub mod sites {
    /// A fan-out worker panics before executing its chunk
    /// (`gd_exec::par_map_chunks`). Surviving it requires the engine's
    /// fan-out retry loop.
    pub const EXEC_WORKER_PANIC: &str = "exec.worker_panic";
    /// A chunk stalls for [`super::SLOW_CHUNK_DELAY`] before executing —
    /// scheduling jitter that must not change output bytes.
    pub const EXEC_SLOW_CHUNK: &str = "exec.slow_chunk";
    /// A shard attempt panics inside the engine's quarantine
    /// (`run_shard`). Surviving it requires per-shard retry.
    pub const ENGINE_SHARD_PANIC: &str = "engine.shard_panic";
    /// A checkpoint/cache write is torn: only a truncated prefix reaches
    /// disk. Surviving it requires the integrity seal.
    pub const STORE_TORN_WRITE: &str = "store.torn_write";
    /// A checkpoint/cache read fails as if the file were unreadable.
    pub const STORE_READ_ERR: &str = "store.read_err";
    /// A checkpoint/cache read returns bytes with one bit flipped.
    pub const STORE_CORRUPT: &str = "store.corrupt";
    /// An accepted HTTP connection is dropped before the request is read.
    pub const HTTP_DROP_CONN: &str = "http.drop_conn";
    /// The service delays [`super::HTTP_READ_DELAY`] before reading a
    /// request.
    pub const HTTP_DELAY_READ: &str = "http.delay_read";

    /// Every site with a one-line description, in canonical order. The
    /// array index is the site's id throughout this crate.
    pub const CATALOG: [(&str, &str); 8] = [
        (EXEC_WORKER_PANIC, "fan-out worker panics before its chunk"),
        (EXEC_SLOW_CHUNK, "chunk sleeps before executing"),
        (ENGINE_SHARD_PANIC, "shard attempt panics inside the quarantine"),
        (STORE_TORN_WRITE, "checkpoint/cache write truncated mid-file"),
        (STORE_READ_ERR, "checkpoint/cache read fails outright"),
        (STORE_CORRUPT, "checkpoint/cache read returns a flipped bit"),
        (HTTP_DROP_CONN, "accepted connection dropped before the read"),
        (HTTP_DELAY_READ, "request read delayed"),
    ];

    /// Number of sites in [`CATALOG`].
    pub const COUNT: usize = CATALOG.len();
}

/// How long [`chunk_started`] stalls when `exec.slow_chunk` fires.
pub const SLOW_CHUNK_DELAY: Duration = Duration::from_millis(15);
/// How long the service stalls when `http.delay_read` fires.
pub const HTTP_READ_DELAY: Duration = Duration::from_millis(25);

/// Every panic gd-chaos injects carries this prefix, so harnesses (and
/// the `gd-campaign chaos` soak) can tell injected faults from real bugs.
pub const PANIC_PREFIX: &str = "gd-chaos:";

/// A parsed fault schedule: a seed plus a per-site injection rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    seed: u64,
    rates: [f64; sites::COUNT],
}

impl Plan {
    /// A plan that injects nothing (all rates zero).
    pub fn off(seed: u64) -> Plan {
        Plan { seed, rates: [0.0; sites::COUNT] }
    }

    /// Parses `<seed>:<site>=<rate>,...`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token for a missing or
    /// non-integer seed, an empty site list, an unknown site (the
    /// message lists the catalog), a rate outside `[0, 1]`, or a site
    /// given twice.
    pub fn parse(text: &str) -> Result<Plan, String> {
        let (seed_text, rest) = text
            .split_once(':')
            .ok_or_else(|| format!("chaos schedule {text:?} lacks a `<seed>:` prefix"))?;
        let seed: u64 = seed_text
            .trim()
            .parse()
            .map_err(|_| format!("chaos seed {seed_text:?} is not an unsigned integer"))?;
        let mut plan = Plan::off(seed);
        let mut seen = [false; sites::COUNT];
        let mut any = false;
        for entry in rest.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, rate_text) = entry
                .split_once('=')
                .ok_or_else(|| format!("chaos entry {entry:?} is not `<site>=<rate>`"))?;
            let idx = site_index(site.trim()).ok_or_else(|| {
                let known: Vec<&str> = sites::CATALOG.iter().map(|(n, _)| *n).collect();
                format!("unknown chaos site {:?}; known sites: {}", site.trim(), known.join(", "))
            })?;
            if seen[idx] {
                return Err(format!("chaos site {:?} given twice", site.trim()));
            }
            seen[idx] = true;
            let rate: f64 = rate_text
                .trim()
                .parse()
                .map_err(|_| format!("chaos rate {rate_text:?} is not a number"))?;
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("chaos rate {rate_text:?} is outside [0, 1]"));
            }
            plan.rates[idx] = rate;
            any = true;
        }
        if !any {
            return Err(format!("chaos schedule {text:?} lists no sites"));
        }
        Ok(plan)
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same schedule under a different seed (the soak subcommand
    /// derives one seed per run from the schedule's base seed).
    pub fn with_seed(&self, seed: u64) -> Plan {
        Plan { seed, ..*self }
    }

    /// The injection rate configured for `site` (0 when absent).
    pub fn rate(&self, site: &str) -> f64 {
        site_index(site).map_or(0.0, |i| self.rates[i])
    }

    /// The first `count` decisions of `site`'s stream, without touching
    /// the live decision counters — lets tests pick seeds with a known
    /// opening (e.g. "first connection dropped, the rest fine").
    pub fn decisions(&self, site: &str, count: usize) -> Vec<bool> {
        let Some(idx) = site_index(site) else { return vec![false; count] };
        (0..count as u64).map(|n| draw_unit(self.seed, idx, n) < self.rates[idx]).collect()
    }

    /// The schedule in its parseable syntax (`seed:site=rate,...`).
    pub fn describe(&self) -> String {
        let mut out = format!("{}:", self.seed);
        let mut first = true;
        for (idx, (name, _)) in sites::CATALOG.iter().enumerate() {
            if self.rates[idx] > 0.0 {
                if !first {
                    out.push(',');
                }
                out.push_str(&format!("{name}={}", self.rates[idx]));
                first = false;
            }
        }
        out
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

fn site_index(site: &str) -> Option<usize> {
    sites::CATALOG.iter().position(|(name, _)| *name == site)
}

/// splitmix64's finalizer: a measurably uniform 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `n`-th decision of `site`'s stream under `seed`, as a uniform
/// draw in `[0, 1)` — a pure function, so schedules replay exactly.
fn draw_unit(seed: u64, site: usize, n: u64) -> f64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let salt = (site as u64 + 1).wrapping_mul(GOLDEN);
    let h = mix(mix(seed ^ salt) ^ n.wrapping_mul(GOLDEN).wrapping_add(1));
    ((h >> 11) as f64) / ((1u64 << 53) as f64)
}

/// `GD_CHAOS` (env) and test-override plans. The override is
/// process-global because injection sites run on spawned worker threads
/// that a thread-local override could never reach.
struct GlobalState {
    /// `Some(Some(plan))` = a test activated `plan`; `Some(None)` = a
    /// test suppressed chaos; `None` = follow the environment.
    overridden: Option<Option<Plan>>,
}

static STATE: Mutex<GlobalState> = Mutex::new(GlobalState { overridden: None });
/// Fast-path gate: false means "no plan can be active, skip everything".
static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
/// One decision counter per site (reset when a test activates a plan).
static SEQ: [AtomicU64; sites::COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; sites::COUNT]
};
/// Serializes tests that install overrides (and their fault-free
/// baselines). Held via [`Guard`].
static GUARD_LOCK: Mutex<()> = Mutex::new(());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The plan parsed from `GD_CHAOS`, once per process.
///
/// # Panics
///
/// Panics when `GD_CHAOS` is set but malformed — a typo'd schedule must
/// surface, not silently run without faults (the `GD_THREADS`
/// precedent).
fn env_plan() -> Option<Plan> {
    static PLAN: OnceLock<Option<Plan>> = OnceLock::new();
    *PLAN.get_or_init(|| match std::env::var("GD_CHAOS") {
        Ok(text) => match Plan::parse(&text) {
            Ok(plan) => Some(plan),
            Err(e) => panic!("invalid GD_CHAOS: {e}"),
        },
        Err(_) => None,
    })
}

fn ensure_env_loaded() {
    ENV_INIT.call_once(|| {
        if env_plan().is_some() {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// The plan currently in force: a test override if one is installed,
/// else the `GD_CHAOS` plan, else none.
pub fn current_plan() -> Option<Plan> {
    ensure_env_loaded();
    match lock(&STATE).overridden {
        Some(over) => over,
        None => env_plan(),
    }
}

/// Whether any plan is in force (the `gd-campaign chaos` banner uses
/// this).
pub fn active() -> bool {
    current_plan().is_some()
}

/// Draws the next decision for `site` under the plan in force. False —
/// at one relaxed atomic load — when no plan is active or the site's
/// rate is zero; a true draw is counted in
/// `gd_chaos_injected_total{site=...}`.
///
/// # Panics
///
/// Panics on a site name outside [`sites::CATALOG`] (a programmer
/// error, not a configuration error) and on a malformed `GD_CHAOS`.
pub fn should_inject(site: &str) -> bool {
    ensure_env_loaded();
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    let idx = site_index(site).unwrap_or_else(|| panic!("unknown chaos site {site:?}"));
    let Some(plan) = current_plan() else { return false };
    let rate = plan.rates[idx];
    if rate <= 0.0 {
        return false;
    }
    let n = SEQ[idx].fetch_add(1, Ordering::Relaxed);
    let hit = draw_unit(plan.seed, idx, n) < rate;
    if hit {
        injected_counter(site).inc();
        gd_obs::debug!("gd_chaos", "fault injected", site = site, decision = n);
    }
    hit
}

fn injected_counter(site: &str) -> std::sync::Arc<gd_obs::Counter> {
    gd_obs::counter(
        "gd_chaos_injected_total",
        "faults injected by gd-chaos, by injection site",
        &[("site", site)],
    )
}

/// Registers the `gd_chaos_injected_total` series for every site in the
/// catalog, so `/metrics` shows the full site inventory (at zero) before
/// any fault fires. The campaign engine calls this at construction.
pub fn register_metrics() {
    for (site, _) in sites::CATALOG {
        let _ = injected_counter(site);
    }
}

/// A scoped chaos override. Dropping it restores environment-driven
/// behavior and releases the serialization lock.
#[must_use = "the override ends when the guard drops"]
pub struct Guard {
    _lock: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("gd_chaos::Guard")
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        lock(&STATE).overridden = None;
        ensure_env_loaded();
        ENABLED.store(env_plan().is_some(), Ordering::Relaxed);
    }
}

fn install(over: Option<Plan>) -> Guard {
    let held = lock(&GUARD_LOCK);
    for seq in &SEQ {
        seq.store(0, Ordering::Relaxed);
    }
    lock(&STATE).overridden = Some(over);
    ENABLED.store(true, Ordering::Relaxed);
    Guard { _lock: held }
}

/// Installs `plan` process-wide until the guard drops, resetting every
/// site's decision stream to its start (so a test replays the same
/// schedule every time). Serializes with other guards.
pub fn activate(plan: Plan) -> Guard {
    install(Some(plan))
}

/// Forces chaos off process-wide until the guard drops — even against a
/// set `GD_CHAOS`. The `gd-campaign chaos` soak uses this for its
/// fault-free baseline.
pub fn suppress() -> Guard {
    install(None)
}

// ---------------------------------------------------------------------
// Injection helpers, one per site, called by the host crates.

/// `exec.slow_chunk` + `exec.worker_panic`: called by
/// `gd_exec::par_map_chunks` as each chunk starts, inside the region
/// whose panics the caller already propagates.
///
/// # Panics
///
/// Panics (with [`PANIC_PREFIX`]) when `exec.worker_panic` fires.
pub fn chunk_started(chunk: usize) {
    if should_inject(sites::EXEC_SLOW_CHUNK) {
        std::thread::sleep(SLOW_CHUNK_DELAY);
    }
    if should_inject(sites::EXEC_WORKER_PANIC) {
        panic!("{PANIC_PREFIX} injected worker panic (site exec.worker_panic, chunk {chunk})");
    }
}

/// `engine.shard_panic`: called by the campaign engine at the top of
/// every quarantined shard attempt.
///
/// # Panics
///
/// Panics (with [`PANIC_PREFIX`]) when the site fires.
pub fn shard_attempt(shard: u32) {
    if should_inject(sites::ENGINE_SHARD_PANIC) {
        panic!("{PANIC_PREFIX} injected shard panic (site engine.shard_panic, shard {shard})");
    }
}

/// `store.read_err`: true when a checkpoint/cache read should fail as
/// if the file were unreadable.
pub fn read_dropped() -> bool {
    should_inject(sites::STORE_READ_ERR)
}

/// `store.corrupt`: flips one bit in the middle of `bytes`. Returns
/// whether the site fired.
pub fn corrupt(bytes: &mut [u8]) -> bool {
    if should_inject(sites::STORE_CORRUPT) && !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        return true;
    }
    false
}

/// `store.torn_write`: truncates `bytes` to half, simulating a write
/// cut off mid-file. Returns whether the site fired.
pub fn tear(bytes: &mut Vec<u8>) -> bool {
    if should_inject(sites::STORE_TORN_WRITE) {
        let keep = bytes.len() / 2;
        bytes.truncate(keep);
        return true;
    }
    false
}

/// `http.drop_conn`: true when an accepted connection should be closed
/// unanswered.
pub fn connection_dropped() -> bool {
    should_inject(sites::HTTP_DROP_CONN)
}

/// `http.delay_read`: stalls the service for [`HTTP_READ_DELAY`] when
/// the site fires.
pub fn delay_read() {
    if should_inject(sites::HTTP_DELAY_READ) {
        std::thread::sleep(HTTP_READ_DELAY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_parse_and_round_trip() {
        let plan = Plan::parse("42: exec.worker_panic = 0.25 , store.torn_write=1").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rate(sites::EXEC_WORKER_PANIC), 0.25);
        assert_eq!(plan.rate(sites::STORE_TORN_WRITE), 1.0);
        assert_eq!(plan.rate(sites::STORE_CORRUPT), 0.0);
        let reparsed = Plan::parse(&plan.describe()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn malformed_schedules_are_rejected_with_names() {
        for (text, needle) in [
            ("exec.worker_panic=0.5", "lacks a `<seed>:` prefix"),
            ("x:exec.worker_panic=0.5", "not an unsigned integer"),
            ("7:", "lists no sites"),
            ("7:exec.worker_panic", "not `<site>=<rate>`"),
            ("7:engine.reactor_breach=0.5", "unknown chaos site"),
            ("7:fleet.hang=0.5", "unknown chaos site"),
            ("7:exec.worker_panic=1.5", "outside [0, 1]"),
            ("7:exec.worker_panic=-0.1", "outside [0, 1]"),
            ("7:exec.worker_panic=NaN", "outside [0, 1]"),
            ("7:exec.worker_panic=zero", "not a number"),
            ("7:exec.worker_panic=0.1,exec.worker_panic=0.2", "given twice"),
        ] {
            let err = Plan::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
        // The unknown-site message teaches the catalog.
        let err = Plan::parse("7:bogus=1").unwrap_err();
        assert!(err.contains(sites::EXEC_WORKER_PANIC), "{err}");
    }

    #[test]
    fn decision_streams_are_deterministic_and_rate_faithful() {
        let plan = Plan::parse("1234:engine.shard_panic=0.3").unwrap();
        let a = plan.decisions(sites::ENGINE_SHARD_PANIC, 10_000);
        let b = plan.decisions(sites::ENGINE_SHARD_PANIC, 10_000);
        assert_eq!(a, b, "same seed, same stream");
        let hits = a.iter().filter(|&&h| h).count();
        assert!((2_400..3_600).contains(&hits), "~30% of draws fire, got {hits}");
        // A different seed gives a different stream; rate 0/1 are exact.
        let c = plan.with_seed(1235).decisions(sites::ENGINE_SHARD_PANIC, 10_000);
        assert_ne!(a, c);
        assert!(Plan::off(1).decisions(sites::ENGINE_SHARD_PANIC, 64).iter().all(|&h| !h));
        let all = Plan::parse("9:store.read_err=1").unwrap();
        assert!(all.decisions(sites::STORE_READ_ERR, 64).iter().all(|&h| h));
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = Plan::parse("7:exec.worker_panic=0.5,exec.slow_chunk=0.5").unwrap();
        let a = plan.decisions(sites::EXEC_WORKER_PANIC, 256);
        let b = plan.decisions(sites::EXEC_SLOW_CHUNK, 256);
        assert_ne!(a, b, "equal rates must not mean equal streams");
    }

    #[test]
    fn overrides_inject_reset_and_restore() {
        {
            let _on = activate(Plan::parse("5:store.read_err=1").unwrap());
            assert!(active());
            assert!(read_dropped());
            assert!(read_dropped());
        }
        // Guard dropped: chaos follows the (unset) environment again.
        assert!(!read_dropped());
        // Reactivation replays the stream from its start.
        let plan = Plan::parse("99:store.read_err=0.5").unwrap();
        let replay = plan.decisions(sites::STORE_READ_ERR, 16);
        for _ in 0..2 {
            let _on = activate(plan);
            let live: Vec<bool> = (0..16).map(|_| read_dropped()).collect();
            assert_eq!(live, replay, "live draws replay the declared stream");
        }
        let _off = suppress();
        assert!(!active());
        assert!(!read_dropped());
    }

    #[test]
    fn injections_mutate_as_documented_and_are_counted() {
        let _on = activate(Plan::parse("3:store.torn_write=1,store.corrupt=1").unwrap());
        let mut torn = b"0123456789".to_vec();
        assert!(tear(&mut torn));
        assert_eq!(torn, b"01234", "torn writes keep the first half");
        let mut flipped = b"abcd".to_vec();
        assert!(corrupt(&mut flipped));
        assert_eq!(flipped, b"abbd", "one bit in the middle flips");
        let rendered = gd_obs::global().render_prometheus();
        assert!(
            rendered.contains(r#"gd_chaos_injected_total{site="store.torn_write"}"#),
            "injections are counted per site: {rendered}"
        );
    }

    #[test]
    fn register_metrics_exposes_every_site_at_zero() {
        register_metrics();
        let rendered = gd_obs::global().render_prometheus();
        for (site, _) in sites::CATALOG {
            assert!(
                rendered.contains(&format!(r#"gd_chaos_injected_total{{site="{site}"}}"#)),
                "missing {site} in: {rendered}"
            );
        }
    }

    #[test]
    fn helper_panics_carry_the_marker_prefix() {
        let _on = activate(Plan::parse("11:engine.shard_panic=1,exec.worker_panic=1").unwrap());
        let err = std::panic::catch_unwind(|| shard_attempt(7)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(PANIC_PREFIX), "{msg}");
        assert!(msg.contains("shard 7"), "{msg}");
        let err = std::panic::catch_unwind(|| chunk_started(3)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(PANIC_PREFIX), "{msg}");
        assert!(msg.contains("chunk 3"), "{msg}");
    }
}
