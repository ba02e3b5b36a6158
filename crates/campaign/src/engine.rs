//! The campaign engine: shards a spec, fans the shards out over
//! [`gd_exec`], merges the results in plan order, and — when given a
//! store directory — persists completed shards as resumable checkpoints
//! and finished campaigns in a content-addressed cache.
//!
//! Store layout (all files are integrity-sealed JSON, see below):
//!
//! ```text
//! <store>/cache/<cache-key>.json          completed campaigns
//! <store>/runs/<checkpoint-key>/shard-<index>.json
//! ```
//!
//! The cache key covers everything that determines output bytes (spec,
//! firmware image bytes, fault-model constants, seed, shard range); the
//! checkpoint key additionally strips the shard range, so a partial
//! campaign's shards seed the full campaign and a killed engine resumes
//! where it stopped. Thread count is part of neither: output is
//! bit-identical at any worker count.
//!
//! ## Self-healing
//!
//! The engine assumes its environment misbehaves (it is, after all, the
//! infrastructure of a fault-injection paper) and recovers in layers:
//!
//! * **Per-shard quarantine** — a panicking shard attempt is caught, not
//!   propagated; the shard retries with exponential backoff up to a
//!   budget, after which the campaign fails with a typed
//!   [`CampaignError::ShardFailed`] naming the shard, attempt count, and
//!   cause. Other shards keep running either way.
//! * **Fan-out resubmission** — a panic below the quarantine (in the
//!   executor's own workers) aborts a whole [`gd_exec::par_map`] pass;
//!   completed shards are kept and the missing ones are resubmitted,
//!   giving up only after repeated passes make *no* progress
//!   ([`CampaignError::FanoutFailed`]).
//! * **Integrity seal** — every store file carries a SHA-256 of its
//!   body, so torn writes and flipped bits are detected and recomputed
//!   instead of trusted. Writes go tmp + fsync + rename, and stale
//!   `*.tmp` crash leftovers are swept when a store opens.
//! * **Watchdog** — a monitor thread logs and counts shard attempts
//!   exceeding a deadline ([`Engine::with_watchdog_deadline`]).
//!   Detection only: shard work is pure compute that cannot be safely
//!   killed mid-flight, so the watchdog makes stalls visible
//!   (`gd_campaign_watchdog_stalls_total`) rather than guessing.
//!
//! All of it is exercised deterministically by `gd_chaos` schedules
//! (sites `engine.shard_panic`, `store.*`; see the `chaos` integration
//! tests and `gd-campaign chaos`).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gd_obs::Timer;

pub use crate::error::CampaignError;
use crate::fleet::{DispatchContext, ShardDispatcher};
use crate::json::{parse, Json};
use crate::shards::{run_shard, shard_plan, ShardResult, ShardWork};
use crate::spec::CampaignSpec;

/// Result format version written to cache and checkpoint files.
pub const RESULT_VERSION: i64 = 1;

/// Default per-shard attempt budget (first attempt + retries).
pub const DEFAULT_SHARD_ATTEMPTS: u32 = 5;
/// Default watchdog deadline for a single shard attempt.
pub const DEFAULT_WATCHDOG_DEADLINE: Duration = Duration::from_secs(120);
/// Consecutive progress-free fan-out passes before the engine gives up.
const FANOUT_MAX_IDLE_PASSES: u32 = 5;
/// Base delay of the per-shard retry backoff (doubles per attempt).
const SHARD_BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Ceiling of the per-shard retry backoff.
const SHARD_BACKOFF_CAP: Duration = Duration::from_millis(80);
/// Base delay between resubmitted fan-out passes (doubles per idle pass).
const FANOUT_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling of the fan-out resubmission backoff.
const FANOUT_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// A completed (possibly partial) campaign: the spec, its content
/// address, every completed shard in plan order, and the rendered report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The spec that produced this result.
    pub spec: CampaignSpec,
    /// The spec's [`CampaignSpec::cache_key`] at run time.
    pub cache_key: String,
    /// Completed shard results, in plan order over the selected range.
    pub shards: Vec<ShardResult>,
    /// The report text — byte-identical to the legacy serial binary for
    /// a full-range campaign.
    pub text: String,
}

impl CampaignResult {
    /// The result as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Int(RESULT_VERSION.into())),
            ("cache_key", Json::Str(self.cache_key.clone())),
            ("spec", self.spec.to_json()),
            ("shards", Json::Arr(self.shards.iter().map(ShardResult::to_json).collect())),
            ("text", Json::Str(self.text.clone())),
        ])
    }

    /// Parses a result back from [`CampaignResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<CampaignResult, String> {
        let version = v.get("version").and_then(Json::as_i64).ok_or("result: missing `version`")?;
        if version != RESULT_VERSION {
            return Err(format!("unsupported result version {version}"));
        }
        let cache_key = v
            .get("cache_key")
            .and_then(Json::as_str)
            .ok_or("result: missing `cache_key`")?
            .to_owned();
        let spec = CampaignSpec::from_json(v.get("spec").ok_or("result: missing `spec`")?)?;
        let shards = v
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or("result: missing `shards`")?
            .iter()
            .map(ShardResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let text = v.get("text").and_then(Json::as_str).ok_or("result: missing `text`")?.to_owned();
        Ok(CampaignResult { spec, cache_key, shards, text })
    }

    /// Parses a result from JSON text.
    ///
    /// # Errors
    ///
    /// Propagates both JSON syntax errors and shape errors as text.
    pub fn from_json_text(text: &str) -> Result<CampaignResult, String> {
        CampaignResult::from_json(&parse(text).map_err(|e| e.to_string())?)
    }
}

/// `gd_obs` handles for the engine, registered eagerly at engine
/// construction so `/metrics` exposes the families (at zero) before the
/// first campaign runs.
struct EngineMetrics {
    /// `gd_campaign_cache_hits_total`
    cache_hits: Arc<gd_obs::Counter>,
    /// `gd_campaign_cache_misses_total`
    cache_misses: Arc<gd_obs::Counter>,
    /// `gd_campaign_checkpoint_loads_total`
    checkpoint_loads: Arc<gd_obs::Counter>,
    /// `gd_campaign_shards_executed_total`
    shards_executed: Arc<gd_obs::Counter>,
    /// `gd_campaign_shard_ms`
    shard_ms: Arc<gd_obs::Histogram>,
    /// `gd_campaign_shard_retries`
    shard_retries: Arc<gd_obs::Histogram>,
    /// `gd_campaign_shards_quarantined_total`
    shards_quarantined: Arc<gd_obs::Counter>,
    /// `gd_campaign_fanout_retries_total`
    fanout_retries: Arc<gd_obs::Counter>,
    /// `gd_campaign_watchdog_stalls_total`
    watchdog_stalls: Arc<gd_obs::Counter>,
    /// `gd_campaign_store_integrity_failures_total`
    integrity_failures: Arc<gd_obs::Counter>,
    /// `gd_campaign_tmp_files_swept_total`
    tmp_swept: Arc<gd_obs::Counter>,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        // The chaos site inventory rides along: any process exposing the
        // engine's families also shows `gd_chaos_injected_total{site=...}`
        // at zero for every site.
        gd_chaos::register_metrics();
        gd_faultsim::register_metrics();
        EngineMetrics {
            cache_hits: gd_obs::counter(
                "gd_campaign_cache_hits_total",
                "campaigns satisfied from the content-addressed result cache",
                &[],
            ),
            cache_misses: gd_obs::counter(
                "gd_campaign_cache_misses_total",
                "store-backed campaigns that had to (re)compute",
                &[],
            ),
            checkpoint_loads: gd_obs::counter(
                "gd_campaign_checkpoint_loads_total",
                "shards adopted from checkpoints instead of recomputing",
                &[],
            ),
            shards_executed: gd_obs::counter(
                "gd_campaign_shards_executed_total",
                "shards actually executed (cache and checkpoint hits excluded)",
                &[],
            ),
            shard_ms: gd_obs::histogram(
                "gd_campaign_shard_ms",
                "wall time per executed shard in milliseconds",
                &[],
            ),
            shard_retries: gd_obs::histogram(
                "gd_campaign_shard_retries",
                "retries per completed shard (0 = first attempt succeeded)",
                &[],
            ),
            shards_quarantined: gd_obs::counter(
                "gd_campaign_shards_quarantined_total",
                "shard attempts that panicked and were quarantined instead of aborting the campaign",
                &[],
            ),
            fanout_retries: gd_obs::counter(
                "gd_campaign_fanout_retries_total",
                "executor fan-out passes that aborted and were resubmitted",
                &[],
            ),
            watchdog_stalls: gd_obs::counter(
                "gd_campaign_watchdog_stalls_total",
                "shard attempts observed exceeding the watchdog deadline",
                &[],
            ),
            integrity_failures: gd_obs::counter(
                "gd_campaign_store_integrity_failures_total",
                "store files rejected by the SHA-256 integrity seal and recomputed",
                &[],
            ),
            tmp_swept: gd_obs::counter(
                "gd_campaign_tmp_files_swept_total",
                "stale *.tmp files removed at store open",
                &[],
            ),
        }
    })
}

/// Progress of a running campaign, reported to [`Engine::run_with`]
/// observers as `(done, total)` over the selected shard range.
pub type ProgressFn<'a> = &'a (dyn Fn(u32, u32) + Sync);

/// The sharded campaign engine. Cheap to construct; all state lives in
/// the optional store directory.
#[derive(Debug)]
pub struct Engine {
    store: Option<PathBuf>,
    executed: AtomicU64,
    shard_attempts: u32,
    watchdog_deadline: Duration,
    dispatcher: Arc<dyn ShardDispatcher>,
}

impl Engine {
    /// An engine with no store: no cache lookups, no checkpoints.
    pub fn ephemeral() -> Engine {
        let _ = engine_metrics();
        Engine {
            store: None,
            executed: AtomicU64::new(0),
            shard_attempts: DEFAULT_SHARD_ATTEMPTS,
            watchdog_deadline: DEFAULT_WATCHDOG_DEADLINE,
            dispatcher: Arc::new(LocalDispatcher),
        }
    }

    /// An engine persisting checkpoints and cached results under `dir`
    /// (created on demand). Stale `*.tmp` files — leftovers of atomic
    /// writes interrupted by a crash — are swept immediately.
    pub fn with_store(dir: impl Into<PathBuf>) -> Engine {
        let metrics = engine_metrics();
        let dir = dir.into();
        let swept = sweep_stale_tmp(&dir);
        if swept > 0 {
            metrics.tmp_swept.add(swept);
            gd_obs::info!(
                "gd_campaign::engine",
                "swept stale tmp files from the store",
                count = swept,
                store = dir.display(),
            );
        }
        Engine {
            store: Some(dir),
            executed: AtomicU64::new(0),
            shard_attempts: DEFAULT_SHARD_ATTEMPTS,
            watchdog_deadline: DEFAULT_WATCHDOG_DEADLINE,
            dispatcher: Arc::new(LocalDispatcher),
        }
    }

    /// Replaces the shard dispatcher (default [`LocalDispatcher`]).
    /// Dispatch is pure execution strategy: checkpointing, caching, and
    /// merging stay in the engine, so output bytes are identical under
    /// any dispatcher.
    #[must_use]
    pub fn with_dispatcher(mut self, dispatcher: Arc<dyn ShardDispatcher>) -> Engine {
        self.dispatcher = dispatcher;
        self
    }

    /// Sets the per-shard attempt budget (default
    /// [`DEFAULT_SHARD_ATTEMPTS`]). A shard panicking on every attempt
    /// fails the campaign with [`CampaignError::ShardFailed`].
    ///
    /// # Panics
    ///
    /// Panics when `attempts` is zero — a shard must get at least one
    /// attempt.
    #[must_use]
    pub fn with_shard_attempts(mut self, attempts: u32) -> Engine {
        assert!(attempts >= 1, "a shard needs at least one attempt");
        self.shard_attempts = attempts;
        self
    }

    /// Sets the stuck-shard watchdog deadline (default
    /// [`DEFAULT_WATCHDOG_DEADLINE`]). Attempts running longer are
    /// logged and counted in `gd_campaign_watchdog_stalls_total`.
    #[must_use]
    pub fn with_watchdog_deadline(mut self, deadline: Duration) -> Engine {
        self.watchdog_deadline = deadline;
        self
    }

    /// The store directory, if any.
    pub fn store(&self) -> Option<&Path> {
        self.store.as_deref()
    }

    /// How many shards this engine has actually executed (cache and
    /// checkpoint hits don't count) — the cache-effectiveness probe.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Runs a campaign to completion. See [`Engine::run_with`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::run_with`].
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignResult, CampaignError> {
        self.run_with(spec, &|_, _| {})
    }

    /// Runs a campaign to completion, invoking `progress` with
    /// `(done, total)` counts as shards finish (including shards
    /// satisfied from checkpoints).
    ///
    /// A stored campaign with the same cache key returns immediately;
    /// otherwise missing shards fan out over [`gd_exec`] (respecting
    /// `spec.threads` via [`gd_exec::with_threads`]) and each completed
    /// shard is checkpointed before the merge. Shard panics are
    /// quarantined and retried; see the module docs for the full
    /// self-healing ladder.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Invalid`] for unusable specs (including shard
    /// ranges outside the plan and target fixtures that do not build),
    /// [`CampaignError::Store`] for store I/O the engine cannot work
    /// around, [`CampaignError::ShardFailed`] /
    /// [`CampaignError::FanoutFailed`] when the retry budgets exhaust,
    /// and [`CampaignError::Render`] if the merged results cannot be
    /// rendered.
    pub fn run_with(
        &self,
        spec: &CampaignSpec,
        progress: ProgressFn<'_>,
    ) -> Result<CampaignResult, CampaignError> {
        spec.validate().map_err(CampaignError::Invalid)?;
        let plan = shard_plan(spec);
        let full_total = plan.len() as u32;
        let (lo, hi) = match spec.shards {
            None => (0, full_total),
            Some((lo, hi)) if hi <= full_total => (lo, hi),
            Some((_, hi)) => {
                return Err(CampaignError::Invalid(format!(
                    "shard range end {hi} exceeds the plan's {full_total} shards"
                )));
            }
        };
        let selected: Vec<(u32, ShardWork)> = (lo..hi).map(|i| (i, plan[i as usize])).collect();
        let total = selected.len() as u32;
        let cache_key = spec.cache_key().map_err(CampaignError::Invalid)?;

        let metrics = engine_metrics();
        if let Some(hit) = self.cache_lookup(&cache_key) {
            metrics.cache_hits.inc();
            gd_obs::debug!("gd_campaign::engine", "cache hit", key = cache_key, shards = total);
            progress(total, total);
            return Ok(hit);
        }
        if self.store.is_some() {
            metrics.cache_misses.inc();
        }

        let ckpt_dir = match &self.store {
            None => None,
            Some(dir) => {
                let key = spec.checkpoint_key().map_err(CampaignError::Invalid)?;
                let d = dir.join("runs").join(key);
                fs::create_dir_all(&d).map_err(|e| {
                    CampaignError::Store(format!("creating checkpoint dir {}: {e}", d.display()))
                })?;
                Some(d)
            }
        };

        // Resume: adopt every selected shard already checkpointed.
        let mut done: Vec<(u32, ShardResult)> = Vec::new();
        if let Some(dir) = &ckpt_dir {
            for &(index, _) in &selected {
                if let Some(result) = load_checkpoint(dir, index) {
                    done.push((index, result));
                }
            }
        }
        metrics.checkpoint_loads.add(done.len() as u64);
        let have: Vec<u32> = done.iter().map(|(i, _)| *i).collect();
        let missing: Vec<(u32, ShardWork)> =
            selected.iter().filter(|(i, _)| !have.contains(i)).copied().collect();

        let finished = AtomicU32::new(done.len() as u32);
        progress(finished.load(Ordering::Relaxed), total);

        let fresh = self.execute(spec, ckpt_dir.as_deref(), missing, total, &finished, progress)?;
        done.extend(fresh);
        done.sort_by_key(|(i, _)| *i);
        let ordered: Vec<(ShardWork, ShardResult)> =
            done.into_iter().map(|(i, r)| (plan[i as usize], r)).collect();
        let text = crate::shards::render(spec, &ordered).map_err(CampaignError::Render)?;
        let result = CampaignResult {
            spec: spec.clone(),
            cache_key: cache_key.clone(),
            shards: ordered.into_iter().map(|(_, r)| r).collect(),
            text,
        };

        if let Some(dir) = &self.store {
            let cache = dir.join("cache");
            fs::create_dir_all(&cache).map_err(|e| {
                CampaignError::Store(format!("creating cache dir {}: {e}", cache.display()))
            })?;
            let body = result
                .to_json()
                .to_string_pretty()
                .map_err(|e| CampaignError::Store(format!("serializing result: {e}")))?;
            write_atomic(&cache.join(format!("{cache_key}.json")), seal(&body).as_bytes())
                .map_err(|e| CampaignError::Store(format!("writing cached result: {e}")))?;
        }
        Ok(result)
    }

    /// Runs `missing` shards through the configured [`ShardDispatcher`].
    /// The engine owns everything that crosses the boundary: the
    /// completion callback counts the execution, checkpoints the result,
    /// and reports progress — identically whether the shard ran on a
    /// local scoped thread or a remote worker.
    fn execute(
        &self,
        spec: &CampaignSpec,
        ckpt_dir: Option<&Path>,
        missing: Vec<(u32, ShardWork)>,
        total: u32,
        finished: &AtomicU32,
        progress: ProgressFn<'_>,
    ) -> Result<Vec<(u32, ShardResult)>, CampaignError> {
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let metrics = engine_metrics();
        let completed: Mutex<Vec<(u32, ShardResult)>> = Mutex::new(Vec::new());
        let complete = |index: u32, result: ShardResult| {
            metrics.shards_executed.inc();
            self.executed.fetch_add(1, Ordering::Relaxed);
            if let Some(dir) = ckpt_dir {
                // Best-effort: a failed checkpoint write costs
                // resumability, not correctness.
                if let Err(e) = write_checkpoint(dir, index, &result) {
                    gd_obs::warn!(
                        "gd_campaign::engine",
                        "checkpoint write failed",
                        shard = index,
                        error = e,
                    );
                }
            }
            completed.lock().unwrap().push((index, result));
            progress(finished.fetch_add(1, Ordering::Relaxed) + 1, total);
        };
        let ctx = DispatchContext {
            spec,
            missing: &missing,
            complete: &complete,
            attempts: self.shard_attempts,
            watchdog_deadline: self.watchdog_deadline,
        };
        self.dispatcher.dispatch(&ctx)?;
        Ok(completed.into_inner().unwrap())
    }

    /// Looks a finished campaign up by its content address. A missing,
    /// torn, or corrupt cache file is a miss (the engine recomputes and
    /// rewrites).
    pub fn cache_lookup(&self, cache_key: &str) -> Option<CampaignResult> {
        let dir = self.store.as_ref()?;
        let path = dir.join("cache").join(format!("{cache_key}.json"));
        let text = read_store_file(&path, "cached result")?;
        match CampaignResult::from_json_text(&text) {
            Ok(result) if result.cache_key == cache_key => Some(result),
            _ => None,
        }
    }
}

/// The in-process [`ShardDispatcher`]: scoped-thread fan-out over
/// [`gd_exec`] with the full self-healing ladder — each shard attempt is
/// quarantined and retried with seeded-jitter backoff; a fan-out pass
/// aborted below the quarantine keeps its completed shards and resubmits
/// the rest; a watchdog thread flags attempts exceeding the deadline.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalDispatcher;

impl ShardDispatcher for LocalDispatcher {
    fn name(&self) -> &'static str {
        "local"
    }

    fn dispatch(&self, ctx: &DispatchContext<'_>) -> Result<(), CampaignError> {
        let metrics = engine_metrics();
        let spec = ctx.spec;
        let failed: Mutex<Option<CampaignError>> = Mutex::new(None);
        let inflight: Mutex<BTreeMap<u32, Instant>> = Mutex::new(BTreeMap::new());
        let done: Mutex<BTreeSet<u32>> = Mutex::new(BTreeSet::new());
        let stop = Stop::default();

        let run_one = |&(index, work): &(u32, ShardWork)| {
            if failed.lock().unwrap().is_some() {
                return; // the campaign is already lost; don't burn cycles
            }
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                inflight.lock().unwrap().insert(index, Instant::now());
                let timer = Timer::start();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    gd_chaos::shard_attempt(index);
                    run_shard(spec, &work)
                }));
                inflight.lock().unwrap().remove(&index);
                match outcome {
                    Ok(result) => {
                        metrics.shard_ms.observe(timer.elapsed_ms());
                        metrics.shard_retries.observe(u64::from(attempt - 1));
                        done.lock().unwrap().insert(index);
                        (ctx.complete)(index, result);
                        return;
                    }
                    Err(payload) => {
                        let cause = panic_message(payload.as_ref());
                        metrics.shards_quarantined.inc();
                        gd_obs::warn!(
                            "gd_campaign::engine",
                            "shard attempt panicked; quarantined",
                            shard = index,
                            attempt = attempt,
                            budget = ctx.attempts,
                            cause = cause,
                        );
                        if attempt >= ctx.attempts {
                            metrics.shard_retries.observe(u64::from(attempt - 1));
                            let mut slot = failed.lock().unwrap();
                            if slot.is_none() {
                                *slot = Some(CampaignError::ShardFailed {
                                    shard: index,
                                    label: work.label(),
                                    attempts: attempt,
                                    cause,
                                });
                            }
                            return;
                        }
                        // Seeded jitter: simultaneous failures across
                        // shards must not resubmit in lockstep, and the
                        // schedule must replay under a fixed model seed.
                        std::thread::sleep(retry_backoff(
                            SHARD_BACKOFF_BASE,
                            SHARD_BACKOFF_CAP,
                            attempt - 1,
                            spec.model.seed,
                            u64::from(index),
                        ));
                    }
                }
            }
        };

        // The fan-out itself can abort (a panic in the executor's worker
        // loop, below the per-shard quarantine — gd_chaos's
        // exec.worker_panic models exactly this). Completed shards are
        // already reported through `ctx.complete`; resubmit the rest, and
        // only give up after repeated passes that complete nothing.
        let fanned: Result<(), CampaignError> = std::thread::scope(|s| {
            s.spawn(|| watchdog_loop(&inflight, &stop, ctx.watchdog_deadline, metrics));
            let mut pending: Vec<(u32, ShardWork)> = ctx.missing.to_vec();
            let mut idle_passes = 0u32;
            let out = loop {
                let before = done.lock().unwrap().len();
                let pass = catch_unwind(AssertUnwindSafe(|| match spec.threads {
                    Some(t) => {
                        gd_exec::with_threads(t as usize, || gd_exec::par_map(&pending, &run_one))
                    }
                    None => gd_exec::par_map(&pending, &run_one),
                }));
                match pass {
                    Ok(_) => break Ok(()),
                    Err(payload) => {
                        let cause = panic_message(payload.as_ref());
                        metrics.fanout_retries.inc();
                        let now = done.lock().unwrap().len();
                        if now > before {
                            idle_passes = 0;
                        } else {
                            idle_passes += 1;
                        }
                        if idle_passes >= FANOUT_MAX_IDLE_PASSES {
                            break Err(CampaignError::FanoutFailed {
                                attempts: idle_passes,
                                cause,
                            });
                        }
                        gd_obs::warn!(
                            "gd_campaign::engine",
                            "fan-out aborted; resubmitting missing shards",
                            completed = now,
                            idle_passes = idle_passes,
                            cause = cause,
                        );
                        let have = done.lock().unwrap().clone();
                        pending.retain(|(i, _)| !have.contains(i));
                        std::thread::sleep(backoff(
                            FANOUT_BACKOFF_BASE,
                            FANOUT_BACKOFF_CAP,
                            idle_passes,
                        ));
                    }
                }
            };
            stop.set();
            out
        });
        fanned?;
        if let Some(err) = failed.into_inner().unwrap() {
            return Err(err);
        }
        Ok(())
    }
}

/// Exponential backoff: `base << n`, saturating at `cap`.
fn backoff(base: Duration, cap: Duration, n: u32) -> Duration {
    base.saturating_mul(1u32 << n.min(16)).min(cap)
}

/// splitmix64's finalizer — the jitter source for [`retry_backoff`].
fn splitmix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`backoff`] with deterministic full jitter: the delay for retry
/// `attempt` of `stream` (e.g. a shard index) under `seed` is a pure
/// function drawn uniformly from `[d/2, d]`, where `d` is the plain
/// exponential delay. Different streams de-synchronize (simultaneous
/// failures don't resubmit in lockstep) while a fixed seed replays the
/// exact schedule — retry timing stays testable.
pub fn retry_backoff(
    base: Duration,
    cap: Duration,
    attempt: u32,
    seed: u64,
    stream: u64,
) -> Duration {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let ceiling = backoff(base, cap, attempt);
    let h = splitmix(
        splitmix(seed ^ stream.wrapping_mul(GOLDEN))
            ^ u64::from(attempt).wrapping_add(1).wrapping_mul(GOLDEN),
    );
    let unit = ((h >> 11) as f64) / ((1u64 << 53) as f64);
    let half = u64::try_from(ceiling.as_nanos() / 2).unwrap_or(u64::MAX);
    Duration::from_nanos(half.saturating_add((half as f64 * unit) as u64))
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    "opaque panic payload".into()
}

/// The fan-out's end, signalled to the watchdog so it exits at once
/// instead of finishing its poll interval: a campaign never waits out a
/// watchdog sleep.
#[derive(Default)]
struct Stop {
    done: Mutex<bool>,
    wake: Condvar,
}

impl Stop {
    fn set(&self) {
        *self.done.lock().unwrap() = true;
        self.wake.notify_all();
    }

    /// Sleeps up to `timeout` or until [`Stop::set`]; true once set.
    fn wait(&self, timeout: Duration) -> bool {
        let done = self.done.lock().unwrap();
        *self.wake.wait_timeout_while(done, timeout, |done| !*done).unwrap().0
    }
}

/// Polls the in-flight map and flags attempts exceeding `deadline`.
/// Detection only — shard work is pure compute with no safe kill point —
/// but a stall becomes visible in logs and metrics instead of looking
/// like a silently slow campaign. Reports each shard at most once per
/// campaign.
fn watchdog_loop(
    inflight: &Mutex<BTreeMap<u32, Instant>>,
    stop: &Stop,
    deadline: Duration,
    metrics: &EngineMetrics,
) {
    let poll = (deadline / 2).clamp(Duration::from_millis(1), Duration::from_millis(200));
    let mut reported: BTreeSet<u32> = BTreeSet::new();
    while !stop.wait(poll) {
        for (&shard, started) in inflight.lock().unwrap().iter() {
            let elapsed = started.elapsed();
            if elapsed > deadline && reported.insert(shard) {
                metrics.watchdog_stalls.inc();
                gd_obs::warn!(
                    "gd_campaign::engine",
                    "shard attempt exceeds the watchdog deadline",
                    shard = shard,
                    elapsed_ms = elapsed.as_millis(),
                    deadline_ms = deadline.as_millis(),
                );
            }
        }
    }
}

/// First line of every store file: `#gd-sha256:<hex>\n` over the body.
///
/// The ISSUE calls this a "footer", but a footer cannot survive the
/// fault it exists to catch — truncation eats the end of the file first,
/// deleting the footer along with the evidence. As a *header* the seal
/// survives any torn tail and the hash mismatch convicts it.
pub(crate) const SEAL_PREFIX: &str = "#gd-sha256:";

/// Prepends the integrity seal to a store file body. The fleet module
/// reuses the same seal for shard payloads and results on the wire.
pub(crate) fn seal(body: &str) -> String {
    format!("{SEAL_PREFIX}{}\n{body}", crate::hash::sha256_hex(body.as_bytes()))
}

/// Verifies and strips the integrity seal. Unsealed files (written
/// before the seal existed) pass through — JSON parsing remains their
/// only validation.
pub(crate) fn unseal(text: &str) -> Result<&str, String> {
    let Some(rest) = text.strip_prefix(SEAL_PREFIX) else { return Ok(text) };
    let Some((want, body)) = rest.split_once('\n') else {
        return Err("file truncated inside the seal header".into());
    };
    let got = crate::hash::sha256_hex(body.as_bytes());
    if got != want {
        return Err(format!("seal mismatch: header says {want}, body hashes to {got}"));
    }
    Ok(body)
}

/// Reads a sealed store file, with the gd-chaos read sites applied.
/// `None` is always a recoverable miss; a seal failure additionally
/// counts in `gd_campaign_store_integrity_failures_total`.
fn read_store_file(path: &Path, what: &str) -> Option<String> {
    if !path.exists() {
        return None;
    }
    if gd_chaos::read_dropped() {
        gd_obs::debug!("gd_campaign::engine", "chaos dropped a store read", path = path.display());
        return None;
    }
    let mut bytes = fs::read(path).ok()?;
    gd_chaos::corrupt(&mut bytes);
    let text = String::from_utf8(bytes).ok()?;
    match unseal(&text) {
        Ok(body) => Some(body.to_owned()),
        Err(e) => {
            engine_metrics().integrity_failures.inc();
            gd_obs::warn!(
                "gd_campaign::engine",
                "store file failed its integrity seal; recomputing",
                what = what,
                path = path.display(),
                error = e,
            );
            None
        }
    }
}

fn checkpoint_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("shard-{index:05}.json"))
}

fn load_checkpoint(dir: &Path, index: u32) -> Option<ShardResult> {
    let text = read_store_file(&checkpoint_path(dir, index), "checkpoint")?;
    let v = parse(&text).ok()?;
    // Stale or mismatched files (e.g. a hand-edited store) are skipped,
    // not trusted: the index recorded inside must match the filename.
    if v.get("index").and_then(Json::as_u64) != Some(u64::from(index)) {
        return None;
    }
    ShardResult::from_json(v.get("result")?).ok()
}

fn write_checkpoint(dir: &Path, index: u32, result: &ShardResult) -> Result<(), String> {
    let body = Json::obj(vec![
        ("version", Json::Int(RESULT_VERSION.into())),
        ("index", Json::Int(index.into())),
        ("result", result.to_json()),
    ])
    .to_string_pretty()
    .map_err(|e| e.to_string())?;
    write_atomic(&checkpoint_path(dir, index), seal(&body).as_bytes()).map_err(|e| e.to_string())
}

/// Writes via a unique sibling temp file + fsync + rename, so readers
/// (and a campaign resuming after a kill) never observe a torn file and
/// the rename never publishes bytes still in the page cache only. Temp
/// names carry the pid and a sequence number — two engines sharing a
/// store cannot clobber each other's in-flight writes — and crash
/// leftovers are swept by [`Engine::with_store`].
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!(
        "{file_name}.{}-{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    // The chaos torn-write site publishes a *renamed but truncated* file
    // — the on-disk artifact of a crash mid-write — which the seal must
    // catch on the next read.
    let data: Cow<'_, [u8]> = if gd_chaos::active() {
        let mut owned = bytes.to_vec();
        gd_chaos::tear(&mut owned);
        Cow::Owned(owned)
    } else {
        Cow::Borrowed(bytes)
    };
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&data)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Best-effort directory fsync so the rename itself survives a crash.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Removes stale `*.tmp` files under `root` — the leftovers of atomic
/// writes interrupted by a crash, which would otherwise accumulate
/// forever. Returns how many were removed.
fn sweep_stale_tmp(root: &Path) -> u64 {
    let mut removed = 0;
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "tmp") && fs::remove_file(&path).is_ok()
            {
                removed += 1;
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gd-campaign-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A 3-shard Figure 2 slice: big enough to exercise sharding and
    /// resume, small enough (three real branch sweeps, ~0.5 s unoptimized)
    /// to run everywhere.
    fn small_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::fig2();
        spec.shards = Some((0, 3));
        spec
    }

    /// The watchdog is woken when the fan-out ends: a campaign whose
    /// shards take milliseconds does not wait out a poll interval of the
    /// default deadline's watchdog (200 ms).
    #[test]
    fn a_short_campaign_does_not_wait_for_the_watchdog() {
        let mut spec = CampaignSpec::table1();
        spec.workload = crate::spec::Workload::Table1 { cycles: (0, 1) };
        spec.shards = Some((0, 1));
        let engine = Engine::ephemeral();
        assert_eq!(engine.watchdog_deadline, DEFAULT_WATCHDOG_DEADLINE);
        let t = Instant::now();
        engine.run(&spec).unwrap();
        let elapsed = t.elapsed();
        assert!(elapsed < Duration::from_millis(100), "campaign took {elapsed:?}");
    }

    #[test]
    fn identical_resubmission_is_a_cache_hit() {
        let store = tmp_store("cache");
        let spec = small_spec();
        let engine = Engine::with_store(&store);
        let first = engine.run(&spec).unwrap();
        assert_eq!(engine.executed(), 3, "three shards ran");
        let second = engine.run(&spec).unwrap();
        assert_eq!(engine.executed(), 3, "the resubmission ran nothing");
        assert_eq!(second, first);
        // A fresh engine (a restarted process) hits the same cache file.
        let engine2 = Engine::with_store(&store);
        assert_eq!(engine2.run(&spec).unwrap(), first);
        assert_eq!(engine2.executed(), 0);
        let _ = fs::remove_dir_all(&store);
    }

    #[test]
    fn partial_campaigns_checkpoint_and_the_wider_campaign_resumes() {
        let store = tmp_store("resume");
        let spec = small_spec();
        let mut partial = spec.clone();
        partial.shards = Some((0, 2));
        let engine = Engine::with_store(&store);
        let part = engine.run(&partial).unwrap();
        assert_eq!(part.shards.len(), 2);
        assert_eq!(engine.executed(), 2);
        // A *restarted* engine (fresh process state, same store) finds the
        // two checkpointed shards and runs only the third — the checkpoint
        // key strips the shard range, so partial runs seed wider ones.
        let engine2 = Engine::with_store(&store);
        let full = engine2.run(&spec).unwrap();
        assert_eq!(engine2.executed(), 1, "only the missing shard ran");
        assert_eq!(full.shards.len(), 3);
        // The resumed run is indistinguishable from a cold run.
        let cold = Engine::ephemeral().run(&spec).unwrap();
        assert_eq!(full.text, cold.text);
        assert_eq!(full.shards, cold.shards);
        let _ = fs::remove_dir_all(&store);
    }

    #[test]
    fn progress_counts_reach_the_total_and_results_round_trip() {
        let spec = small_spec();
        let seen: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());
        let engine = Engine::ephemeral();
        let result = engine
            .run_with(&spec, &|done, total| seen.lock().unwrap().push((done, total)))
            .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.first(), Some(&(0, 3)));
        assert_eq!(seen.last(), Some(&(3, 3)));
        let text = result.to_json().to_string_pretty().unwrap();
        assert_eq!(CampaignResult::from_json_text(&text).unwrap(), result);
    }

    #[test]
    fn shard_range_beyond_the_plan_is_rejected() {
        let mut spec = small_spec();
        spec.shards = Some((0, 99));
        let err = Engine::ephemeral().run(&spec).unwrap_err();
        assert!(matches!(err, CampaignError::Invalid(_)), "{err:?}");
        assert!(!err.retryable(), "an invalid spec never cures itself");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn corrupt_cache_and_checkpoints_are_recomputed_not_trusted() {
        let store = tmp_store("corrupt");
        let spec = small_spec();
        let engine = Engine::with_store(&store);
        let good = engine.run(&spec).unwrap();
        // Corrupt the cache file: the next run must recompute.
        let cache = store.join("cache").join(format!("{}.json", good.cache_key));
        fs::write(&cache, b"{ truncated").unwrap();
        // Corrupt one checkpoint: only that shard re-runs.
        let ckpt_dir = store.join("runs").join(spec.checkpoint_key().unwrap());
        fs::write(checkpoint_path(&ckpt_dir, 1), b"not json").unwrap();
        let engine2 = Engine::with_store(&store);
        let again = engine2.run(&spec).unwrap();
        assert_eq!(engine2.executed(), 1, "one corrupt checkpoint re-ran");
        assert_eq!(again, good);
        let _ = fs::remove_dir_all(&store);
    }

    #[test]
    fn torn_checkpoints_fail_the_seal_and_recompute() {
        let store = tmp_store("torn");
        let spec = small_spec();
        let mut partial = spec.clone();
        partial.shards = Some((0, 2));
        Engine::with_store(&store).run(&partial).unwrap();
        // Tear shard 1's checkpoint mid-body: the seal header survives,
        // the body no longer hashes to it. Parse-only validation would
        // admit some torn files (JSON can truncate onto a valid prefix
        // boundary of a *string* field); the seal convicts all of them.
        let ckpt_dir = store.join("runs").join(spec.checkpoint_key().unwrap());
        let path = checkpoint_path(&ckpt_dir, 1);
        let full = fs::read_to_string(&path).unwrap();
        assert!(full.starts_with(SEAL_PREFIX), "checkpoints are sealed: {full:.40}");
        let torn = &full[..full.len() * 2 / 3];
        fs::write(&path, torn).unwrap();
        let before = engine_metrics().integrity_failures.get();
        let engine2 = Engine::with_store(&store);
        let result = engine2.run(&spec).unwrap();
        assert_eq!(engine2.executed(), 2, "the torn shard and the never-run shard executed");
        assert_eq!(result, Engine::ephemeral().run(&spec).unwrap());
        assert!(engine_metrics().integrity_failures.get() > before, "the seal failure is counted");
        let _ = fs::remove_dir_all(&store);
    }

    #[test]
    fn a_file_truncated_inside_the_seal_header_is_a_miss() {
        let store = tmp_store("torn-header");
        let spec = small_spec();
        let mut partial = spec.clone();
        partial.shards = Some((0, 1));
        Engine::with_store(&store).run(&partial).unwrap();
        let ckpt_dir = store.join("runs").join(spec.checkpoint_key().unwrap());
        let path = checkpoint_path(&ckpt_dir, 0);
        // Keep only the first 20 bytes — inside `#gd-sha256:<hex>`.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..20]).unwrap();
        // Drop the campaign cache so the rerun actually consults the
        // checkpoint instead of short-circuiting on the cached result.
        fs::remove_dir_all(store.join("cache")).unwrap();
        let engine2 = Engine::with_store(&store);
        engine2.run(&partial).unwrap();
        assert_eq!(engine2.executed(), 1, "the truncated checkpoint was not trusted");
        let _ = fs::remove_dir_all(&store);
    }

    #[test]
    fn stale_tmp_files_are_swept_at_store_open() {
        let store = tmp_store("sweep");
        let runs = store.join("runs").join("some-key");
        let cache = store.join("cache");
        fs::create_dir_all(&runs).unwrap();
        fs::create_dir_all(&cache).unwrap();
        // Crash leftovers at both layers, both tmp naming schemes.
        fs::write(runs.join("shard-00001.json.1234-0.tmp"), b"half a checkpoint").unwrap();
        fs::write(cache.join("deadbeef.json.99-7.tmp"), b"half a result").unwrap();
        fs::write(cache.join("keep.json"), b"not a tmp file").unwrap();
        let engine = Engine::with_store(&store);
        assert!(!runs.join("shard-00001.json.1234-0.tmp").exists(), "checkpoint tmp swept");
        assert!(!cache.join("deadbeef.json.99-7.tmp").exists(), "cache tmp swept");
        assert!(cache.join("keep.json").exists(), "non-tmp files untouched");
        drop(engine);
        let _ = fs::remove_dir_all(&store);
    }

    #[test]
    fn atomic_writes_leave_no_tmp_residue() {
        let store = tmp_store("no-residue");
        let spec = small_spec();
        Engine::with_store(&store).run(&spec).unwrap();
        let mut stack = vec![store.clone()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir).unwrap().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    assert!(
                        path.extension().is_none_or(|e| e != "tmp"),
                        "tmp residue after a clean campaign: {}",
                        path.display()
                    );
                }
            }
        }
        let _ = fs::remove_dir_all(&store);
    }

    /// Satellite regression: the jittered retry backoff is a pure
    /// function of (seed, stream, attempt) — fixed seed, fixed timing —
    /// bounded by the plain exponential schedule, and de-synchronized
    /// across shards so simultaneous failures don't resubmit in lockstep.
    #[test]
    fn retry_backoff_is_jittered_bounded_and_deterministic() {
        let (base, cap) = (SHARD_BACKOFF_BASE, SHARD_BACKOFF_CAP);
        for attempt in 0..8 {
            for stream in 0..16u64 {
                let d = retry_backoff(base, cap, attempt, 42, stream);
                let ceiling = backoff(base, cap, attempt);
                assert!(
                    d >= ceiling / 2 && d <= ceiling,
                    "attempt {attempt} stream {stream}: {d:?} outside [{:?}, {ceiling:?}]",
                    ceiling / 2
                );
                assert_eq!(
                    d,
                    retry_backoff(base, cap, attempt, 42, stream),
                    "a fixed seed replays the exact schedule"
                );
            }
        }
        let spread: BTreeSet<Duration> =
            (0..16).map(|s| retry_backoff(base, cap, 3, 42, s)).collect();
        assert!(spread.len() > 8, "shards de-synchronize: {spread:?}");
        let a: Vec<Duration> = (0..16).map(|s| retry_backoff(base, cap, 3, 42, s)).collect();
        let b: Vec<Duration> = (0..16).map(|s| retry_backoff(base, cap, 3, 43, s)).collect();
        assert_ne!(a, b, "the seed matters");
    }

    #[test]
    fn seal_round_trips_and_convicts_mutations() {
        let body = "{\"x\": 1}\n";
        let sealed = seal(body);
        assert_eq!(unseal(&sealed).unwrap(), body);
        // Legacy unsealed text passes through.
        assert_eq!(unseal(body).unwrap(), body);
        // Any mutation of the body fails the seal.
        let mutated = sealed.replace("\"x\": 1", "\"x\": 2");
        assert!(unseal(&mutated).is_err());
        // Truncation inside the body fails the seal.
        assert!(unseal(&sealed[..sealed.len() - 2]).is_err());
        // Truncation after the prefix but before the newline fails too.
        assert!(unseal(&sealed[..SEAL_PREFIX.len() + 5]).is_err());
        // A cut *inside* the prefix no longer looks sealed at all; it
        // falls through to JSON validation, which rejects it anyway.
        assert!(unseal(&sealed[..10]).is_ok());
        assert!(parse(unseal(&sealed[..10]).unwrap()).is_err());
    }
}
