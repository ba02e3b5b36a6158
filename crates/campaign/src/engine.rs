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
//! ## Failures
//!
//! Shard work is a pure function of its spec, so a shard that panicked
//! would panic again: nothing is retried. Each shard runs under one
//! `catch_unwind`, which turns its panic into
//! [`CampaignError::ShardFailed`]; shards not yet started are then
//! skipped, and those that completed stay checkpointed for the next run.
//! Every store file carries a SHA-256 seal of its body, so a torn,
//! flipped or unsealed file is recomputed instead of trusted. Writes go
//! tmp + fsync + rename, and stale `*.tmp` crash leftovers are swept
//! when a store opens.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gd_obs::Timer;

pub use crate::error::CampaignError;
use crate::json::{parse, Json};
use crate::shards::{run_shard, shard_plan, ShardResult, ShardWork};
use crate::spec::CampaignSpec;

/// Result format version written to cache and checkpoint files, which
/// reject any other. Version 2: second-order multifault buckets
/// partition pairs by first-fault class, not by linear pair index, so a
/// version-1 bucket holds other pairs. Version 3: a bucket holds a
/// contiguous run of first-fault classes, not every eighth class.
pub const RESULT_VERSION: i64 = 3;

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
    /// `gd_campaign_store_integrity_failures_total`
    integrity_failures: Arc<gd_obs::Counter>,
    /// `gd_campaign_tmp_files_swept_total`
    tmp_swept: Arc<gd_obs::Counter>,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        gd_faultsim::register_metrics();
        EngineMetrics {
            cache_hits: gd_obs::counter(
                "gd_campaign_cache_hits_total",
                "campaigns satisfied from the content-addressed result cache \
                 (or, in the service, from a finished job with the same key)",
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

/// Counts one campaign answered from an already finished result with
/// its cache key, outside [`Engine::run_with`] (the service does this
/// at submit time).
pub(crate) fn record_cache_hit() {
    engine_metrics().cache_hits.inc();
}

/// Progress of a running campaign, reported to [`Engine::run_with`]
/// observers as `(done, total)` over the selected shard range.
pub type ProgressFn<'a> = &'a (dyn Fn(u32, u32) + Sync);

/// Nothing panics while holding the engine's locks: shard panics are
/// caught before the failure slot is locked.
const POISON: &str = "the failure slot is never locked across a panic";

/// Computes one shard; [`run_shard`] outside the tests.
type ShardRunner<'a> = &'a (dyn Fn(&CampaignSpec, &ShardWork) -> ShardResult + Sync);

/// The sharded campaign engine. Cheap to construct; all state lives in
/// the optional store directory.
#[derive(Debug)]
pub struct Engine {
    store: Option<PathBuf>,
    executed: AtomicU64,
}

impl Engine {
    /// An engine with no store: no cache lookups, no checkpoints.
    pub fn ephemeral() -> Engine {
        let _ = engine_metrics();
        Engine { store: None, executed: AtomicU64::new(0) }
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
        Engine { store: Some(dir), executed: AtomicU64::new(0) }
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
    /// shard is checkpointed before the merge.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Invalid`] for unusable specs (including shard
    /// ranges outside the plan and target fixtures that do not build),
    /// [`CampaignError::Store`] for store I/O the engine cannot work
    /// around, [`CampaignError::ShardFailed`] when a shard panics, and
    /// [`CampaignError::Render`] if the merged results cannot be
    /// rendered.
    pub fn run_with(
        &self,
        spec: &CampaignSpec,
        progress: ProgressFn<'_>,
    ) -> Result<CampaignResult, CampaignError> {
        self.run_shards_with(spec, progress, &run_shard)
    }

    /// [`Engine::run_with`] over an arbitrary shard runner: production
    /// passes [`run_shard`], the tests one that panics on cue.
    fn run_shards_with(
        &self,
        spec: &CampaignSpec,
        progress: ProgressFn<'_>,
        runner: ShardRunner<'_>,
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

        progress(done.len() as u32, total);

        let fresh = self.execute(spec, ckpt_dir.as_deref(), missing, total, progress, runner)?;
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

    /// Runs `missing` shards as a scoped-thread fan-out over [`gd_exec`],
    /// each under one `catch_unwind`. A panicking shard fails the
    /// campaign and the shards not yet started are skipped. Each
    /// completed shard is counted, checkpointed, and reported as progress
    /// the moment it finishes.
    fn execute(
        &self,
        spec: &CampaignSpec,
        ckpt_dir: Option<&Path>,
        missing: Vec<(u32, ShardWork)>,
        total: u32,
        progress: ProgressFn<'_>,
        runner: ShardRunner<'_>,
    ) -> Result<Vec<(u32, ShardResult)>, CampaignError> {
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let metrics = engine_metrics();
        let finished = AtomicU32::new(total - missing.len() as u32);
        let failed: Mutex<Option<CampaignError>> = Mutex::new(None);
        let run_one = |&(index, work): &(u32, ShardWork)| {
            if failed.lock().expect(POISON).is_some() {
                return None; // the campaign is already lost; don't burn cycles
            }
            let timer = Timer::start();
            let result = match catch_unwind(AssertUnwindSafe(|| runner(spec, &work))) {
                Ok(result) => result,
                Err(payload) => {
                    let cause = panic_message(payload.as_ref());
                    gd_obs::warn!(
                        "gd_campaign::engine",
                        "shard panicked",
                        shard = index,
                        cause = cause,
                    );
                    failed.lock().expect(POISON).get_or_insert(CampaignError::ShardFailed {
                        shard: index,
                        label: work.label(),
                        cause,
                    });
                    return None;
                }
            };
            metrics.shard_ms.observe(timer.elapsed_ms());
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
            progress(finished.fetch_add(1, Ordering::Relaxed) + 1, total);
            Some((index, result))
        };
        let fresh = match spec.threads {
            Some(t) => gd_exec::with_threads(t as usize, || gd_exec::par_map(&missing, run_one)),
            None => gd_exec::par_map(&missing, run_one),
        };
        if let Some(err) = failed.into_inner().expect(POISON) {
            return Err(err);
        }
        Ok(fresh.into_iter().flatten().collect())
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

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    "opaque panic payload".into()
}

/// First line of every store file: `#gd-sha256:<hex>\n` over the body.
///
/// A header, not a footer: a footer cannot survive the fault it exists
/// to catch — truncation eats the end of the file first, deleting the
/// footer along with the evidence. As a *header* the seal survives any
/// torn tail and the hash mismatch convicts it.
const SEAL_PREFIX: &str = "#gd-sha256:";

/// Prepends the integrity seal to a store file body.
fn seal(body: &str) -> String {
    format!("{SEAL_PREFIX}{}\n{body}", crate::hash::sha256_hex(body.as_bytes()))
}

/// Verifies and strips the integrity seal; unsealed text is an error.
fn unseal(text: &str) -> Result<&str, String> {
    let Some(rest) = text.strip_prefix(SEAL_PREFIX) else {
        return Err("file carries no integrity seal".into());
    };
    let Some((want, body)) = rest.split_once('\n') else {
        return Err("file truncated inside the seal header".into());
    };
    let got = crate::hash::sha256_hex(body.as_bytes());
    if got != want {
        return Err(format!("seal mismatch: header says {want}, body hashes to {got}"));
    }
    Ok(body)
}

/// Reads a sealed store file. `None` is always a recoverable miss; a
/// seal failure additionally counts in
/// `gd_campaign_store_integrity_failures_total`.
fn read_store_file(path: &Path, what: &str) -> Option<String> {
    if !path.exists() {
        return None;
    }
    let text = String::from_utf8(fs::read(path).ok()?).ok()?;
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
    // Stale or mismatched files (e.g. a hand-edited store, or one written
    // under another result version, whose shards may hold other work)
    // are skipped, not trusted: the version recorded inside must be this
    // one, and the index must match the filename.
    if v.get("version").and_then(Json::as_i64) != Some(RESULT_VERSION)
        || v.get("index").and_then(Json::as_u64) != Some(u64::from(index))
    {
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
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
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

    #[test]
    fn seal_round_trips_and_convicts_mutations() {
        let body = "{\"x\": 1}\n";
        let sealed = seal(body);
        assert_eq!(unseal(&sealed).unwrap(), body);
        // Unsealed text is rejected.
        assert!(unseal(body).is_err());
        // Any mutation of the body fails the seal.
        let mutated = sealed.replace("\"x\": 1", "\"x\": 2");
        assert!(unseal(&mutated).is_err());
        // Truncation inside the body fails the seal.
        assert!(unseal(&sealed[..sealed.len() - 2]).is_err());
        // Truncation after the prefix but before the newline fails too.
        assert!(unseal(&sealed[..SEAL_PREFIX.len() + 5]).is_err());
        // A cut inside the prefix no longer looks sealed at all.
        assert!(unseal(&sealed[..10]).is_err());
    }

    /// Runs a serial 3-shard campaign whose runner panics on shard 2, so
    /// shards 0 and 1 finish (and checkpoint) before the failure.
    fn run_panicking_on_shard_2(store: &Path, spec: &CampaignSpec) -> CampaignError {
        let doomed = shard_plan(spec)[2];
        let panics_on_2 = |spec: &CampaignSpec, work: &ShardWork| {
            if *work == doomed {
                panic!("shard 2 blows up");
            }
            run_shard(spec, work)
        };
        Engine::with_store(store).run_shards_with(spec, &|_, _| {}, &panics_on_2).unwrap_err()
    }

    /// A panicking shard fails the campaign with a typed error carrying
    /// the panic text.
    #[test]
    fn a_panicking_shard_surfaces_a_typed_shard_failed_error() {
        let store = tmp_store("shard-panic-typed");
        let mut spec = small_spec();
        spec.threads = Some(1);
        match run_panicking_on_shard_2(&store, &spec) {
            CampaignError::ShardFailed { shard: 2, cause, .. } => {
                assert!(cause.contains("shard 2 blows up"), "{cause}");
            }
            other => panic!("expected shard 2 to fail the run, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&store);
    }

    /// The shards that completed before a panic stay checkpointed, so a
    /// restarted engine runs only the lost shard.
    #[test]
    fn a_restarted_engine_resumes_from_checkpoints_mid_campaign() {
        let store = tmp_store("shard-panic-resume");
        let mut spec = small_spec();
        spec.threads = Some(1);
        let err = run_panicking_on_shard_2(&store, &spec);
        assert!(matches!(err, CampaignError::ShardFailed { shard: 2, .. }), "{err:?}");
        let engine = Engine::with_store(&store);
        let result = engine.run(&spec).unwrap();
        assert_eq!(engine.executed(), 1, "shards 0 and 1 come from checkpoints");
        let cold = Engine::ephemeral().run(&spec).unwrap();
        assert_eq!(result.text, cold.text);
        assert_eq!(result.shards, cold.shards);
        let _ = fs::remove_dir_all(&store);
    }

    /// Store damage made by hand: torn files and a flipped digit that
    /// still parses are both convicted by the seal and recomputed.
    #[test]
    fn torn_and_flipped_store_files_are_recomputed_not_trusted() {
        let store = tmp_store("damaged");
        let spec = small_spec();
        let cold = Engine::ephemeral().run(&spec).unwrap();
        let good = Engine::with_store(&store).run(&spec).unwrap();
        let cache = store.join("cache").join(format!("{}.json", good.cache_key));
        let ckpt_dir = store.join("runs").join(spec.checkpoint_key().unwrap());
        let checkpoints: Vec<PathBuf> = (0..3).map(|i| checkpoint_path(&ckpt_dir, i)).collect();

        // Tear the cache file and every checkpoint to half their bytes.
        for path in checkpoints.iter().chain([&cache]) {
            let bytes = fs::read(path).unwrap();
            fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
        }
        let before = engine_metrics().integrity_failures.get();
        let engine = Engine::with_store(&store);
        let result = engine.run(&spec).unwrap();
        assert_eq!(engine.executed(), 3, "no torn file was trusted");
        assert_eq!((&result.text, &result.shards), (&cold.text, &cold.shards));
        assert!(engine_metrics().integrity_failures.get() > before, "the seal failures count");

        // Flip the last digit of one sealed checkpoint body: still valid
        // JSON of the right version and index, so only the seal can
        // convict it.
        let text = fs::read_to_string(&checkpoints[1]).unwrap();
        let at = text.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let flipped = if &text[at..=at] == "9" { "8" } else { "9" };
        let text = format!("{}{flipped}{}", &text[..at], &text[at + 1..]);
        assert!(parse(text.split_once('\n').unwrap().1).is_ok(), "the flip keeps valid JSON");
        fs::write(&checkpoints[1], text).unwrap();
        fs::remove_file(&cache).unwrap();
        let before = engine_metrics().integrity_failures.get();
        let engine = Engine::with_store(&store);
        let result = engine.run(&spec).unwrap();
        assert_eq!(engine.executed(), 1, "the flipped checkpoint was recomputed");
        assert_eq!((&result.text, &result.shards), (&cold.text, &cold.shards));
        assert!(engine_metrics().integrity_failures.get() > before, "the seal failure counts");
        let _ = fs::remove_dir_all(&store);
    }
}
