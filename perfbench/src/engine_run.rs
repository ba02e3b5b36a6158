//! Calls into the campaign engine shared by the `sweep` workload and the
//! probes: a campaign run that recovers each executed shard's compute
//! time, the raw trial count of a result, and the `gd_exec` counters.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use gd_campaign::shards::ShardResult;
use gd_campaign::{CampaignError, CampaignResult, CampaignSpec, Engine};

/// Runs `spec` and returns the result plus the compute time of every
/// executed shard in milliseconds.
///
/// The engine reports each completed shard through its progress callback
/// on the worker thread that ran it, and a worker runs its shards one
/// after another, so the gap between two completions on one thread (or
/// between dispatch and a thread's first completion) is one shard's time.
pub fn run_timed(
    engine: &Engine,
    spec: &CampaignSpec,
) -> (Result<CampaignResult, CampaignError>, Vec<f64>) {
    let events: Mutex<Vec<(ThreadId, Instant)>> = Mutex::new(Vec::new());
    let start: Mutex<Option<Instant>> = Mutex::new(None);
    let progress = |done: u32, _total: u32| {
        let now = Instant::now();
        let mut s = start.lock().expect("no progress callback panicked");
        if s.is_none() && done == 0 {
            *s = Some(now);
            return;
        }
        drop(s);
        events
            .lock()
            .expect("no progress callback panicked")
            .push((std::thread::current().id(), now));
    };
    let t0 = Instant::now();
    let result = engine.run_with(spec, &progress);
    let dispatched = start.into_inner().expect("no progress callback panicked").unwrap_or(t0);
    let mut events = events.into_inner().expect("no progress callback panicked");
    events.sort_by_key(|&(_, t)| t);
    let mut last: Vec<(ThreadId, Instant)> = Vec::new();
    let mut shard_ms = Vec::with_capacity(events.len());
    for (thread, t) in events {
        let prev = match last.iter_mut().find(|(id, _)| *id == thread) {
            Some(slot) => std::mem::replace(&mut slot.1, t),
            None => {
                last.push((thread, t));
                dispatched
            }
        };
        shard_ms.push(t.duration_since(prev).as_secs_f64() * 1e3);
    }
    (result, shard_ms)
}

/// Outcome-classified trials in a result's raw space: grid attempts
/// (out-of-region points included), Figure 2 executions, and enumerated
/// fault candidates (pruned weight included).
pub fn trials(result: &CampaignResult) -> u64 {
    result
        .shards
        .iter()
        .map(|s| match s {
            ShardResult::Sweep(sweep) => sweep.per_k.iter().map(|t| t.total()).sum(),
            ShardResult::Cell { cell, .. } => cell.attempts,
            ShardResult::Multi { cell, .. } => cell.attempts,
            ShardResult::Defense(cell) => cell.total,
            ShardResult::Multifault { enumerated, .. } => *enumerated,
        })
        .sum()
}

/// Executor counters: chunks `gd_exec` ran, and milliseconds of shard
/// work the engine's workers did.
#[derive(Debug, Clone, Copy)]
pub struct ExecCounters {
    /// `gd_exec_chunks_executed_total`.
    pub chunks: u64,
    /// The sum of the `gd_campaign_shard_ms` histogram. The executor's
    /// own busy counter is not used: a fan-out nested inside a worker
    /// runs serially and adds its time again, so it double-counts.
    pub shard_ms: u64,
}

impl ExecCounters {
    /// Reads the counters. The executor and the engine register their
    /// families on first use, which the first call forces, so the
    /// lookups below find those families rather than creating new ones.
    pub fn read() -> ExecCounters {
        static REGISTER: std::sync::Once = std::sync::Once::new();
        REGISTER.call_once(|| {
            let _ = gd_exec::par_map(&[0u8], |x| *x);
            let _ = Engine::ephemeral();
        });
        ExecCounters {
            chunks: gd_obs::counter("gd_exec_chunks_executed_total", "", &[]).get(),
            shard_ms: gd_obs::histogram("gd_campaign_shard_ms", "", &[]).sum(),
        }
    }

    /// Counter growth since `before`.
    pub fn since(self, before: ExecCounters) -> ExecCounters {
        ExecCounters {
            chunks: self.chunks - before.chunks,
            shard_ms: self.shard_ms - before.shard_ms,
        }
    }
}

/// Campaign-engine cache counters: `(hits, misses)`.
pub fn cache_counters() -> (u64, u64) {
    // The engine registers these families when an engine is constructed.
    let _ = Engine::ephemeral();
    (
        gd_obs::counter("gd_campaign_cache_hits_total", "", &[]).get(),
        gd_obs::counter("gd_campaign_cache_misses_total", "", &[]).get(),
    )
}
