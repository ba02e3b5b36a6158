//! `served`: an in-process campaign service backed by a store on disk,
//! driven by two closed-loop clients over HTTP — the only workload that
//! exercises the HTTP layer, the JSON codec, SHA-256 sealing, the store,
//! and the service queue.
//!
//! The two clients run independent closed loops: each submits its next
//! request as soon as the last one's result bytes arrive. The `cold`
//! client submits [`ROUNDS`] fresh specs — the published Table I spec,
//! then single-cycle Table I specs (`cycles: (c, c + 1)`, `model.seed`
//! drawn from the workload seed) — each of which computes and writes
//! checkpoint and cache files. The `warm` client starts once the first
//! cold spec has finished and submits [`WARM`] specs the cold client has
//! already finished, each a cache read. The service runs one campaign at
//! a time, so a warm request submitted while a cold campaign runs queues
//! behind it; how many do is set by the two loops' pace (about one per
//! cold campaign), not by a fixed mix. Each request is timed from submission until its result bytes
//! arrive.

use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gd_campaign::http::request;
use gd_campaign::json::{parse, Json};
use gd_campaign::service::{Server, ServerConfig};
use gd_campaign::spec::Workload as Kind;
use gd_campaign::CampaignSpec;

use crate::engine_run::cache_counters;
use crate::trace::Tracer;
use crate::util::{cpu_seconds, fingerprint, fresh_dir, Tally};
use crate::{Pass, Workload};

/// Cold requests per pass: the published Table I spec, then fresh
/// single-cycle specs.
pub const ROUNDS: usize = 41;
/// Warm requests per pass. A fixed count keeps the cache-hit count exact.
/// It is more than the warm loop completes while the cold loop runs (111
/// to 184 in 50 measured passes), so the warm client is still submitting
/// when the last cold campaign runs, and every cold campaign meets it.
pub const WARM: usize = 200;
/// Status poll interval of the cold client.
pub const COLD_POLL: Duration = Duration::from_millis(5);
/// Status poll interval of the warm client.
pub const WARM_POLL: Duration = Duration::from_millis(1);
/// Upper bound on one request before it counts as failed.
const REQUEST_DEADLINE: Duration = Duration::from_secs(60);
/// Attempts in the published Table I: 3 guards x 8 cycles x 99 x 99.
const TABLE1_ATTEMPTS: u64 = 3 * 8 * 9801;
/// FNV-1a fingerprints of the concatenated cold reports at the two
/// documented seeds. Other seeds are checked against the published
/// Table I bytes and against their own first pass.
const FINGERPRINTS: [(u64, u64); 2] = [(0, 0x37aa_5426_4a83_8f9c), (7, 0xddca_a5de_a519_7339)];

/// The fresh spec of cold request `r` under workload seed `seed`: the
/// published Table I spec first, then single-cycle specs.
pub fn cold_spec(seed: u64, r: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::table1();
    if r > 0 {
        let c = (r % 8) as u32;
        spec.workload = Kind::Table1 { cycles: (c, c + 1) };
        spec.model.seed ^= gd_chipwhisperer::splitmix64(seed.wrapping_mul(1_000_003) ^ r as u64);
    }
    spec
}

/// One served request's measurements.
pub struct Reply {
    /// The campaign id the service assigned.
    pub id: u64,
    /// Submission to result bytes received.
    pub latency_ms: f64,
    /// Time the campaign spent queued.
    pub queue_wait_ms: f64,
    /// The report bytes.
    pub text: String,
}

/// Submits `body`, polls until done, and fetches the text result.
pub fn roundtrip(
    addr: &str,
    body: &str,
    poll: Duration,
    (tr, trace, label): (&Tracer, u64, &str),
) -> Result<Reply, String> {
    tr.span(
        0,
        trace,
        "client",
        || label.to_owned(),
        |root| {
            let t0 = Instant::now();
            let (status, reply) = tr.span(
                root,
                trace,
                "http",
                || "submit".into(),
                |_| request(addr, "POST", "/campaigns", Some(body)),
            )?;
            if status != 202 {
                return Err(format!("submit refused: {status} {reply}"));
            }
            let id = parse(&reply)
                .ok()
                .and_then(|v| v.get("id").and_then(Json::as_u64))
                .ok_or(format!("submit reply has no id: {reply}"))?;
            let mut queue_wait_ms = None;
            loop {
                let (status, reply) = tr.span(
                    root,
                    trace,
                    "http",
                    || "poll".into(),
                    |_| request(addr, "GET", &format!("/campaigns/{id}"), None),
                )?;
                let seen_ms = t0.elapsed().as_secs_f64() * 1e3;
                let doc = tr.span(root, trace, "json", || "status".into(), |_| parse(&reply));
                let doc = doc.map_err(|e| format!("status {status} is not JSON: {e}"))?;
                let state = doc.get("state").and_then(Json::as_str).unwrap_or("?").to_owned();
                if state != "queued" && queue_wait_ms.is_none() {
                    // Run time so far is reported in whole ms; the rest of the
                    // time since submission was spent queued.
                    let ran = doc.get("elapsed_ms").and_then(Json::as_u64).unwrap_or(0) as f64;
                    queue_wait_ms = Some((seen_ms - ran).max(0.0));
                }
                match state.as_str() {
                    "done" => break,
                    "queued" | "running" => {}
                    _ => return Err(format!("campaign {id} ended {state}: {reply}")),
                }
                if t0.elapsed() > REQUEST_DEADLINE {
                    return Err(format!("campaign {id} not done after {REQUEST_DEADLINE:?}"));
                }
                thread::sleep(poll);
            }
            let (status, text) = tr.span(
                root,
                trace,
                "http",
                || "fetch".into(),
                |_| request(addr, "GET", &format!("/campaigns/{id}/results?format=text"), None),
            )?;
            if status != 200 {
                return Err(format!("results of {id}: status {status}"));
            }
            Ok(Reply {
                id,
                latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                queue_wait_ms: queue_wait_ms.unwrap_or(0.0),
                text,
            })
        },
    )
}

/// Starts a service over a fresh store and waits until it answers.
pub fn start() -> Result<(Server, std::path::PathBuf), String> {
    let store = fresh_dir("store");
    let server = Server::start(ServerConfig {
        store: Some(store.clone()),
        queue_limit: 64,
        ..ServerConfig::default()
    })?;
    let (status, _) = request(&server.addr().to_string(), "GET", "/metrics", None)?;
    if status != 200 {
        return Err(format!("fresh service answers /metrics with {status}"));
    }
    Ok((server, store))
}

/// Stops the service and deletes its store.
pub fn stop(server: Server, store: &std::path::Path) -> Result<(), String> {
    let out = server.shutdown();
    let _ = std::fs::remove_dir_all(store);
    out
}

/// Attempts in a Table I report: the sum of its `of N attempts` totals.
fn attempts_in(text: &str) -> u64 {
    text.lines()
        .filter_map(|l| l.split(" of ").nth(1)?.split(" attempts").next()?.parse::<u64>().ok())
        .sum()
}

/// Cold results the warm client may resubmit, in the order they finished.
#[derive(Default)]
struct Finished {
    /// Report bytes per cold request, once it finished.
    text: Vec<Option<String>>,
    /// Indices of finished cold requests, in finishing order.
    order: Vec<usize>,
    /// The cold client has made all its requests.
    cold_done: bool,
}

/// The `served` workload.
pub struct Served {
    seed: u64,
    bodies: Vec<String>,
    /// Each cold spec's report bytes from the first pass.
    expected: Vec<Option<String>>,
}

impl Served {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Served {
        let bodies = (0..ROUNDS)
            .map(|r| cold_spec(seed, r).to_json().to_string_compact().expect("spec serializes"))
            .collect();
        Served { seed, bodies, expected: vec![None; ROUNDS] }
    }
}

impl Workload for Served {
    /// Starts the service over a fresh store, waits for it to answer,
    /// and stops it again.
    fn setup(&mut self, tr: &Tracer, tally: &mut Tally) {
        let round = tr.new_trace();
        let out = tr.span(
            0,
            round,
            "setup",
            || "served".into(),
            |_| {
                let (server, store) = start()?;
                stop(server, &store)
            },
        );
        tally.check(out.is_ok(), || format!("setup: {out:?}"));
    }

    fn pass(&mut self, tr: &Tracer, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        let (server, store) = match start() {
            Ok(s) => s,
            Err(e) => {
                tally.fail(format!("service does not start: {e}"));
                return pass;
            }
        };
        let addr = server.addr().to_string();
        let finished = Mutex::new(Finished { text: vec![None; ROUNDS], ..Finished::default() });
        let changed = Condvar::new();
        let (hits0, misses0) = cache_counters();
        let (t0, c0) = (Instant::now(), cpu_seconds());
        let (cold, (warm, cold_end)) = thread::scope(|s| {
            let cold = s.spawn(|| {
                let mut out: Vec<Result<Reply, String>> = Vec::new();
                for (r, body) in self.bodies.iter().enumerate() {
                    let result = roundtrip(&addr, body, COLD_POLL, (tr, tr.new_trace(), "cold"));
                    if let Ok(done) = &result {
                        let mut f = finished.lock().expect("no client panicked");
                        f.text[r] = Some(done.text.clone());
                        f.order.push(r);
                        changed.notify_all();
                    }
                    out.push(result);
                }
                finished.lock().expect("no client panicked").cold_done = true;
                changed.notify_all();
                (out, Instant::now())
            });
            let warm = s.spawn(|| {
                let mut out: Vec<(usize, Result<Reply, String>, Instant)> = Vec::new();
                for k in 0..WARM {
                    let idx = {
                        let mut f = finished.lock().expect("no client panicked");
                        while f.order.is_empty() && !f.cold_done {
                            f = changed.wait(f).expect("no client panicked");
                        }
                        match f.order.len() {
                            0 => break, // every cold request failed; nothing to re-read
                            n => f.order[(k * 7919) % n],
                        }
                    };
                    let result = roundtrip(
                        &addr,
                        &self.bodies[idx],
                        WARM_POLL,
                        (tr, tr.new_trace(), "warm"),
                    );
                    out.push((idx, result, Instant::now()));
                }
                out
            });
            let (cold, cold_end) = cold.join().expect("cold client does not panic");
            (cold, (warm.join().expect("warm client does not panic"), cold_end))
        });
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.cpu_s = cpu_seconds() - c0;
        let (hits, misses) = cache_counters();
        if let Err(e) = stop(server, &store) {
            tally.fail(format!("service shutdown: {e}"));
        }

        let finished = finished.into_inner().expect("no client panicked").text;
        for (r, result) in cold.into_iter().enumerate() {
            match result {
                Ok(done) => {
                    pass.ops += 1;
                    pass.trials += attempts_in(&done.text);
                    pass.cold_ms.push(done.latency_ms);
                    pass.queue_wait_ms.push(done.queue_wait_ms);
                    if r == 0 {
                        tally.check(done.text == include_str!("../../results/table1.txt"), || {
                            "cold request 0: the published Table I differs from results/table1.txt"
                                .into()
                        });
                    }
                    let want = self.expected[r].get_or_insert_with(|| done.text.clone());
                    tally.check(done.text == *want, || {
                        format!("cold request {r}: report differs from the first pass")
                    });
                }
                Err(e) => tally.fail(format!("cold request {r}: {e}")),
            }
        }
        let mut warm_during_cold = 0;
        for (idx, result, at) in &warm {
            match result {
                Ok(done) => {
                    pass.ops += 1;
                    pass.warm_ms.push(done.latency_ms);
                    pass.queue_wait_ms.push(done.queue_wait_ms);
                    warm_during_cold += usize::from(*at <= cold_end);
                    tally.check(finished[*idx].as_deref() == Some(done.text.as_str()), || {
                        format!(
                            "warm re-read of cold request {idx}: bytes differ from its cold result"
                        )
                    });
                }
                Err(e) => tally.fail(format!("warm re-read of cold request {idx}: {e}")),
            }
        }
        if warm.len() < WARM {
            tally.fail(format!("warm client made {} of {WARM} requests", warm.len()));
        }
        eprintln!(
            "served pass: {warm_during_cold} of {} warm requests done while the cold client ran ({:.3} s of {:.3} s)",
            warm.len(),
            cold_end.duration_since(t0).as_secs_f64(),
            pass.wall_s
        );
        if self.expected.iter().all(Option::is_some) && pass.cold_ms.len() == ROUNDS {
            let all: String = self.expected.iter().flatten().map(String::as_str).collect();
            let got = fingerprint(all.as_bytes());
            eprintln!("served seed {}: reports fingerprint {got:016x}", self.seed);
            if let Some(&(_, want)) = FINGERPRINTS.iter().find(|(s, _)| *s == self.seed) {
                tally.check(got == want, || {
                    format!(
                        "seed {}: cold reports fingerprint {got:016x}, expected {want:016x}",
                        self.seed
                    )
                });
            }
        }
        pass.counts.push(("cache.hits".into(), hits - hits0));
        pass.counts.push(("cache.misses".into(), misses - misses0));
        pass.counts.push(("cold.attempts".into(), pass.trials));
        pass
    }

    fn expected_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cache.hits", WARM as u64),
            ("cache.misses", ROUNDS as u64),
            ("cold.attempts", TABLE1_ATTEMPTS + ((ROUNDS - 1) * 3 * 9801) as u64),
        ]
    }
}
