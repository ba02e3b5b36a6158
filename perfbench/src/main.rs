//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|served --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload runs per process. The run sets up several times (the
//! median is `setup_s`), then repeats whole passes of the workload until
//! `--seconds` have gone by, checking every output against the committed
//! goldens or against the run's first pass, and every work count against
//! its expected value. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs untraced and traced passes alternately, then the
//! per-layer probes, and prints the per-layer metrics. The last line of
//! standard output is the JSON result; everything else goes to stderr.
//! See `README.md` in this directory for the workloads and metrics.

mod engine_run;
mod probes;
mod served;
mod sweep;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use util::{median, quantile, Metrics, Tally};

/// Worker threads every workload runs with (`GD_THREADS`).
pub const THREADS: usize = 2;

/// Setup rounds in each batch, at least. A batch runs before the first
/// pass and after every pass, so the samples span the whole run, and
/// `setup_s` is the median of all of them.
const SETUP_ROUNDS: usize = 5;
/// A batch keeps repeating until it has taken this long, so that a setup
/// of a millisecond still gets many samples ...
const SETUP_BUDGET_S: f64 = 0.1;
/// ... but never more rounds than this.
const SETUP_MAX_ROUNDS: usize = 100;

/// Passes every run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// What one pass of a workload did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the measured part of the pass.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Outcome-classified trials in the raw space.
    pub trials: u64,
    /// Campaigns or requests completed.
    pub ops: u64,
    /// Cold latencies in ms (computed results).
    pub cold_ms: Vec<f64>,
    /// Warm latencies in ms (cached results).
    pub warm_ms: Vec<f64>,
    /// Executed-shard compute times in ms.
    pub shard_ms: Vec<f64>,
    /// Time requests spent queued in the service, in ms.
    pub queue_wait_ms: Vec<f64>,
    /// Work counts that must repeat exactly from pass to pass.
    pub counts: Vec<(String, u64)>,
}

/// One benchmark workload.
pub trait Workload {
    /// One setup round: everything a pass needs before its first trial.
    fn setup(&mut self, tr: &Tracer, tally: &mut Tally);
    /// One full pass of the workload.
    fn pass(&mut self, tr: &Tracer, tally: &mut Tally) -> Pass;
    /// Counts every pass must report with exactly these values.
    fn expected_counts(&self) -> Vec<(&'static str, u64)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required (sweep or served)")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "sweep" => Some(Box::new(sweep::Sweep::new(seed))),
        "served" => Some(Box::new(served::Served::new(seed))),
        _ => None,
    }
}

/// Checks the exact-count guard: every pass reports the expected counts,
/// and every count repeats the first pass's value.
fn check_counts(w: &dyn Workload, passes: &[Pass], tally: &mut Tally) {
    let expected = w.expected_counts();
    for (i, p) in passes.iter().enumerate() {
        for (name, want) in &expected {
            let got = p.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            tally.check(got == Some(*want), || {
                format!("pass {i}: count {name} = {got:?}, expected {want}")
            });
        }
        tally.check(p.counts == passes[0].counts, || {
            format!("pass {i}: counts {:?} differ from pass 0 {:?}", p.counts, passes[0].counts)
        });
    }
}

/// Pooled samples of one latency field over every pass.
fn pooled(passes: &[Pass], field: impl Fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(|p| field(p).iter().copied()).collect()
}

fn end_to_end(setup: &[f64], passes: &[Pass], metrics: &mut Metrics) {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    metrics.put("wall_s", per_pass(&|p| p.wall_s), "s");
    metrics.put("cpu_s", per_pass(&|p| p.cpu_s), "s");
    metrics.put("setup_s", median(setup), "s");
    metrics.put("trials_per_s", per_pass(&|p| p.trials as f64 / p.wall_s), "1/s");
    metrics.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
    let cold = pooled(passes, |p| &p.cold_ms);
    let warm_all = pooled(passes, |p| &p.warm_ms);
    metrics.put("cold_p50_ms", quantile(&cold, 0.50), "ms");
    metrics.put("cold_p75_ms", quantile(&cold, 0.75), "ms");
    metrics.put("warm_p50_ms", quantile(&warm_all, 0.50), "ms");
    metrics.put("warm_p90_ms", quantile(&warm_all, 0.90), "ms");
    metrics.put("served_per_s", per_pass(&|p| p.ops as f64 / p.wall_s), "1/s");
    eprintln!(
        "samples: {} passes, {} setups, {} cold, {} warm",
        passes.len(),
        setup.len(),
        cold.len(),
        warm_all.len()
    );
}

fn run(args: &Args) -> Result<(Metrics, Tally), String> {
    // Pin the worker count before any fan-out reads it, and keep the
    // service's per-campaign info lines off stderr unless asked for.
    std::env::set_var("GD_THREADS", THREADS.to_string());
    if std::env::var_os("GD_LOG").is_none() {
        std::env::set_var("GD_LOG", "warn");
    }
    let mut w = make(&args.workload, args.seed)
        .ok_or(format!("unknown workload {:?} (sweep, served)", args.workload))?;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let started = Instant::now();

    let untraced = Tracer::new(false);
    let traced = Tracer::new(args.trace);
    let mut setup: Vec<f64> = Vec::new();
    let mut setup_batch = |w: &mut dyn Workload, tally: &mut Tally| {
        let (mut rounds, mut spent) = (0, 0.0);
        while rounds < SETUP_MAX_ROUNDS && (rounds < SETUP_ROUNDS || spent < SETUP_BUDGET_S) {
            let t = Instant::now();
            w.setup(&traced, tally);
            let s = t.elapsed().as_secs_f64();
            setup.push(s);
            rounds += 1;
            spent += s;
        }
    };
    setup_batch(w.as_mut(), &mut tally);

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let (exec0, cache0) = (engine_run::ExecCounters::read(), engine_run::cache_counters());
    let mut traced_exec = engine_run::ExecCounters { chunks: 0, shard_ms: 0 };
    let (mut traced_hits, mut traced_misses) = (0u64, 0u64);
    // Passes are whole: the next one starts only if, at the length of
    // the last one, it still ends within `--seconds`.
    let mut last_pass_s = 0.0;
    while passes.len() + traced_passes.len() < MIN_PASSES
        || started.elapsed().as_secs_f64() + last_pass_s <= args.seconds
    {
        let pass_started = Instant::now();
        // A traced run alternates: untraced passes give the baseline the
        // tracing overhead is measured against.
        let tracing = args.trace && passes.len() > traced_passes.len();
        if tracing {
            let (e0, c0) = (engine_run::ExecCounters::read(), engine_run::cache_counters());
            traced_passes.push(w.pass(&traced, &mut tally));
            let e = engine_run::ExecCounters::read().since(e0);
            let c = engine_run::cache_counters();
            traced_exec.chunks += e.chunks;
            traced_exec.shard_ms += e.shard_ms;
            traced_hits += c.0 - c0.0;
            traced_misses += c.1 - c0.1;
        } else {
            passes.push(w.pass(&untraced, &mut tally));
        }
        setup_batch(w.as_mut(), &mut tally);
        last_pass_s = pass_started.elapsed().as_secs_f64();
    }
    let all: Vec<&Pass> = passes.iter().chain(&traced_passes).collect();
    let exec = engine_run::ExecCounters::read().since(exec0);
    let cache = engine_run::cache_counters();
    eprintln!(
        "{} passes: wall {:?} s; exec chunks {}, cache hits {}, misses {}",
        all.len(),
        all.iter().map(|p| (p.wall_s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        exec.chunks,
        cache.0 - cache0.0,
        cache.1 - cache0.1
    );
    let mut both: Vec<Pass> = passes;
    let n_untraced = both.len();
    both.append(&mut traced_passes);
    check_counts(w.as_ref(), &both, &mut tally);

    if !args.trace {
        end_to_end(&setup, &both, &mut metrics);
        return Ok((metrics, tally));
    }

    let (untraced_passes, traced_passes) = both.split_at(n_untraced);
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = wall(traced_passes);
    let untraced_wall = wall(untraced_passes);
    let shard_ms = pooled(traced_passes, |p| &p.shard_ms);
    let queue_ms = pooled(traced_passes, |p| &p.queue_wait_ms);
    let traced_s: f64 = traced_passes.iter().map(|p| p.wall_s).sum();

    let mut probe = probes::Probes::run(&args.workload, &traced, &mut tally);
    metrics.0.append(&mut probe.metrics.0);
    metrics.put("exec.chunks", traced_exec.chunks as f64 / traced_passes.len() as f64, "count");
    metrics.put(
        "exec.busy_frac",
        traced_exec.shard_ms as f64 / 1e3 / (traced_s * THREADS as f64),
        "ratio",
    );
    let (p50, max) = if shard_ms.is_empty() {
        (probe.shard_ms_p50, probe.shard_ms_max)
    } else {
        (quantile(&shard_ms, 0.5), quantile(&shard_ms, 1.0))
    };
    metrics.put("campaign.shard_ms_p50", p50, "ms");
    metrics.put("campaign.shard_ms_max", max, "ms");
    // Per traced pass, so the value is exact whatever the pass count; on
    // a workload without a store, the probes' store-backed runs.
    let (hits, misses) = if traced_hits + traced_misses == 0 {
        (probe.cache_hits as f64, probe.cache_misses as f64)
    } else {
        let n = traced_passes.len() as f64;
        (traced_hits as f64 / n, traced_misses as f64 / n)
    };
    metrics.put("campaign.cache_hits", hits, "count");
    metrics.put("campaign.cache_misses", misses, "count");
    // The mean, not the median: most requests never queue, and the wait
    // of those that do is what this metric exists to show.
    let queue = if queue_ms.is_empty() {
        probe.queue_wait_ms
    } else {
        queue_ms.iter().sum::<f64>() / queue_ms.len() as f64
    };
    metrics.put("service.queue_wait_ms", queue, "ms");
    // A ratio, not a difference: the difference is within pass-to-pass
    // noise and may read negative.
    metrics.put("trace.overhead_ratio", traced_wall / untraced_wall, "ratio");
    eprintln!(
        "tracing: traced pass median {traced_wall:.3} s, untraced {untraced_wall:.3} s, difference {:+.1} ms",
        (traced_wall - untraced_wall) * 1e3
    );
    metrics.put("trace.spans", traced.len() as f64, "count");

    eprintln!("self time per layer (traced passes, setup and probes):");
    for (layer, ns) in traced.self_ns_by_layer() {
        eprintln!("  {layer:<12} {:>12.3} ms", ns as f64 / 1e6);
    }
    if args.workload == "served" {
        let cold = pooled(traced_passes, |p| &p.cold_ms);
        if let (Some(overhead), false) = (metrics.get("campaign.overhead_ms"), cold.is_empty()) {
            let p50 = quantile(&cold, 0.5);
            eprintln!(
                "campaign.overhead_ms {overhead:.1} of traced cold p50 {p50:.1} ms ({:.0}%)",
                100.0 * overhead / p50
            );
        }
    }
    if let Some(share) = metrics.get("chipwhisperer.boot_share") {
        eprintln!("chipwhisperer.boot_share {share:.3} of one glitch attempt");
    }
    let path = util::out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    traced.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok((metrics, tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {} (host parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        THREADS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (metrics, tally) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &tally.problems {
        eprintln!("FAILED: {p}");
    }
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not finite: {:?}", metrics.0);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "error_rate {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
