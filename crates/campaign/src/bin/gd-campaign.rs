//! The campaign CLI: run a campaign spec locally or serve the campaign
//! engine over HTTP.
//!
//! ```text
//! gd-campaign run <spec.json|workload> [--store DIR]
//! gd-campaign key <spec.json|workload>
//! gd-campaign serve [--addr HOST:PORT] [--store DIR] [--queue N]
//! gd-campaign chaos <spec.json|workload> --schedule SEED:SITE=RATE,...
//!                   [--runs N] [--attempts N] [--golden FILE] [--store DIR]
//! ```
//!
//! `<spec.json|workload>` is either a path to a spec file or a bare
//! workload name (`fig2`, `table1`, `table2`, `table3`, `table6`,
//! `multifault`) for
//! the published configuration.
//!
//! `chaos` is the self-healing acceptance harness: it runs the campaign
//! under a deterministic gd-chaos fault schedule `--runs` times (each
//! run re-seeded so the faults land differently) and asserts every
//! surviving run is **bit-identical** to the fault-free result — which
//! is computed under chaos suppression, or taken from `--golden`.

use std::process::ExitCode;

use gd_campaign::service::{Server, ServerConfig};
use gd_campaign::{CampaignSpec, Engine};

fn usage() -> ExitCode {
    eprintln!(
        "usage: gd-campaign run <spec.json|workload> [--store DIR]\n\
         \x20      gd-campaign key <spec.json|workload>\n\
         \x20      gd-campaign serve [--addr HOST:PORT] [--store DIR] [--queue N]\n\
         \x20      gd-campaign chaos <spec.json|workload> --schedule SEED:SITE=RATE,...\n\
         \x20                        [--runs N] [--attempts N] [--golden FILE] [--store DIR]"
    );
    ExitCode::from(2)
}

fn load_spec(arg: &str) -> Result<CampaignSpec, String> {
    match arg {
        "fig2" => Ok(CampaignSpec::fig2()),
        "table1" => Ok(CampaignSpec::table1()),
        "table2" => Ok(CampaignSpec::table2()),
        "table3" => Ok(CampaignSpec::table3()),
        "table6" => Ok(CampaignSpec::table6()),
        "multifault" => Ok(CampaignSpec::multifault()),
        path => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading spec {path}: {e}"))?;
            CampaignSpec::from_json_text(&text)
        }
    }
}

/// Pulls `--flag value` out of `args`, if present.
fn take_option(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            args.remove(i);
            Ok(Some(args.remove(i)))
        }
        Some(_) => Err(format!("{flag} requires a value")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gd-campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else { return Ok(usage()) };
    args.remove(0);
    let store = take_option(&mut args, "--store")?;
    match command.as_str() {
        "run" => {
            let [spec_arg] = args.as_slice() else { return Ok(usage()) };
            let spec = load_spec(spec_arg)?;
            let engine = match store {
                Some(dir) => Engine::with_store(dir),
                None => Engine::ephemeral(),
            };
            let result = engine.run(&spec)?;
            print!("{}", result.text);
            Ok(ExitCode::SUCCESS)
        }
        "key" => {
            let [spec_arg] = args.as_slice() else { return Ok(usage()) };
            let spec = load_spec(spec_arg)?;
            println!("{}", spec.cache_key()?);
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let addr =
                take_option(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7309".to_owned());
            let queue_limit = match take_option(&mut args, "--queue")? {
                None => 16,
                Some(n) => n.parse().map_err(|_| format!("--queue {n}: not a number"))?,
            };
            if !args.is_empty() {
                return Ok(usage());
            }
            let config = ServerConfig {
                addr,
                store: store.map(Into::into),
                queue_limit,
                ..ServerConfig::default()
            };
            let server = Server::start(config)?;
            println!("gd-campaign: serving on http://{}", server.addr());
            println!("gd-campaign: GET /metrics for Prometheus metrics, POST /shutdown to stop");
            // The accept thread owns the lifecycle from here; park until
            // a shutdown request lands and the threads wind down.
            server.join()?;
            Ok(ExitCode::SUCCESS)
        }
        "chaos" => {
            let schedule = take_option(&mut args, "--schedule")?
                .ok_or("chaos requires --schedule SEED:SITE=RATE,...")?;
            let runs = match take_option(&mut args, "--runs")? {
                None => 3u64,
                Some(n) => n.parse().map_err(|_| format!("--runs {n}: not a number"))?,
            };
            let golden = take_option(&mut args, "--golden")?;
            let attempts = match take_option(&mut args, "--attempts")? {
                None => gd_campaign::engine::DEFAULT_SHARD_ATTEMPTS,
                Some(n) => n.parse().map_err(|_| format!("--attempts {n}: not a number"))?,
            };
            let [spec_arg] = args.as_slice() else { return Ok(usage()) };
            let spec = load_spec(spec_arg)?;
            chaos_soak(&spec, &schedule, runs, attempts, golden.as_deref(), store.as_deref())
        }
        _ => Ok(usage()),
    }
}

/// Runs `spec` under the fault `schedule` `runs` times and asserts
/// every surviving run reproduces the fault-free bytes. See the module
/// docs for the contract.
fn chaos_soak(
    spec: &CampaignSpec,
    schedule: &str,
    runs: u64,
    attempts: u32,
    golden: Option<&str>,
    store: Option<&str>,
) -> Result<ExitCode, String> {
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let plan = gd_chaos::Plan::parse(schedule)?;

    // The fault-free reference: the golden file when given (the CI
    // contract — chaos must reproduce the *published* artifact), else a
    // fresh run under suppression.
    let expected = match golden {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("reading golden {path}: {e}"))?
        }
        None => {
            let _off = gd_chaos::suppress();
            Engine::ephemeral().run(spec)?.text
        }
    };

    // Store: reuse the caller's, or a private scratch dir. Checkpoints
    // persist across runs on purpose — rereading them under chaos
    // exercises the torn/corrupt/dropped *read* recovery paths — but the
    // finished-campaign cache entry is removed before every run so each
    // run actually merges and renders instead of replaying bytes.
    let store_dir = match store {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("gd-campaign-chaos-{}", std::process::id())),
    };
    let cache_file = store_dir.join("cache").join(format!("{}.json", spec.cache_key()?));

    // Injected shard panics are expected noise: keep their default
    // panic-hook stack traces off the terminal, but let anything
    // unexpected print as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with(gd_chaos::PANIC_PREFIX));
        if !injected {
            default_hook(info);
        }
    }));

    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut mismatched = 0u64;
    for run in 0..runs {
        let _ = std::fs::remove_file(&cache_file);
        // Re-seed per run so each run draws a different fault pattern
        // from the same schedule.
        let run_plan = plan.with_seed(plan.seed().wrapping_add(run));
        let outcome = {
            let _chaos = gd_chaos::activate(run_plan);
            Engine::with_store(&store_dir).with_shard_attempts(attempts).run(spec)
        };
        match outcome {
            Ok(result) if result.text == expected => {
                ok += 1;
                eprintln!("gd-campaign: chaos run {}/{runs}: ok (bit-identical)", run + 1);
            }
            Ok(_) => {
                mismatched += 1;
                eprintln!("gd-campaign: chaos run {}/{runs}: OUTPUT MISMATCH", run + 1);
            }
            Err(e) => {
                failed += 1;
                eprintln!("gd-campaign: chaos run {}/{runs}: failed: {e}", run + 1);
            }
        }
    }
    let _ = std::panic::take_hook();
    if store.is_none() {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    println!(
        "gd-campaign: chaos soak: {ok} ok, {failed} failed, {mismatched} mismatched \
         over {runs} runs (schedule {schedule})"
    );
    if mismatched > 0 {
        Err(format!("{mismatched} surviving run(s) diverged from the fault-free bytes"))
    } else if ok == 0 {
        Err("no run survived the schedule (raise the retry budget or lower the rates)".into())
    } else {
        Ok(ExitCode::SUCCESS)
    }
}
