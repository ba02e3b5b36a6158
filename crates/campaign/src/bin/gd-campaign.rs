//! The campaign CLI: run a campaign spec locally or serve the campaign
//! engine over HTTP.
//!
//! ```text
//! gd-campaign run <spec.json|workload> [--store DIR]
//! gd-campaign key <spec.json|workload>
//! gd-campaign serve [--addr HOST:PORT] [--store DIR] [--queue N]
//! ```
//!
//! `<spec.json|workload>` is either a path to a spec file or a bare
//! workload name (`fig2`, `table1`, `table2`, `table3`, `table6`,
//! `multifault`) for the published configuration.

use std::process::ExitCode;

use gd_campaign::service::{Server, ServerConfig};
use gd_campaign::{CampaignSpec, Engine};

fn usage() -> ExitCode {
    eprintln!(
        "usage: gd-campaign run <spec.json|workload> [--store DIR]\n\
         \x20      gd-campaign key <spec.json|workload>\n\
         \x20      gd-campaign serve [--addr HOST:PORT] [--store DIR] [--queue N]"
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
        _ => Ok(usage()),
    }
}
