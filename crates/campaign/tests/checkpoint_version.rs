//! Checkpoints written under another result version are recomputed, not
//! resumed: their shards may hold other work (version 1 partitioned the
//! second-order multifault buckets by linear pair index, version 2 by
//! first-fault class modulo the bucket count).
//!
//! One test per process, so the global checkpoint-load counter it reads
//! moves only with its own engine runs.

use gd_campaign::engine::{Engine, RESULT_VERSION};
use gd_campaign::hash::sha256_hex;
use gd_campaign::spec::CampaignSpec;

/// Value of a single-series metric in the current Prometheus rendering.
fn metric_value(name: &str) -> f64 {
    gd_obs::global()
        .render_prometheus()
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn a_checkpoint_of_another_result_version_is_recomputed() {
    let store = std::env::temp_dir().join(format!("gd-ckpt-version-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut spec = CampaignSpec::fig2();
    spec.shards = Some((0, 3));
    let mut partial = spec.clone();
    partial.shards = Some((0, 2));
    Engine::with_store(&store).run(&partial).unwrap();

    // Rewrite shard 1's checkpoint as the previous version and seal it
    // again, so only the version check can turn it away.
    let path = store.join("runs").join(spec.checkpoint_key().unwrap()).join("shard-00001.json");
    let sealed = std::fs::read_to_string(&path).unwrap();
    let body = sealed.split_once('\n').expect("a seal header").1;
    let current = format!("\"version\": {RESULT_VERSION}");
    assert!(body.contains(&current), "{body:.80}");
    let old = body.replacen(&current, &format!("\"version\": {}", RESULT_VERSION - 1), 1);
    std::fs::write(&path, format!("#gd-sha256:{}\n{old}", sha256_hex(old.as_bytes()))).unwrap();

    let loads = metric_value("gd_campaign_checkpoint_loads_total");
    let engine = Engine::with_store(&store);
    let result = engine.run(&spec).unwrap();
    assert_eq!(engine.executed(), 2, "the old-version shard and the never-run shard executed");
    assert_eq!(metric_value("gd_campaign_checkpoint_loads_total") - loads, 1.0, "shard 0 only");
    assert_eq!(result, Engine::ephemeral().run(&spec).unwrap());
    let _ = std::fs::remove_dir_all(&store);
}
