//! End-to-end smoke test for the campaign service: boot the HTTP server
//! on an ephemeral port, submit the published Table I campaign, poll it
//! to completion, and require the text rendering fetched over HTTP to be
//! byte-identical to the committed `results/table1.txt`. A second test
//! exercises the bounded-queue 429 backpressure path.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gd_campaign::http::{request, request_timeout_full};
use gd_campaign::json::parse;
use gd_campaign::service::{Server, ServerConfig};
use gd_campaign::CampaignSpec;

fn golden(name: &str) -> String {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn submit(addr: &str, spec: &CampaignSpec) -> (u16, String) {
    let body = spec.to_json_text().expect("spec serializes");
    request(addr, "POST", "/campaigns", Some(&body)).expect("POST /campaigns")
}

/// Poll `GET /campaigns/{id}` until the job leaves the queue/run states.
fn await_done(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let (status, body) =
            request(addr, "GET", &format!("/campaigns/{id}"), None).expect("GET /campaigns/{id}");
        assert_eq!(status, 200, "status poll: {body}");
        let doc = parse(&body).expect("status is JSON");
        assert!(
            doc.get("elapsed_ms").and_then(|v| v.as_i64()).is_some(),
            "status always carries elapsed_ms: {body}"
        );
        match doc.get("state").and_then(|s| s.as_str()) {
            Some("done") => return,
            Some("failed") => panic!("campaign failed: {body}"),
            Some(_) => {}
            None => panic!("malformed status: {body}"),
        }
        assert!(Instant::now() < deadline, "campaign did not finish in time");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn table1_served_over_http_matches_the_committed_results() {
    // Release builds (the path scripts/ci.sh runs) submit the FULL
    // published Table I and require the served bytes to equal the
    // committed golden file. Debug builds make the same end-to-end
    // golden comparison on the full Figure 2 campaign instead — an
    // unoptimized Table I costs about a minute, Figure 2 about ten
    // seconds, and both exercise every layer (real shards over
    // `gd_exec`, merge, HTTP).
    let (spec, expected) = if cfg!(debug_assertions) {
        (CampaignSpec::fig2(), golden("fig2.txt"))
    } else {
        (CampaignSpec::table1(), golden("table1.txt"))
    };

    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.addr().to_string();

    let (status, body) = submit(&addr, &spec);
    assert_eq!(status, 202, "submission accepted: {body}");
    let doc = parse(&body).expect("submission response is JSON");
    let id = doc.get("id").and_then(|v| v.as_u64()).expect("response carries an id");

    await_done(&addr, &id.to_string());

    let (status, text) =
        request(&addr, "GET", &format!("/campaigns/{id}/results?format=text"), None)
            .expect("GET results");
    assert_eq!(status, 200);
    assert_eq!(text, expected, "Table I over HTTP drifted from the expected rendering");

    // The JSON view of the same campaign parses and carries the identical text.
    let (status, body) = request(&addr, "GET", &format!("/campaigns/{id}/results"), None)
        .expect("GET results (JSON)");
    assert_eq!(status, 200);
    let result = gd_campaign::CampaignResult::from_json_text(&body).expect("result JSON parses");
    assert_eq!(result.text, expected);

    // The campaign above must have left its trail on /metrics: request
    // counters, the per-shard wall-time histogram, the engine's cache
    // counters (registered eagerly, zero without a store), and the
    // executor's chunk counters. scripts/ci.sh relies on this scrape as
    // its metrics-presence gate after the Table I run.
    // Run the static analyzer in-process first: its findings counters
    // land in the same global registry the server scrapes, so the lint
    // family must appear alongside the campaign's own.
    let mut hardened = gd_firmware::boot();
    glitch_resistor::harden(
        &mut hardened,
        &glitch_resistor::Config::new(glitch_resistor::Defenses::ALL),
    );
    let lint_report = gd_lint::LintReport::new(
        gd_lint::lint_module(&hardened),
        &gd_lint::Suppressions::default(),
    );
    assert!(!lint_report.deny(), "fully hardened boot firmware lints clean");
    lint_report.record_metrics();

    // Same story for the firmware ingester: register its families and
    // ingest the committed demo dump so the bin-format counters move.
    gd_ingest::register_metrics();
    let blob = std::fs::read(PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/ingest_demo.bin"
    )))
    .expect("committed demo blob");
    let ing =
        gd_ingest::ingest_bin(&blob, gd_ingest::testimg::DEMO_BASE).expect("demo blob ingests");

    // The CFG analyzer rides the same registry: recover the demo image,
    // record its per-image recovery counters, and run the GL03xx lints
    // so their verdict series move alongside the GL01xx/GL02xx ones.
    let wide = gd_emu::Config { wide: true, ..gd_emu::Config::default() };
    let g = gd_cfg::recover(&ing.image, wide);
    gd_cfg::metrics::record(&g, "e2e_demo");
    let sink = gd_cfg::lints::Sink {
        label: "the bad region".to_owned(),
        spans: vec![(gd_ingest::testimg::DEMO_BASE + 0x1a, gd_ingest::testimg::DEMO_BASE + 0x28)],
    };
    let guards = gd_cfg::lints::GuardChecks::pattern_rechecks(&g, &ing.image);
    let ctx = gd_cfg::lints::FaultCtx::new(&g, &ing.image, &sink, &guards);
    gd_lint::LintReport::new(gd_cfg::lints::lint_cfg(&ctx), &gd_lint::Suppressions::default())
        .record_metrics();

    let (status, metrics) = request(&addr, "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(status, 200);
    for family in [
        "# TYPE gd_lint_findings_total counter",
        "# TYPE gd_http_requests_total counter",
        "# TYPE gd_campaign_shard_ms histogram",
        "# TYPE gd_campaign_duration_ms histogram",
        "# TYPE gd_campaign_cache_hits_total counter",
        "# TYPE gd_campaign_cache_misses_total counter",
        "# TYPE gd_campaign_queue_depth gauge",
        "# TYPE gd_exec_chunks_executed_total counter",
        "# TYPE gd_exec_worker_busy_us_total counter",
        "# TYPE gd_faultsim_candidates_total counter",
        "# TYPE gd_faultsim_pruned_total counter",
        "# TYPE gd_faultsim_simulated_total counter",
        "# TYPE gd_faultsim_outcomes_total counter",
        "# TYPE gd_faultsim_pair_steps_total counter",
        "# TYPE gd_faultsim_pairs_total counter",
        "# TYPE gd_ingest_images_total counter",
        "# TYPE gd_ingest_text_bytes_total counter",
        "# TYPE gd_ingest_extents_total counter",
        "# TYPE gd_ingest_pool_bytes_total counter",
        "# TYPE gd_cfg_blocks_total counter",
        "# TYPE gd_cfg_edges_total counter",
        "# TYPE gd_cfg_fixpoint_iterations_total counter",
        "# TYPE gd_cfg_unresolved_computed_total counter",
    ] {
        assert!(metrics.contains(family), "missing {family:?} in:\n{metrics}");
    }
    // The multifault inventory rides along with the engine's metrics:
    // every registry model (and the pair space) is pre-registered with
    // labelled series even before a multifault campaign runs.
    for series in [
        r#"gd_faultsim_candidates_total{model="xor1.t"}"#,
        r#"gd_faultsim_pruned_total{model="pairs"}"#,
        r#"gd_faultsim_outcomes_total{model="skip.t",outcome="Success"}"#,
        r#"gd_faultsim_pair_steps_total{kind="shared"}"#,
        r#"gd_faultsim_pair_steps_total{kind="executed"}"#,
        r#"gd_faultsim_pair_steps_total{kind="slid"}"#,
        r#"gd_faultsim_pair_steps_total{kind="settled"}"#,
        r#"gd_faultsim_pairs_total{by="trial"}"#,
        r#"gd_faultsim_pairs_total{by="class"}"#,
        r#"gd_faultsim_pairs_total{by="rejoin"}"#,
        r#"gd_faultsim_pairs_total{by="merge"}"#,
        r#"gd_faultsim_pairs_total{by="first"}"#,
        r#"gd_faultsim_pairs_total{by="second"}"#,
        r#"gd_faultsim_pairs_total{by="state"}"#,
    ] {
        assert!(metrics.contains(series), "missing {series:?} in:\n{metrics}");
    }
    // Both ingest label sets are pre-registered; the bin ingestion above
    // moved its image counter off zero.
    assert!(
        metrics.contains(r#"gd_ingest_images_total{format="bin"} 1"#),
        "the demo ingestion was counted:\n{metrics}"
    );
    assert!(
        metrics.contains(r#"gd_ingest_images_total{format="elf"} 0"#),
        "the elf label set is registered at zero:\n{metrics}"
    );
    assert!(
        metrics.contains(r#"gd_http_requests_total{route="/campaigns/{id}",status="200"}"#),
        "the polls above are counted under their route pattern:\n{metrics}"
    );
    let shard_count: u64 = metrics
        .lines()
        .find(|l| l.starts_with("gd_campaign_shard_ms_count"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("shard histogram has a count sample");
    assert!(shard_count >= 1, "the campaign's shards were observed:\n{metrics}");
    // One series per catalog lint, all zero on the fully hardened image.
    for spec in gd_lint::CATALOG.iter().filter(|s| s.id.starts_with("GL01")) {
        let series = format!("gd_lint_findings_total{{lint=\"{}\"}} 0", spec.id);
        assert!(metrics.contains(&series), "missing/nonzero {series:?} in:\n{metrics}");
    }
    // The CFG pass above counted the demo's recovered graph under its
    // own label and moved the GL0301 verdict series off zero (the demo
    // has exactly two glitch-reachable-sink findings — see
    // results/cfg_ingest.txt).
    assert!(
        metrics.contains(r#"gd_cfg_blocks_total{image="e2e_demo"} 8"#),
        "demo graph blocks counted:\n{metrics}"
    );
    assert!(
        metrics.contains(r#"gd_lint_findings_total{lint="GL0301"} 2"#),
        "GL0301 verdicts counted:\n{metrics}"
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn a_full_queue_returns_429_backpressure() {
    // With a zero-length queue every submission is turned away with 429
    // before any work is admitted — the deterministic backpressure case.
    let server = Server::start(ServerConfig { queue_limit: 0, ..ServerConfig::default() })
        .expect("server starts");
    let addr = server.addr().to_string();

    let mut spec = CampaignSpec::table1();
    spec.shards = Some((0, 1));
    let (status, body) = submit(&addr, &spec);
    assert_eq!(status, 429, "zero-capacity queue rejects: {body}");
    let doc = parse(&body).expect("429 body is JSON");
    assert!(
        doc.get("error").and_then(|e| e.as_str()).unwrap_or("").contains("queue full"),
        "429 explains itself: {body}"
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn queue_full_rejections_carry_retry_after() {
    // The 429 tells the client when to come back.
    let server = Server::start(ServerConfig { queue_limit: 0, ..ServerConfig::default() })
        .expect("server starts");
    let addr = server.addr().to_string();

    let mut spec = CampaignSpec::table1();
    spec.shards = Some((0, 1));
    let spec_json = spec.to_json().to_string_compact().unwrap();
    let (status, headers, body) =
        request_timeout_full(&addr, "POST", "/campaigns", Some(&spec_json), Duration::from_secs(5))
            .expect("POST /campaigns");
    assert_eq!(status, 429, "{body}");
    let retry_after = headers.iter().find(|(k, _)| k == "retry-after");
    assert_eq!(retry_after.map(|(_, v)| v.as_str()), Some("1"), "{headers:?}");

    server.shutdown().expect("clean shutdown");
}
