//! Regression tests for the campaign service's failure paths (the PR 3
//! hardening): slow-dribbling clients get `408` without wedging the
//! accept thread, failed campaigns answer `409` with their failure
//! message (404 stays reserved for unknown ids), and the `/metrics`
//! route exposes the gd-obs families that prove the fixes hold.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gd_campaign::http::{request, request_timeout};
use gd_campaign::json::parse;
use gd_campaign::service::{Server, ServerConfig};
use gd_campaign::CampaignSpec;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gd-service-test-{tag}-{}", std::process::id()))
}

/// A one-shard Figure 2 spec — the smallest valid campaign.
fn tiny_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::fig2();
    spec.shards = Some((0, 1));
    spec
}

fn submit(addr: &str, spec: &CampaignSpec) -> (u16, String) {
    let body = spec.to_json_text().expect("spec serializes");
    request(addr, "POST", "/campaigns", Some(&body)).expect("POST /campaigns")
}

/// Polls until the job reaches `want` (`done` or `failed`).
fn await_state(addr: &str, id: u64, want: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).expect("status is JSON");
        let state = doc.get("state").and_then(|s| s.as_str()).expect("state field").to_owned();
        if state == want {
            return body;
        }
        assert!(
            state == "queued" || state == "running",
            "campaign reached {state:?} while waiting for {want:?}: {body}"
        );
        assert!(Instant::now() < deadline, "timed out waiting for {want}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The value of an unlabeled counter/gauge sample in a Prometheus
/// rendering.
fn metric_value(text: &str, name: &str) -> Option<i64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Status-semantics regression: pre-fix, a *failed* campaign's results
/// route returned 404, indistinguishable from an unknown id. A store
/// rooted under a plain file makes the engine fail deterministically
/// (checkpoint dir creation) before any shard runs.
#[test]
fn failed_campaigns_answer_409_with_the_failure_unknown_ids_stay_404() {
    let obstruction = tmp_path("obstruction");
    std::fs::write(&obstruction, b"not a directory").unwrap();
    let config = ServerConfig { store: Some(obstruction.join("store")), ..ServerConfig::default() };
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();

    let (status, body) = submit(&addr, &tiny_spec());
    assert_eq!(status, 202, "{body}");
    let id = parse(&body).unwrap().get("id").and_then(|v| v.as_u64()).unwrap();

    let status_body = await_state(&addr, id, "failed");
    let doc = parse(&status_body).unwrap();
    assert!(
        doc.get("error").and_then(|e| e.as_str()).unwrap_or("").contains("checkpoint"),
        "the status carries the real failure: {status_body}"
    );
    assert!(doc.get("elapsed_ms").and_then(|v| v.as_i64()).is_some(), "{status_body}");

    // The failed campaign: 409 + the message, in both result formats.
    let (status, body) = request(&addr, "GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(status, 409, "a failed campaign is a conflict, not a missing id: {body}");
    assert!(body.contains("campaign failed"), "{body}");
    let (status, _) =
        request(&addr, "GET", &format!("/campaigns/{id}/results?format=text"), None).unwrap();
    assert_eq!(status, 409);

    // An unknown id keeps its 404 — the two cases are distinguishable.
    let (status, body) = request(&addr, "GET", "/campaigns/99999/results", None).unwrap();
    assert_eq!(status, 404, "{body}");

    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&obstruction);
}

/// Slowloris regression at the service level: a client dribbling header
/// bytes must be cut off with 408 at the configured deadline, the
/// occurrence must be counted, and the accept thread must come back for
/// well-behaved clients immediately.
#[test]
fn dribbling_clients_get_408_and_do_not_wedge_the_service() {
    let config = ServerConfig { read_deadline: Duration::from_millis(300), ..Default::default() };
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();

    let started = Instant::now();
    let mut slow = TcpStream::connect(&addr).unwrap();
    // One byte per ~50 ms: every write lands well inside a per-read
    // window, but the overall deadline (300 ms) must still fire. Poll
    // for the response between writes and stop dribbling the moment it
    // arrives — writing into a closed socket would trigger an RST that
    // can discard the buffered 408 before we read it.
    let mut collected = Vec::new();
    slow.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    for byte in b"GET /campaigns HTTP/1.1\r\nx-slow: yes\r\n".iter().take(30) {
        use std::io::Read;
        if slow.write_all(&[*byte]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
        let mut buf = [0u8; 512];
        match slow.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                collected.extend_from_slice(&buf[..n]);
                break;
            }
            Err(_) => {} // nothing yet; keep dribbling
        }
    }
    let response = {
        use std::io::Read;
        let _ = slow.set_read_timeout(Some(Duration::from_secs(5)));
        let mut rest = Vec::new();
        let _ = slow.read_to_end(&mut rest);
        collected.extend_from_slice(&rest);
        String::from_utf8_lossy(&collected).into_owned()
    };
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "the dribbler is answered with 408: {response:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline, not the dribble, bounds the exchange"
    );

    // The accept thread survived and serves the next client at once.
    let (status, _) =
        request_timeout(&addr, "GET", "/campaigns/0", None, Duration::from_secs(5)).unwrap();
    assert_eq!(status, 404);

    // The occurrence is visible on /metrics.
    let (status, text) = request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let timeouts = metric_value(&text, "gd_http_request_timeouts_total").unwrap_or(0);
    assert!(timeouts >= 1, "408 occurrences are counted: {text}");

    server.shutdown().unwrap();
}

/// A completed campaign leaves the full metrics trail: request counters
/// by route pattern and status, the per-shard and per-campaign duration
/// histograms, cache hit/miss counters (exercised via an identical
/// resubmission), and a live elapsed_ms in the status document.
#[test]
fn metrics_expose_cache_shard_and_duration_families() {
    let store = tmp_path("metrics-store");
    let _ = std::fs::remove_dir_all(&store);
    let config = ServerConfig { store: Some(store.clone()), ..ServerConfig::default() };
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();

    let (status, body) = submit(&addr, &tiny_spec());
    assert_eq!(status, 202, "{body}");
    let id = parse(&body).unwrap().get("id").and_then(|v| v.as_u64()).unwrap();
    await_state(&addr, id, "done");

    // An identical resubmission must be served from the result cache.
    let (status, body) = submit(&addr, &tiny_spec());
    assert_eq!(status, 202, "{body}");
    let id2 = parse(&body).unwrap().get("id").and_then(|v| v.as_u64()).unwrap();
    let status_body = await_state(&addr, id2, "done");
    let doc = parse(&status_body).unwrap();
    assert!(doc.get("elapsed_ms").and_then(|v| v.as_i64()).is_some(), "{status_body}");

    let (status, text) = request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for family in [
        "# TYPE gd_http_requests_total counter",
        "# TYPE gd_campaign_queue_depth gauge",
        "# TYPE gd_campaign_cache_hits_total counter",
        "# TYPE gd_campaign_cache_misses_total counter",
        "# TYPE gd_campaign_checkpoint_loads_total counter",
        "# TYPE gd_campaign_shards_executed_total counter",
        "# TYPE gd_campaign_shard_ms histogram",
        "# TYPE gd_campaign_duration_ms histogram",
        "# TYPE gd_exec_chunks_executed_total counter",
        "# TYPE gd_exec_worker_busy_us_total counter",
        "# TYPE gd_exec_serial_fallbacks_total counter",
        // The store families: present (at zero) even in a process whose
        // store was never damaged, so dashboards never 404 on them.
        "# TYPE gd_campaign_store_integrity_failures_total counter",
        "# TYPE gd_campaign_tmp_files_swept_total counter",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
    assert!(metric_value(&text, "gd_campaign_cache_hits_total").unwrap() >= 1, "{text}");
    assert!(metric_value(&text, "gd_campaign_cache_misses_total").unwrap() >= 1, "{text}");
    assert!(metric_value(&text, "gd_campaign_shards_executed_total").unwrap() >= 1, "{text}");
    assert!(metric_value(&text, "gd_campaign_shard_ms_count").unwrap() >= 1, "{text}");
    assert!(metric_value(&text, "gd_campaign_duration_ms_count").unwrap() >= 2, "{text}");
    assert!(text.contains(r#"gd_http_requests_total{route="/campaigns",status="202"}"#), "{text}");

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}
