//! A resubmitted spec that a finished job already answers completes at
//! submit time: it does not queue behind the campaign the worker is
//! running. (Its own test binary, so no other test moves the process-wide
//! cache counter it checks.)

use std::time::{Duration, Instant};

use gd_campaign::http::request;
use gd_campaign::json::parse;
use gd_campaign::service::{Server, ServerConfig};
use gd_campaign::CampaignSpec;

fn submit(addr: &str, spec: &CampaignSpec) -> u64 {
    let body = spec.to_json_text().expect("spec serializes");
    let (status, reply) = request(addr, "POST", "/campaigns", Some(&body)).expect("POST");
    assert_eq!(status, 202, "{reply}");
    parse(&reply).unwrap().get("id").and_then(|v| v.as_u64()).expect("an id")
}

fn state(addr: &str, id: u64) -> String {
    let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    parse(&body).unwrap().get("state").and_then(|s| s.as_str()).expect("a state").to_owned()
}

fn await_state(addr: &str, id: u64, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(300);
    while state(addr, id) != want {
        assert!(Instant::now() < deadline, "campaign {id} never reached {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The text and JSON result bytes of a finished campaign.
fn results(addr: &str, id: u64) -> (String, String) {
    let get = |query: &str| {
        let (status, body) =
            request(addr, "GET", &format!("/campaigns/{id}/results{query}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        body
    };
    (get("?format=text"), get(""))
}

fn cache_hits(addr: &str) -> i64 {
    let (_, text) = request(addr, "GET", "/metrics", None).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix("gd_campaign_cache_hits_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("the cache-hit counter is exposed")
}

#[test]
fn a_finished_spec_resubmitted_during_another_campaign_is_done_at_once() {
    let store = std::env::temp_dir().join(format!("gd-submit-answers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config = ServerConfig { store: Some(store.clone()), ..ServerConfig::default() };
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();

    let mut finished = CampaignSpec::fig2();
    finished.shards = Some((0, 1));
    let first = submit(&addr, &finished);
    await_state(&addr, first, "done");
    let bytes = results(&addr, first);

    // A fresh campaign (a seed no store has seen) keeps the worker busy.
    let mut busy = CampaignSpec::table3();
    busy.model.seed ^= 0x5EED;
    let running = submit(&addr, &busy);
    await_state(&addr, running, "running");

    let hits = cache_hits(&addr);
    let again = submit(&addr, &finished);
    assert_eq!(state(&addr, again), "done", "answered at submit, not queued");
    assert_eq!(results(&addr, again), bytes, "the finished job's bytes");
    assert_eq!(cache_hits(&addr), hits + 1, "counted once");

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}
