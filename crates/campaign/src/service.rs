//! The campaign service: a small HTTP/1.1 front-end over [`Engine`]
//! with a bounded job queue, graceful shutdown, and a Prometheus
//! metrics endpoint.
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /campaigns` | body = spec JSON; enqueue; `202 {"id": n}`, or `429` when the queue is full; a spec whose cache key a finished job holds is `done` at once |
//! | `GET /campaigns/{id}` | job status: `queued` / `running` (+ shard progress) / `done` / `failed`, with `elapsed_ms` |
//! | `GET /campaigns/{id}/results` | the finished result as JSON, or with `?format=text` the exact legacy report bytes; `409` + the failure message for a failed campaign, `404` only for unknown ids |
//! | `GET /metrics` | every `gd_obs` metric family in the Prometheus text format |
//! | `POST /shutdown` | stop accepting, finish the running campaign, drop queued jobs |
//!
//! One accept thread handles requests serially (every request is a
//! cheap in-memory operation) and one worker thread runs campaigns one
//! at a time — campaign *internals* already saturate the machine via
//! [`gd_exec`], so service-level concurrency would only thrash. The
//! accept thread is therefore the availability bottleneck, and it
//! defends itself: an overall per-request read deadline (`408` for
//! slow-dribbling clients), a write timeout on responses, and a short
//! back-off when `accept` itself fails persistently (e.g. EMFILE)
//! instead of a 100 % CPU error spin.
//!
//! A submitted spec that a finished job already answers (the same
//! [`CampaignSpec::cache_key`]) does not queue behind the running
//! campaign: it is done at submit and shares that job's result.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gd_obs::Timer;

use crate::engine::{record_cache_hit, CampaignResult, Engine};
use crate::http::{
    read_request_deadline, write_response, write_response_with, Request, RequestError,
};
use crate::json::Json;
use crate::shards::shard_plan;
use crate::spec::CampaignSpec;

/// How long the accept thread sleeps after a failed `accept` before
/// retrying — long enough to stop an EMFILE error loop from pinning a
/// core, short enough to be invisible when the condition clears.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Default overall deadline for delivering the `POST /shutdown` request
/// in [`Server::shutdown`].
const SHUTDOWN_REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// `Retry-After` value on `429` responses. The queue drains at campaign
/// speed, so "shortly" is the honest answer; clients with their own
/// budget can override.
const RETRY_AFTER_SECS: &str = "1";

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Engine store directory (`None` = no cache, no checkpoints).
    pub store: Option<PathBuf>,
    /// Maximum *queued* campaigns (the running one not counted); further
    /// submissions get `429 Too Many Requests`.
    pub queue_limit: usize,
    /// Overall deadline for reading one request (head + body). A client
    /// that dribbles bytes slower than this gets `408` and its
    /// connection closed, instead of wedging the accept thread.
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            store: None,
            queue_limit: 16,
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// `gd_obs` handles for the service, registered eagerly at
/// [`Server::start`] so `/metrics` exposes the families before traffic.
struct ServiceMetrics {
    /// `gd_campaign_queue_depth`
    queue_depth: Arc<gd_obs::Gauge>,
    /// `gd_http_429_total`
    rejected: Arc<gd_obs::Counter>,
    /// `gd_http_request_timeouts_total`
    read_timeouts: Arc<gd_obs::Counter>,
    /// `gd_http_accept_errors_total`
    accept_errors: Arc<gd_obs::Counter>,
    /// `gd_campaign_duration_ms`
    campaign_ms: Arc<gd_obs::Histogram>,
}

fn service_metrics() -> &'static ServiceMetrics {
    static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServiceMetrics {
        queue_depth: gd_obs::gauge(
            "gd_campaign_queue_depth",
            "campaigns waiting in the service queue (the running one not counted)",
            &[],
        ),
        rejected: gd_obs::counter(
            "gd_http_429_total",
            "submissions rejected with 429 because the queue was full",
            &[],
        ),
        read_timeouts: gd_obs::counter(
            "gd_http_request_timeouts_total",
            "requests dropped with 408 for exceeding the overall read deadline",
            &[],
        ),
        accept_errors: gd_obs::counter(
            "gd_http_accept_errors_total",
            "listener accept failures (each is followed by a short back-off)",
            &[],
        ),
        campaign_ms: gd_obs::histogram(
            "gd_campaign_duration_ms",
            "wall time per campaign run by the service worker, milliseconds \
             (0 for one answered at submit from a finished job)",
            &[],
        ),
    })
}

/// Counts one served request under its route *pattern* (so label
/// cardinality stays bounded regardless of ids probed) and status.
fn record_request(route: &str, status: u16) {
    gd_obs::counter(
        "gd_http_requests_total",
        "HTTP requests served, by route pattern and status",
        &[("route", route), ("status", &status.to_string())],
    )
    .inc();
}

/// The bounded-cardinality route label for a request path.
fn route_label(path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["campaigns"] => "/campaigns",
        ["campaigns", _] => "/campaigns/{id}",
        ["campaigns", _, "results"] => "/campaigns/{id}/results",
        ["shutdown"] => "/shutdown",
        ["metrics"] => "/metrics",
        _ => "other",
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed(String),
}

#[derive(Debug)]
struct JobRecord {
    spec: CampaignSpec,
    state: JobState,
    done: u32,
    total: u32,
    /// Set when done; shared with later jobs answered from it.
    result: Option<Arc<CampaignResult>>,
    /// When the worker picked the job up (None while queued).
    started: Option<Instant>,
    /// Final wall time, frozen when the job completes or fails.
    duration_ms: Option<u64>,
}

#[derive(Debug, Default)]
struct ServiceState {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobRecord>,
}

#[derive(Debug)]
struct Inner {
    engine: Engine,
    queue_limit: usize,
    read_deadline: Duration,
    shutdown: AtomicBool,
    state: Mutex<ServiceState>,
    wake: Condvar,
}

/// A running campaign service. Dropping the handle leaks the threads;
/// call [`Server::shutdown`] for an orderly stop.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept and worker threads, and returns.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let _ = service_metrics();
        let engine = match &config.store {
            Some(dir) => Engine::with_store(dir),
            None => Engine::ephemeral(),
        };
        let inner = Arc::new(Inner {
            engine,
            queue_limit: config.queue_limit,
            read_deadline: config.read_deadline,
            shutdown: AtomicBool::new(false),
            state: Mutex::new(ServiceState::default()),
            wake: Condvar::new(),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&inner))
        };
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        gd_obs::info!("gd_campaign::service", "serving", addr = addr);
        Ok(Server { addr, accept: Some(accept), worker: Some(worker) })
    }

    /// The actually bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, lets the in-flight campaign
    /// finish (its checkpoints and cache entry are written), drops
    /// queued jobs, and joins both threads. The shutdown request itself
    /// is bounded by a default deadline; use [`Server::shutdown_within`]
    /// to supply your own.
    ///
    /// # Errors
    ///
    /// Fails when the shutdown request cannot be delivered in time or a
    /// thread panicked.
    pub fn shutdown(self) -> Result<(), String> {
        self.shutdown_within(SHUTDOWN_REQUEST_TIMEOUT)
    }

    /// [`Server::shutdown`] with a caller-supplied deadline on
    /// *delivering* the shutdown request (the join still waits for the
    /// in-flight campaign, which is the graceful contract). A wedged
    /// accept thread therefore fails this call instead of hanging it.
    ///
    /// # Errors
    ///
    /// Fails when the shutdown request cannot be delivered within
    /// `timeout` or a thread panicked.
    pub fn shutdown_within(self, timeout: Duration) -> Result<(), String> {
        crate::http::request_timeout(&self.addr.to_string(), "POST", "/shutdown", None, timeout)?;
        self.join()
    }

    /// Blocks until the service stops (an HTTP `POST /shutdown` arrives)
    /// and joins both threads.
    ///
    /// # Errors
    ///
    /// Fails when a service thread panicked.
    pub fn join(mut self) -> Result<(), String> {
        for handle in [self.accept.take(), self.worker.take()].into_iter().flatten() {
            handle.join().map_err(|_| "service thread panicked")?;
        }
        Ok(())
    }
}

fn worker_loop(inner: &Inner) {
    let metrics = service_metrics();
    loop {
        let (id, spec) = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(id) = state.queue.pop_front() {
                    metrics.queue_depth.set(state.queue.len() as i64);
                    let job = state.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    job.started = Some(Instant::now());
                    break (id, job.spec.clone());
                }
                let (next, _) = inner.wake.wait_timeout(state, Duration::from_millis(200)).unwrap();
                state = next;
            }
        };
        let progress = |done: u32, total: u32| {
            let mut state = inner.state.lock().unwrap();
            if let Some(job) = state.jobs.get_mut(&id) {
                job.done = done;
                job.total = total;
            }
        };
        let timer = Timer::start();
        let outcome = inner.engine.run_with(&spec, &progress);
        let elapsed_ms = timer.elapsed_ms();
        metrics.campaign_ms.observe(elapsed_ms);
        let mut state = inner.state.lock().unwrap();
        if let Some(job) = state.jobs.get_mut(&id) {
            job.duration_ms = Some(elapsed_ms);
            match outcome {
                Ok(result) => {
                    gd_obs::info!(
                        "gd_campaign::service",
                        "campaign done",
                        id = id,
                        elapsed_ms = elapsed_ms,
                    );
                    job.state = JobState::Done;
                    job.result = Some(Arc::new(result));
                }
                Err(e) => {
                    gd_obs::warn!(
                        "gd_campaign::service",
                        "campaign failed",
                        id = id,
                        elapsed_ms = elapsed_ms,
                        error = e,
                    );
                    job.state = JobState::Failed(e.to_string());
                }
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Inner) {
    let metrics = service_metrics();
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // A persistent accept error (EMFILE, ENFILE, …) must degrade to
        // a paced retry loop, not a 100 % CPU spin.
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                metrics.accept_errors.inc();
                gd_obs::warn!("gd_campaign::service", "accept failed; backing off", error = e);
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        // A stalled reader must not wedge response writes either.
        let _ = stream.set_write_timeout(Some(inner.read_deadline));
        match read_request_deadline(&mut stream, inner.read_deadline) {
            Ok(request) => {
                let (status, content_type, body) = route(inner, &request);
                record_request(route_label(&request.path), status);
                gd_obs::debug!(
                    "gd_campaign::service",
                    "request",
                    method = request.method,
                    path = request.path,
                    status = status,
                );
                // A queue-full rejection tells the client *when* to come
                // back.
                let extra: &[(&str, &str)] =
                    if status == 429 { &[("Retry-After", RETRY_AFTER_SECS)] } else { &[] };
                let _ = write_response_with(&mut stream, status, &content_type, extra, &body);
            }
            Err(e) => {
                let status = match &e {
                    RequestError::Timeout(_) => {
                        metrics.read_timeouts.inc();
                        408
                    }
                    RequestError::Malformed(_) => 400,
                };
                record_request("unparsed", status);
                gd_obs::debug!(
                    "gd_campaign::service",
                    "request rejected",
                    status = status,
                    error = e.message(),
                );
                let body = error_json(e.message());
                let _ = write_response(&mut stream, status, "application/json", &body);
            }
        }
    }
}

fn error_json(message: &str) -> Vec<u8> {
    Json::obj(vec![("error", Json::Str(message.into()))])
        .to_string_compact()
        .expect("error body serializes")
        .into_bytes()
}

fn json_body(v: &Json) -> Vec<u8> {
    v.to_string_compact().expect("response body serializes").into_bytes()
}

type Response = (u16, String, Vec<u8>);

fn route(inner: &Inner, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["campaigns"]) => submit(inner, request),
        ("GET", ["campaigns", id]) => with_job(inner, id, status_response),
        ("GET", ["campaigns", id, "results"]) => {
            let as_text = request.query.split('&').any(|kv| kv == "format=text");
            with_job(inner, id, |job| results_response(job, as_text))
        }
        ("GET", ["metrics"]) => (
            200,
            gd_obs::prom::CONTENT_TYPE.into(),
            gd_obs::global().render_prometheus().into_bytes(),
        ),
        ("POST", ["shutdown"]) => {
            inner.shutdown.store(true, Ordering::Relaxed);
            inner.wake.notify_all();
            ok_json(&Json::obj(vec![("ok", Json::Bool(true))]))
        }
        (_, ["campaigns", ..]) | (_, ["shutdown"]) | (_, ["metrics"]) => {
            (405, "application/json".into(), error_json("method not allowed"))
        }
        _ => (404, "application/json".into(), error_json("no such route")),
    }
}

fn ok_json(v: &Json) -> Response {
    (200, "application/json".into(), json_body(v))
}

fn submit(inner: &Inner, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return (400, "application/json".into(), error_json("body is not UTF-8")),
    };
    let spec = match CampaignSpec::from_json_text(text) {
        Ok(s) => s,
        Err(e) => return (400, "application/json".into(), error_json(&e)),
    };
    // Size the progress denominator up front so `queued` status already
    // reports the shard total.
    let full = shard_plan(&spec).len() as u32;
    let total = match spec.shards {
        Some((lo, hi)) if hi <= full => hi - lo,
        Some((_, hi)) => {
            let e = format!("shard range end {hi} exceeds the plan's {full} shards");
            return (400, "application/json".into(), error_json(&e));
        }
        None => full,
    };
    // A spec without a key fails in the worker, as it always has.
    let key = spec.cache_key().ok();
    let mut state = inner.state.lock().unwrap();
    // A finished job with the same content address already holds the
    // result: share it instead of queueing behind the running campaign.
    let finished = key.and_then(|key| {
        state.jobs.values().find_map(|job| {
            job.result.as_ref().filter(|result| result.cache_key == key).map(Arc::clone)
        })
    });
    if finished.is_none() && state.queue.len() >= inner.queue_limit {
        service_metrics().rejected.inc();
        return (429, "application/json".into(), error_json("queue full, retry later"));
    }
    let id = state.next_id;
    state.next_id += 1;
    let job = match finished {
        Some(result) => {
            record_cache_hit();
            service_metrics().campaign_ms.observe(0);
            JobRecord {
                spec,
                state: JobState::Done,
                done: total,
                total,
                result: Some(result),
                started: None,
                duration_ms: Some(0),
            }
        }
        None => {
            state.queue.push_back(id);
            service_metrics().queue_depth.set(state.queue.len() as i64);
            inner.wake.notify_all();
            JobRecord {
                spec,
                state: JobState::Queued,
                done: 0,
                total,
                result: None,
                started: None,
                duration_ms: None,
            }
        }
    };
    state.jobs.insert(id, job);
    (
        202,
        "application/json".into(),
        json_body(&Json::obj(vec![
            ("id", Json::Int(id.into())),
            ("url", Json::Str(format!("/campaigns/{id}"))),
        ])),
    )
}

fn with_job(inner: &Inner, id: &str, f: impl Fn(&JobRecord) -> Response) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return (404, "application/json".into(), error_json("campaign ids are integers"));
    };
    let state = inner.state.lock().unwrap();
    match state.jobs.get(&id) {
        Some(job) => f(job),
        None => (404, "application/json".into(), error_json("no such campaign")),
    }
}

/// Wall time the job has consumed: still ticking while running, frozen
/// at completion, zero while queued.
fn job_elapsed_ms(job: &JobRecord) -> u64 {
    match (&job.state, job.started, job.duration_ms) {
        (JobState::Queued, ..) => 0,
        (JobState::Running, Some(started), _) => {
            u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)
        }
        (_, _, Some(frozen)) => frozen,
        _ => 0,
    }
}

fn status_response(job: &JobRecord) -> Response {
    let (label, error) = match &job.state {
        JobState::Queued => ("queued", None),
        JobState::Running => ("running", None),
        JobState::Done => ("done", None),
        JobState::Failed(e) => ("failed", Some(e.clone())),
    };
    let mut fields = vec![
        ("state", Json::Str(label.into())),
        ("done", Json::Int(job.done.into())),
        ("total", Json::Int(job.total.into())),
        ("elapsed_ms", Json::Int(i64::try_from(job_elapsed_ms(job)).unwrap_or(i64::MAX).into())),
        ("workload", Json::Str(job.spec.workload.kind().into())),
    ];
    if let Some(e) = error {
        fields.push(("error", Json::Str(e)));
    }
    ok_json(&Json::obj(fields))
}

fn results_response(job: &JobRecord, as_text: bool) -> Response {
    match (&job.state, &job.result) {
        (JobState::Done, Some(result)) => {
            if as_text {
                (200, "text/plain; charset=utf-8".into(), result.text.clone().into_bytes())
            } else {
                ok_json(&result.to_json())
            }
        }
        // A failed campaign is a *known* id with a definite outcome —
        // 409 with the failure, never the 404 reserved for unknown ids.
        (JobState::Failed(e), _) => {
            (409, "application/json".into(), error_json(&format!("campaign failed: {e}")))
        }
        _ => (404, "application/json".into(), error_json("campaign not finished")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::request;

    /// Control-plane behavior that needs no campaign work: routing,
    /// validation, metrics exposition, and shutdown. (Full campaigns
    /// over HTTP live in the `e2e_http` integration test; failure paths
    /// in `service_failures`.)
    #[test]
    fn control_plane_routes_validate_and_shut_down() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.addr().to_string();

        let (status, body) = request(&addr, "GET", "/campaigns/0", None).unwrap();
        assert_eq!(status, 404, "{body}");
        let (status, _) = request(&addr, "GET", "/campaigns/not-a-number", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = request(&addr, "DELETE", "/campaigns/1", None).unwrap();
        assert_eq!(status, 405);
        let (status, _) = request(&addr, "DELETE", "/metrics", None).unwrap();
        assert_eq!(status, 405);

        let (status, body) = request(&addr, "POST", "/campaigns", Some("{not json")).unwrap();
        assert_eq!(status, 400, "{body}");
        let bad_spec = r#"{"version":1,"workload":{"kind":"table9"}}"#;
        let (status, body) = request(&addr, "POST", "/campaigns", Some(bad_spec)).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("table9"), "{body}");
        let bad_range =
            r#"{"version":1,"workload":{"kind":"table1"},"shards":[0,999]}"#.to_string();
        let (status, body) = request(&addr, "POST", "/campaigns", Some(&bad_range)).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("exceeds"), "{body}");

        // The metrics route serves the Prometheus text format, and the
        // traffic above is already visible in it, labeled by pattern.
        let (status, text) = request(&addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(text.contains("# TYPE gd_http_requests_total counter"), "{text}");
        assert!(
            text.contains(r#"gd_http_requests_total{route="/campaigns/{id}",status="404"}"#),
            "ids are collapsed to a pattern label: {text}"
        );
        assert!(text.contains("# TYPE gd_campaign_queue_depth gauge"), "{text}");

        server.shutdown().unwrap();
    }

    #[test]
    fn route_labels_have_bounded_cardinality() {
        assert_eq!(route_label("/campaigns"), "/campaigns");
        assert_eq!(route_label("/campaigns/17"), "/campaigns/{id}");
        assert_eq!(route_label("/campaigns/xyz/results"), "/campaigns/{id}/results");
        assert_eq!(route_label("/metrics"), "/metrics");
        assert_eq!(route_label("/shutdown"), "/shutdown");
        assert_eq!(route_label("/a/b/c/d"), "other");
        assert_eq!(route_label("/"), "other");
    }
}
