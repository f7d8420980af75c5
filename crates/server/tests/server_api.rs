//! End-to-end API tests: a real `GapServer` behind a real TCP listener,
//! exercised through the std-only HTTP client.

use metaopt_campaign::{FaultyDisk, IoFaultKind, IoFaultPlan, IoFaultSite};
use metaopt_server::client::{request, Response};
use metaopt_server::json::Json;
use metaopt_server::{serve, GapServer, ServerConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metaopt-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Harness {
    addr: String,
    serve_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Harness {
    fn start(cfg: ServerConfig) -> Harness {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = GapServer::open(cfg).unwrap();
        let workers = server.start_workers();
        let serve_server = Arc::clone(&server);
        let serve_thread =
            std::thread::spawn(move || serve(&serve_server, listener).unwrap());
        drop(server);
        Harness {
            addr,
            serve_thread: Some(serve_thread),
            workers,
        }
    }

    fn call(&self, method: &str, path: &str, body: Option<&[u8]>) -> Response {
        request(&self.addr, method, path, body, Duration::from_secs(120)).unwrap()
    }

    fn job(&self, id: u64) -> Json {
        let resp = self.call("GET", &format!("/jobs/{id}"), None);
        assert_eq!(resp.status, 200, "{}", resp.text());
        Json::parse(&resp.text()).unwrap()
    }

    fn wait_status(&self, id: u64, want: &str, timeout: Duration) -> Json {
        let deadline = Instant::now() + timeout;
        loop {
            let job = self.job(id);
            let status = job.get("status").and_then(Json::as_str).unwrap().to_string();
            if status == want {
                return job;
            }
            assert!(
                Instant::now() < deadline,
                "job {id} stuck at `{status}`, wanted `{want}`"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn shutdown(mut self) {
        let resp = self.call("POST", "/admin/drain", None);
        assert_eq!(resp.status, 202, "{}", resp.text());
        self.serve_thread.take().unwrap().join().unwrap();
        for w in self.workers.drain(..) {
            w.join().unwrap();
        }
    }
}

fn job_body(label: &str, client: &str, lo: f64, hi: f64, resolution: f64) -> Vec<u8> {
    format!(
        concat!(
            "{{\"client\":\"{}\",\"label\":\"{}\",",
            "\"topology\":{{\"kind\":\"fig1\",\"cap\":100.0}},",
            "\"heuristic\":{{\"kind\":\"dp\",\"threshold\":50.0}},",
            "\"sweep\":{{\"lo\":{},\"hi\":{},\"resolution\":{}}},",
            "\"budget\":{{\"probe_cap_nodes\":4000,\"slice_nodes\":64}}}}"
        ),
        client, label, lo, hi, resolution
    )
    .into_bytes()
}

fn cfg(tag: &str) -> ServerConfig {
    ServerConfig {
        name: format!("test-{tag}"),
        dir: tmp_dir(tag),
        workers: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn submit_runs_to_certified_result_and_streams_events() {
    let h = Harness::start(cfg("api-happy"));

    // Durable admission: 202 with the assigned id and a Location header.
    let resp = h.call("POST", "/jobs", Some(&job_body("happy", "alice", 40.0, 60.0, 10.0)));
    assert_eq!(resp.status, 202, "{}", resp.text());
    assert_eq!(resp.header("location"), Some("/jobs/1"));
    let ack = Json::parse(&resp.text()).unwrap();
    assert_eq!(ack.get("id").and_then(Json::as_u64), Some(1));
    assert!(ack.get("model_vars").and_then(Json::as_u64).unwrap() > 0);

    // The job runs to a certified result.
    let done = h.wait_status(1, "done", Duration::from_secs(120));
    let result = done.get("result").unwrap();
    let gap = result.get("verified_gap").and_then(Json::as_f64).unwrap();
    assert!(gap > 0.0, "fig1/dp-50 must certify a positive gap, got {gap}");
    let wire = result.get("outcome_wire").and_then(Json::as_str).unwrap();
    assert!(!wire.is_empty());

    // The listing shows it.
    let list = Json::parse(&h.call("GET", "/jobs", None).text()).unwrap();
    assert_eq!(list.as_array().unwrap().len(), 1);

    // The event stream replays the whole lifecycle and terminates.
    let events = h.call("GET", "/jobs/1/events", None);
    assert_eq!(events.status, 200);
    assert_eq!(events.header("transfer-encoding"), Some("chunked"));
    let lines: Vec<Json> = events
        .text()
        .lines()
        .map(|l| Json::parse(l).expect("every event line is valid JSON"))
        .collect();
    let kinds: Vec<String> = lines
        .iter()
        .map(|l| l.get("event").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(kinds.first().map(String::as_str), Some("admitted"));
    assert!(kinds.iter().any(|k| k == "run"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "checkpoint"), "{kinds:?}");
    assert_eq!(kinds.last().map(String::as_str), Some("done"));

    // Health endpoint reports the tally.
    let health = Json::parse(&h.call("GET", "/healthz", None).text()).unwrap();
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("done").and_then(Json::as_u64), Some(1));

    h.shutdown();
}

#[test]
fn malformed_and_unknown_requests_map_to_client_errors() {
    let h = Harness::start(cfg("api-errors"));

    let resp = h.call("POST", "/jobs", Some(b"{not json"));
    assert_eq!(resp.status, 422, "{}", resp.text());
    let err = Json::parse(&resp.text()).unwrap();
    assert_eq!(
        err.get("error").and_then(Json::as_str),
        Some("admission_rejected")
    );

    // A shape that parses but fails the modelcheck admission gate.
    let resp = h.call(
        "POST",
        "/jobs",
        Some(&job_body("bad-range", "alice", 60.0, 40.0, 10.0)),
    );
    assert_eq!(resp.status, 422, "{}", resp.text());

    assert_eq!(h.call("GET", "/jobs/999", None).status, 404);
    assert_eq!(h.call("GET", "/jobs/zero", None).status, 400);
    assert_eq!(h.call("DELETE", "/jobs/999", None).status, 404);
    assert_eq!(h.call("GET", "/nope", None).status, 404);
    assert_eq!(h.call("PUT", "/jobs/1", None).status, 405);

    h.shutdown();
}

#[test]
fn cancel_queued_immediately_and_running_at_checkpoint() {
    let mut config = cfg("api-cancel");
    config.workers = 1; // one worker: job 2 must queue behind job 1
    let h = Harness::start(config);

    // Job 1: long enough to still be running when we cancel it (fine
    // resolution, small slices → many checkpoint boundaries).
    let body = concat!(
        "{\"client\":\"alice\",\"label\":\"long\",",
        "\"topology\":{\"kind\":\"fig1\",\"cap\":100.0},",
        "\"heuristic\":{\"kind\":\"dp\",\"threshold\":50.0},",
        "\"sweep\":{\"lo\":0.0,\"hi\":100.0,\"resolution\":0.5},",
        "\"budget\":{\"probe_cap_nodes\":4000,\"slice_nodes\":8}}"
    );
    assert_eq!(h.call("POST", "/jobs", Some(body.as_bytes())).status, 202);
    assert_eq!(
        h.call("POST", "/jobs", Some(&job_body("queued", "alice", 40.0, 60.0, 10.0)))
            .status,
        202
    );

    // Job 2 is queued, not running: cancellation completes immediately.
    let resp = h.call("DELETE", "/jobs/2", None);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body2 = Json::parse(&resp.text()).unwrap();
    assert_eq!(body2.get("status").and_then(Json::as_str), Some("cancelled"));

    // Job 1 drains to its next checkpoint and then cancels.
    let resp = h.call("DELETE", "/jobs/1", None);
    assert_eq!(resp.status, 200, "{}", resp.text());
    h.wait_status(1, "cancelled", Duration::from_secs(120));

    // Cancelling a terminal job conflicts.
    assert_eq!(h.call("DELETE", "/jobs/1", None).status, 409);

    h.shutdown();
}

#[test]
fn drain_preserves_queued_jobs_for_the_next_boot() {
    let mut config = cfg("api-drain-resume");
    config.workers = 1;
    let dir = config.dir.clone();
    let name = config.name.clone();
    let h = Harness::start(config);

    // Enough queued work that drain cannot have finished it all.
    for i in 0..3 {
        let resp = h.call(
            "POST",
            "/jobs",
            Some(&job_body(&format!("j{i}"), "alice", 40.0, 60.0, 10.0)),
        );
        assert_eq!(resp.status, 202, "{}", resp.text());
    }
    h.shutdown();

    // Second boot on the same directory: the journal replays, leftover
    // pending jobs re-enter the queue and run to completion.
    let h2 = Harness::start(ServerConfig {
        name,
        dir,
        workers: 1,
        ..ServerConfig::default()
    });
    for id in 1..=3u64 {
        let job = h2.wait_status(id, "done", Duration::from_secs(240));
        assert!(job
            .get("result")
            .and_then(|r| r.get("verified_gap"))
            .and_then(Json::as_f64)
            .is_some());
    }
    // Draining refuses new admissions.
    let resp = h2.call("POST", "/admin/drain", None);
    assert_eq!(resp.status, 202);
    // The server may take a moment to finish stopping; admission must
    // refuse either way (503 draining) or the connection fails outright.
    if let Ok(resp) = request(
        &h2.addr,
        "POST",
        "/jobs",
        Some(&job_body("late", "alice", 40.0, 60.0, 10.0)),
        Duration::from_secs(5),
    ) {
        assert_eq!(resp.status, 503, "{}", resp.text());
    }
    if let Some(t) = h2.serve_thread {
        t.join().unwrap();
    }
    for w in h2.workers {
        w.join().unwrap();
    }
}

/// A worker panic mid-job is contained: the attempt is journaled with
/// failure kind `panic`, the job is quarantined immediately (a panic is
/// almost certainly deterministic, so retries would burn attempts), and
/// the server still drains cleanly — the panicking worker must neither
/// wedge `drain` nor leave the job stuck in `running`.
#[test]
fn worker_panic_quarantines_job_and_server_still_drains() {
    use metaopt_resilience::{FaultPlan, FaultSite};
    let plan = FaultPlan::new().inject(FaultSite::EvalPanic);
    let mut config = cfg("api-worker-panic");
    config.fault_plan = Some(plan.clone());
    let h = Harness::start(config);

    let resp = h.call("POST", "/jobs", Some(&job_body("boom", "mallory", 40.0, 60.0, 10.0)));
    assert_eq!(resp.status, 202, "{}", resp.text());

    let job = h.wait_status(1, "quarantined", Duration::from_secs(60));
    assert_eq!(job.get("running").and_then(Json::as_bool), Some(false));
    let failures = job.get("failures").unwrap().as_array().unwrap();
    assert!(
        failures
            .iter()
            .any(|f| f.get("kind").and_then(Json::as_str) == Some("panic")),
        "quarantine must record the contained panic: {job:?}"
    );
    assert_eq!(plan.fired(FaultSite::EvalPanic), 1);

    // The pool survived the panic: a drain completes and joins all workers.
    h.shutdown();
}

#[test]
fn journal_failure_on_submit_degrades_the_server_to_read_only() {
    // Append 1 is the journal header, append 2 the first `job` record.
    let plan = IoFaultPlan::new().inject_at(IoFaultSite::Append, 2, IoFaultKind::Enospc);
    let h = Harness::start(ServerConfig {
        disk: Some(Arc::new(FaultyDisk::new(plan))),
        ..cfg("api-journal-failure")
    });

    let resp = h.call("POST", "/jobs", Some(&job_body("lost", "alice", 40.0, 60.0, 10.0)));
    assert_eq!(resp.status, 500, "{}", resp.text());
    let err = Json::parse(&resp.text()).unwrap();
    assert_eq!(err.get("error").and_then(Json::as_str), Some("journal_failure"));

    // Degraded, not stopped: reads keep working, admissions do not.
    let health = Json::parse(&h.call("GET", "/healthz", None).text()).unwrap();
    assert!(health.get("degraded").and_then(Json::as_str).is_some(), "{health:?}");
    assert_eq!(health.get("stopped"), Some(&Json::Bool(false)), "{health:?}");
    let again = h.call("POST", "/jobs", Some(&job_body("next", "alice", 40.0, 60.0, 10.0)));
    assert_eq!(again.status, 503, "{}", again.text());
    let list = h.call("GET", "/jobs", None);
    assert_eq!(list.status, 200, "{}", list.text());

    h.shutdown();
}
